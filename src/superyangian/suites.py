"""Named verification suites, reports, and the batch runner.

Every suite is keyed to exactly one identity (recorded as its `anchor`
string in the report), takes a flat parameter dictionary, and produces a
deterministic Report.  A suite is a list of named claims, each a check
called on some of the parameters, and its parameters are exactly those
its claims read.  Its input domain is data on its `SuiteDef`: the
least and greatest value of each int parameter and the greatest M + N.
A parameter the suite does not take, of the wrong type or out of range,
M + N over the suite's `max_dim` included, makes `run_suite` raise
ValueError naming it; `run_all` checks every entry before it runs any.
A coherence failure of the central series (`CentralSeriesError`) is a
`fail` whose counterexample is the construction stage, and any other
exception inside a claim, an internal error, an `error` report whose
`skip_reason` holds the exception's type and message; neither is a
pass.
Genuine counterexamples are serialised in the element or operator
grammar so they can be re-parsed and re-evaluated.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from functools import partial

from .algebra import algebra
from .central import (
    CentralSeriesError,
    antipode_square_check,
    az_relation_check,
    berezinian,
    berezinian_theorem_check,
    closure_check,
    eta_antipode_twist_check,
    grouplike_check,
    hopf_axioms_check,
    l3_commutation_check,
    morphism_commutation_check,
    morphism_relation_check,
    p21_symbol_check,
    quantum_determinant_c,
    z_centrality_check,
    z_coherence_check,
    z_series,
    z_symbol_check,
)
from .checkresult import failure
from .grammar import element_to_text, parse_element, series_to_text
from .mixed import fusion_commutation_check
from .morphisms import build_morphism
from .series import rational_from_text
from .tensor_checks import (
    eval_embedding_identity_check,
    eval_relations_check,
    multi_eval_consistency_check,
    p_q_basics_check,
    pbw_confluence_check,
    pbw_rank_check,
    q_identity_check,
    rep_rtt_check,
    symmetrizer_agreement_check,
    unitarity_check,
    yang_baxter_check,
)

MAX_REPORTED_FAILURES = 5


@dataclass
class SuiteSpec:
    name: str
    params: dict = field(default_factory=dict)


@dataclass
class Report:
    suite: str
    params: dict
    status: str  # pass | fail | error (an exception inside a claim)
    anchor: str
    verified: dict = field(default_factory=dict)
    counterexamples: list = field(default_factory=list)
    skip_reason: str | None = None
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SuiteDef:
    name: str
    anchor: str
    defaults: dict
    # (name, check, arguments) in the order they run; an argument is the
    # name of a parameter (a string) or a fixed value
    claims: tuple
    minimum: dict = field(default_factory=dict)  # key -> its least valid value
    maximum: dict = field(default_factory=dict)  # key -> its greatest valid value
    max_dim: int | None = None  # the greatest valid M + N


SUITES: dict[str, SuiteDef] = {}


def _register(name, anchor, defaults, claims, minimum=None, maximum=None, max_dim=None):
    SUITES[name] = SuiteDef(name, anchor, defaults, claims,
                            {"m": 0, "n": 0, **(minimum or {})}, maximum or {}, max_dim)


# The least values, read off the checks' loops.  M and N are at least 0
# (N at least 1 for `az-relation`, where M = 0; both at least 1 for `l3`
# and `q-identities`), and not both 0, which `parameter_error` checks
# after the minima.  Every series identity compares coefficients
# 0..order, and coefficient 0 is 1 = 1, so `order` is at least 1.  Z^(r)
# is checked for r = 2..r_max against generators of level 1..s_max; the
# commutators of `p28-symbol` and `l3` have levels r, s >= 1 with
# r + s <= bound (`r_max` for `p28-symbol`), so that bound is at least
# 2; the Hopf axioms are checked on levels 1..r_max.  The greatest M + N
# of each suite (`max_dim`) bounds its run time and memory.


_register(
    "defining-relations",
    "(u-v)[T_ij(u),T_kl(v)]*(-1)^(ib*kb+ib*lb+kb*lb) = T_kj(u)T_il(v) - T_kj(v)T_il(u)",
    {"m": 1, "n": 1, "bound": 6},
    (("closure", closure_check, ("m", "n", "bound")),),
    minimum={"bound": 1},
    max_dim=4,
)
_register(
    "yang-baxter",
    "R12(u-v)R13(u-w)R23(v-w) = R23(v-w)R13(u-w)R12(u-v); R(-u)R(u) = 1 - u^-2",
    {"m": 1, "n": 1},
    (("yang-baxter", yang_baxter_check, ("m", "n")),
     ("unitarity", unitarity_check, ("m", "n"))),
    max_dim=4,
)
_register(
    "z-central",
    "sum_k T_kj(u+M-N)Ttilde_ik(u) = delta_ij Z(u) = sum_k Ttilde_kj(u)T_ik(u+M-N); [Z^(r), T_ij^(s)] = 0",
    {"m": 1, "n": 1, "order": 6, "r_max": 5, "s_max": 4},
    (("coherence", z_coherence_check, ("m", "n", "order")),
     ("centrality", z_centrality_check, ("m", "n", "r_max", "s_max"))),
    minimum={"order": 1, "r_max": 2, "s_max": 1},
    max_dim=3,
)
_register(
    "berezinian-theorem",
    "B(u+1) = Z(u) B(u)",
    {"m": 1, "n": 1, "order": 4},
    (("theorem", berezinian_theorem_check, ("m", "n", "order")),),
    minimum={"order": 1},
    max_dim=4,
)
_register(
    "az-relation",
    "Z(u) C(u+1) = C(u) for M = 0, and C(u) -> D(1-u) under the parity flip",
    {"n": 2, "order": 4},
    (("az", az_relation_check, ("n", "order")),),
    minimum={"n": 1, "order": 1},
    maximum={"n": 3},
)
_register(
    "antipode-square",
    "Z(u) S^2(T_ij(u)) = T_ij(u+M-N)",
    {"m": 1, "n": 1, "order": 5},
    (("antipode-square", antipode_square_check, ("m", "n", "order")),),
    minimum={"order": 1},
    max_dim=3,
)
_register(
    "hopf-axioms",
    "(eps x id)Delta = id = (id x eps)Delta; (Delta x id)Delta = (id x Delta)Delta; mu(S x id)Delta = delta.eps",
    {"m": 1, "n": 1, "r_max": 4},
    (("axioms", hopf_axioms_check, ("m", "n", "r_max")),),
    minimum={"r_max": 1},
    max_dim=3,
)
_register(
    "grouplike",
    "Delta(Z) = Z x Z, Delta(B) = B x B, eps = 1; S(Z) = Z^-1, omega(Z) = Z^-1, transpose(Z) = Z",
    {"m": 1, "n": 1, "order": 4},
    (("z", partial(grouplike_check, "z"), ("m", "n", "order")),
     ("berezinian", partial(grouplike_check, "berezinian"), ("m", "n", "order"))),
    minimum={"order": 1},
    max_dim=3,
)
_register(
    "p28-symbol",
    "Z^(r) has second-filtration degree r-2 with graded image (1-r) sum_i T[i,i,r-1](-1)^ibar",
    {"m": 1, "n": 1, "r_max": 5},
    (("z-symbol", z_symbol_check, ("m", "n", "r_max")),
     ("bracket-symbol", p21_symbol_check, ("m", "n", "r_max"))),
    minimum={"r_max": 2},
    max_dim=3,
)
_register(
    "morphism-suite",
    "eta_M, antipode_S, transpose_T anti-preserve the defining relations and pairwise commute; omega = S o transpose",
    {"m": 1, "n": 1, "bound": 5, "r_max": 4},
    (("relations", morphism_relation_check, ("m", "n", "bound")),
     ("commutation", morphism_commutation_check, ("m", "n", "r_max"))),
    minimum={"bound": 0, "r_max": 1},
    max_dim=3,
)
_register(
    "eta-twist",
    "eta_M(Ttilde_ij(u)) = Z(-u-M+N)^-1 Ttilde_ij(-u-M+N)",
    {"m": 1, "n": 1, "order": 4},
    (("twist", eta_antipode_twist_check, ("m", "n", "order")),),
    minimum={"order": 1},
    max_dim=3,
)
_register(
    "l3",
    "[T_ij(u), Ttilde_kl(v)] = 0 for i,j <= M < k,l; the two Berezinian factors commute",
    {"m": 1, "n": 1, "bound": 6, "order": 4},
    (("commutation", l3_commutation_check, ("m", "n", "bound", "order")),),
    minimum={"m": 1, "n": 1, "bound": 2, "order": 1},
    max_dim=3,
)
_register(
    "q-identities",
    "(IxJ)Q = 0, Q = Q(Ix1+1xJ), Q1L.Q(M+1)L = Q1L.P1(M+1), Q1L.Q1(M+2) = Q1L.P(M+2)L, the QR residue identity, and the two projected product equalities",
    {"m": 1, "n": 1},
    (("basics", p_q_basics_check, ("m", "n")),
     ("battery", q_identity_check, ("m", "n"))),
    minimum={"m": 1, "n": 1},
    max_dim=3,
)
_register(
    "fusion-commutation",
    "(G x 1)T_1(u)...T_n(u-n+1) = T_n(u-n+1)...T_1(u)(G x 1) and the symmetrizer twin; G/H constructions agree",
    {"m": 1, "n": 1, "legs": 2, "order": 3, "n_max": 4},
    (("symmetrizers", symmetrizer_agreement_check, ("m", "n", "n_max")),
     ("series", fusion_commutation_check, ("m", "n", "legs", "order"))),
    minimum={"legs": 2, "n_max": 2, "order": 1},
    maximum={"legs": 3},  # `fusion_commutation_check` builds 2 or 3 legs
    max_dim=3,
)
_register(
    "pbw-confluence",
    "randomized rewriting schedules reach the unique normal form",
    {"m": 1, "n": 1, "schedules": 1000, "filt_max": 6, "seed": 2024},
    # words of 2 to 5 letters
    (("confluence", pbw_confluence_check, ("m", "n", "schedules", "filt_max", 5, "seed")),),
    minimum={"schedules": 1, "filt_max": 2},
    max_dim=3,
)
_register(
    "pbw-rank",
    "normal monomials of bounded level map to independent operators under the multi-point evaluation representation",
    {"m": 1, "n": 1, "filt_max": 3, "points": [0, 1, 5]},
    (("rank", pbw_rank_check, ("m", "n", "filt_max", "points")),),
    minimum={"filt_max": 1},
    max_dim=2,
)
_register(
    "eval-rep",
    "T[i,j,r+1] -> -E_ji z^r (-1)^jbar is a representation; coproduct route = R-product route",
    {"m": 1, "n": 1, "points": [0, 1, -2], "r_max": 3},
    (("relations", eval_relations_check, ("m", "n", "points", "r_max")),
     ("embedding", eval_embedding_identity_check, ("m", "n")),
     ("two-point", multi_eval_consistency_check, ("m", "n", (0, 1), "r_max")),
     ("three-point", multi_eval_consistency_check, ("m", "n", (0, 1, 5), "r_max")),
     ("rtt", rep_rtt_check, ("m", "n", 2))),
    minimum={"r_max": 1},
    max_dim=3,
)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_point(value) -> bool:
    if isinstance(value, str):
        try:
            rational_from_text(value)
        except ValueError:
            return False
        return True
    return _is_int(value)


def parameter_error(spec: SuiteSpec) -> str | None:
    """Why `spec` cannot run, or None: the parameters its suite does not
    take, else the first parameter of the wrong type or out of range,
    else M + N out of range.
    Every parameter is an int (never a bool or a float) but `points`, a
    non-empty list whose items are ints or rational strings (``-7/3``);
    an int is at least the suite's `minimum` for it and at most its
    `maximum`, where it has them; M and N, defaults included, are not
    both 0, and M + N is at most the suite's `max_dim`, where it has one.
    An unknown suite raises KeyError."""
    suite = SUITES.get(spec.name)
    if suite is None:
        raise KeyError(f"unknown suite {spec.name!r} (known: {', '.join(sorted(SUITES))})")
    known = list(suite.defaults)
    unknown = sorted(set(spec.params) - set(known))
    if unknown:
        return (f"ValueError: unknown parameter {', '.join(map(repr, unknown))} "
                f"(known: {', '.join(known)})")
    for key, value in sorted(spec.params.items()):
        if key == "points":
            if not (isinstance(value, (list, tuple)) and all(map(_is_point, value))):
                return (f"TypeError: parameter {key!r} must be a list of ints and rational "
                        f"strings, not {value!r}")
            if not value:
                return f"ValueError: parameter {key!r} must not be empty"
        elif not _is_int(value):
            return f"TypeError: parameter {key!r} must be an int, not {value!r}"
        elif value < suite.minimum.get(key, value):
            low = suite.minimum[key]
            return f"ValueError: parameter {key!r} must be at least {low}, not {value}"
        elif value > suite.maximum.get(key, value):
            high = suite.maximum[key]
            return f"ValueError: parameter {key!r} must be at most {high}, not {value}"
    params = {**suite.defaults, **spec.params}
    dim = params.get("m", 0) + params.get("n", 0)
    if dim < 1:
        return "ValueError: parameters 'm' and 'n' must not both be 0"
    if suite.max_dim is not None and dim > suite.max_dim:
        return f"ValueError: M + N must be at most {suite.max_dim}, not {dim}"
    return None


def _require_valid(spec: SuiteSpec) -> None:
    reason = parameter_error(spec)
    if reason is not None:
        raise ValueError(f"{spec.name}: {reason}")


def run_suite(spec: SuiteSpec) -> Report:
    """Run one suite: its claims in order, each on the parameters it
    names.  The verdict is a pass exactly when no claim reports a
    failure, and the `info` keys of every claim but the first are
    prefixed with its name.  A parameter error raises ValueError; an
    exception inside a claim is an `error` report, and a
    `CentralSeriesError` a `fail` at the construction stage."""
    t0 = time.perf_counter()
    _require_valid(spec)
    suite = SUITES[spec.name]
    params = {**suite.defaults, **spec.params}
    verified, failures = {}, []
    try:
        for k, (name, check, arguments) in enumerate(suite.claims):
            result = check(*(params[a] if isinstance(a, str) else a for a in arguments))
            prefix = f"{name}." if k else ""
            verified.update({prefix + key: value for key, value in result.info.items()})
            failures += result.failures
    except CentralSeriesError as exc:  # the package's own coherence failure
        verified = {}
        failures = [failure({"stage": "construction"}, str(exc), "error")]
    except Exception as exc:  # an internal error, and a nonzero exit
        return Report(spec.name, params, "error", suite.anchor,
                      skip_reason=f"{type(exc).__name__}: {exc}",
                      wall_time_s=round(time.perf_counter() - t0, 3))
    return Report(
        spec.name,
        params,
        "fail" if failures else "pass",
        suite.anchor,
        verified=verified,
        counterexamples=failures[:MAX_REPORTED_FAILURES],
        wall_time_s=round(time.perf_counter() - t0, 3),
    )


# ---------------------------------------------------------------------------
# batch runner
# ---------------------------------------------------------------------------

DEFAULT_PAIRS = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)]


def default_config() -> dict:
    suites = []
    for m, n in DEFAULT_PAIRS:
        suites.append({"name": "defining-relations", "params": {"m": m, "n": n, "bound": 4}})
        suites.append({"name": "yang-baxter", "params": {"m": m, "n": n}})
        if m + n <= 3:
            suites.append({"name": "z-central",
                           "params": {"m": m, "n": n, "order": 4, "r_max": 4, "s_max": 3}})
            suites.append({"name": "berezinian-theorem", "params": {"m": m, "n": n, "order": 4}})
            suites.append({"name": "antipode-square", "params": {"m": m, "n": n, "order": 4}})
            suites.append({"name": "hopf-axioms", "params": {"m": m, "n": n, "r_max": 3}})
            suites.append({"name": "grouplike", "params": {"m": m, "n": n}})
            suites.append({"name": "p28-symbol", "params": {"m": m, "n": n, "r_max": 4}})
            suites.append({"name": "morphism-suite",
                           "params": {"m": m, "n": n, "bound": 3, "r_max": 3}})
            suites.append({"name": "eval-rep", "params": {"m": m, "n": n, "r_max": 2}})
            suites.append({"name": "pbw-confluence",
                           "params": {"m": m, "n": n, "schedules": 200, "filt_max": 5}})
        if m >= 1 and n >= 1 and m + n <= 3:
            suites.append({"name": "l3", "params": {"m": m, "n": n, "bound": 4}})
            suites.append({"name": "q-identities", "params": {"m": m, "n": n}})
        if m + n <= 2:
            suites.append({"name": "fusion-commutation",
                           "params": {"m": m, "n": n, "order": 3}})
        if (m, n) == (1, 1):
            suites.append({"name": "pbw-rank", "params": {"m": m, "n": n, "filt_max": 2}})
    suites.append({"name": "az-relation", "params": {"n": 1, "order": 4}})
    suites.append({"name": "az-relation", "params": {"n": 2, "order": 4}})
    return {"suites": suites, "output": "reports.json"}


def _spec_sort_key(entry: dict):
    return (entry["name"], json.dumps(entry.get("params", {}), sort_keys=True))


def _unknown_keys(where: str, given: dict, known: tuple) -> None:
    """Raise ValueError naming `where` and each key of `given` not in `known`."""
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ValueError(f"{where}: unknown key {', '.join(map(repr, unknown))} "
                         f"(known: {', '.join(known)})")


def _config_entries(config) -> list:
    """The suite entries of a run-all config, once its shape is checked:
    an object with no keys but `suites`, a non-empty list of objects,
    each with a string `name`, where given object `params`, and no other
    key; `output`, where given, a non-empty string; and `parallelism`,
    where given, 1, as the runner is sequential.  A violation raises
    ValueError naming the entry."""
    if not isinstance(config, dict):
        raise ValueError(f"config must be an object, not {type(config).__name__}")
    _unknown_keys("config", config, ("suites", "output", "parallelism"))
    entries = config.get("suites", [])
    if not isinstance(entries, list) or not entries:
        raise ValueError("config must list at least one suite")
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"config suites[{k}] must be an object, not {entry!r}")
        if not isinstance(entry.get("name"), str):
            raise ValueError(f"config suites[{k}] needs a string 'name', not {entry.get('name')!r}")
        _unknown_keys(f"config suites[{k}] ({entry['name']})", entry, ("name", "params"))
        if not isinstance(entry.get("params", {}), dict):
            raise ValueError(f"config suites[{k}] ({entry['name']}): 'params' must be an object, "
                             f"not {entry['params']!r}")
    output_path(config)
    parallelism = config.get("parallelism", 1)
    if not (_is_int(parallelism) and parallelism == 1):
        raise ValueError(f"config 'parallelism' must be 1, as the runner is sequential, "
                         f"not {parallelism!r}")
    return entries


def output_path(config: dict) -> str:
    """Where run-all writes the reports of `config`: its `output`, which
    must be a non-empty string, or reports.json."""
    output = config.get("output", "reports.json")
    if not isinstance(output, str) or not output:
        raise ValueError(f"config 'output' must be a non-empty string, not {output!r}")
    return output


def run_all(config: dict, name_filter: str | None = None) -> tuple[list[Report], int]:
    entries = _config_entries(config)
    if name_filter:
        entries = [e for e in entries if name_filter in e["name"]]
        if not entries:
            raise ValueError(f"filter {name_filter!r} matches no configured suites")
    entries = sorted(entries, key=_spec_sort_key)
    specs = [SuiteSpec(e["name"], e.get("params", {})) for e in entries]
    for spec in specs:  # every entry before any runs
        _require_valid(spec)
    reports = [run_suite(spec) for spec in specs]
    exit_code = 0 if all(r.status == "pass" for r in reports) else 1
    return reports, exit_code


def reports_to_json(reports: list[Report]) -> str:
    return json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# compute targets
# ---------------------------------------------------------------------------


# target -> the parameters it reads, each with its default (None where
# it must be given); a parameter the target does not read is rejected
COMPUTE_TARGETS: dict[str, dict] = {
    "z": {"m": 1, "n": 1, "order": 4},
    "berezinian": {"m": 1, "n": 1, "order": 4},
    "qdet": {"m": None, "order": 4},
    "c-series": {"n": None, "order": 4},
    "normal-form": {"m": 1, "n": 1},
    "apply-map": {"m": 1, "n": 1, "map": None},
}
# the targets that read an input element; the others reject one
INPUT_TARGETS = frozenset({"normal-form", "apply-map"})
# the series of each target that reads none
_SERIES = {
    "z": lambda p: z_series(algebra(p["m"], p["n"]), p["order"]),
    "berezinian": lambda p: berezinian(p["m"], p["n"], p["order"]),
    "qdet": lambda p: berezinian(p["m"], 0, p["order"]),
    "c-series": lambda p: quantum_determinant_c(p["n"], p["order"]),
}


def compute(target: str, params: dict, input_text: str | None = None) -> str:
    reads = COMPUTE_TARGETS.get(target)
    if reads is None:
        raise ValueError(f"unknown compute target {target!r}")
    unknown = sorted(set(params) - set(reads))
    if unknown:
        raise ValueError(f"{target}: unknown parameter {', '.join(map(repr, unknown))} "
                         f"(known: {', '.join(reads)})")
    params = {**reads, **params}
    missing = [key for key, value in params.items() if value is None]
    if missing:
        raise ValueError(f"{target} needs {missing[0]!r}")
    if (input_text is not None) != (target in INPUT_TARGETS):
        raise ValueError(f"{target} needs an input element" if input_text is None
                         else f"{target} reads no input element, not {input_text!r}")
    if target not in INPUT_TARGETS:
        return series_to_text(_SERIES[target](params))
    alg = algebra(params["m"], params["n"])
    x = parse_element(alg, input_text)
    if target == "normal-form":
        return element_to_text(x)
    return element_to_text(build_morphism(alg, params["map"]).apply(x))
