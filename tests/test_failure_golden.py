"""The failure outputs of the series, mixed and defining-relation checks,
pinned.

Each case runs one check on fresh algebras with one deliberate defect:

* `rewriting`: the commutator expansion flips the sign of its length-1
  terms at level sum 3, on gl(1|1), gl(2|1), gl(1|0), gl(0|2) and, for
  the target of the az check, gl(2|0).  Z(u) cannot even be built then,
  so the checks that need it report the construction error.
* `z`: Z(u) is built correctly and then T[1,1,2] is added to its u^-3
  coefficient, so every check that reads Z(u) fails past its
  construction.
* `p`: P has the sign of its (12, 21) entry flipped.

The verdict, the info and the first five failures (or the error a check
raised) must equal `golden/failure_outputs.json`, which `write_golden`
wrote before the series machinery was collapsed onto one path per job
(the `closure` and `morphism-relation` cases: before those two checks
were merged onto one relation loop).
Regenerate it only from a tree whose outputs are trusted:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_failure_golden as t; t.write_golden()"
"""

import json
from pathlib import Path

import pytest

from superyangian import tensor_checks, tensors
from superyangian.algebra import _ALGEBRAS, Algebra
from superyangian.central import (
    CentralSeriesError,
    antipode_square_check,
    az_relation_check,
    berezinian_theorem_check,
    closure_check,
    eta_antipode_twist_check,
    grouplike_check,
    l3_commutation_check,
    morphism_relation_check,
    z_series,
)
from superyangian.mixed import fusion_commutation_check
from superyangian.series import SeriesTail
from superyangian.tensors import EndoOperator, perm_p

GOLDEN = Path(__file__).resolve().parent / "golden" / "failure_outputs.json"

PAIRS = [(1, 1), (2, 1), (1, 0), (0, 2)]
REWRITING_PAIRS = PAIRS + [(2, 0)]
ORDER = 4

# name -> (defect, the (M, N) it is installed for, check, arguments)
CASES = {}
for m, n in PAIRS:
    for defect in ("rewriting", "z"):
        for label, check in (("antipode-square", antipode_square_check),
                             ("berezinian-theorem", berezinian_theorem_check),
                             ("eta-antipode-twist", eta_antipode_twist_check)):
            CASES[f"{label}-{m}{n}-{defect}"] = (defect, (m, n), check, (m, n, ORDER))
        CASES[f"grouplike-z-{m}{n}-{defect}"] = (
            defect, (m, n), grouplike_check, ("z", m, n, ORDER))
for m, n in [(1, 1), (1, 0), (0, 2)]:
    for legs in (2, 3):
        CASES[f"fusion-{m}{n}-legs{legs}"] = (
            "rewriting", (m, n), fusion_commutation_check, (m, n, legs, 3))
for m, n in [(1, 1), (2, 1)]:
    CASES[f"l3-{m}{n}"] = ("rewriting", (m, n), l3_commutation_check, (m, n, 4, 3))
    CASES[f"unitarity-{m}{n}"] = ("p", (m, n), tensor_checks.unitarity_check, (m, n))
for m, n in [(1, 1), (2, 1), (0, 2)]:
    CASES[f"closure-{m}{n}-rewriting"] = ("rewriting", (m, n), closure_check, (m, n, 3))
    CASES[f"morphism-relation-{m}{n}-rewriting"] = (
        "rewriting", (m, n), morphism_relation_check, (m, n, 2))
for defect in ("rewriting", "z"):
    CASES[f"az-02-{defect}"] = (defect, (0, 2), az_relation_check, (2, ORDER))


def broken_comm_terms(alg: Algebra):
    comm_terms = alg.comm_terms

    def flipped(a, b):
        terms = comm_terms(a, b)
        if a.r + b.r != 3:
            return terms
        return tuple((w, -c if len(w) == 1 else c) for w, c in terms)

    return flipped


def install_broken_rewriting(monkeypatch) -> None:
    """Fresh broken algebras in place of the shared ones: the mutant
    must not poison the shared normal forms."""
    for m, n in REWRITING_PAIRS:
        alg = Algebra(m, n)
        monkeypatch.setattr(alg, "comm_terms", broken_comm_terms(alg))
        monkeypatch.setitem(_ALGEBRAS, (m, n), alg)


def install_broken_z(monkeypatch, m: int, n: int) -> None:
    alg = Algebra(m, n)
    monkeypatch.setitem(_ALGEBRAS, (m, n), alg)
    z = z_series(m, n, ORDER)
    coeffs = list(z.coeffs)
    coeffs[3] = coeffs[3] + alg.gen(1, 1, 2)
    alg.z = SeriesTail(z.ring, z.order, coeffs)
    if (m, n) == (0, 2):
        # the az check also reads B(u) of gl(2|0); break it in the rewriting
        target = Algebra(2, 0)
        monkeypatch.setattr(target, "comm_terms", broken_comm_terms(target))
        monkeypatch.setitem(_ALGEBRAS, (2, 0), target)


def broken_perm_p(alg) -> EndoOperator:
    """P with the sign of its (12, 21) entry flipped."""
    entries = dict(perm_p(alg).entries)
    key = ((1, 2), (2, 1))
    entries[key] = -entries[key]
    return EndoOperator(alg, 2, entries)


def install_broken_p(monkeypatch, m: int, n: int) -> None:
    """A fresh algebra whose P is the broken one: every check reads P
    through `placed`, which builds it from `tensors._ELEMENTARY`."""
    monkeypatch.setitem(_ALGEBRAS, (m, n), Algebra(m, n))
    monkeypatch.setitem(tensors._ELEMENTARY, "P", broken_perm_p)


def case_output(name: str, monkeypatch) -> dict:
    defect, (m, n), check, args = CASES[name]
    if defect == "rewriting":
        install_broken_rewriting(monkeypatch)
    elif defect == "z":
        install_broken_z(monkeypatch, m, n)
    else:
        install_broken_p(monkeypatch, m, n)
    try:
        result = check(*args)
    except CentralSeriesError as exc:  # the construction error is the output
        return {"error": f"{type(exc).__name__}: {exc}"}
    return json.loads(json.dumps(
        {"ok": result.ok, "info": result.info, "failures": result.failures[:5]}
    ))


def collect_outputs() -> dict:
    out = {}
    for name in CASES:
        with pytest.MonkeyPatch.context() as mp:
            out[name] = case_output(name, mp)
    return out


def write_golden() -> None:
    GOLDEN.write_text(json.dumps(collect_outputs(), indent=1) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(CASES))
def test_failure_output_matches_golden(name, golden, monkeypatch):
    # compared as text, so the order of the location keys is pinned too
    assert json.dumps(case_output(name, monkeypatch)) == json.dumps(golden[name])
