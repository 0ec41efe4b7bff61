"""Workloads of the benchmark and the expected verdict of every suite
instance in them.

A workload is a list of suite instances, passed to
`superyangian.suites.run_all` as its config.  Why each one exists:

* ``batch-default``: the built-in `run-all` matrix (69 reports over six
  (M|N) pairs), what a `superyangian run-all` user pays.  Its work is
  spread over every layer, so a gain in one layer is diluted and a
  regression in any layer shows.  It ignores the seed.
* ``abstract-deep``: the slow abstract checks at gl(2|1) and gl(1|2):
  normal ordering, series, T(u)^-1 and the morphism tables.  Tensor
  operators do no work here.  Pass 2 hits the normal-form cache, so the
  cold/warm gap separates filling that cache from rebuilding tables.
* ``tensor-oracle``: the R-matrix and evaluation-representation oracle,
  dominated by sparse operator arithmetic that barely caches.  It is the
  control: a change to the abstract algebra or the morphisms should not
  move it.

The seed only draws inputs the verdict does not depend on: the
schedule seed of pbw-confluence and the pairwise-distinct evaluation
points of eval-rep and pbw-rank.
"""

from __future__ import annotations

import random

WORKLOADS = ("batch-default", "abstract-deep", "tensor-oracle")

DEFAULT_PAIRS = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)]


def _batch_default() -> list[dict]:
    """The matrix of `superyangian.suites.default_config()` at the
    commit that defined this benchmark, frozen here so that the
    workload does not change when the program's default does."""
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
            suites.append({"name": "grouplike", "params": {"m": m, "n": n, "order": 3}})
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
    return suites


def _abstract_deep(rng: random.Random) -> list[dict]:
    return [
        {"name": "morphism-suite", "params": {"m": 2, "n": 1, "bound": 4, "r_max": 4}},
        {"name": "z-central", "params": {"m": 2, "n": 1, "order": 6}},
        {"name": "antipode-square", "params": {"m": 1, "n": 2, "order": 5}},
        {"name": "defining-relations", "params": {"m": 2, "n": 1, "bound": 5}},
        {"name": "pbw-confluence",
         "params": {"m": 2, "n": 1, "schedules": 3000, "filt_max": 8,
                    "seed": rng.randrange(1, 10**6)}},
    ]


def _tensor_oracle(rng: random.Random) -> list[dict]:
    def points():
        return rng.sample(range(-9, 10), 3)

    return [
        {"name": "yang-baxter", "params": {"m": 2, "n": 2}},
        {"name": "yang-baxter", "params": {"m": 3, "n": 1}},
        {"name": "yang-baxter", "params": {"m": 1, "n": 3}},
        {"name": "q-identities", "params": {"m": 2, "n": 1}},
        {"name": "q-identities", "params": {"m": 1, "n": 2}},
        {"name": "eval-rep", "params": {"m": 2, "n": 1, "r_max": 3, "points": points()}},
        {"name": "eval-rep", "params": {"m": 1, "n": 2, "r_max": 3, "points": points()}},
        {"name": "pbw-rank", "params": {"m": 1, "n": 1, "filt_max": 3, "points": points()}},
        {"name": "pbw-rank", "params": {"m": 1, "n": 1, "filt_max": 4, "points": points()}},
        {"name": "fusion-commutation", "params": {"m": 1, "n": 1}},
    ]


def suite_list(workload: str, seed: int) -> list[dict]:
    """The suite instances of a workload; the same seed gives the same list."""
    rng = random.Random(seed)
    if workload == "batch-default":
        return _batch_default()
    if workload == "abstract-deep":
        return _abstract_deep(rng)
    if workload == "tensor-oracle":
        return _tensor_oracle(rng)
    raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")


# ---------------------------------------------------------------------------
# expected verdicts
# ---------------------------------------------------------------------------

# Every instance passes except the two documented known reds: eta_M and
# the antipode do not commute (morphism-suite, claim eta/S), and a fixed
# number of evaluation points cannot separate bounded-level PBW
# monomials (pbw-rank).  A morphism-suite red lists its first five
# counterexample locations; the residual at generator [1,1,2] is
# checked exactly.
def _eta_s(*generators):
    return [{"claim": "eta/S", "generator": list(g)} for g in generators]


ETA_S_LOCATIONS = {
    # (m, n, r_max): reported locations, in order
    (1, 1, 3): _eta_s((1, 1, 2), (1, 1, 3), (1, 2, 3), (2, 1, 3), (2, 2, 2)),
    (1, 2, 3): _eta_s((1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3), (1, 3, 2)),
    (2, 1, 3): _eta_s((1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3), (1, 3, 2)),
    (2, 1, 4): _eta_s((1, 1, 2), (1, 1, 3), (1, 1, 4), (1, 2, 2), (1, 2, 3)),
}

# eta(S(T[1,1,2])) - S(eta(T[1,1,2])) per (m, n)
ETA_S_RESIDUAL_112 = {
    (1, 1): "1*T[1,1,1] - 1*T[2,2,1]",
    (1, 2): "2*T[1,1,1] - 1*T[2,2,1] - 1*T[3,3,1]",
    (2, 1): "1*T[2,2,1] - 1*T[3,3,1]",
}

RANK_DEFICIT = [{"reason": "rank deficit"}]


def verdict_problem(entry: dict, report: dict) -> str | None:
    """Why `report` is not the expected verdict for config `entry`, or
    None when it is.  `report` is `Report.to_dict()` of that instance."""
    name, params = entry["name"], entry["params"]
    status = report["status"]
    cexs = report["counterexamples"]
    locations = [c["location"] for c in cexs]
    if name == "morphism-suite":
        key = (params["m"], params["n"], params["r_max"])
        want = ETA_S_LOCATIONS.get(key)
        if want is None:
            return _expect_pass(status, report)
        if status != "fail":
            return f"status {status}, expected the known eta/S red"
        if locations != want:
            return f"counterexample locations {locations}, expected {want}"
        residual = cexs[0]["residual"]
        if residual != ETA_S_RESIDUAL_112[key[:2]]:
            return f"eta/S residual at [1,1,2] is {residual!r}"
        return None
    if name == "pbw-rank":
        if status != "fail":
            return f"status {status}, expected the known rank-deficit red"
        if locations != RANK_DEFICIT:
            return f"counterexample locations {locations}, expected {RANK_DEFICIT}"
        return None
    return _expect_pass(status, report)


def _expect_pass(status: str, report: dict) -> str | None:
    if status == "pass" and not report["counterexamples"]:
        return None
    detail = report.get("skip_reason") or [c["location"] for c in report["counterexamples"]]
    return f"status {status}, expected pass ({detail})"
