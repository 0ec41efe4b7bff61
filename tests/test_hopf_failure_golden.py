"""The failure outputs of the coproduct and evaluation checks, pinned.

Each case runs one check on fresh algebras with one deliberate defect:

* `rewriting`: the commutator expansion of `test_failure_golden` flips
  the sign of its length-1 terms at level sum 3 (gl(1|1), gl(2|1),
  gl(0|2)); the Hopf axioms and the grouplike law of B(u) run on it.
* `eval`: the one-point evaluation image of every level-2 generator has
  its sign flipped, so the n-point representations built from it are
  wrong too.

The verdict, the info and the first five failures (or the construction
error a check raised) must equal `golden/hopf_failure_outputs.json`,
which `write_golden` wrote before the coproduct became a morphism table
and the evaluation representations shared one word evaluator.
Regenerate it only from a tree whose outputs are trusted:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_hopf_failure_golden as t; t.write_golden()"
"""

import json
from pathlib import Path

import pytest

from superyangian import tensors
from superyangian.algebra import _ALGEBRAS, Algebra
from superyangian.central import CentralSeriesError, grouplike_check, hopf_axioms_check
from superyangian.tensor_checks import (
    eval_embedding_identity_check,
    multi_eval_consistency_check,
    pbw_rank_check,
)
from test_failure_golden import install_broken_rewriting

GOLDEN = Path(__file__).resolve().parent / "golden" / "hopf_failure_outputs.json"

PAIRS = [(1, 1), (2, 1), (0, 2)]

# name -> (defect, check, arguments)
CASES = {}
for m, n in PAIRS:
    CASES[f"hopf-axioms-{m}{n}"] = ("rewriting", hopf_axioms_check, (m, n, 3))
    CASES[f"grouplike-berezinian-{m}{n}"] = (
        "rewriting", grouplike_check, ("berezinian", m, n, 3))
    CASES[f"multi-eval-{m}{n}-two-point"] = (
        "eval", multi_eval_consistency_check, (m, n, (0, 1), 3))
    CASES[f"multi-eval-{m}{n}-three-point"] = (
        "eval", multi_eval_consistency_check, (m, n, (0, 1, 5), 3))
    CASES[f"eval-embedding-{m}{n}"] = ("eval", eval_embedding_identity_check, (m, n))
    CASES[f"pbw-rank-{m}{n}"] = ("eval", pbw_rank_check, (m, n, 2))

_eval_rep_gen = tensors.eval_rep_gen


def broken_eval_rep_gen(alg, g, z):
    img = _eval_rep_gen(alg, g, z)
    return -img if g.r == 2 else img


def install_broken_eval(monkeypatch) -> None:
    """Fresh algebras, so no cached image survives, and a
    one-point image with the wrong sign at level 2 however it is
    reached."""
    for m, n in PAIRS:
        monkeypatch.setitem(_ALGEBRAS, (m, n), Algebra(m, n))
    monkeypatch.setattr(tensors, "eval_rep_gen", broken_eval_rep_gen)


def case_output(name: str, monkeypatch) -> dict:
    defect, check, args = CASES[name]
    if defect == "rewriting":
        install_broken_rewriting(monkeypatch)
    else:
        install_broken_eval(monkeypatch)
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
