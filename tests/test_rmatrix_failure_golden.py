"""The failure outputs of the R-matrix identity checks, pinned.

Each case runs one check on a fresh algebra with one deliberate defect:

* `p`: P has its (12, 21) entry doubled, however it is reached;
* `q`: Q has its (11, 22) entry doubled;
* `i`: the even projector I has its (1, 1) entry doubled.

Every check reads P, Q, I and J through `placed`, which keeps what it
builds on the algebra, so each defect is installed on fresh `Algebra`
objects and in one place: the registry `tensors._ELEMENTARY` that
`placed` builds from.  The verdict, the info and the
full failure list (or the error a check raised) must equal
`golden/rmatrix_failure_outputs.json`, which `write_golden` wrote when
Yang-Baxter, the QR residue and RTT became identities over Z[u, v],
so a failure of one of them is one residual with polynomial entries.
Regenerate it only from a tree whose outputs are trusted:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_rmatrix_failure_golden as t; t.write_golden()"
"""

import json
from pathlib import Path

import pytest

from superyangian import tensors
from superyangian.algebra import _ALGEBRAS, Algebra
from superyangian.series import VARIABLES
from superyangian.tensor_checks import q_identity_check, rep_rtt_check, yang_baxter_check
from superyangian.tensors import (
    EndoOperator,
    dump_operator,
    parse_operator_dump,
    perm_p,
    projectors_ij,
    q_op,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "rmatrix_failure_outputs.json"

# name -> (defect, (M, N), check)
CASES = {}
for m, n in [(1, 1), (2, 1)]:
    CASES[f"yang-baxter-{m}{n}-p"] = ("p", (m, n), yang_baxter_check)
    CASES[f"rep-rtt-{m}{n}-p"] = ("p", (m, n), rep_rtt_check)
for m, n in [(1, 1), (2, 1), (1, 2)]:
    for defect in ("p", "q", "i"):
        CASES[f"q-identity-{m}{n}-{defect}"] = (defect, (m, n), q_identity_check)


def doubled(op: EndoOperator, key) -> EndoOperator:
    entries = dict(op.entries)
    entries[key] = 2 * entries[key]
    return EndoOperator(op.alg, op.legs, entries)


def broken_perm_p(alg) -> EndoOperator:
    return doubled(perm_p(alg), ((1, 2), (2, 1)))


def broken_q_op(alg) -> EndoOperator:
    return doubled(q_op(alg), ((1, 1), (2, 2)))


def broken_projectors_ij(alg) -> tuple[EndoOperator, EndoOperator]:
    i_proj, j_proj = projectors_ij(alg)
    return doubled(i_proj, ((1,), (1,))), j_proj


def install(monkeypatch, defect: str, m: int, n: int) -> None:
    monkeypatch.setitem(_ALGEBRAS, (m, n), Algebra(m, n))
    if defect == "p":
        monkeypatch.setitem(tensors._ELEMENTARY, "P", broken_perm_p)
    elif defect == "q":
        monkeypatch.setitem(tensors._ELEMENTARY, "Q", broken_q_op)
    else:
        monkeypatch.setitem(tensors._ELEMENTARY, "I", lambda alg: broken_projectors_ij(alg)[0])


def test_broken_i_reaches_the_placed_chains(monkeypatch):
    install(monkeypatch, "i", 2, 1)
    chain = tensors.placed(_ALGEBRAS[2, 1], "I", (1, 2), 4)
    assert chain.entries[(1, 1, 1, 1), (1, 1, 1, 1)] == 4


def case_output(name: str, monkeypatch) -> dict:
    defect, (m, n), check = CASES[name]
    install(monkeypatch, defect, m, n)
    result = check(m, n)
    return json.loads(json.dumps(
        {"ok": result.ok, "info": result.info, "failures": result.failures}
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


@pytest.mark.parametrize("name", [name for name in CASES if not name.startswith("q-")])
def test_broken_p_fails_the_identity_with_a_polynomial_residual(name, golden):
    (fail,) = golden[name]["failures"]
    values = [line.split()[2] for line in fail["residual"].splitlines()[1:]]
    assert any(set(value) & set(VARIABLES) for value in values)


@pytest.mark.parametrize("name", list(CASES))
def test_operator_residuals_reparse_to_the_same_dump(name, golden):
    # a residual with polynomial entries is a counterexample that replays
    for fail in golden[name]["failures"]:
        if fail["kind"] == "operator":
            assert dump_operator(parse_operator_dump(fail["residual"])) == fail["residual"]
