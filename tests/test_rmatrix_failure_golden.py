"""The failure outputs of the R-matrix identity checks, pinned.

Each case runs one check on a fresh algebra with one defect of
`defects.DEFECTS`: `p-doubled`, `q-doubled` or `i-doubled`.  The
verdict, the info and the full failure list (or the error a check
raised) must equal `golden/rmatrix_failure_outputs.json`, which was
written when Yang-Baxter, the QR residue and RTT became
identities over Z[u, v], so a failure of one of them is one residual
with polynomial entries.
Regenerate it only from a tree whose outputs are trusted:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import defects, test_rmatrix_failure_golden as t; defects.write_golden(t.GOLDEN, t.CASES)"
"""

import pytest

import defects
from defects import Case, read_golden
from superyangian.series import VARIABLES
from superyangian.tensor_checks import q_identity_check, rep_rtt_check, yang_baxter_check
from superyangian.tensors import dump_operator, parse_operator_dump

GOLDEN = defects.GOLDEN_DIR / "rmatrix_failure_outputs.json"

CASES = {}
for m, n in [(1, 1), (2, 1)]:
    for label, check in (("yang-baxter", yang_baxter_check), ("rep-rtt", rep_rtt_check)):
        CASES[f"{label}-{m}{n}-p"] = Case("p-doubled", [(m, n)], check, (m, n), keep=None)
for m, n in [(1, 1), (2, 1), (1, 2)]:
    for defect in ("p", "q", "i"):
        CASES[f"q-identity-{m}{n}-{defect}"] = Case(
            f"{defect}-doubled", [(m, n)], q_identity_check, (m, n), keep=None)


test_failure_output_matches_golden = defects.golden_test(GOLDEN, CASES)


@pytest.mark.parametrize("name", [name for name in CASES if not name.startswith("q-")])
def test_broken_p_fails_the_identity_with_a_polynomial_residual(name):
    (fail,) = read_golden(GOLDEN)[name]["failures"]
    values = [line.split()[2] for line in fail["residual"].splitlines()[1:]]
    assert any(set(value) & set(VARIABLES) for value in values)


@pytest.mark.parametrize("name", list(CASES))
def test_operator_residuals_reparse_to_the_same_dump(name):
    # a residual with polynomial entries is a counterexample that replays
    for fail in read_golden(GOLDEN)[name]["failures"]:
        if fail["kind"] == "operator":
            assert dump_operator(parse_operator_dump(fail["residual"])) == fail["residual"]
