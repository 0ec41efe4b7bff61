"""T(u) and its hatted inverse on several legs, and fusion commutation."""

import pytest

from superyangian.algebra import algebra
from superyangian.matrices import hatted_entry, invert_t, t_inverse, t_matrix
from superyangian.mixed import fusion_commutation_check, t_leg_series
from superyangian.series import SeriesTail
from superyangian.suites import SuiteSpec, run_suite
from superyangian.tensor_checks import symmetrizer_agreement_check


def test_fusion_commutation():
    # antisymmetrizer version for the ordinary rank-1 Yangian, order 3
    assert not fusion_commutation_check(1, 0, 2, 3).failures
    # both versions for gl(1|1) at order 2
    assert not fusion_commutation_check(1, 1, 2, 2).failures
    assert not fusion_commutation_check(0, 1, 2, 3).failures


@pytest.mark.parametrize("m,n", [(2, 1), (1, 2)])
def test_fusion_suite_runs_the_fusion_identity_at_its_guard(m, n):
    """At M + N = 3, the suite's guard, the runner once dropped the fusion
    identity and still reported `pass` under its anchor."""
    report = run_suite(SuiteSpec("fusion-commutation", {"m": m, "n": n}))
    assert report.status == "pass"
    assert report.verified == {"n_max": 4, "series.legs": 2, "series.order": 3}


def test_t_leg_matrix_shape():
    mat = t_leg_series(1, 1, 2, 1, 2)
    # entries exist for all index pairs that are diagonal on the other leg
    assert (((1, 1), (1, 1))) in mat.entries
    assert (((1, 1), (2, 1))) in mat.entries


@pytest.mark.parametrize("legs", [0, 1])
def test_fusion_needs_two_legs(legs):
    # on one leg G and H are the identity, so the check verifies nothing
    with pytest.raises(ValueError, match="legs"):
        fusion_commutation_check(1, 1, legs, 3)
    # the suite rejects it before its runner starts
    reason = f"fusion-commutation: ValueError: parameter 'legs' must be at least 2, not {legs}"
    with pytest.raises(ValueError) as exc:
        run_suite(SuiteSpec("fusion-commutation", {"m": 1, "n": 1, "legs": legs}))
    assert str(exc.value) == reason


@pytest.mark.parametrize("n_max", [0, 1])
def test_symmetrizer_agreement_needs_two_legs(n_max):
    with pytest.raises(ValueError, match="n_max"):
        symmetrizer_agreement_check(1, 1, n_max)
    reason = f"fusion-commutation: ValueError: parameter 'n_max' must be at least 2, not {n_max}"
    with pytest.raises(ValueError) as exc:
        run_suite(SuiteSpec("fusion-commutation", {"m": 1, "n": 1, "n_max": n_max}))
    assert str(exc.value) == reason


ALGEBRAS = [(1, 1), (2, 1), (1, 2), (0, 2)]


@pytest.mark.parametrize("m,n", ALGEBRAS)
def test_one_leg_t_leg_is_t_matrix(m, n):
    assert t_leg_series(m, n, 1, 1, 3).entries == t_matrix(algebra(m, n), 3).entries


@pytest.mark.parametrize("m,n", ALGEBRAS)
def test_one_leg_hatted_t_leg_reads_the_inverse(m, n):
    alg = algebra(m, n)
    tinv = t_inverse(alg, 3)
    dims = range(1, alg.dim + 1)
    want = {((i,), (j,)): hatted_entry(alg, tinv, i, j) for i in dims for j in dims}
    assert t_leg_series(m, n, 1, 1, 3, hatted=True).entries == want


@pytest.mark.parametrize("m,n", ALGEBRAS)
def test_one_leg_product_is_the_entrywise_super_sum(m, n):
    alg = algebra(m, n)
    order = 3
    t = t_matrix(alg, order)
    tinv = invert_t(t)
    got = (t * tinv).entries
    dims = range(1, alg.dim + 1)
    par = alg.parities
    for i in dims:
        for j in dims:
            acc = SeriesTail.zero(alg, order)
            for k in dims:
                sgn = (-1) ** ((par[i] + par[k]) * (par[j] + par[k]))
                acc = acc + (t.entry(i, k) * tinv.entry(k, j)).scale(sgn)
            assert got[(i,), (j,)] == acc, (i, j)
