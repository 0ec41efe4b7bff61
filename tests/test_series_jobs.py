"""T(u)^-1 by coefficient recursion against the Neumann series it
replaced, the one u -> -u flip, and the bound guard of the morphism
relation check."""

from fractions import Fraction

import pytest

from superyangian.algebra import algebra
from superyangian.central import morphism_relation_check
from superyangian.matrices import MixedOp, gen_series, invert_t, t_matrix
from superyangian.series import SeriesTail
from superyangian.suites import SuiteSpec, run_suite


def neumann_inverse(t: MixedOp) -> MixedOp:
    """T(u)^-1 = sum_m (-W)^m for T = 1 + W, with the operator product."""
    alg, order = t.alg, t.entry(1, 1).order

    def combine(a, b, op):
        return MixedOp(alg, 1, {key: op(x, b.entries[key]) for key, x in a.entries.items()})

    ident = MixedOp(alg, 1, {(row, col): SeriesTail.constant(
        alg, alg.one(1) if row == col else alg.zero(1), order) for row, col in t.entries})
    w = combine(t, ident, lambda x, y: x - y)
    acc = power = ident
    for m in range(1, order + 1):
        power = power * w
        acc = combine(acc, power, (lambda x, y: x + y) if m % 2 == 0 else (lambda x, y: x - y))
    return acc


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (0, 2), (2, 2)])
def test_recursion_inverse_equals_the_neumann_series(m, n):
    alg = algebra(m, n)
    for order in range(1, 6):
        t = t_matrix(alg, order)
        got, want = invert_t(t), neumann_inverse(t)
        assert got.entry(1, 1).order == order
        for i in range(1, alg.dim + 1):
            for j in range(1, alg.dim + 1):
                assert got.entry(i, j) == want.entry(i, j), (order, i, j)


def flipped_by_hand(series: SeriesTail) -> SeriesTail:
    return SeriesTail(series.alg, series.order,
                      [c * (-1) ** r for r, c in enumerate(series.coeffs)])


def test_negate_argument_on_rational_series():
    alg = algebra(1, 1)
    series = SeriesTail(alg, 5, [alg.scalar(Fraction(k, 3) - 1) for k in range(6)])
    assert series.negate_argument() == flipped_by_hand(series)
    assert series.negate_argument().coefficient(3) == -series.coefficient(3)
    assert series.negate_argument().negate_argument() == series


def test_negate_argument_on_element_series():
    alg = algebra(2, 1)
    for series in (gen_series(alg, 1, 3, 4), gen_series(alg, 2, 2, 5),
                   invert_t(t_matrix(alg, 4)).entry(3, 1)):
        assert series.negate_argument() == flipped_by_hand(series)
        assert series.negate_argument().negate_argument() == series


@pytest.mark.parametrize("bound", [-1, -4])
def test_morphism_relation_check_refuses_a_negative_bound(bound):
    with pytest.raises(ValueError):
        morphism_relation_check(1, 1, bound)
    with pytest.raises(ValueError, match="parameter 'bound' must be at least 0"):
        run_suite(SuiteSpec("morphism-suite", {"m": 1, "n": 1, "bound": bound}))


def test_morphism_relation_check_at_bound_zero_still_runs():
    result = morphism_relation_check(1, 1, 0)
    assert not result.failures and result.info == {"bound": 0}
