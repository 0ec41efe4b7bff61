"""The generating matrix T(u) and its inverse."""

import pytest

from helpers import element_parity
from superyangian.algebra import algebra
from superyangian.matrices import MixedOp, invert_t, t_matrix
from superyangian.morphisms import counit
from superyangian.series import SeriesTail


def identity(alg, order):
    """The one-leg identity operator with series entries."""
    dims = range(1, alg.dim + 1)
    return MixedOp(alg, 1, {((i,), (j,)): SeriesTail.constant(
        alg, alg.one(1) if i == j else alg.zero(1), order) for i in dims for j in dims})


def test_t_matrix_1x1():
    alg = algebra(1, 0)
    t = t_matrix(alg, 2)
    entry = t.entry(1, 1)
    assert entry.coefficient(0) == alg.one(1)
    assert entry.coefficient(1) == alg.gen(1, 1, 1)
    assert entry.coefficient(2) == alg.gen(1, 1, 2)


def test_entry_parity():
    alg = algebra(1, 1)
    t = t_matrix(alg, 3)
    for r in range(1, 4):
        assert element_parity(t.entry(1, 2).coefficient(r)) == 1
        assert element_parity(t.entry(1, 1).coefficient(r)) == 0


def test_counit_of_t_matrix_is_identity():
    alg = algebra(1, 1)
    t = t_matrix(alg, 3)
    for i in (1, 2):
        for j in (1, 2):
            for r in range(4):
                val = counit(t.entry(i, j).coefficient(r))
                assert val == (1 if (i == j and r == 0) else 0)


def test_inverse_first_coefficient():
    for (m, n) in [(1, 1), (2, 1)]:
        alg = algebra(m, n)
        tinv = invert_t(t_matrix(alg, 3))
        for i in range(1, alg.dim + 1):
            for j in range(1, alg.dim + 1):
                assert tinv.entry(i, j).coefficient(1) == -alg.gen(i, j, 1)


def test_inverse_1x1_is_series_inverse():
    alg = algebra(1, 0)
    t = t_matrix(alg, 4)
    tinv = invert_t(t)
    assert tinv.entry(1, 1) == t.entry(1, 1).inverse()


def test_two_sided_inverse_and_ttp_identity():
    alg = algebra(1, 1)
    order = 4
    t = t_matrix(alg, order)
    tinv = invert_t(t)
    ident = identity(alg, order)
    assert (t * tinv).failures(ident, {}) == []
    assert (tinv * t).failures(ident, {}) == []
    # entrywise: sum_k T_ik Ttilde_kj (-1)^((ib+kb)(jb+kb)) = delta_ij
    for i in (1, 2):
        for j in (1, 2):
            acc = SeriesTail.zero(alg, order)
            for k in (1, 2):
                sgn = (-1) ** (
                    (alg.parities[i] + alg.parities[k])
                    * (alg.parities[j] + alg.parities[k])
                )
                acc = acc + (t.entry(i, k) * tinv.entry(k, j)).scale(sgn)
            want = SeriesTail.constant(alg, alg.one(1) if i == j else alg.zero(1), order)
            assert acc == want


def test_inverse_needs_identity_constant_term():
    alg = algebra(1, 1)
    t = t_matrix(alg, 2)
    bad = t * t  # constant term still identity; tweak instead
    entries = dict(t.entries)
    entries[(1,), (1,)] = entries[(1,), (1,)] + SeriesTail.constant(alg, alg.one(1), 2)
    broken = MixedOp(alg, 1, entries)
    with pytest.raises(ValueError):
        invert_t(broken)


def test_parity_preserved_by_products_and_inverse():
    alg = algebra(1, 1)
    t = t_matrix(alg, 3)
    tinv = invert_t(t)
    prod = t * tinv
    shifted = {key: series.shift(2) for key, series in t.entries.items()}
    for entries in (tinv.entries, prod.entries, shifted):
        for ((i,), (j,)), series in entries.items():
            want = (alg.parities[i] + alg.parities[j]) & 1
            for coeff in series.coeffs:
                assert element_parity(coeff) == (0 if coeff.is_zero() else want), (i, j)
