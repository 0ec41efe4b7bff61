"""The generating matrix T(u) and its inverse."""

from helpers import element_parity, one_leg
from superyangian.algebra import Algebra, algebra
from superyangian.matrices import t_inverse, t_matrix
from superyangian.morphisms import counit
from superyangian.series import SeriesTail


def identity(alg, order):
    """The one-leg identity operator with series entries."""
    dims = range(1, alg.dim + 1)
    return one_leg(alg, {(i, j): SeriesTail.constant(
        alg, alg.one(1) if i == j else alg.zero(1), order) for i in dims for j in dims})


def test_t_matrix_1x1():
    alg = algebra(1, 0)
    t = t_matrix(alg, 2)
    entry = t[1, 1]
    assert entry.coefficient(0) == alg.one(1)
    assert entry.coefficient(1) == alg.gen(1, 1, 1)
    assert entry.coefficient(2) == alg.gen(1, 1, 2)


def test_entry_parity():
    alg = algebra(1, 1)
    t = t_matrix(alg, 3)
    for r in range(1, 4):
        assert element_parity(t[1, 2].coefficient(r)) == 1
        assert element_parity(t[1, 1].coefficient(r)) == 0


def test_counit_of_t_matrix_is_identity():
    alg = algebra(1, 1)
    t = t_matrix(alg, 3)
    for i in (1, 2):
        for j in (1, 2):
            for r in range(4):
                val = counit(t[i, j].coefficient(r))
                assert val == (1 if (i == j and r == 0) else 0)


def test_inverse_first_coefficient():
    for (m, n) in [(1, 1), (2, 1)]:
        alg = Algebra(m, n)
        tinv = t_inverse(alg, 3)
        for i in range(1, alg.dim + 1):
            for j in range(1, alg.dim + 1):
                assert tinv[i, j].coefficient(1) == -alg.gen(i, j, 1)


def test_inverse_1x1_is_series_inverse():
    alg = Algebra(1, 0)
    t = t_matrix(alg, 4)
    tinv = t_inverse(alg, 4)
    assert tinv[1, 1] == t[1, 1].inverse()


def test_two_sided_inverse_and_ttp_identity():
    alg = Algebra(1, 1)
    order = 4
    t = t_matrix(alg, order)
    tinv = t_inverse(alg, order)
    ident = identity(alg, order)
    assert (one_leg(alg, t) * one_leg(alg, tinv)).failures(ident, {}) == []
    assert (one_leg(alg, tinv) * one_leg(alg, t)).failures(ident, {}) == []
    # entrywise: sum_k T_ik Ttilde_kj (-1)^((ib+kb)(jb+kb)) = delta_ij
    for i in (1, 2):
        for j in (1, 2):
            acc = SeriesTail.zero(alg, order)
            for k in (1, 2):
                sgn = (-1) ** (
                    (alg.parities[i] + alg.parities[k])
                    * (alg.parities[j] + alg.parities[k])
                )
                acc = acc + (t[i, k] * tinv[k, j]).scale(sgn)
            want = SeriesTail.constant(alg, alg.one(1) if i == j else alg.zero(1), order)
            assert acc == want


def test_parity_preserved_by_products_and_inverse():
    alg = Algebra(1, 1)
    t = t_matrix(alg, 3)
    tinv = t_inverse(alg, 3)
    prod = (one_leg(alg, t) * one_leg(alg, tinv)).entries
    shifted = {key: series.shift(2) for key, series in t.items()}
    for entries in (tinv, {(i, j): s for ((i,), (j,)), s in prod.items()}, shifted):
        for (i, j), series in entries.items():
            want = (alg.parities[i] + alg.parities[j]) & 1
            for coeff in series.coeffs:
                assert element_parity(coeff) == (0 if coeff.is_zero() else want), (i, j)
