"""The rewriting kernel: commutator rule, normal forms, filtrations."""

import random
from fractions import Fraction

import pytest

from helpers import element_parity
from superyangian.algebra import (
    algebra,
    embed_gl,
    supercommutator,
)
from superyangian.central import closure_check
from superyangian.series import SeriesTail
from superyangian.tensors import EndoOperator


def comm_rule(alg, a, b):
    """The supercommutator [T_a, T_b] from the raw commutator expansion,
    normal-ordered."""
    return alg.element([(c, [w]) for w, c in alg.comm_terms(alg.letter(*a), alg.letter(*b))])


def test_commutator_level_one_general_shape():
    # [T_ij^(1), T_kl^(1)] * sign = delta_kj T_il^(1) - delta_il T_kj^(1)
    for (m, n) in [(1, 1), (2, 1)]:
        alg = algebra(m, n)
        for i in range(1, alg.dim + 1):
            for j in range(1, alg.dim + 1):
                for k in range(1, alg.dim + 1):
                    for l in range(1, alg.dim + 1):
                        got = comm_rule(alg, (i, j, 1), (k, l, 1))
                        ib, jb = alg.parities[i], alg.parities[j]
                        kb, lb = alg.parities[k], alg.parities[l]
                        sign = (-1) ** (ib * kb + ib * lb + kb * lb)
                        want = alg.zero(1)
                        if k == j:
                            want = want + alg.gen(i, l, 1)
                        if i == l:
                            want = want - alg.gen(k, j, 1)
                        assert got == want.scale(sign)


def test_commutator_odd_pair_example():
    alg = algebra(1, 1)
    got = comm_rule(alg, (1, 2, 1), (2, 1, 1))
    assert got == alg.gen(1, 1, 1) - alg.gen(2, 2, 1)


def test_rank_one_yangian_is_commutative():
    alg = algebra(1, 0)
    for r in range(1, 5):
        for s in range(1, 5):
            assert comm_rule(alg, (1, 1, r), (1, 1, s)).is_zero()


def test_normal_order_sorted_even_square_unchanged():
    alg = algebra(1, 1)
    x = alg.element([(1, [[(1, 1, 1), (1, 1, 1)]])])
    mon = next(iter(x.terms))
    assert x.terms[mon] == Fraction(1)
    assert [[tuple(g) for g in w] for w in mon] == [[(1, 1, 1), (1, 1, 1)]]


def test_normal_order_swap_example():
    alg = algebra(1, 1)
    got = alg.element([(1, [[(2, 1, 1), (1, 2, 1)]])])
    want = (alg.element([(-1, [[(1, 2, 1), (2, 1, 1)]])])
            + alg.gen(1, 1, 1) - alg.gen(2, 2, 1))
    assert got == want


def test_normal_order_odd_square():
    alg = algebra(1, 1)
    got = alg.element([(1, [[(1, 2, 1), (1, 2, 1)]])])
    want = comm_rule(alg, (1, 2, 1), (1, 2, 1)).scale(Fraction(1, 2))
    assert got == want
    # for this particular generator the square is zero
    assert got.is_zero()


def test_defining_relation_closure_small():
    for (m, n) in [(1, 1), (1, 0), (0, 2)]:
        assert not closure_check(m, n, 3).failures, (m, n)


def test_mul_legs_must_match():
    alg = algebra(1, 1)
    with pytest.raises(ValueError):
        alg.one(1) * alg.one(2)


def test_mul_two_leg_koszul_sign():
    alg = algebra(1, 1)
    a = alg.element([(1, [[(1, 2, 1)], []])])   # T_12 (x) 1
    b = alg.element([(1, [[], [(2, 1, 1)]])])   # 1 (x) T_21
    ab = a * b
    assert ab == alg.element([(1, [[(1, 2, 1)], [(2, 1, 1)]])])
    # both factors odd: the reversed product picks up a minus sign
    ba = b * a
    assert ba == alg.element([(-1, [[(1, 2, 1)], [(2, 1, 1)]])])


def test_mul_unit():
    alg = algebra(2, 1)
    x = alg.gen(1, 3, 2) * alg.gen(3, 1, 1)
    assert x * alg.one(1) == x
    assert alg.one(1) * x == x


def test_supercommutator_basics():
    alg = algebra(1, 1)
    x = alg.gen(1, 1, 1) * alg.gen(2, 2, 1)
    assert supercommutator(x, x).is_zero()
    assert supercommutator(alg.one(1), alg.gen(1, 2, 1)).is_zero()
    assert supercommutator(alg.gen(1, 2, 1), alg.gen(2, 1, 1)) == (
        alg.gen(1, 1, 1) - alg.gen(2, 2, 1)
    )


def test_filtration_degrees():
    alg = algebra(1, 1)
    g = alg.gen(1, 2, 3)
    assert g.filt_degree() == 2
    assert alg.scalar(5).filt_degree() == 0
    x = alg.gen(1, 1, 2) * alg.gen(2, 2, 3)
    assert x.filt_degree() == 3
    with pytest.raises(ValueError):
        alg.zero(1).filt_degree()


def test_top_symbol_examples():
    alg = algebra(1, 1)
    x = alg.gen(1, 2, 2) + alg.gen(1, 2, 1)
    assert x.top_symbol() == alg.gen(1, 2, 2)
    s = alg.scalar(7)
    assert s.top_symbol() == s


def test_top_symbol_of_commutators_matches_current_algebra():
    # the graded image of [T_ij^(r), T_kl^(s)] in the second filtration
    for (m, n) in [(1, 1), (2, 1)]:
        alg = algebra(m, n)
        for i in range(1, alg.dim + 1):
            for j in range(1, alg.dim + 1):
                for k in range(1, alg.dim + 1):
                    for l in range(1, alg.dim + 1):
                        for r in range(1, 4):
                            for s in range(1, 5 - r + 1):
                                comm = supercommutator(alg.gen(i, j, r),
                                                       alg.gen(k, l, s))
                                ib, jb = alg.parities[i], alg.parities[j]
                                kb, lb = alg.parities[k], alg.parities[l]
                                sign = (-1) ** (ib * kb + ib * lb + kb * lb)
                                want = alg.zero(1)
                                if k == j:
                                    want = want + alg.gen(i, l, r + s - 1)
                                if i == l:
                                    want = want - alg.gen(k, j, r + s - 1)
                                want = want.scale(sign)
                                if want.is_zero():
                                    assert comm.is_zero() or comm.filt_degree() < r + s - 2
                                else:
                                    assert comm.filt_degree() == r + s - 2
                                    assert comm.top_symbol() == want


def level(x):
    """The top degree of x in the first filtration, where T[i,j,r] has
    degree r."""
    return max(sum(g.r for w in mon for g in w) for mon in x.terms)


def test_parity_and_filtration_submultiplicative():
    alg = algebra(1, 1)
    rng = random.Random(5)
    gens = [(i, j, r) for i in (1, 2) for j in (1, 2) for r in (1, 2)]
    for _ in range(60):
        wa = [rng.choice(gens) for _ in range(rng.randrange(1, 3))]
        wb = [rng.choice(gens) for _ in range(rng.randrange(1, 3))]
        a = alg.element([(1, [wa])])
        b = alg.element([(1, [wb])])
        if a.is_zero() or b.is_zero() or (a * b).is_zero():
            continue
        assert level(a * b) <= level(a) + level(b)
        assert (a * b).filt_degree() <= a.filt_degree() + b.filt_degree()
        if None not in (element_parity(a), element_parity(b)):
            assert element_parity(a * b) == (element_parity(a) + element_parity(b)) % 2


def test_embed_gl_relations():
    for (m, n) in [(1, 0), (1, 1), (2, 1)]:
        alg = algebra(m, n)
        for i in range(1, alg.dim + 1):
            for j in range(1, alg.dim + 1):
                for k in range(1, alg.dim + 1):
                    for l in range(1, alg.dim + 1):
                        lhs = supercommutator(embed_gl(alg, i, j), embed_gl(alg, k, l))
                        want = alg.zero(1)
                        if j == k:
                            want = want + embed_gl(alg, i, l)
                        if l == i:
                            s = (-1) ** (
                                (alg.parities[i] + alg.parities[j])
                                * (alg.parities[k] + alg.parities[l])
                            )
                            want = want - embed_gl(alg, k, j).scale(s)
                        assert lhs == want


def test_embed_gl_examples():
    alg = algebra(1, 0)
    assert supercommutator(embed_gl(alg, 1, 1), embed_gl(alg, 1, 1)).is_zero()
    alg = algebra(1, 1)
    got = supercommutator(embed_gl(alg, 1, 2), embed_gl(alg, 2, 1))
    assert got == embed_gl(alg, 1, 1) + embed_gl(alg, 2, 2)


def test_randomized_confluence_sample():
    alg = algebra(1, 1)
    rng = random.Random(99)
    gens = [(i, j, r) for i in (1, 2) for j in (1, 2) for r in (1, 2, 3)]
    for _ in range(50):
        word = tuple(rng.choice(gens) for _ in range(rng.randrange(2, 5)))
        reference = alg.element([(1, [word])])
        for _ in range(4):
            assert alg.normal_order_randomized(word, rng) == reference


def test_elements_operators_and_series_are_unhashable():
    """They compare by value and define no hash, so none can be a set item or a key."""
    alg = algebra(1, 1)
    for value in (alg.gen(1, 1, 1), EndoOperator.identity(alg, 1), SeriesTail.zero(alg, 2)):
        with pytest.raises(TypeError, match="unhashable type"):
            hash(value)


def test_cross_algebra_operations_error():
    a = algebra(1, 1).one(1)
    b = algebra(2, 1).one(1)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_central_low_level_element():
    # sum_i (-1)^ibar T[i,i,1] + (M-N) is killed by nothing here, but it
    # supercommutes with every generator: the level-one center
    for (m, n) in [(1, 1), (2, 1)]:
        alg = algebra(m, n)
        center = alg.zero(1)
        for i in range(1, alg.dim + 1):
            center = center + alg.gen(i, i, 1).scale((-1) ** alg.parities[i])
        for i in range(1, alg.dim + 1):
            for j in range(1, alg.dim + 1):
                for s in (1, 2, 3):
                    assert supercommutator(center, alg.gen(i, j, s)).is_zero()
