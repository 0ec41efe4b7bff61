"""Exact core: rationals, truncated series and the sparse merge."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superyangian.algebra import algebra
from superyangian.series import (
    NonUnitError,
    OrderMismatchError,
    Poly,
    SeriesTail,
    add_scaled,
    rational_from_text,
    rational_to_text,
)
from superyangian.tensors import EndoOperator

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=9)
ALG = algebra(1, 1)


def series(order, coeffs):
    """The series with the scalar coefficients `coeffs`."""
    return SeriesTail(ALG, order, [ALG.scalar(Fraction(c)) for c in coeffs])


def test_rational_text_round_trip_examples():
    for text in ["-7/3", "4", "0", "22/7", "-1"]:
        assert rational_to_text(rational_from_text(text)) == text


@given(rationals)
def test_rational_text_round_trip_random(q):
    assert rational_from_text(rational_to_text(q)) == q


def test_rational_rejects_junk():
    for bad in ["", "1/0", "x", "1.5", "7/"]:
        with pytest.raises(ValueError):
            rational_from_text(bad)


def test_add_is_coefficientwise():
    a = series(1, [1, 2])
    b = series(1, [3, -2])
    assert a + b == series(1, [4, 0])


def test_add_identity():
    a = series(2, [5, -1, 7])
    assert a + SeriesTail.zero(ALG, 2) == a


def test_mixed_orders_error():
    with pytest.raises(OrderMismatchError):
        series(3, [1, 0, 0, 0]) + series(4, [1, 0, 0, 0, 0])
    with pytest.raises(OrderMismatchError):
        series(3, [1, 0, 0, 0]) == series(4, [1, 0, 0, 0, 0])


def test_mul_example():
    a = series(2, [1, 1, 0])
    b = series(2, [1, -1, 0])
    assert a * b == series(2, [1, 0, -1])


def test_mul_unit():
    b = series(3, [2, 0, 5, -7])
    assert SeriesTail.one(ALG, 3) * b == b


def test_mul_preserves_factor_order_over_noncommutative_ring():
    alg = algebra(1, 1)
    x = alg.gen(1, 2, 1)
    y = alg.gen(2, 1, 1)
    a = SeriesTail(alg, 2, [alg.one(1), x, alg.zero(1)])
    b = SeriesTail(alg, 2, [alg.one(1), y, alg.zero(1)])
    prod = a * b
    assert prod.coefficient(2) == x * y
    assert prod.coefficient(2) != y * x


def test_inverse_geometric():
    a = series(3, [1, -1, 0, 0])
    assert a.inverse() == series(3, [1, 1, 1, 1])


def test_inverse_of_one():
    one = SeriesTail.one(ALG, 4)
    assert one.inverse() == one


def test_inverse_quadratic_over_noncommutative_ring():
    # inverse(1 + Z u^-2) = 1 - Z u^-2 modulo u^-4
    alg = algebra(1, 1)
    z = alg.gen(1, 1, 1)
    a = SeriesTail.from_map(alg, 3, {0: alg.one(1), 2: z})
    inv = a.inverse()
    assert inv == SeriesTail.from_map(alg, 3, {0: alg.one(1), 2: -z})
    assert (a * inv) == SeriesTail.one(alg, 3)
    assert (inv * a) == SeriesTail.one(alg, 3)


def test_inverse_needs_unit_constant_term():
    with pytest.raises(NonUnitError):
        series(2, [2, 0, 0]).inverse()


def test_shift_zero_is_identity():
    a = series(1, [1, 1])
    assert a.shift(0) == a


def test_shift_matches_long_division():
    # 1/(u+1) = u^-1 - u^-2 + u^-3 - ...
    a = series(3, [0, 1, 0, 0])
    assert a.shift(1) == series(3, [0, 1, -1, 1])


def test_shift_round_trip():
    a = series(4, [2, -3, 5, 0, 7])
    for c in range(-3, 4):
        assert a.shift(c).shift(-c) == a


@given(st.lists(rationals, min_size=5, max_size=5),
       st.lists(rationals, min_size=5, max_size=5),
       st.integers(min_value=-3, max_value=3))
@settings(max_examples=40, deadline=None)
def test_shift_is_ring_homomorphism(acoef, bcoef, c):
    a = series(4, acoef)
    b = series(4, bcoef)
    assert (a * b).shift(c) == a.shift(c) * b.shift(c)
    assert (a + b).shift(c) == a.shift(c) + b.shift(c)


@given(st.lists(rationals, min_size=4, max_size=4),
       st.lists(rationals, min_size=4, max_size=4),
       st.lists(rationals, min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_ring_axioms(ac, bc, cc):
    a, b, c = series(3, ac), series(3, bc), series(3, cc)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@given(st.lists(rationals, min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_inverse_is_two_sided(coeffs):
    a = series(3, [Fraction(1)] + [Fraction(c) for c in coeffs[1:]])
    inv = a.inverse()
    one = SeriesTail.one(ALG, 3)
    assert a * inv == one
    assert inv * a == one


def test_add_scaled_with_a_zero_coefficient_adds_nothing():
    """A zero coefficient once raised KeyError on a key `out` lacked."""
    out = {"a": 1}
    add_scaled(out, 0, {"a": 5, "b": 2})
    assert out == {"a": 1}


def test_add_scaled_drops_a_cancelled_key_and_leaves_the_others():
    half = Fraction(1, 2)
    out = {"a": half, "b": Fraction(1, 2), "c": 3}
    entries = {"b": Fraction(1, 4), "d": 1}
    add_scaled(out, -2, entries)
    assert out == {"a": half, "c": 3, "d": -2}
    assert out["a"] is half and type(out["d"]) is int
    assert entries == {"b": Fraction(1, 4), "d": 1}


COEFFS = [-3, -1, 1, 2, Fraction(1, 2), Fraction(-5, 3)]


def _elements(rng, alg):
    words = [(g,) for g in alg.gens(2)] + [(g, h) for g in alg.gens(1) for h in alg.gens(1)]
    return [alg.element([(rng.choice(COEFFS), [w]) for w in rng.sample(words, 6)])
            for _ in range(3)]


def _operators(rng, alg):
    keys = [((i,), (j,)) for i in range(1, alg.dim + 1) for j in range(1, alg.dim + 1)]
    return [EndoOperator(alg, 1, {k: rng.choice(COEFFS) for k in rng.sample(keys, 3)})
            for _ in range(3)]


def _polys(rng, alg):
    keys = [(i, j) for i in range(3) for j in range(3)]
    return [Poly({k: rng.choice([-3, -1, 1, 2]) for k in rng.sample(keys, 5)})
            for _ in range(3)]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("build, terms", [
    (_elements, lambda x: x.terms),
    (_operators, lambda x: x.entries),
    (_polys, lambda x: x.terms),
], ids=["element", "operator", "poly"])
def test_sums_and_differences_that_cancel_hold_no_zero_coefficient(build, terms, seed):
    a, b, c = build(random.Random(seed), algebra(2, 1))
    zero = a - a
    for got, want in [
        ((a + b) - a, b),
        ((a - b) + b, a),
        ((a + b) + (c - b), a + c),
        (a + (b - a), b),
        (zero, zero + zero),
    ]:
        assert got == want
        assert all(terms(got).values())
    assert not terms(zero)
