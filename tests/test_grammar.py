"""Textual grammar round trips and canonical printing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superyangian.algebra import algebra
from superyangian.grammar import (
    ParseError,
    element_to_text,
    parse_element,
    parse_series,
    series_to_text,
)
from superyangian.series import SeriesTail


def test_element_round_trip_canonical():
    alg = algebra(1, 1)
    x = alg.element([(1, [[(2, 1, 1), (1, 2, 1)]])])
    text = element_to_text(x)
    assert parse_element(alg, text) == x
    # canonical: printing the re-parse is a fixed point
    assert element_to_text(parse_element(alg, text)) == text


def test_element_parse_normalizes():
    alg = algebra(1, 1)
    got = parse_element(alg, "T[2,1,1]*T[1,2,1]")
    want = alg.element([(1, [[(2, 1, 1), (1, 2, 1)]])])
    assert got == want


def test_element_print_examples():
    alg = algebra(1, 1)
    x = alg.gen(1, 1, 1) - alg.gen(2, 2, 1)
    assert element_to_text(x) == "1*T[1,1,1] - 1*T[2,2,1]"
    assert element_to_text(alg.zero(1)) == "0"
    assert element_to_text(alg.scalar(-7, 1).scale(1) + alg.zero(1)) == "-7"


def test_element_multi_leg_round_trip():
    alg = algebra(1, 1)
    x = alg.element([( -2, [[(1, 2, 1)], [(2, 1, 1)]]), (1, [[], []])])
    text = element_to_text(x)
    assert "(x)" in text
    assert parse_element(alg, text) == x


def test_element_whitespace_insignificant():
    alg = algebra(1, 1)
    a = parse_element(alg, "1*T[1,2,1] (x) T[2,1,1]")
    b = parse_element(alg, "1 * T[ 1 , 2 , 1 ](x)T[2,1,1]")
    assert a == b


def test_element_parse_errors_carry_position():
    alg = algebra(1, 1)
    with pytest.raises(ParseError):
        parse_element(alg, "1*T[1,2,1] +")
    with pytest.raises(ParseError):
        parse_element(alg, "1*T[9,1,1]")
    with pytest.raises(ParseError):
        parse_element(alg, "?")


@pytest.mark.parametrize("text,position", [
    ("1*T[1,1,1] + 1*T[9,1,1]", 15),
    ("2*T[1,1,0]", 2),
    ("T[1,2,1] (x) T[1,3,1]", 13),
])
def test_out_of_range_generator_is_reported_at_its_token(text, position):
    with pytest.raises(ParseError, match="out of range") as exc:
        parse_element(algebra(1, 1), text)
    assert exc.value.position == position


def test_scalar_series_round_trip():
    alg = algebra(1, 1)
    s = SeriesTail.from_map(alg, 3, {0: alg.one(1), 1: alg.scalar(2),
                                     3: alg.scalar(Fraction(-1, 3))})
    text = series_to_text(s)
    assert text == "1 + 2*u^-1 - 1/3*u^-3 + O(u^-4)"
    assert parse_series(text, alg) == s


def test_zero_series_text():
    alg = algebra(1, 1)
    s = SeriesTail.zero(alg, 2)
    assert series_to_text(s) == "0 + O(u^-3)"
    assert parse_series("0 + O(u^-3)", alg) == s


def test_element_series_round_trip():
    from superyangian.central import z_series

    z = z_series(algebra(1, 1), 3)
    alg = algebra(1, 1)
    text = series_to_text(z)
    assert text.startswith("1 + {")
    assert "u^-1" not in text.split("u^-2")[0]  # the u^-1 brace is absent
    back = parse_series(text, alg=alg)
    assert back == z


@pytest.mark.parametrize("text,why", [
    ("1 + {1*T[1,1,1] + O(u^-2)", "unbalanced braces (at position 4)"),
    ("1 + 2*u^-3 + O(u^-2)", "coefficient u^-3 beyond stated order 1 (at position 10)"),
], ids=["braces", "past-order"])
def test_series_parse_errors(text, why):
    with pytest.raises(ParseError) as exc:
        parse_series(text, alg=algebra(1, 1))
    assert str(exc.value) == why


def test_series_missing_o_term_rejected():
    with pytest.raises(ParseError):
        parse_series("1 + 2*u^-1", algebra(1, 1))


def test_series_missing_o_term_names_the_form():
    with pytest.raises(ParseError, match=r"missing O\(u\^-D\) term \(at position 7\)"):
        parse_series("O(u^-2)", algebra(1, 1))


@pytest.mark.parametrize("text", ["2 3", "T[1,1,1] 2", "T[1,1,1] T[2,2,1]", "1*T[1,1,1] 1/2"])
def test_juxtaposition_is_neither_a_sum_nor_a_product(text):
    with pytest.raises(ParseError, match=r"^expected '\+' or '-'") as exc:
        parse_element(algebra(1, 1), text)
    assert exc.value.position == text.rindex(" ") + 1


def test_juxtaposed_series_terms_are_rejected():
    with pytest.raises(ParseError) as exc:
        parse_series("1 2*u^-1 + O(u^-3)", algebra(1, 1))
    assert str(exc.value) == "expected '+' or '-' (at position 2)"


def test_a_one_before_the_leg_separator_is_the_factor_one():
    alg = algebra(1, 1)
    want = alg.element([(1, [(), ((1, 1, 1),)])])
    assert parse_element(alg, "1 (x) T[1,1,1]") == want
    assert parse_element(alg, "1*1 (x) T[1,1,1]") == want
    assert parse_element(alg, "T[1,1,1] (x) 1") == alg.element([(1, [((1, 1, 1),), ()])])
    assert parse_element(alg, "T[1,1,1]*1*T[2,2,1]") == parse_element(alg, "T[1,1,1]*T[2,2,1]")


def test_a_bare_rational_takes_the_leg_count_of_the_other_terms():
    alg = algebra(1, 1)
    got = parse_element(alg, "1*T[1,2,1] (x) 1 - 3 + 1/2")
    assert got == alg.element([(1, [((1, 2, 1),), ()]), (Fraction(-5, 2), [(), ()])])
    assert element_to_text(got) == "-5/2*1 (x) 1 + 1*T[1,2,1] (x) 1"


def test_multi_leg_scalars_print_their_legs():
    alg = algebra(1, 1)
    assert element_to_text(alg.scalar(3, 3)) == "3*1 (x) 1 (x) 1"
    assert element_to_text(alg.zero(2)) == "0*1 (x) 1"
    assert parse_element(alg, "0*1 (x) 1") == alg.zero(2)


@pytest.mark.parametrize("text,why", [
    ("1 + * T[1,1,1]", "expected a term (at position 4)"),
    ("T[1,1,1]*2", "expected T[i,j,r] or 1 (at position 9)"),
    ("T[1,1,1] (x)", "dangling operator (at position 9)"),
    ("-", "dangling operator at end of input (at position 1)"),
    ("T[1,1,1] ? 2", "unexpected character '?' (at position 9)"),
    ("  ", "empty element (at position 0)"),
], ids=["term", "factor", "leg", "sign", "character", "blank"])
def test_element_parse_error_messages(text, why):
    with pytest.raises(ParseError) as exc:
        parse_element(algebra(1, 1), text)
    assert str(exc.value) == why


@pytest.mark.parametrize("text,why", [
    ("{T[1,1,1] (x) 1}*u^-1 + O(u^-2)", "series coefficients have one leg (at position 0)"),
    ("{T[1,1,1] 2} + O(u^-2)", "expected '+' or '-' (at position 10)"),
    ("1 + T[1,1,1] + O(u^-2)", "expected a coefficient (at position 4)"),
    ("1 + 2*3 + O(u^-2)", "expected u^-k after '*' (at position 6)"),
    ("1 + O(u^-0)", "order must be >= 0 (at position 2)"),
    ("1 + + O(u^-2)", "dangling operator at end of input (at position 4)"),
], ids=["legs", "brace-juxtaposed", "coefficient", "power", "order", "sign"])
def test_series_parse_error_messages(text, why):
    with pytest.raises(ParseError) as exc:
        parse_series(text, algebra(1, 1))
    assert str(exc.value) == why


def test_series_terms_of_one_power_add_up():
    alg = algebra(1, 1)
    assert parse_series("1 + 1/2*u^-1 - 1 + 1*u^-1 + O(u^-2)", alg) == SeriesTail.from_map(
        alg, 1, {1: alg.scalar(Fraction(3, 2))})
    got = parse_series("- {T[1,1,1]}*u^-1 + 2*u^-1 + O(u^-2)", alg)
    assert got.coefficient(1) == alg.scalar(2) - alg.gen(1, 1, 1)


COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _elements(draw, alg, legs: int):
    """A normal-ordered element of `alg` on `legs` legs, often zero or
    scalar, with up to four raw terms of words of up to two letters."""
    letters = st.tuples(st.integers(1, alg.dim), st.integers(1, alg.dim), st.integers(1, 2))
    monomials = st.lists(st.lists(letters, max_size=2), min_size=legs, max_size=legs)
    terms = draw(st.lists(st.tuples(COEFFS, monomials), max_size=4))
    return alg.element(terms) if terms else alg.zero(legs)


@st.composite
def elements(draw):
    alg = algebra(*draw(st.sampled_from([(1, 1), (2, 1), (0, 1)])))
    return alg, _elements(draw, alg, draw(st.integers(1, 3)))


@st.composite
def series(draw):
    order = draw(st.integers(0, 4))
    alg = algebra(*draw(st.sampled_from([(1, 1), (2, 1)])))
    if draw(st.booleans()):
        scalars = draw(st.lists(COEFFS, min_size=order + 1, max_size=order + 1))
        return alg, SeriesTail(alg, order, [alg.scalar(c) for c in scalars])
    coeffs = [_elements(draw, alg, 1) for _ in range(order + 1)]
    return alg, SeriesTail(alg, order, coeffs)


@given(elements())
@settings(max_examples=150, deadline=None)
def test_random_elements_round_trip(case):
    alg, x = case
    text = element_to_text(x)
    back = parse_element(alg, text)
    assert back == x
    assert element_to_text(back) == text


@given(series())
@settings(max_examples=150, deadline=None)
def test_random_series_round_trip(case):
    alg, s = case
    text = series_to_text(s)
    back = parse_series(text, alg)
    assert back == s
    assert series_to_text(back) == text


def test_a_zero_denominator_in_a_series_names_its_position():
    with pytest.raises(ParseError, match=r"zero denominator: '2/0' \(at position 4\)$") as exc:
        parse_series("1 + 2/0*u^-1 + O(u^-2)", algebra(1, 1))
    assert exc.value.position == 4
