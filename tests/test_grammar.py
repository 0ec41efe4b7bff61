"""Textual grammar round trips and canonical printing."""

import pytest

from superyangian.algebra import algebra
from superyangian.grammar import (
    ParseError,
    element_to_text,
    parse_element,
    parse_series,
    series_to_text,
)
from superyangian.series import RATIONALS, SeriesTail


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
    s = SeriesTail.from_map(RATIONALS, 3, {0: 1, 1: 2, 3: -1 * RATIONALS.one / 3})
    text = series_to_text(s)
    assert text == "1 + 2*u^-1 - 1/3*u^-3 + O(u^-4)"
    assert parse_series(text) == s


def test_zero_series_text():
    s = SeriesTail.zero(RATIONALS, 2)
    assert series_to_text(s) == "0 + O(u^-3)"
    assert parse_series("0 + O(u^-3)") == s


def test_element_series_round_trip():
    from superyangian.central import z_series

    z = z_series(1, 1, 3)
    alg = algebra(1, 1)
    text = series_to_text(z, element_coeffs=True)
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
        parse_series("1 + 2*u^-1")
