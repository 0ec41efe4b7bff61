"""Exact coefficients: int when integral, Fraction otherwise, no floats;
the shared exact rank routine; normal ordering under the default
recursion limit."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from superyangian.algebra import algebra
from superyangian.central import element_rank
from superyangian.grammar import parse_element
from superyangian.matrices import invert_t, t_matrix
from superyangian.series import exact, row_rank
from superyangian.tensors import EndoOperator, operator_rank

SRC = Path(__file__).resolve().parents[1] / "src"


def test_exact_keeps_int_and_demotes_integral_fraction():
    assert exact(7) == 7 and type(exact(7)) is int
    assert exact(Fraction(3, 1)) == 3 and type(exact(Fraction(3, 1))) is int
    assert exact(Fraction(-6, 3)) == -2 and type(exact(Fraction(-6, 3))) is int
    assert exact(True) == 1 and type(exact(True)) is int


def test_exact_keeps_proper_fraction():
    half = exact(Fraction(1, 2))
    assert half == Fraction(1, 2) and type(half) is Fraction


@pytest.mark.parametrize("bad", [0.1, 0.5, 2.0, "1/3", None])
def test_exact_rejects_non_rationals(bad):
    with pytest.raises(TypeError):
        exact(bad)


def test_floats_are_rejected_at_every_boundary():
    alg = algebra(1, 1)
    x = alg.gen(1, 1, 1)
    with pytest.raises(TypeError):
        x.scale(0.1)
    with pytest.raises(TypeError):
        x * 0.5
    with pytest.raises(TypeError):
        alg.scalar(0.5)
    with pytest.raises(TypeError):
        alg.element([(0.5, [[(1, 1, 1)]])])
    with pytest.raises(TypeError):
        EndoOperator.scalar(alg, 0.5)
    with pytest.raises(TypeError):
        EndoOperator.identity(alg, 1).scale(0.25)


def test_boundaries_store_integral_values_as_int():
    alg = algebra(1, 1)
    x = alg.gen(1, 1, 1).scale(Fraction(3, 1))
    assert [type(c) for c in x.terms.values()] == [int]
    assert type(alg.scalar(Fraction(4, 2)).scalar_part()) is int
    op = EndoOperator.identity(alg, 1).scale(Fraction(6, 3))
    assert {type(v) for v in op.entries.values()} == {int}
    assert type(EndoOperator.scalar(alg, Fraction(5, 1)).scalar_value()) is int


def test_parsed_coefficients_keep_their_exact_type():
    alg = algebra(1, 1)
    x = parse_element(alg, "1/3*T[1,1,1] + 4/2*T[1,1,2]")
    coeffs = {mon[0][0].r: c for mon, c in x.terms.items()}
    assert coeffs[1] == Fraction(1, 3) and type(coeffs[1]) is Fraction
    assert coeffs[2] == 2 and type(coeffs[2]) is int


def test_odd_square_rewrite_halves_recombine_to_int():
    # X*X -> [X,X]/2 produces halves that sum to 1 in the normal form
    alg = algebra(1, 1)
    x = alg.gen(1, 2, 2)
    square = x * x
    assert square == alg.gen(1, 2, 1) * alg.gen(1, 2, 2)
    assert {type(c) for c in square.terms.values()} == {int}
    randomized = alg.normal_order_randomized([(1, 2, 2), (1, 2, 2)], random.Random(0))
    assert randomized == square


def test_half_scaled_odd_square_carries_fraction_half():
    alg = algebra(1, 1)
    got = alg.element([(Fraction(1, 2), [[(1, 2, 2), (1, 2, 2)]])])
    (coeff,) = got.terms.values()
    assert coeff == Fraction(1, 2) and type(coeff) is Fraction


def test_integral_kernel_results_are_int():
    # the exchange relations have integer structure constants, so the
    # whole of T(u)^-1 is integral and must come out as int
    alg = algebra(1, 2)
    tinv = invert_t(t_matrix(alg, 3))
    types = {
        type(c)
        for row in tinv.rows
        for entry in row
        for el in entry.coeffs
        for c in el.terms.values()
    }
    assert types == {int}


# -- the shared exact rank routine ---------------------------------------

# rows that float division declares dependent: 10**17 + 1 rounds to 10**17
BIG_ROWS = [[10**17, 1], [10**17 + 1, 1]]


def test_row_rank_is_exact_on_large_integers():
    assert row_rank(BIG_ROWS) == 2
    assert row_rank([[10**17, 1], [2 * 10**17, 2]]) == 1
    assert row_rank([]) == 0
    assert row_rank([[0, 0], [0, 0]]) == 0
    assert row_rank([[Fraction(1, 3), 1], [1, 3]]) == 1


def test_operator_rank_is_exact_on_large_integers():
    alg = algebra(1, 1)
    a, b = ((1,), (1,)), ((1,), (2,))
    ops = [EndoOperator(alg, 1, {a: row[0], b: row[1]}) for row in BIG_ROWS]
    assert operator_rank(ops) == 2
    square = EndoOperator(alg, 1, {((1,), (1,)): 10**17, ((1,), (2,)): 1,
                                   ((2,), (1,)): 10**17 + 1, ((2,), (2,)): 1})
    assert square.rank() == 2


def test_element_rank_is_exact_on_large_integers():
    # the route of the top-symbol independence check
    alg = algebra(1, 1)
    elements = [
        alg.gen(1, 1, 1).scale(row[0]) + alg.gen(2, 2, 1).scale(row[1])
        for row in BIG_ROWS
    ]
    assert element_rank(elements) == 2
    assert element_rank([elements[0], elements[0].scale(3)]) == 1


# -- recursion depth -----------------------------------------------------

_RECURSION_SCRIPT = """
import sys
sys.setrecursionlimit(1000)
import superyangian
import superyangian.cli, superyangian.mixed, superyangian.suites
assert sys.getrecursionlimit() == 1000, sys.getrecursionlimit()
from superyangian.algebra import Algebra
for m, n in [(1, 1), (2, 1), (1, 2)]:
    alg = Algebra(m, n)
    word = sorted(alg.gens(4), reverse=True)[:6]
    x = alg.element([(1, [word])])
    assert not x.is_zero()
    for (w,), c in x.terms.items():
        assert all(a < b or (a == b and not alg.gen_parity(a))
                   for a, b in zip(w, w[1:])), w
print("ok")
"""


def test_normal_ordering_fits_default_recursion_limit():
    """Importing the package leaves the recursion limit alone, and a
    reverse-sorted length-6 word of level <= 4 normal-orders under the
    default limit of 1000 (rewriting lowers (total level, inversions),
    so the recursion depth stays about 30)."""
    proc = subprocess.run(
        [sys.executable, "-c", _RECURSION_SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
