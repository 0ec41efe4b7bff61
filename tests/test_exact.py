"""Exact coefficients: int when integral, Fraction otherwise, no floats;
the shared exact rank routine and its block split; normal ordering under
the default recursion limit."""

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
from superyangian import series
from superyangian.series import exact, row_rank, sparse_rank
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
        EndoOperator.identity(alg, 1).scale(0.25)


def test_boundaries_store_integral_values_as_int():
    alg = algebra(1, 1)
    x = alg.gen(1, 1, 1).scale(Fraction(3, 1))
    assert [type(c) for c in x.terms.values()] == [int]
    assert type(alg.scalar(Fraction(4, 2)).scalar_part()) is int
    op = EndoOperator.identity(alg, 1).scale(Fraction(6, 3))
    assert {type(v) for v in op.entries.values()} == {int}


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
        for entry in tinv.entries.values()
        for el in entry.coeffs
        for c in el.terms.values()
    }
    assert types == {int}


# -- the shared exact rank routine ---------------------------------------

# rows that float division declares dependent: 10**17 + 1 rounds to 10**17
BIG_ROWS = [[10**17, 1], [10**17 + 1, 1]]


EXACT_FAMILIES = [
    (BIG_ROWS, 2),
    ([[10**17, 1], [2 * 10**17, 2]], 1),
    ([], 0),
    ([[0, 0], [0, 0]], 0),
    ([[Fraction(1, 3), 1], [1, 3]], 1),
]


def test_row_rank_is_exact_on_large_integers():
    for rows, rank in EXACT_FAMILIES:
        assert row_rank(rows) == rank


def _fraction_rank(rows) -> int:
    """Textbook Gaussian elimination over Fraction, the reference."""
    rows = [[Fraction(x) for x in row] for row in rows]
    width = len(rows[0]) if rows else 0
    rank = 0
    for col in range(width):
        pivot = next((k for k in range(rank, len(rows)) if rows[k][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for k in range(rank + 1, len(rows)):
            f = rows[k][col] / rows[rank][col]
            rows[k] = [x - f * y for x, y in zip(rows[k], rows[rank])]
        rank += 1
    return rank


def _combination_rows(rng, n_rows: int, width: int, density: float = 0.7) -> list:
    """`n_rows` rows of `width` rationals drawn as combinations of fewer
    random basis rows: often rank-deficient."""
    basis = [
        [Fraction(rng.randrange(-9, 10), rng.randrange(1, 6)) if rng.random() < density else 0
         for _ in range(width)]
        for _ in range(rng.randrange(1, n_rows + 1))
    ]
    rows = []
    for _ in range(n_rows):
        coeffs = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in basis]
        rows.append([exact(sum(c * b[j] for c, b in zip(coeffs, basis)))
                     for j in range(width)])
    return rows


def test_row_rank_matches_fraction_elimination():
    rng = random.Random(5)
    deficient = 0
    for _ in range(120):
        n_rows, width = rng.randrange(1, 8), rng.randrange(1, 8)
        rows = _combination_rows(rng, n_rows, width)
        want = _fraction_rank(rows)
        deficient += want < min(n_rows, width)
        assert row_rank(rows) == want, rows
    assert deficient >= 30


# -- the block rank ------------------------------------------------------


def _sparse(rows, cols=None) -> list:
    """Dense rows as dicts {column key: nonzero value}."""
    cols = cols or range(len(rows[0]) if rows else 0)
    return [{c: x for c, x in zip(cols, row) if x} for row in rows]


def _dense_rank(rows) -> int:
    """`row_rank` of sparse rows as one dense matrix, the reference."""
    cols = list(dict.fromkeys(key for row in rows for key in row))
    return row_rank([[row.get(c, 0) for c in cols] for row in rows])


def test_sparse_rank_equals_row_rank_on_the_exact_rows():
    for rows, rank in EXACT_FAMILIES:
        assert sparse_rank(_sparse(rows)) == rank
    rng = random.Random(5)
    for _ in range(120):
        rows = _combination_rows(rng, rng.randrange(1, 8), rng.randrange(1, 8))
        assert sparse_rank(_sparse(rows)) == row_rank(rows), rows


def _random_family(rng) -> list:
    """Sparse rows over a few disjoint column groups, shuffled: the blocks
    of each group are rank-deficient combinations, plus all-zero rows
    (empty, or with explicit zero values) and single-column rows."""
    rows = []
    for group in range(rng.randrange(1, 5)):
        width = rng.randrange(1, 6)
        cols = [(group, c) for c in range(width)]
        rows += _sparse(_combination_rows(rng, rng.randrange(1, 6), width, 0.5), cols)
    for col in range(rng.randrange(0, 3)):
        rows += [{("single", col): rng.randrange(1, 9)}] * rng.randrange(1, 3)
    rows += [{}] * rng.randrange(0, 2) + [{(0, 0): 0, ("zero", 1): 0}] * rng.randrange(0, 2)
    rng.shuffle(rows)
    return rows


def test_sparse_rank_equals_row_rank_on_random_block_families():
    rng = random.Random(11)
    for _ in range(150):
        rows = _random_family(rng)
        assert sparse_rank(rows) == _dense_rank(rows), rows
    # one fully connected family: every row shares the column "hub"
    for _ in range(30):
        rows = _random_family(rng)
        rows = [{**row, "hub": rng.randrange(1, 5)} for row in rows]
        assert sparse_rank(rows) == _dense_rank(rows), rows


def test_rows_sharing_one_column_are_ranked_as_one_block(monkeypatch):
    blocks = []
    real = series.row_rank

    def recording(rows):
        blocks.append(len(rows))
        return real(rows)

    monkeypatch.setattr(series, "row_rank", recording)
    assert sparse_rank([{"a": 1, "b": 1}, {"c": 1}, {"b": 2, "d": 1}]) == 3
    assert sorted(blocks) == [1, 2]
    blocks.clear()
    assert sparse_rank([{"a": 1}, {"b": 1}, {"a": 2}]) == 2
    assert sorted(blocks) == [1, 2]


def test_the_pbw_rank_known_red_keeps_its_rank_in_blocks(monkeypatch):
    """The family of criterion 9 (gl(1|1), level <= 3, points 0, 1, 5)
    splits into several blocks (by weight, at least), and its rank is
    still 26 of 49, as one dense elimination finds."""
    from superyangian.tensor_checks import normal_monomials
    from superyangian.tensors import multi_eval_rep

    alg = algebra(1, 1)
    rows = [multi_eval_rep(alg.element([(1, [word])]), (0, 1, 5)).entries
            for word in normal_monomials(alg, 3)]
    blocks = []
    real = series.row_rank
    monkeypatch.setattr(series, "row_rank", lambda block: blocks.append(block) or real(block))
    assert sparse_rank(rows) == 26
    assert len(blocks) > 1 and sum(map(len, blocks)) == len(rows) == 49
    monkeypatch.setattr(series, "row_rank", real)
    assert _dense_rank(rows) == 26


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
        assert all(a < b or (a == b and alg.parities[a.i] == alg.parities[a.j])
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


# -- evaluation points ---------------------------------------------------


def test_exact_point_is_a_fraction_and_rejects_floats():
    from superyangian.series import exact_point

    for value, want in [(3, 3), (Fraction(6, 3), 2), ("-7/3", Fraction(-7, 3))]:
        point = exact_point(value)
        assert point == want and type(point) is Fraction
    with pytest.raises(TypeError):
        exact_point(0.1)


def test_evaluation_points_reject_floats():
    from superyangian.algebra import GenIndex
    from superyangian.tensors import eval_rep_gen, multi_eval_rep, r_cleared

    alg = algebra(1, 1)
    with pytest.raises(TypeError):
        eval_rep_gen(alg, GenIndex(1, 2, 2), 0.1)
    with pytest.raises(TypeError):
        r_cleared(alg, 0.1)
    with pytest.raises(TypeError):
        multi_eval_rep(alg.gen(1, 2, 1), [0.1, 1])
    # R(2): the cleared factor 2 R(2) divided by the numerator of the point
    r_at = [r_cleared(alg, c).divide(2) for c in (2, Fraction(2), "2")]
    assert r_at[0] == r_at[1] == r_at[2]


@pytest.mark.parametrize("suite", ["eval-rep", "pbw-rank"])
def test_float_points_skip_with_type_error(suite):
    """Once a `skipped` report; now an input error raised by `run_suite`."""
    from superyangian.suites import SuiteSpec, run_suite

    with pytest.raises(ValueError, match=f"^{suite}: TypeError: parameter 'points'"):
        run_suite(SuiteSpec(suite, {"points": [0.1, 1, -2]}))
