"""The defining relations expanded in coefficient form, checked against
the two-variable Cauchy-product expansion they replace; the bound guard
of `closure_check`; and direct subtraction of operators and BiSeries."""

import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from superyangian.algebra import Algebra, GenIndex, defining_relation_residual
from superyangian.central import _image_closure_residuals, closure_check
from superyangian.morphisms import MorphismTable, build_transpose
from superyangian.series import RATIONALS, BiSeries, Ring
from superyangian.suites import SuiteSpec, run_suite
from superyangian.tensors import EndoOperator

PAIRS = [(1, 1), (2, 1), (1, 2), (0, 2)]


def reference_residual(alg, i, j, k, l, order_u, order_v):
    """The relation as BiSeries Cauchy products of Element series:
    sign (u-v)[T_ij(u), T_kl(v)] - (T_kj(u)T_il(v) - T_kj(v)T_il(u))."""
    ring = Ring(alg.zero(1), alg.one(1), f"Y({alg.m}|{alg.n})")

    def tseries_u(a, b):
        coeffs = [alg.one(1) if a == b else alg.zero(1)]
        coeffs += [alg.gen(a, b, r) for r in range(1, order_u + 1)]
        return BiSeries.in_u(ring, order_u, order_v, coeffs)

    def tseries_v(a, b):
        coeffs = [alg.one(1) if a == b else alg.zero(1)]
        coeffs += [alg.gen(a, b, s) for s in range(1, order_v + 1)]
        return BiSeries.in_v(ring, order_u, order_v, coeffs)

    ib, jb = alg.index_parity(i), alg.index_parity(j)
    kb, lb = alg.index_parity(k), alg.index_parity(l)
    sign = -1 if (ib * kb + ib * lb + kb * lb) % 2 else 1
    eps = -1 if (ib + jb) % 2 and (kb + lb) % 2 else 1

    tij_u = tseries_u(i, j)
    tkl_v = tseries_v(k, l)
    comm = tij_u * tkl_v - (tkl_v * tij_u).scale(eps)
    lhs = comm.times_u_minus_v().scale(sign)
    rhs = tseries_u(k, j) * tseries_v(i, l) - tseries_v(k, j) * tseries_u(i, l)
    rhs = BiSeries(ring, order_u - 1, order_v - 1, rhs.coeffs)
    return lhs - rhs


def assert_matches_reference(alg, order):
    nonzero = 0
    for i, j, k, l in iproduct(range(1, alg.dim + 1), repeat=4):
        got = defining_relation_residual(alg, i, j, k, l, order, order)
        want = reference_residual(alg, i, j, k, l, order, order)
        assert (got.order_u, got.order_v) == (order - 1, order - 1)
        assert got.coeffs.keys() == want.coeffs.keys(), (i, j, k, l)
        for cell, c in want.coeffs.items():
            assert got.coeffs[cell] == c, (i, j, k, l, cell)
        nonzero += len(got.coeffs)
    return nonzero


@pytest.mark.parametrize("m,n", PAIRS)
def test_coefficient_form_matches_the_cauchy_product_expansion(m, n):
    assert assert_matches_reference(Algebra(m, n), 4) == 0


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
def test_coefficient_form_matches_the_reference_under_a_broken_rewriting(m, n, monkeypatch):
    # a fresh algebra: the mutant must not poison the shared normal forms
    alg = Algebra(m, n)
    comm_terms = alg.comm_terms

    def flipped(a, b):
        terms = comm_terms(a, b)
        if a.r + b.r != 3:
            return terms
        return tuple((w, -c if len(w) == 1 else c) for w, c in terms)

    monkeypatch.setattr(alg, "comm_terms", flipped)
    assert assert_matches_reference(alg, 4) > 0


def reference_image_residuals(alg, table, i, j, k, l, bound):
    """Image residuals built from Element differences, one c(r, s) per
    (r, s) and the right-hand side per (p, q)."""
    ib, jb = alg.index_parity(i), alg.index_parity(j)
    kb, lb = alg.index_parity(k), alg.index_parity(l)
    sign = -1 if (ib * kb + ib * lb + kb * lb) % 2 else 1
    eps = -1 if (ib + jb) % 2 and (kb + lb) % 2 else 1
    zero = alg.zero(1)
    comm = {}
    for r in range(1, bound + 1):
        for s in range(1, bound + 2 - r):
            a, b = GenIndex(i, j, r), GenIndex(k, l, s)
            c = table._apply_word((a, b)) - table._apply_word((b, a)).scale(eps)
            comm[r, s] = c.scale(sign)

    def side(x, rx, y, ry):
        if (rx == 0 and x[0] != x[1]) or (ry == 0 and y[0] != y[1]):
            return zero
        word = tuple(GenIndex(*z, rz) for z, rz in ((x, rx), (y, ry)) if rz)
        return table._apply_word(word)

    bad = []
    for p in range(bound + 1):
        for q in range(bound - p + 1):
            lhs = comm.get((p + 1, q), zero) - comm.get((p, q + 1), zero)
            rhs = side((k, j), p, (i, l), q) - side((k, j), q, (i, l), p)
            if not (lhs - rhs).is_zero():
                bad.append(((p, q), lhs - rhs))
    return bad


def test_image_residuals_match_the_element_reference_on_a_broken_table():
    alg = Algebra(2, 1)
    transpose = build_transpose(alg)
    broken = GenIndex(1, 2, 2)

    def image(g):
        img = transpose.image(g)
        return img + alg.gen(1, 1, 1) if g == broken else img

    table = MorphismTable(alg, "broken", transpose.kind, image)
    failing = 0
    for i, j, k, l in iproduct(range(1, alg.dim + 1), repeat=4):
        got = _image_closure_residuals(alg, table, i, j, k, l, 3)
        assert got == reference_image_residuals(alg, table, i, j, k, l, 3)
        failing += len(got)
    assert failing > 0


@pytest.mark.parametrize("bound", [0, -3])
def test_closure_check_refuses_a_bound_below_one(bound):
    with pytest.raises(ValueError):
        closure_check(1, 1, bound)
    report = run_suite(SuiteSpec("defining-relations", {"m": 1, "n": 1, "bound": bound}))
    assert report.status == "skipped"
    assert "bound" in report.skip_reason


def random_operator(alg, rng, legs):
    basis = list(iproduct(range(1, alg.dim + 1), repeat=legs))
    return EndoOperator(alg, legs, {
        (rng.choice(basis), rng.choice(basis)): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        for _ in range(rng.randint(0, 12))
    })


def test_endo_operator_sub_matches_adding_the_negation():
    alg = Algebra(2, 1)
    rng = random.Random(7)
    cancelled = 0
    for _ in range(200):
        a = random_operator(alg, rng, 2)
        b = random_operator(alg, rng, 2)
        if rng.random() < 0.5:  # share entries so that some cancel exactly
            b = b + a.scale(rng.choice([1, 2]))
        diff = a - b
        assert diff.entries == (a + (-b)).entries
        assert all(v != 0 for v in diff.entries.values())
        cancelled += len((a.entries.keys() | b.entries.keys()) - diff.entries.keys())
    assert cancelled > 0


def random_biseries(rng, ring, element):
    return BiSeries(ring, 3, 2, {
        (rng.randint(-1, 3), rng.randint(-1, 2)): element(rng)
        for _ in range(rng.randint(0, 8))
    })


@pytest.mark.parametrize("over", ["rationals", "elements"])
def test_biseries_sub_matches_adding_the_negation(over):
    rng = random.Random(11)
    if over == "rationals":
        ring = RATIONALS

        def element(rng):
            return Fraction(rng.randint(-2, 2), rng.randint(1, 3))
    else:
        alg = Algebra(1, 1)
        ring = Ring(alg.zero(1), alg.one(1), "Y(1|1)")
        gens = [alg.one(1), alg.gen(1, 2, 1), alg.gen(2, 1, 1), alg.gen(1, 1, 2)]

        def element(rng):
            return rng.choice(gens).scale(rng.randint(-2, 2))
    cancelled = 0
    for _ in range(200):
        a = random_biseries(rng, ring, element)
        b = random_biseries(rng, ring, element)
        if rng.random() < 0.5:
            b = b + a
        diff = a - b
        assert diff.coeffs == (a + (-b)).coeffs
        assert all(v != ring.zero for v in diff.coeffs.values())
        cancelled += len((a.coeffs.keys() | b.coeffs.keys()) - diff.coeffs.keys())
    assert cancelled > 0
