"""The defining relations expanded in coefficient form, checked against
the two-variable Cauchy-product expansion they replace and against the
per-quadruple loop `relation_residuals` replaced; the bound guard of
`closure_check`; and direct subtraction of operators."""

import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from defects import break_rewriting
from superyangian.algebra import Algebra, Element, GenIndex, relation_residuals
from superyangian.central import closure_check
from superyangian.morphisms import (
    MorphismTable,
    build_antipode,
    build_eta,
    build_transpose,
)
from superyangian.suites import SuiteSpec, run_suite
from superyangian.tensors import EndoOperator

PAIRS = [(1, 1), (2, 1), (1, 2), (0, 2)]


def reference_residual(alg, i, j, k, l, order):
    """The relation as Cauchy products of Element series in u and v:
    sign (u-v)[T_ij(u), T_kl(v)] - (T_kj(u)T_il(v) - T_kj(v)T_il(u)).

    A series is a {(r, s): coefficient of u^-r v^-s} dict.  The factors
    are known up to u^-order and v^-order, so after the (u - v) factor
    the nonzero coefficients with r, s < order are returned."""
    zero = alg.zero(1)

    def tseries(a, b, variable):
        coeffs = [alg.one(1) if a == b else zero]
        coeffs += [alg.gen(a, b, r) for r in range(1, order + 1)]
        return {(r, 0) if variable == "u" else (0, r): c for r, c in enumerate(coeffs)}

    def mul(x, y):
        out = {}
        for (r1, s1), a in x.items():
            for (r2, s2), b in y.items():
                if r1 + r2 <= order and s1 + s2 <= order:
                    key = (r1 + r2, s1 + s2)
                    out[key] = out.get(key, zero) + a * b
        return out

    def add(acc, x, scalar):
        for key, c in x.items():
            acc[key] = acc.get(key, zero) + c.scale(scalar)

    ib, jb = alg.index_parity(i), alg.index_parity(j)
    kb, lb = alg.index_parity(k), alg.index_parity(l)
    sign = -1 if (ib * kb + ib * lb + kb * lb) % 2 else 1
    eps = -1 if (ib + jb) % 2 and (kb + lb) % 2 else 1

    tij_u, tkl_v = tseries(i, j, "u"), tseries(k, l, "v")
    comm = {}
    add(comm, mul(tij_u, tkl_v), 1)
    add(comm, mul(tkl_v, tij_u), -eps)
    out = {}
    for (r, s), c in comm.items():  # times (u - v)
        add(out, {(r - 1, s): c}, sign)
        add(out, {(r, s - 1): c}, -sign)
    add(out, mul(tseries(k, j, "u"), tseries(i, l, "v")), -1)
    add(out, mul(tseries(k, j, "v"), tseries(i, l, "u")), 1)
    return {key: c for key, c in out.items() if max(key) < order and not c.is_zero()}


def assert_matches_reference(alg, order):
    cells = list(iproduct(range(-1, order), repeat=2))
    nonzero = 0
    for quad, bad in relation_residuals(alg, alg._nf.__getitem__, cells):
        want = reference_residual(alg, *quad, order)
        assert [cell for cell, _ in bad] == sorted(want), quad
        for cell, c in bad:
            assert c == want[cell], (quad, cell)
        nonzero += len(bad)
    return nonzero


@pytest.mark.parametrize("m,n", PAIRS)
def test_coefficient_form_matches_the_cauchy_product_expansion(m, n):
    assert assert_matches_reference(Algebra(m, n), 4) == 0


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
def test_coefficient_form_matches_the_reference_under_a_broken_rewriting(m, n):
    # a fresh algebra: the mutant must not poison the shared normal forms
    assert assert_matches_reference(break_rewriting(Algebra(m, n)), 4) > 0


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
    cells = [(p, q) for p in range(4) for q in range(4 - p)]

    def word_image(word):
        return table._apply_word(word).terms

    # every word through its image, or each bracket of two letters read
    # from the table's cache
    for bracket in (None, table.bracket):
        for quad, bad in relation_residuals(alg, word_image, cells, bracket):
            assert bad == reference_image_residuals(alg, table, *quad, 3)
            failing += len(bad)
    assert failing > 0


def reference_relation_residuals(alg, image, cells, bracket=None):
    """The per-quadruple loop `relation_residuals` replaced: letter rows
    built by one function, one generator of (cell, terms) per quadruple
    that yields every cell, and the nonzero cells wrapped into Elements
    by the caller."""
    top = 1 + max((max(cell) for cell in cells), default=-1)
    dims = range(1, alg.dim + 1)
    rows = {(a, b): [() if a == b else None] + [(alg.letter(a, b, r),) for r in range(1, top + 1)]
            for a in dims for b in dims}

    def quadruple_terms(i, j, k, l):
        ib, jb = alg.index_parity(i), alg.index_parity(j)
        kb, lb = alg.index_parity(k), alg.index_parity(l)
        sign = -1 if (ib * kb + ib * lb + kb * lb) % 2 else 1
        eps = -1 if (ib + jb) & 1 and (kb + lb) & 1 else 1
        tij, tkl, tkj, til = rows[i, j], rows[k, l], rows[k, j], rows[i, l]
        for p, q in cells:
            summands = []
            for r, s, c in ((p + 1, q, sign), (p, q + 1, -sign)):
                if r > 0 and s > 0:
                    (a,), (b,) = tij[r], tkl[s]
                    if bracket is None:
                        summands += ((c, image((a, b))), (-c * eps, image((b, a))))
                    elif a <= b:
                        summands.append((c, bracket(a, b).terms))
                    else:
                        summands.append((-c * eps, bracket(b, a).terms))
            for r, s, c in ((p, q, -1), (q, p, 1)):
                if r >= 0 and s >= 0 and tkj[r] is not None and til[s] is not None:
                    summands.append((c, image(tkj[r] + til[s])))
            acc = {}
            for c, terms in summands:
                for key, v in terms.items():
                    acc[key] = acc.get(key, 0) + c * v
            yield (p, q), {key: v for key, v in acc.items() if v}

    for quad in iproduct(dims, repeat=4):
        yield quad, [(cell, Element(alg, 1, terms))
                     for cell, terms in quadruple_terms(*quad) if terms]


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize("m,n", PAIRS)
def test_relation_residuals_match_the_per_quadruple_loop(m, n, broken):
    alg = break_rewriting(Algebra(m, n)) if broken else Algebra(m, n)
    box = list(iproduct(range(-1, 3), repeat=2))
    triangle = [(p, q) for p in range(3) for q in range(3 - p)]
    runs = [(box, alg._nf.__getitem__, None)]
    for build in (build_eta, build_transpose, build_antipode):
        table = build(alg)
        runs.append((triangle, lambda word, table=table: table._apply_word(word).terms,
                     table.bracket))
    nonzero = 0
    for cells, image, bracket in runs:
        got = list(relation_residuals(alg, image, cells, bracket))
        want = list(reference_relation_residuals(alg, image, cells, bracket))
        assert [quad for quad, _ in got] == [quad for quad, _ in want]
        for (quad, bad), (_, ref) in zip(got, want):
            assert [cell for cell, _ in bad] == [cell for cell, _ in ref], quad
            assert [x.terms for _, x in bad] == [x.terms for _, x in ref], quad
            nonzero += len(bad)
    assert bool(nonzero) == broken


@pytest.mark.parametrize("bound", [0, -3])
def test_closure_check_refuses_a_bound_below_one(bound):
    with pytest.raises(ValueError):
        closure_check(1, 1, bound)
    with pytest.raises(ValueError, match="parameter 'bound' must be at least 1"):
        run_suite(SuiteSpec("defining-relations", {"m": 1, "n": 1, "bound": bound}))


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

