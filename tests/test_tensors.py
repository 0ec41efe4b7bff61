"""The exact tensor engine: operators, traces, symmetrizers, reps."""

import random
from fractions import Fraction
from itertools import product as iproduct
from math import prod
from pathlib import Path

import pytest

from defects import fresh_algebra
from helpers import letter_parity, poly_cleared
from superyangian import tensors
from superyangian.algebra import Algebra, algebra, embed_gl
from superyangian.series import VARIABLES, Poly
from superyangian.tensor_checks import (
    eval_embedding_identity_check,
    eval_relations_check,
    multi_eval_consistency_check,
    normal_monomials,
    p_q_basics_check,
    pbw_confluence_check,
    pbw_rank_check,
    q_identity_check,
    rep_rtt_check,
    supertrace_cyclicity_check,
    symmetrizer_agreement_check,
    unitarity_check,
    yang_baxter_check,
)
from superyangian.tensors import (
    EndoOperator,
    SpaceGuardError,
    dump_operator,
    embed,
    eval_rep,
    matrix_unit,
    multi_eval_rep,
    parse_operator_dump,
    partial_supertrace,
    perm_p,
    placed,
    projectors_ij,
    q_op,
    r_cleared,
    supertrace,
    tau_leg,
    tensor,
)

GOLDEN = Path(__file__).parent / "golden"


def test_perm_p_action_and_square():
    alg = algebra(1, 1)
    p = perm_p(alg)
    # P(e_2 (x) e_2) = -e_2 (x) e_2 ; P(e_1 (x) e_2) = e_2 (x) e_1
    assert p.entries[((2, 2), (2, 2))] == -1
    assert p.entries[((2, 1), (1, 2))] == 1
    for (m, n) in [(1, 1), (2, 1), (2, 2)]:
        a = algebra(m, n)
        assert perm_p(a) * perm_p(a) == EndoOperator.identity(a, 2)


def test_q_rank_and_square():
    for (m, n) in [(1, 1), (2, 1), (1, 3)]:
        alg = algebra(m, n)
        q = q_op(alg)
        assert q.rank() == 1
        assert q * q == q.scale(m - n)
    assert (q_op(algebra(1, 1)) * q_op(algebra(1, 1))).is_zero()


def test_projectors():
    alg = algebra(2, 1)
    i_proj, j_proj = projectors_ij(alg)
    assert supertrace(i_proj) == 2
    assert supertrace(j_proj) == -1
    assert partial_supertrace(i_proj, [1]).scalar_value() + \
        partial_supertrace(j_proj, [1]).scalar_value() == 2 - 1
    q = q_op(alg)
    ij = tensor([i_proj, j_proj])
    assert (ij * q).is_zero() and (q * ij).is_zero()
    ii = tensor([i_proj, i_proj])
    jj = tensor([j_proj, j_proj])
    assert q * (ii + jj) == q


def test_tau_leg():
    alg = algebra(1, 1)
    assert tau_leg(perm_p(alg), 2) == q_op(alg)
    # tau^2 on E_ij gives (-1)^(ibar+jbar) E_ij
    e12 = matrix_unit(alg, 1, 2)
    assert tau_leg(tau_leg(e12, 1), 1) == e12.scale(-1)
    e11 = matrix_unit(alg, 1, 1)
    assert tau_leg(tau_leg(e11, 1), 1) == e11
    p = perm_p(alg)
    assert tau_leg(tau_leg(p, 1), 2) == p


def test_supertrace_examples():
    alg = algebra(2, 1)
    assert supertrace(matrix_unit(alg, 1, 1)) == 1
    assert supertrace(matrix_unit(alg, 3, 3)) == -1
    assert supertrace(EndoOperator.identity(alg, 1)) == 2 - 1
    # brute-force value of str (x) str on P: sum over the abstract terms
    # E_ij (x) E_ji (-1)^jbar of delta_ij * (-1)^(ibar+jbar+jbar)
    p = perm_p(alg)
    brute = Fraction(0)
    for i in range(1, 4):
        brute += (-1) ** alg.parities[i]
    assert supertrace(p) == brute  # = M - N


def test_partial_supertrace_against_brute_force():
    import random

    alg = algebra(1, 1)
    rng = random.Random(3)
    idx = [(i, j) for i in (1, 2) for j in (1, 2)]
    for _ in range(25):
        abstract = {}
        for _ in range(rng.randrange(1, 5)):
            rows = (rng.choice((1, 2)), rng.choice((1, 2)), rng.choice((1, 2)))
            cols = (rng.choice((1, 2)), rng.choice((1, 2)), rng.choice((1, 2)))
            abstract[(rows, cols)] = Fraction(rng.randrange(-4, 5))
        op = EndoOperator.from_abstract(alg, 3, abstract)
        traced = partial_supertrace(op, [2])
        brute: dict = {}
        for (rows, cols), c in abstract.items():
            if rows[1] != cols[1]:
                continue
            sign = (-1) ** alg.parities[rows[1]]
            key = ((rows[0], rows[2]), (cols[0], cols[2]))
            brute[key] = brute.get(key, Fraction(0)) + c * sign
        assert traced == EndoOperator.from_abstract(alg, 2, brute)


def test_supertrace_cyclicity():
    assert not supertrace_cyclicity_check(1, 1, samples=60).failures
    assert not supertrace_cyclicity_check(2, 2, samples=40).failures


def test_golden_dumps():
    from superyangian.tensors import symmetrizers_direct

    for (m, n) in [(1, 1), (2, 1)]:
        alg = algebra(m, n)
        assert dump_operator(perm_p(alg)) == (GOLDEN / f"p_{m}{n}.txt").read_text()
        assert dump_operator(q_op(alg)) == (GOLDEN / f"q_{m}{n}.txt").read_text()
    g3, h3 = symmetrizers_direct(algebra(1, 1), 3)
    assert dump_operator(g3) == (GOLDEN / "g3_11.txt").read_text()
    assert dump_operator(h3) == (GOLDEN / "h3_11.txt").read_text()


def test_dump_round_trip():
    alg = algebra(2, 1)
    q = q_op(alg)
    assert parse_operator_dump(dump_operator(q)) == q


def test_dump_round_trip_keeps_int_fraction_and_poly_entries():
    alg = algebra(1, 1)
    u, v = Poly.var("u"), Poly.var("v")
    for value in (-3, Fraction(-2, 7), 2 * u * u * v - 3 * v + 1):
        op = EndoOperator(alg, 2, {((1, 2), (2, 1)): value, ((2, 2), (1, 1)): 5})
        back = parse_operator_dump(dump_operator(op))
        assert back == op
        assert [type(x) for x in back.entries.values()] == [type(x) for x in op.entries.values()]
    scalar = EndoOperator(alg, 0, {((), ()): Fraction(5, 3)})
    assert dump_operator(scalar) == "1 1 0\n  5/3\n"
    assert parse_operator_dump(dump_operator(scalar)) == scalar


@pytest.mark.parametrize("text,why", [
    ("", "line 1: header '' is not three ints M N legs"),
    ("1 1\n", "line 1: header '1 1' is not three ints M N legs"),
    ("1 1 2\n1,2 1 3\n", "line 2: row 1,2 or column 1 does not have 2 legs"),
    ("1 1 1\n\n1 1 1 1\n", "line 3: '1 1 1 1' is not 'rows cols value'"),
    ("1 1 0\n1 1 5\n", "line 2: '1 1 5' is not 'value'"),
    ("1 1 1\n7 1 1\n", "line 2: an index of 7 1 is outside 1..2"),
    ("1 1 1\n1 1 1\n1 1 2\n", "line 3: entry ((1,), (1,)) repeated"),
    ("1 1 1\n1 2 0\n", "line 2: zero value"),
    ("1 1 1\n1 2 u-u\n", "line 2: zero value"),
], ids=["empty", "header", "legs", "fields", "no-legs", "index", "repeated", "zero", "zero-poly"])
def test_a_malformed_operator_dump_is_rejected_naming_its_line(text, why):
    with pytest.raises(ValueError) as exc:
        parse_operator_dump(text)
    assert str(exc.value) == "operator dump " + why


@pytest.mark.parametrize("text,why", [
    ("1 1 -1\n", "header '1 1 -1' has a negative leg count"),
    ("0 0 1\n", "need M, N >= 0 with M + N >= 1"),
    ("-1 2 1\n", "need M, N >= 0 with M + N >= 1"),
], ids=["negative-legs", "no-index", "negative-m"])
def test_an_operator_dump_header_without_a_space_is_rejected_on_line_1(text, why):
    """`1 1 -1` once read as an operator on -1 legs, and an M, N that no
    algebra has was rejected without a line."""
    with pytest.raises(ValueError) as exc:
        parse_operator_dump(text)
    assert str(exc.value) == "operator dump line 1: " + why


@pytest.mark.parametrize("value", ["u++v", "2*x*u"], ids=["stray-sign", "factor"])
def test_an_operator_dump_value_that_is_no_polynomial_is_rejected(value):
    with pytest.raises(ValueError) as exc:
        parse_operator_dump(f"1 1 1\n1 2 {value}\n")
    assert str(exc.value) == f"operator dump line 2: not a polynomial in u, v: {value!r}"


def test_space_guard():
    alg = algebra(2, 2)
    with pytest.raises(SpaceGuardError):
        EndoOperator.identity(alg, 9)


def test_yang_baxter_and_unitarity():
    for (m, n) in [(1, 1), (0, 3), (2, 1)]:
        assert not yang_baxter_check(m, n).failures
        assert not unitarity_check(m, n).failures
    assert not p_q_basics_check(1, 2).failures


def test_q_identities():
    assert not q_identity_check(1, 1).failures
    assert not q_identity_check(2, 1).failures


def test_q_identities_reject_pure_cases():
    with pytest.raises(ValueError):
        q_identity_check(2, 0)


def test_symmetrizer_agreement():
    assert not symmetrizer_agreement_check(1, 1, 4).failures
    assert not symmetrizer_agreement_check(2, 1, 3).failures
    assert not symmetrizer_agreement_check(1, 0, 2).failures


def test_symmetrizer_n2_explicit():
    from superyangian.tensors import symmetrizers_direct

    alg = algebra(1, 1)
    g, h = symmetrizers_direct(alg, 2)
    p = perm_p(alg)
    ident = EndoOperator.identity(alg, 2)
    assert g == ident - p
    assert h == ident + p


def test_eval_rep_examples():
    alg = algebra(1, 1)
    # T[1,1,1] -> -E_11 at any z
    assert eval_rep(alg.gen(1, 1, 1), 3) == matrix_unit(alg, 1, 1).scale(-1)
    # z = 0 kills higher levels: the evaluation homomorphism
    assert eval_rep(alg.gen(1, 2, 2), 0).is_zero()
    # homomorphism property on a product
    x, y = alg.gen(1, 2, 1), alg.gen(2, 1, 2)
    z = Fraction(2)
    assert eval_rep(x * y, z) == eval_rep(x, z) * eval_rep(y, z)


def test_eval_rep_kills_relations():
    assert not eval_relations_check(1, 1, (0, 1, -2), 2).failures
    assert not eval_relations_check(2, 1, (0, 1, -2), 2).failures


def test_eval_embedding_identity():
    for (m, n) in [(1, 1), (2, 1), (1, 0)]:
        assert not eval_embedding_identity_check(m, n).failures
    alg = algebra(1, 1)
    assert eval_rep(embed_gl(alg, 1, 2), 0) == matrix_unit(alg, 1, 2)


def test_multi_eval_single_point_reduction():
    alg = algebra(1, 1)
    x = alg.gen(1, 2, 2) * alg.gen(2, 1, 1)
    assert multi_eval_rep(x, (Fraction(3),)) == eval_rep(x, 3)


def test_multi_eval_routes_agree():
    assert not multi_eval_consistency_check(1, 1, (0, 1), 3).failures
    assert not multi_eval_consistency_check(1, 1, (0, 1, 5), 2).failures
    assert not multi_eval_consistency_check(2, 1, (0, 1), 2).failures


@pytest.mark.parametrize("call", [
    lambda: eval_relations_check(1, 1, (), 3),
    lambda: eval_relations_check(1, 1, (0,), 0),
    lambda: multi_eval_consistency_check(1, 1, (0, 1), 0),
    lambda: multi_eval_consistency_check(1, 1, (), 2),
], ids=["relations-no-point", "relations-level-0", "multi-eval-r_max-0", "multi-eval-no-point"])
def test_image_checks_refuse_to_compare_no_image(call):
    # each of these once returned ok while comparing no image
    with pytest.raises(ValueError):
        call()


def test_rep_rtt():
    assert not rep_rtt_check(1, 1, 2).failures


@pytest.mark.parametrize("n_points", [0, 4])
def test_rep_rtt_rejects_point_counts_outside_one_to_three(n_points):
    with pytest.raises(ValueError):
        rep_rtt_check(1, 1, n_points)


# -- cleared R-matrix factors at rational points ---------------------------

CLEARED_POINTS = [3, -2, Fraction(7, 3), Fraction(-5, 2)]


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
@pytest.mark.parametrize("c", CLEARED_POINTS)
def test_cleared_factors_are_integral_multiples(m, n, c):
    alg = algebra(m, n)
    a = Fraction(c).numerator
    for legs, total in [((1, 2), 2), ((1, 3), 3), ((3, 2), 3)]:
        got = r_cleared(alg, c, legs, total)
        assert got == embed(r_cleared(alg, c).divide(a), legs, total).scale(a)
        assert {type(v) for v in got.entries.values()} == {int}


def test_cleared_residual_matches_fraction_residual():
    """R12 R23 R13 and R23 R13 R12 differ; the cleared residual divided by
    the product of the numerators is the Fraction-route residual."""
    alg = algebra(2, 1)
    u, v, w = Fraction(1, 2), Fraction(5), Fraction(-7, 3)
    points = {(1, 2): u - v, (2, 3): v - w, (1, 3): u - w}
    frac = {legs: embed(r_cleared(alg, c).divide(c.numerator), legs, 3)
            for legs, c in points.items()}
    cleared = {legs: r_cleared(alg, c, legs, 3) for legs, c in points.items()}
    scale = 1
    for c in points.values():
        scale *= c.numerator

    def residual(r):
        return r[(1, 2)] * r[(2, 3)] * r[(1, 3)] - r[(2, 3)] * r[(1, 3)] * r[(1, 2)]

    want = residual(frac)
    assert not want.is_zero()
    got = residual(cleared)
    assert {type(x) for x in got.entries.values()} == {int}
    assert dump_operator(got.divide(scale)) == dump_operator(want)


# -- polynomial entries: the ring Z[u, v] ------------------------------------

U, V = map(Poly.var, VARIABLES)


def value(p: Poly, point) -> int:
    """p at the point (u, v)."""
    return sum(c * prod(x**k for x, k in zip(point, e)) for e, c in p.terms.items())


def random_poly(rng) -> Poly:
    out = Poly({})
    for _ in range(rng.randrange(4)):
        e = tuple(rng.randrange(3) for _ in VARIABLES)
        out = out + Poly({e: rng.choice([-3, -2, -1, 1, 2, 3])})
    return out


def test_evaluation_is_a_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(200):
        p, q, k = random_poly(rng), random_poly(rng), rng.randrange(-4, 5)
        x = [rng.randrange(-6, 7) for _ in VARIABLES]
        px, qx = value(p, x), value(q, x)
        assert value(p + q, x) == px + qx
        assert value(p - q, x) == px - qx
        assert value(p * q, x) == px * qx
        assert value(-p, x) == -px
        assert value(p + k, x) == value(k + p, x) == px + k
        assert value(p - k, x) == px - k and value(k - p, x) == k - px
        assert value(p * k, x) == value(k * p, x) == px * k


def test_zero_is_falsy_and_a_constant_equals_its_int():
    assert not Poly({}) and not U - U and not U * 0
    assert U and U - U + 1
    assert U - U + 3 == 3 and 3 == U - U + 3
    assert Poly({}) == 0 and U != 0 and U + 1 != 1
    assert str(2 * U * U * V - 3 * V + 1) == "2*u^2*v-3*v+1"
    assert str(-U + 1) == "-u+1" and str(U - U) == "0"


def evaluated(op: EndoOperator, point) -> EndoOperator:
    return EndoOperator(op.alg, op.legs, {
        k: value(v, point) if isinstance(v, Poly) else v for k, v in op.entries.items()})


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
def test_yang_baxter_sides_evaluate_to_the_cleared_grid_products(m, n):
    """The two sides of the identity (at w = 0), each one product of
    cleared factors with `Poly` entries, at the differences (u - w, v - w)
    of each point of the 4 x 4 x 4 grid the check once evaluated, are the
    products of the integral cleared factors there."""
    alg = algebra(m, n)
    r12 = poly_cleared(alg, U - V, "P", (1, 2), 3)
    r13 = poly_cleared(alg, U, "P", (1, 3), 3)
    r23 = poly_cleared(alg, V, "P", (2, 3), 3)
    lhs, rhs = r12 * r13 * r23, r23 * r13 * r12
    for u, v, w in iproduct(range(4), range(5, 9), range(10, 14)):
        f12 = r_cleared(alg, u - v, (1, 2), 3)
        f13 = r_cleared(alg, u - w, (1, 3), 3)
        f23 = r_cleared(alg, v - w, (2, 3), 3)
        assert evaluated(lhs, (u - w, v - w)) == f12 * f13 * f23
        assert evaluated(rhs, (u - w, v - w)) == f23 * f13 * f12


def test_placed_operators_are_built_once_and_never_mutated(monkeypatch):
    built = []
    real_embed = tensors.embed

    def counting_embed(op, legs_at, total):
        built.append((legs_at, total))
        return real_embed(op, legs_at, total)

    monkeypatch.setattr(tensors, "embed", counting_embed)
    alg = Algebra(2, 1)
    p13 = placed(alg, "P", (1, 3), 3)
    assert placed(alg, "P", (1, 3), 3) is p13
    assert placed(alg, "Q", (1, 3), 3) is not p13
    assert len(built) == 2
    assert p13 == embed(perm_p(alg), (1, 3), 3)

    shared = algebra(1, 1)
    keys = [("1", (), 3), ("P", (1, 2), 3), ("P", (1, 3), 3), ("P", (2, 3), 3)]
    before = {key: dict(placed(shared, *key).entries) for key in keys}
    ops = {key: placed(shared, *key) for key in keys}
    assert not yang_baxter_check(1, 1).failures
    for key in keys:
        assert placed(shared, *key) is ops[key]
        assert ops[key].entries == before[key]


def embed_by_lists(op, legs_at, total):
    """`embed` as first written: each full index assembled in Python
    lists, one filler at a time."""
    alg = op.alg
    others = [h for h in range(1, total + 1) if h not in legs_at]
    out = {}
    for (rows, cols), coeff in op.to_abstract().items():
        for filler in iproduct(range(1, alg.dim + 1), repeat=len(others)):
            full_rows, full_cols = [0] * total, [0] * total
            for pos, h in enumerate(legs_at):
                full_rows[h - 1], full_cols[h - 1] = rows[pos], cols[pos]
            for pos, h in enumerate(others):
                full_rows[h - 1] = full_cols[h - 1] = filler[pos]
            key = (tuple(full_rows), tuple(full_cols))
            out[key] = out.get(key, 0) + coeff * tensors.bake_sign(alg, *key)
    return EndoOperator(alg, total, out)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2)])
def test_embed_equals_the_list_assembly_at_every_placement_of_the_battery(m, n, monkeypatch):
    """P, Q, the I/J chains and G/H at every (legs_at, total) that the
    Q battery and Yang-Baxter place, and one-leg placements."""
    alg = fresh_algebra(monkeypatch, m, n)
    assert not q_identity_check(m, n).failures and not yang_baxter_check(m, n).failures
    placed_keys = [key for key in alg.placements if key[0] != "1"]
    assert {name for name, _, _ in placed_keys} == {"P", "Q", "I", "J", "G", "H"}
    i_proj, j_proj = projectors_ij(alg)
    cases = [(i_proj, (1,), 1), (j_proj, (2,), 3), (tensor([i_proj, j_proj]), (3, 1), 3)]
    for name, legs_at, total in placed_keys:
        if name in "GH":
            op = tensors.symmetrizers_direct(alg, len(legs_at))["GH".index(name)]
        else:
            op = tensors._ELEMENTARY[name](alg)
            op = tensor([op] * len(legs_at)) if op.legs == 1 else op
        cases.append((op, legs_at, total))
    for op, legs_at, total in cases:
        got, want = embed(op, legs_at, total), embed_by_lists(op, legs_at, total)
        assert got.entries == want.entries, (legs_at, total)
        assert list(got.entries) == list(want.entries)


def test_pbw_confluence():
    assert not pbw_confluence_check(1, 1, schedules=120, filt_max=5).failures


def test_pbw_rank_deficiency_is_structural():
    """The fixed-point multi-point representation can never separate all
    bounded-level monomials: the even central element of gl(M|N) acts by
    the scalar n, so T[1,1,1] - T[2,2,1] + n is in the kernel."""
    alg = algebra(1, 1)
    kernel_element = alg.gen(1, 1, 1) - alg.gen(2, 2, 1) + alg.scalar(3)
    assert multi_eval_rep(kernel_element, (0, 1, 5)).is_zero()
    assert multi_eval_rep(kernel_element, (2, 3, 7)).is_zero()
    report = pbw_rank_check(1, 1, 3, (0, 1, 5))
    assert report.failures
    assert report.info["monomials"] == 49
    assert report.info["rank"] == 26  # regression: the achieved rank


def test_normal_monomial_enumeration():
    alg = algebra(1, 1)
    words = normal_monomials(alg, 2)
    assert len(words) == 17
    for w in words:
        assert sum(g.r for g in w) <= 2
        assert list(w) == sorted(w)
        for a, b in zip(w, w[1:]):
            assert not (a == b and letter_parity(alg, a))
