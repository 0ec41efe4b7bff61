"""Operator-identity checks: Yang-Baxter, unitarity, the Q/P identity
battery, symmetrizer constructions, and evaluation-representation
consistency.

Rational-function identities in one or more variables are certified by
deterministic grid sampling: both sides times the product of all
denominators are polynomials of known per-variable degree d, so equality
on a grid with more than d distinct values per variable is a proof.  The
grid and the degree bound are recorded in the result.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct

from .algebra import GenIndex, algebra, supercommutator
from .checkresult import CheckResult, failure
from .tensors import (
    EndoOperator,
    dump_operator,
    embed,
    eval_rep,
    eval_rep_gen,
    matrix_unit,
    multi_eval_rep,
    multi_eval_rep_gen,
    operator_rank,
    partial_supertrace,
    perm_p,
    projectors_ij,
    q_op,
    r_at,
    r_matrix,
    rmatrix_route_images,
    symmetrizers_direct,
    symmetrizers_fusion,
    symmetrizers_recursive,
    tau_leg,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def _op_failure(location: dict, diff: EndoOperator) -> dict:
    return failure(location, dump_operator(diff), kind="operator")


def yang_baxter_check(m: int, n: int) -> CheckResult:
    """R_12(u-v) R_13(u-w) R_23(v-w) = R_23(v-w) R_13(u-w) R_12(u-v)
    on a grid certificate: after clearing the three denominators both
    sides are polynomials of per-variable degree <= 2, so agreement on a
    4-point-per-variable grid with pairwise distinct coordinates proves
    the identity."""
    alg = algebra(m, n)
    grid_u = [Fraction(x) for x in (0, 1, 2, 3)]
    grid_v = [Fraction(x) for x in (5, 6, 7, 8)]
    grid_w = [Fraction(x) for x in (10, 11, 12, 13)]
    failures = []
    for u in grid_u:
        for v in grid_v:
            for w in grid_w:
                r12 = embed(r_at(alg, u - v), (1, 2), 3)
                r13 = embed(r_at(alg, u - w), (1, 3), 3)
                r23 = embed(r_at(alg, v - w), (2, 3), 3)
                lhs = r12 * r13 * r23
                rhs = r23 * r13 * r12
                if lhs != rhs:
                    failures.append(_op_failure({"point": [str(u), str(v), str(w)]},
                                                lhs - rhs))
    info = {
        "grid": [[str(x) for x in g] for g in (grid_u, grid_v, grid_w)],
        "degree_bound_per_variable": 2,
    }
    return CheckResult(not failures, info, failures)


def unitarity_check(m: int, n: int, order: int = 4) -> CheckResult:
    """R(-u) R(u) = 1 - u^-2, both as a truncated series and on a
    3-point grid (cleared degree 2)."""
    alg = algebra(m, n)
    r = r_matrix(alg, order)
    prod = r.negate_argument().series * r.series
    ring = prod.ring
    want_coeffs = [ring.one] + [ring.zero] * order
    if order >= 2:
        want_coeffs[2] = -ring.one
    from .series import SeriesTail

    want = SeriesTail(ring, order, want_coeffs)
    failures = []
    diff = prod - want
    for k in range(order + 1):
        if not diff.coefficient(k).is_zero():
            failures.append(_op_failure({"series_coefficient": k}, diff.coefficient(k)))
    grid = [Fraction(x) for x in (1, 2, 3)]
    ident = EndoOperator.identity(alg, 2)
    for u in grid:
        lhs = r_at(alg, -u) * r_at(alg, u)
        rhs = ident.scale(1 - u**-2)
        if lhs != rhs:
            failures.append(_op_failure({"point": str(u)}, lhs - rhs))
    info = {"order": order, "grid": [str(x) for x in grid],
            "degree_bound_per_variable": 2}
    return CheckResult(not failures, info, failures)


def p_q_basics_check(m: int, n: int) -> CheckResult:
    """P^2 = 1, the P action rule, rank Q = 1, Q^2 = (M-N) Q,
    Q = (id (x) tau)(P), (tau (x) tau)(R) = R."""
    alg = algebra(m, n)
    p = perm_p(alg)
    q = q_op(alg)
    ident = EndoOperator.identity(alg, 2)
    failures = []
    if p * p != ident:
        failures.append(_op_failure({"claim": "P^2=1"}, p * p - ident))
    # action rule P(e_i (x) e_j) = e_j (x) e_i (-1)^(ibar jbar)
    for i in range(1, alg.dim + 1):
        for j in range(1, alg.dim + 1):
            sign = -ONE if alg.index_parity(i) * alg.index_parity(j) else ONE
            got = p.entries.get(((j, i), (i, j)), ZERO)
            if got != sign:
                failures.append(failure({"claim": "P action", "basis": [i, j]},
                                        f"entry {got}, expected {sign}"))
    if q.rank() != 1:
        failures.append(failure({"claim": "rank Q = 1"}, f"rank {q.rank()}"))
    if q * q != q.scale(m - n):
        failures.append(_op_failure({"claim": "Q^2=(M-N)Q"}, q * q - q.scale(m - n)))
    if tau_leg(p, 2) != q:
        failures.append(_op_failure({"claim": "Q=(id x tau)P"}, tau_leg(p, 2) - q))
    # (tau x tau) R(u) = R(u): check on P
    if tau_leg(tau_leg(p, 1), 2) != p:
        failures.append(_op_failure({"claim": "(tau x tau)P=P"},
                                    tau_leg(tau_leg(p, 1), 2) - p))
    return CheckResult(not failures, {"dim": alg.dim}, failures)


def q_identity_check(m: int, n: int) -> CheckResult:
    """The identity battery on (C^(M|N))^(x (M+N+2)): the projector
    relations, the two Q-contraction identities, the residue identity
    for Rtilde, and the two product equalities used by the Berezinian
    trace argument."""
    if m < 1 or n < 1:
        raise ValueError("the identity battery needs M, N >= 1")
    if m + n > 3:
        raise ValueError("guard: M+N <= 3 for the (M+N+2)-leg space")
    alg = algebra(m, n)
    failures = []
    p = perm_p(alg)
    q = q_op(alg)
    i_proj, j_proj = projectors_ij(alg)
    ident1 = EndoOperator.identity(alg, 1)
    ident2 = EndoOperator.identity(alg, 2)

    # projector algebra on one leg
    if i_proj + j_proj != ident1:
        failures.append(_op_failure({"claim": "I+J=1"}, i_proj + j_proj - ident1))
    for name, a, b in (("I^2=I", i_proj * i_proj, i_proj),
                       ("J^2=J", j_proj * j_proj, j_proj),
                       ("IJ=0", i_proj * j_proj, EndoOperator.zero(alg, 1))):
        if a != b:
            failures.append(_op_failure({"claim": name}, a - b))

    # (I x J) Q = Q (I x J) = 0 and the (J x I) twin
    ij = tensor_pair(i_proj, j_proj)
    ji = tensor_pair(j_proj, i_proj)
    for name, op in (("(IxJ)Q", ij * q), ("Q(IxJ)", q * ij),
                     ("(JxI)Q", ji * q), ("Q(JxI)", q * ji)):
        if not op.is_zero():
            failures.append(_op_failure({"claim": name + "=0"}, op))
    # Q = Q(I x I + J x J) = Q(I x 1 + 1 x J)
    ii = tensor_pair(i_proj, i_proj)
    jj = tensor_pair(j_proj, j_proj)
    i1 = tensor_pair(i_proj, ident1)
    one_j = tensor_pair(ident1, j_proj)
    for name, op in (("Q(IxI+JxJ)", q * (ii + jj)), ("Q(Ix1+1xJ)", q * (i1 + one_j))):
        if op != q:
            failures.append(_op_failure({"claim": "Q=" + name}, op - q))

    legs = m + n + 2
    last = legs

    def q_at(a, b):
        return embed(q, (a, b), legs)

    def p_at(a, b):
        return embed(p, (a, b), legs)

    def proj(op, at):
        return embed(op, (at,), legs)

    # Q_(1,L) Q_(M+1,L) = Q_(1,L) P_(1,M+1)
    lhs = q_at(1, last) * q_at(m + 1, last)
    rhs = q_at(1, last) * p_at(1, m + 1)
    if lhs != rhs:
        failures.append(_op_failure({"claim": "QQP"}, lhs - rhs))
    # Q_(1,L) Q_(1,M+2) = Q_(1,L) P_(M+2,L)
    lhs = q_at(1, last) * q_at(1, m + 2)
    rhs = q_at(1, last) * p_at(m + 2, last)
    if lhs != rhs:
        failures.append(_op_failure({"claim": "QQQ"}, lhs - rhs))

    # residue identity: Q_23 Rtilde_13(u+M-N) R_12(u) = (1-u^-2) Q_23
    # on 3 legs; cleared by u^2 both sides have degree 2, use 5 points
    grid = [Fraction(x) for x in (1, 2, 3, -1, 5)]
    q23 = embed(q, (2, 3), 3)
    for u in grid:
        rt13 = embed(EndoOperator.identity(alg, 2) + q.scale(ONE / u), (1, 3), 3)
        r12 = embed(r_at(alg, u), (1, 2), 3)
        lhs3 = q23 * rt13 * r12
        rhs3 = q23.scale(1 - u**-2)
        if lhs3 != rhs3:
            failures.append(_op_failure({"claim": "QR", "point": str(u)}, lhs3 - rhs3))

    # the two product equalities on (M+N+2) legs
    i_chain_1 = _chain(alg, i_proj, range(1, m + 1), legs)
    j_chain_3 = _chain(alg, j_proj, range(m + 3, legs + 1), legs)
    mid = proj(i_proj, m + 1) + proj(j_proj, m + 2)
    lhs = (
        q_at(1, last)
        * (EndoOperator.identity(alg, legs) - q_at(m + 1, last).scale(Fraction(1, m)))
        * (EndoOperator.identity(alg, legs) + q_at(1, m + 2).scale(Fraction(1, n)))
        * i_chain_1
        * mid
        * j_chain_3
    )
    rhs = (
        _chain(alg, i_proj, range(2, m + 2), legs)
        * _chain(alg, j_proj, range(m + 2, m + n + 2), legs)
        * q_at(1, last)
        * (
            (p_at(1, m + 1) * proj(j_proj, last)).scale(Fraction(-1, m))
            + (p_at(m + 2, last) * proj(i_proj, 1)).scale(Fraction(1, n))
        )
    )
    if lhs != rhs:
        failures.append(_op_failure({"claim": "projected-Q product"}, lhs - rhs))

    g_small, h_small = symmetrizers_direct(alg, m), symmetrizers_direct(alg, n)
    g = g_small[0]
    h = h_small[1]
    g_2 = embed(g, tuple(range(2, m + 2)), legs) if m >= 1 else None
    h_2 = embed(h, tuple(range(m + 2, m + n + 2)), legs)
    g_1 = embed(g, tuple(range(1, m + 1)), legs)
    h_3 = embed(h, tuple(range(m + 3, legs + 1)), legs)
    lhs = (
        _chain(alg, i_proj, range(2, m + 2), legs)
        * _chain(alg, j_proj, range(m + 2, m + n + 2), legs)
        * g_2
        * h_2
        * q_at(1, last)
        * (EndoOperator.identity(alg, legs) - q_at(m + 1, last).scale(Fraction(1, m)))
        * (EndoOperator.identity(alg, legs) + q_at(1, m + 2).scale(Fraction(1, n)))
        * g_1
        * h_3
    )
    factorial_m1 = 1
    for k in range(2, m):
        factorial_m1 *= k
    factorial_n1 = 1
    for k in range(2, n):
        factorial_n1 *= k
    rhs = (
        p_at(1, m + 1)
        * p_at(m + 2, last)
        * _chain(alg, i_proj, range(1, m + 1), legs)
        * _chain(alg, j_proj, range(m + 3, legs + 1), legs)
        * g_1
        * h_3
        * q_at(m + 1, m + 2)
    ).scale(factorial_m1 * factorial_n1)
    if lhs != rhs:
        failures.append(_op_failure({"claim": "symmetrized-Q product"}, lhs - rhs))

    return CheckResult(not failures, {"legs": legs, "grid": [str(x) for x in grid],
                                      "degree_bound_per_variable": 2}, failures)


def tensor_pair(a: EndoOperator, b: EndoOperator) -> EndoOperator:
    from .tensors import tensor

    return tensor([a, b])


def _chain(alg, proj, legs_range, total):
    out = EndoOperator.identity(alg, total)
    for h in legs_range:
        out = out * embed(proj, (h,), total)
    return out


def symmetrizer_agreement_check(m: int, n: int, n_max: int = 4) -> CheckResult:
    """Direct group sum, one-box recursion and R-matrix fusion must
    produce identical (G, H); G^2 = n! G and H^2 = n! H; the
    antisymmetrizer on M+1 even (resp. N+1 odd) legs kills the purely
    even (resp. odd) subspace."""
    alg = algebra(m, n)
    failures = []
    factorial = 1
    for k in range(1, n_max + 1):
        factorial *= k
        g1, h1 = symmetrizers_direct(alg, k)
        g2, h2 = symmetrizers_recursive(alg, k)
        g3, h3 = symmetrizers_fusion(alg, k)
        for name, a, b in (
            ("G direct=recursive", g1, g2),
            ("G direct=fusion", g1, g3),
            ("H direct=recursive", h1, h2),
            ("H direct=fusion", h1, h3),
        ):
            if a != b:
                failures.append(_op_failure({"claim": name, "n": k}, a - b))
        if g1 * g1 != g1.scale(factorial):
            failures.append(_op_failure({"claim": "G^2=n!G", "n": k},
                                        g1 * g1 - g1.scale(factorial)))
        if h1 * h1 != h1.scale(factorial):
            failures.append(_op_failure({"claim": "H^2=n!H", "n": k},
                                        h1 * h1 - h1.scale(factorial)))
    # no antisymmetric tensors above the top exterior power
    i_proj, j_proj = projectors_ij(alg)
    if m >= 1 and (m + 1) <= n_max:
        g_top, _ = symmetrizers_direct(alg, m + 1)
        killer = g_top * _chain(alg, i_proj, range(1, m + 2), m + 1)
        if not killer.is_zero():
            failures.append(_op_failure({"claim": "G kills even subspace"}, killer))
    if n >= 1 and (n + 1) <= n_max:
        _, h_top = symmetrizers_direct(alg, n + 1)
        killer = h_top * _chain(alg, j_proj, range(1, n + 2), n + 1)
        if not killer.is_zero():
            failures.append(_op_failure({"claim": "H kills odd subspace"}, killer))
    return CheckResult(not failures, {"n_max": n_max}, failures)


def supertrace_cyclicity_check(m: int, n: int, samples: int = 100, seed: int = 7) -> CheckResult:
    """str(XY) = str(YX) (-1)^(deg X deg Y) on random homogeneous sparse
    2-leg operators."""
    import random

    from .tensors import supertrace

    alg = algebra(m, n)
    rng = random.Random(seed)
    failures = []
    idx = list(iproduct(range(1, alg.dim + 1), repeat=2))
    for trial in range(samples):
        ops = []
        for _ in range(2):
            want_parity = rng.randrange(2)
            abstract = {}
            for _ in range(rng.randrange(1, 4)):
                rows = tuple(rng.choice(idx))
                cols = tuple(rng.choice(idx))
                parity = (
                    sum(alg.index_parity(x) for x in rows)
                    + sum(alg.index_parity(x) for x in cols)
                ) & 1
                if parity != want_parity:
                    continue
                abstract[(rows, cols)] = rng.randrange(-5, 6)
            ops.append(
                (EndoOperator.from_abstract(alg, 2, abstract), want_parity)
            )
        (x, px), (y, py) = ops
        sign = -1 if px * py else 1
        lhs = supertrace(x * y)
        rhs = supertrace(y * x) * sign
        if lhs != rhs:
            failures.append(failure({"trial": trial}, f"{lhs} != {rhs}"))
    return CheckResult(not failures, {"samples": samples, "seed": seed}, failures)


# ---------------------------------------------------------------------------
# evaluation-representation checks
# ---------------------------------------------------------------------------


def eval_relations_check(m: int, n: int, z_values=(0, 1, -2), level_bound: int = 3) -> CheckResult:
    """The defining relations map to exact operator identities under the
    one-point representation: with t[i,j,r] denoting the image,

        c(r+1,s) - c(r,s+1) = rhs(r,s)

    where c is the signed supercommutator of images and rhs the image of
    the quadratic side (computed entirely in matrix arithmetic, never
    through normal ordering)."""
    alg = algebra(m, n)
    failures = []
    for z in z_values:
        z = Fraction(z)
        img = {}
        for g in alg.gens(level_bound + 1):
            img[g] = eval_rep_gen(alg, g, z)
        ident = EndoOperator.identity(alg, 1)

        def t_of(i, j, r):
            if r == 0:
                return ident if i == j else EndoOperator.zero(alg, 1)
            return img[GenIndex(i, j, r)]

        for i, j, k, l in iproduct(range(1, alg.dim + 1), repeat=4):
            ib, jb = alg.index_parity(i), alg.index_parity(j)
            kb, lb = alg.index_parity(k), alg.index_parity(l)
            sign = -1 if (ib * kb + ib * lb + kb * lb) % 2 else 1
            pij, pkl = (ib + jb) & 1, (kb + lb) & 1

            def comm(r, s):
                if r == 0 or s == 0:
                    return EndoOperator.zero(alg, 1)
                a, b = t_of(i, j, r), t_of(k, l, s)
                return (a * b - (b * a).scale(-1 if pij and pkl else 1)).scale(sign)

            for p in range(level_bound + 1):
                for q in range(level_bound - p + 1):
                    lhs = comm(p + 1, q) - comm(p, q + 1)
                    rhs = t_of(k, j, p) * t_of(i, l, q) - t_of(k, j, q) * t_of(i, l, p)
                    if lhs != rhs:
                        failures.append(
                            _op_failure(
                                {"z": str(z), "indices": [i, j, k, l],
                                 "coefficient": [p, q]},
                                lhs - rhs,
                            )
                        )
    return CheckResult(
        not failures,
        {"z_values": [str(Fraction(z)) for z in z_values], "level_bound": level_bound},
        failures,
    )


def eval_embedding_identity_check(m: int, n: int) -> CheckResult:
    """The one-point representation at z = 0 sends the embedded gl(M|N)
    basis elements back to the matrix units (the evaluation homomorphism
    composed with the embedding is the identity)."""
    from .algebra import embed_gl

    alg = algebra(m, n)
    failures = []
    for i in range(1, alg.dim + 1):
        for j in range(1, alg.dim + 1):
            got = eval_rep(embed_gl(alg, i, j), Fraction(0))
            want = matrix_unit(alg, i, j)
            if got != want:
                failures.append(_op_failure({"basis": [i, j]}, got - want))
    # higher levels die at z = 0
    for g in alg.gens(3):
        if g.r >= 2 and not eval_rep_gen(alg, g, Fraction(0)).is_zero():
            failures.append(failure({"generator": list(g)}, "nonzero at z=0"))
    return CheckResult(not failures, {}, failures)


def multi_eval_consistency_check(m: int, n: int, points, r_max: int = 3) -> CheckResult:
    """The coproduct route and the R-matrix product route to the n-point
    representation agree exactly on all generators up to level r_max."""
    alg = algebra(m, n)
    points = tuple(Fraction(z) for z in points)
    images = rmatrix_route_images(alg, points, r_max)
    failures = []
    for g in alg.gens(r_max):
        delta_route = multi_eval_rep_gen(alg, g, points) if len(points) > 1 else eval_rep_gen(alg, g, points[0])
        r_route = images[g]
        if delta_route != r_route:
            failures.append(_op_failure({"generator": list(g)}, delta_route - r_route))
    return CheckResult(
        not failures,
        {"points": [str(z) for z in points], "r_max": r_max},
        failures,
    )


def rep_rtt_check(m: int, n: int, n_points: int = 2, samples: int = 10, seed: int = 11) -> CheckResult:
    """The matrix form of the defining relations holds with T(u)
    replaced by its R-product image, at random rational (u, v) away from
    the poles."""
    import random

    alg = algebra(m, n)
    rng = random.Random(seed)
    zs = [Fraction(0), Fraction(1), Fraction(5)][:n_points]
    total = n_points + 2
    failures = []

    def t_leg(aux: int, u: Fraction) -> EndoOperator:
        out = EndoOperator.identity(alg, total)
        for h, z in enumerate(zs, start=3):
            out = out * embed(r_at(alg, u - z), (aux, h), total)
        return out

    for trial in range(samples):
        u = Fraction(rng.randrange(12, 40), rng.choice([1, 2, 3]))
        v = u + Fraction(rng.randrange(1, 9), rng.choice([2, 3]))
        r12 = embed(r_at(alg, u - v), (1, 2), total)
        lhs = r12 * t_leg(1, u) * t_leg(2, v)
        rhs = t_leg(2, v) * t_leg(1, u) * r12
        if lhs != rhs:
            failures.append(_op_failure({"trial": trial, "u": str(u), "v": str(v)},
                                        lhs - rhs))
    return CheckResult(
        not failures,
        {"points": [str(z) for z in zs], "samples": samples, "seed": seed},
        failures,
    )


# ---------------------------------------------------------------------------
# PBW shadows
# ---------------------------------------------------------------------------


def normal_monomials(alg, filt_max: int):
    """All normal monomial words with total level <= filt_max (odd
    generators at most once in a row, i.e. at most once overall in the
    sorted word)."""
    gens = [GenIndex(i, j, r)
            for i in range(1, alg.dim + 1)
            for j in range(1, alg.dim + 1)
            for r in range(1, filt_max + 1)]
    gens.sort()
    words = []

    def grow(word, start, budget):
        words.append(tuple(word))
        for idx in range(start, len(gens)):
            g = gens[idx]
            if g.r > budget:
                continue
            if word and word[-1] == g and alg.gen_parity(g):
                continue
            word.append(g)
            grow(word, idx if not alg.gen_parity(g) else idx + 1, budget - g.r)
            word.pop()

    grow([], 0, filt_max)
    return words


def pbw_rank_check(m: int, n: int, filt_max: int = 3, points=(0, 1, 5)) -> CheckResult:
    """Normal monomials of total level <= filt_max map to linearly
    independent operators under the len(points)-point representation.
    The points are fixed; genericity is certified by the achieved rank."""
    alg = algebra(m, n)
    words = normal_monomials(alg, filt_max)
    ops = []
    for word in words:
        x = alg.element([(1, [word])])
        ops.append(multi_eval_rep(x, points))
    rank = operator_rank(ops)
    ok = rank == len(words)
    info = {
        "monomials": len(words),
        "rank": rank,
        "points": [str(Fraction(z)) for z in points],
        "filt_max": filt_max,
    }
    fails = [] if ok else [failure({"reason": "rank deficit"}, f"rank {rank} < {len(words)}")]
    return CheckResult(ok, info, fails)


def pbw_confluence_check(m: int, n: int, schedules: int = 1000, filt_max: int = 6,
                         max_len: int = 5, seed: int = 2024) -> CheckResult:
    """Randomized rewriting schedules against the deterministic leftmost
    strategy: every schedule must reach the identical normal form."""
    import random

    alg = algebra(m, n)
    rng = random.Random(seed)
    gens = [GenIndex(i, j, r)
            for i in range(1, alg.dim + 1)
            for j in range(1, alg.dim + 1)
            for r in range(1, filt_max + 1)]
    failures = []
    done = 0
    while done < schedules:
        length = rng.randrange(2, max_len + 1)
        word = []
        budget = filt_max
        for _ in range(length):
            g = rng.choice([g for g in gens if g.r <= budget] or gens[:1])
            if g.r > budget:
                break
            word.append(g)
            budget -= g.r
        if len(word) < 2:
            continue
        word = tuple(word)
        reference = alg.element([(1, [word])])
        for _ in range(3):
            if done >= schedules:
                break
            randomized = alg.normal_order_randomized(word, rng)
            done += 1
            if randomized != reference:
                from .grammar import element_to_text

                failures.append(
                    failure({"word": [list(g) for g in word]},
                            element_to_text(randomized - reference))
                )
    return CheckResult(
        not failures,
        {"schedules": done, "filt_max": filt_max, "seed": seed},
        failures,
    )
