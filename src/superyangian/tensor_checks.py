"""Operator-identity checks: Yang-Baxter, unitarity, the Q/P identity
battery, symmetrizer constructions, and evaluation-representation
consistency.

The R-matrix identities in the spectral parameters (Yang-Baxter, the
unitarity identity, the QR residue and RTT) are checked as identities
over Z[u, v], one coefficient of u^a v^b at a time.  Each factor
R(x) = 1 - P x^-1 or Rtilde(x) = 1 + Q x^-1 is cleared to x - P or
x + Q, an operator polynomial: the sum over (a, b) of u^a v^b (s + X),
with s an integer times the identity and X an integer operator, a
signed placed P or Q (`_OpPoly`).  Each side is a product of such
factors, multiplied pair of terms by pair of terms: only the product of
two X parts is an operator product, and the identity parts are integer
scalings.  The last product of each side is built one coefficient at a
time, compared with the other side's and dropped, so neither side is
held whole.  Clearing multiplies both sides by the same nonzero
polynomial, so the cleared identity holds exactly when the original one
does, and a polynomial identity holds exactly when every coefficient
does: the coefficient-by-coefficient equality of the two sides is the
proof, with no grid and no degree bound.  Such a check records
``"certificate": "identity"`` and its variables, and a failure reports
lhs - rhs as one operator with polynomial (`Poly`) entries, the sum of
u^a v^b (L_ab - R_ab).

The two product identities of the Q/P battery carry the factors 1/M and
1/N; they are checked multiplied through by M N, so every operand has
integer entries, and a failure reports lhs - rhs divided back by M N,
the residual of the identity as stated.  The battery and the symmetrizer
agreement check take their projector chains and symmetrizers from
`placed`, built once per algebra; RTT keeps its three cleared factors
per algebra and number of points.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import product as iproduct
from math import factorial
from operator import mul

from .algebra import Element, algebra, embed_gl
from .checkresult import CheckResult, failure
from .grammar import element_to_text
from .series import VARIABLES, Poly, add_scaled, exact_point
from .tensors import (
    EndoOperator,
    _eval_word,
    dump_operator,
    eval_rep,
    matrix_unit,
    multi_eval_rep_gen,
    operator_rank,
    placed,
    rmatrix_route_images,
    supertrace,
    symmetrizers_fusion,
    symmetrizers_recursive,
    tau_leg,
    tensor,
)


U, V = map(Poly.var, VARIABLES)


def _op_failure(location: dict, diff: EndoOperator) -> dict:
    return failure(location, dump_operator(diff), kind="operator")


class _OpPoly:
    """An operator polynomial: the sum over exponent pairs (a, b) of
    u^a v^b (s + X), where s is an integer times the identity `one` and
    X an integer operator or None; `terms` maps (a, b) to (s, X).  The
    operators are shared, never mutated."""

    __slots__ = ("one", "terms")

    def __init__(self, one: EndoOperator, terms: dict):
        self.one = one
        self.terms = terms

    @classmethod
    def of(cls, one: EndoOperator, c: Poly, x: EndoOperator | None = None) -> "_OpPoly":
        """c + X, for c in Z[u, v]."""
        terms = {e: (s, None) for e, s in c.terms.items()}
        if x is not None:
            terms[0, 0] = (c.terms.get((0, 0), 0), x)
        return cls(one, terms)

    def __mul__(self, other: "_OpPoly") -> "_OpPoly":
        terms = {}
        for e, pairs in _term_pairs(self, other).items():
            s, x = _coefficient(self.one, pairs)
            if s or x is not None:
                terms[e] = (s, x)
        return _OpPoly(self.one, terms)


def _term_pairs(f: _OpPoly, g: _OpPoly) -> dict:
    """The pairs of terms of f and g by the exponent of their product:
    (a, b) -> [((s, X), (t, Y))]."""
    out: dict = {}
    for (a, b), term in f.terms.items():
        for (c, d), other in g.terms.items():
            out.setdefault((a + c, b + d), []).append((term, other))
    return out


def _coefficient(one: EndoOperator, pairs) -> tuple:
    """The sum of (s + X)(t + Y) = st + tX + sY + XY over `pairs`, as the
    integer and the X part (None when it is zero).  Only XY is an
    operator product; the X part is summed into the first such product,
    a fresh dict."""
    scalar, products, scaled = 0, [], []
    for (s, x), (t, y) in pairs:
        scalar += s * t
        if x is not None:
            if y is not None:
                products.append((x * y).entries)
            if t:
                scaled.append((t, x.entries))
        if y is not None and s:
            scaled.append((s, y.entries))
    if products:
        out = products[0]
        rest = [(1, entries) for entries in products[1:]] + scaled
    elif scaled:
        (c, first), *rest = scaled
        out = dict(first) if c == 1 else {key: c * v for key, v in first.items()}
    else:
        return scalar, None
    for c, entries in rest:
        add_scaled(out, c, entries)
    return scalar, EndoOperator._owning(one.alg, one.legs, out) if out else None


def _cleared(alg, c, name: str, legs_at: tuple, total: int) -> _OpPoly:
    """c - P or c + Q placed at `legs_at`: c R(c) or c Rtilde(c)."""
    x = placed(alg, name, legs_at, total)
    return _OpPoly.of(placed(alg, "1", (), total), c, -x if name == "P" else x)


def _identity_failures(claim: str, lhs: tuple, rhs: tuple) -> list:
    """No failure when the products f g and h k of lhs = (f, g) and
    rhs = (h, k) agree, else one with the residual f g - h k.  Each
    coefficient of the two products is built, compared and dropped in
    turn, so neither product is held whole."""
    one = lhs[0].one
    left, right = _term_pairs(*lhs), _term_pairs(*rhs)
    out: dict = {}
    for e in left.keys() | right.keys():
        s, x = _coefficient(one, left.get(e, ()))
        t, y = _coefficient(one, right.get(e, ()))
        if s == t and x == y:
            continue
        diff = dict(x.entries) if x is not None else {}
        if y is not None:
            add_scaled(diff, -1, y.entries)
        if s != t:
            add_scaled(diff, s - t, one.entries)
        for key, v in diff.items():
            out.setdefault(key, {})[e] = v
    if not out:
        return []
    residual = {key: Poly(terms) for key, terms in out.items()}
    return [_op_failure({"claim": claim}, EndoOperator(one.alg, one.legs, residual))]


def _identity_info(*variables: str) -> dict:
    return {"certificate": "identity", "variables": list(variables)}


def yang_baxter_check(m: int, n: int) -> CheckResult:
    """R_12(u-v) R_13(u-w) R_23(v-w) = R_23(v-w) R_13(u-w) R_12(u-v) as
    an identity of polynomials.  Both sides depend on u, v, w only
    through their differences, so the identity holds exactly when its
    case w = 0 does, over Z[u, v], with the cleared factors (u-v) - P_12,
    u - P_13 and v - P_23.  Those are the factors of one-point RTT at
    z = 0, T_1(u) = u - P_13 and T_2(v) = v - P_23, and the two sides are
    its two sides, so the check is `_rtt_failures` at one point."""
    failures = _rtt_failures(algebra(m, n), 1, "yang-baxter")
    return CheckResult(_identity_info("u", "v"), failures)


def unitarity_check(m: int, n: int) -> CheckResult:
    """R(-u) R(u) = 1 - u^-2 as an identity over Z[u]: cleared by -u^2,
    (-u - P)(u - P) = 1 - u^2."""
    alg = algebra(m, n)
    lhs = _cleared(alg, -U, "P", (1, 2), 2), _cleared(alg, U, "P", (1, 2), 2)
    one = placed(alg, "1", (), 2)
    rhs = _OpPoly.of(one, 1 - U * U), _OpPoly(one, {(0, 0): (1, None)})
    failures = _identity_failures("unitarity", lhs, rhs)
    return CheckResult(_identity_info("u"), failures)


def p_q_basics_check(m: int, n: int) -> CheckResult:
    """P^2 = 1, the P action rule, rank Q = 1, Q^2 = (M-N) Q,
    Q = (id (x) tau)(P), (tau (x) tau)(R) = R."""
    alg = algebra(m, n)
    p = placed(alg, "P", (1, 2), 2)
    q = placed(alg, "Q", (1, 2), 2)
    ident = EndoOperator.identity(alg, 2)
    failures = []
    if p * p != ident:
        failures.append(_op_failure({"claim": "P^2=1"}, p * p - ident))
    # action rule P(e_i (x) e_j) = e_j (x) e_i (-1)^(ibar jbar)
    for i in range(1, alg.dim + 1):
        for j in range(1, alg.dim + 1):
            sign = -1 if alg.parities[i] and alg.parities[j] else 1
            got = p.entries.get(((j, i), (i, j)), 0)
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
    return CheckResult({"dim": alg.dim}, failures)


def q_identity_check(m: int, n: int) -> CheckResult:
    """The identity battery on (C^(M|N))^(x (M+N+2)): the projector
    relations, the two Q-contraction identities, the residue identity
    for Rtilde, and the two product equalities used by the Berezinian
    trace argument.  The product equalities are checked over Z, both
    sides times M N, and a failure reports lhs - rhs divided by M N."""
    if m < 1 or n < 1:
        raise ValueError("the identity battery needs M, N >= 1")
    alg = algebra(m, n)
    failures = []
    q = placed(alg, "Q", (1, 2), 2)
    i_proj, j_proj = placed(alg, "I", (1,), 1), placed(alg, "J", (1,), 1)
    ident1 = EndoOperator.identity(alg, 1)

    # projector algebra on one leg
    if i_proj + j_proj != ident1:
        failures.append(_op_failure({"claim": "I+J=1"}, i_proj + j_proj - ident1))
    for name, a, b in (("I^2=I", i_proj * i_proj, i_proj),
                       ("J^2=J", j_proj * j_proj, j_proj),
                       ("IJ=0", i_proj * j_proj, EndoOperator.zero(alg, 1))):
        if a != b:
            failures.append(_op_failure({"claim": name}, a - b))

    # (I x J) Q = Q (I x J) = 0 and the (J x I) twin
    ij = tensor([i_proj, j_proj])
    ji = tensor([j_proj, i_proj])
    for name, op in (("(IxJ)Q", ij * q), ("Q(IxJ)", q * ij),
                     ("(JxI)Q", ji * q), ("Q(JxI)", q * ji)):
        if not op.is_zero():
            failures.append(_op_failure({"claim": name + "=0"}, op))
    # Q = Q(I x I + J x J) = Q(I x 1 + 1 x J)
    ii = tensor([i_proj, i_proj])
    jj = tensor([j_proj, j_proj])
    i1 = tensor([i_proj, ident1])
    one_j = tensor([ident1, j_proj])
    for name, op in (("Q(IxI+JxJ)", q * (ii + jj)), ("Q(Ix1+1xJ)", q * (i1 + one_j))):
        if op != q:
            failures.append(_op_failure({"claim": "Q=" + name}, op - q))

    legs = m + n + 2
    last = legs
    ident = placed(alg, "1", (), legs)

    def at(name, *legs_at):
        return placed(alg, name, legs_at, legs)

    # Q_(1,L) Q_(M+1,L) = Q_(1,L) P_(1,M+1)
    lhs = at("Q", 1, last) * at("Q", m + 1, last)
    rhs = at("Q", 1, last) * at("P", 1, m + 1)
    if lhs != rhs:
        failures.append(_op_failure({"claim": "QQP"}, lhs - rhs))
    # Q_(1,L) Q_(1,M+2) = Q_(1,L) P_(M+2,L)
    lhs = at("Q", 1, last) * at("Q", 1, m + 2)
    rhs = at("Q", 1, last) * at("P", m + 2, last)
    if lhs != rhs:
        failures.append(_op_failure({"claim": "QQQ"}, lhs - rhs))

    # residue identity: Q_23 Rtilde_13(u) R_12(u) = (1-u^-2) Q_23 on 3
    # legs, cleared by u^2: Q_23 (u + Q_13)(u - P_12) = (u^2 - 1) Q_23
    q23 = _OpPoly(placed(alg, "1", (), 3), {(0, 0): (0, placed(alg, "Q", (2, 3), 3))})
    lhs = q23 * _cleared(alg, U, "Q", (1, 3), 3), _cleared(alg, U, "P", (1, 2), 3)
    rhs = q23, _OpPoly.of(q23.one, U * U - 1)
    failures += _identity_failures("QR", lhs, rhs)

    # the two product equalities on (M+N+2) legs share their chains and
    # the factor Q_(1,L) (1 - Q_(M+1,L)/M) (1 + Q_(1,M+2)/N); both are
    # checked times M N, where that factor is the integral
    # Q_(1,L) (M - Q_(M+1,L)) (N + Q_(1,M+2)), and a residual is divided
    # back by M N
    i_chain_1 = at("I", *range(1, m + 1))
    j_chain_3 = at("J", *range(m + 3, legs + 1))
    chains_2 = at("I", *range(2, m + 2)) * at("J", *range(m + 2, m + n + 2))
    q_factor = (
        at("Q", 1, last)
        * (ident.scale(m) - at("Q", m + 1, last))
        * (ident.scale(n) + at("Q", 1, m + 2))
    )
    lhs = q_factor * i_chain_1 * (at("I", m + 1) + at("J", m + 2)) * j_chain_3
    rhs = (
        chains_2
        * at("Q", 1, last)
        * (
            (at("P", 1, m + 1) * at("J", last)).scale(-n)
            + (at("P", m + 2, last) * at("I", 1)).scale(m)
        )
    )
    if lhs != rhs:
        failures.append(
            _op_failure({"claim": "projected-Q product"}, (lhs - rhs).divide(m * n)))

    g_1 = at("G", *range(1, m + 1))
    h_3 = at("H", *range(m + 3, legs + 1))
    lhs = (chains_2 * at("G", *range(2, m + 2)) * at("H", *range(m + 2, m + n + 2))
           * q_factor * g_1 * h_3)
    # (M-1)! (N-1)! times M N
    rhs = (
        at("P", 1, m + 1)
        * at("P", m + 2, last)
        * i_chain_1
        * j_chain_3
        * g_1
        * h_3
        * at("Q", m + 1, m + 2)
    ).scale(factorial(m) * factorial(n))
    if lhs != rhs:
        failures.append(
            _op_failure({"claim": "symmetrized-Q product"}, (lhs - rhs).divide(m * n)))

    return CheckResult({"legs": legs, **_identity_info("u")}, failures)


def symmetrizer_agreement_check(m: int, n: int, n_max: int = 4) -> CheckResult:
    """Direct group sum, one-box recursion and R-matrix fusion must
    produce identical (G, H); G^2 = n! G and H^2 = n! H; the
    antisymmetrizer on M+1 even (resp. N+1 odd) legs kills the purely
    even (resp. odd) subspace.  Below two legs G and H are the
    identity, so an n_max below 2 raises ValueError."""
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, not {n_max}")
    alg = algebra(m, n)
    failures = []
    for k in range(1, n_max + 1):
        g1, h1 = (placed(alg, name, tuple(range(1, k + 1)), k) for name in "GH")
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
        if g1 * g1 != g1.scale(factorial(k)):
            failures.append(_op_failure({"claim": "G^2=n!G", "n": k},
                                        g1 * g1 - g1.scale(factorial(k))))
        if h1 * h1 != h1.scale(factorial(k)):
            failures.append(_op_failure({"claim": "H^2=n!H", "n": k},
                                        h1 * h1 - h1.scale(factorial(k))))
    # no antisymmetric tensors above the top exterior power
    if m >= 1 and (m + 1) <= n_max:
        legs = tuple(range(1, m + 2))
        killer = placed(alg, "G", legs, m + 1) * placed(alg, "I", legs, m + 1)
        if not killer.is_zero():
            failures.append(_op_failure({"claim": "G kills even subspace"}, killer))
    if n >= 1 and (n + 1) <= n_max:
        legs = tuple(range(1, n + 2))
        killer = placed(alg, "H", legs, n + 1) * placed(alg, "J", legs, n + 1)
        if not killer.is_zero():
            failures.append(_op_failure({"claim": "H kills odd subspace"}, killer))
    return CheckResult({"n_max": n_max}, failures)


def supertrace_cyclicity_check(m: int, n: int, samples: int = 100, seed: int = 7) -> CheckResult:
    """str(XY) = str(YX) (-1)^(deg X deg Y) on random homogeneous sparse
    2-leg operators."""
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
                parity = sum(alg.parities[x] for x in rows + cols) & 1
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
    return CheckResult({"samples": samples, "seed": seed}, failures)


# ---------------------------------------------------------------------------
# evaluation-representation checks
# ---------------------------------------------------------------------------


def eval_relations_check(m: int, n: int, z_values=(0, 1, -2), level_bound: int = 3) -> CheckResult:
    """The defining relations hold on the one-point images of levels
    1..level_bound, derived from two checks.  The relations are RTT read
    coefficient by coefficient, and the coefficient (p, q) of

        sign (C[p+1,q] - C[p,q+1]) = t_kj^(p) t_il^(q) - t_kj^(q) t_il^(p),
        C[r,s] = t_ij^(r) t_kl^(s) - eps t_kl^(s) t_ij^(r),  C[r,0] = 0,

    with t^(0) = delta reads the levels up to p + q only.
    1. `rep_rtt_check(m, n, 1)` proves RTT over Z[u, v] for the cleared
       T_a(u) = u - P_(a,3), i.e. for T(u) -> R(u).  R_12 depends on u - v
       only, so u -> u - z, v -> v - z gives it for T(u) -> R(u - z).
    2. At each z, `multi_eval_consistency_check(m, n, (z,), level_bound)`
       checks that every image of level <= level_bound is its coefficient
       of R(u - z).
    So every coefficient with p + q <= level_bound vanishes on the images.
    A failure is the RTT residual (``{"claim": "RTT"}``) or an image minus
    its R-matrix coefficient (``{"z", "generator"}``).  No point or a
    level bound below 1 compares no image and raises ValueError."""
    z_values = [exact_point(z) for z in z_values]
    if not z_values:
        raise ValueError("z_values must name at least one point")
    if level_bound < 1:
        raise ValueError(f"level_bound must be at least 1, not {level_bound}")
    failures = list(rep_rtt_check(m, n, 1).failures)
    for z in z_values:
        for fail in multi_eval_consistency_check(m, n, (z,), level_bound).failures:
            failures.append({**fail, "location": {"z": str(z), **fail["location"]}})
    return CheckResult(
        {"z_values": [str(z) for z in z_values], "level_bound": level_bound,
         **_identity_info("u", "v")},
        failures,
    )


def eval_embedding_identity_check(m: int, n: int) -> CheckResult:
    """The one-point representation at z = 0 sends the embedded gl(M|N)
    basis elements back to the matrix units (the evaluation homomorphism
    composed with the embedding is the identity)."""
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
        if g.r >= 2 and not multi_eval_rep_gen(alg, g, (Fraction(0),)).is_zero():
            failures.append(failure({"generator": list(g)}, "nonzero at z=0"))
    return CheckResult({}, failures)


def multi_eval_consistency_check(m: int, n: int, points, r_max: int = 3) -> CheckResult:
    """The coproduct route and the R-matrix product route to the n-point
    representation agree exactly on all generators up to level r_max.
    Both routes' images are kept per algebra (`alg.multi_gens`, and
    `alg.route_images` per points at the highest r_max asked so far), so
    a second check on the same points at no higher r_max makes no
    operator product.
    No point or an r_max below 1 compares no image and raises ValueError."""
    points = tuple(exact_point(z) for z in points)
    if not points:
        raise ValueError("points must name at least one point")
    if r_max < 1:
        raise ValueError(f"r_max must be at least 1, not {r_max}")
    alg = algebra(m, n)
    images = rmatrix_route_images(alg, points, r_max)
    failures = []
    for g in alg.gens(r_max):
        delta_route = multi_eval_rep_gen(alg, g, points)
        r_route = images[g]
        if delta_route != r_route:
            failures.append(_op_failure({"generator": list(g)}, delta_route - r_route))
    return CheckResult({"points": [str(z) for z in points], "r_max": r_max}, failures)


_RTT_POINTS = (0, 1, 5)


def _rtt_failures(alg, n_points: int, claim: str) -> list:
    """The failures of R_12(u-v) T_1(u) T_2(v) = T_2(v) T_1(u) R_12(u-v)
    over Z[u, v], with the cleared T_a(x) = prod_h (x - z_h - P_(a,h))
    over the point legs h = 3, 4, ... at the first `n_points` of
    `_RTT_POINTS`.  The three factors are built once per algebra and
    number of points and kept in `alg.rtt_factors`; R_12 (T_1 T_2) is
    compared with (T_2 T_1) R_12."""
    factors = alg.rtt_factors.get(n_points)
    if factors is None:
        total = n_points + 2

        def t_leg(aux: int, x: Poly) -> _OpPoly:
            return reduce(mul, (_cleared(alg, x - z, "P", (aux, h), total)
                                for h, z in enumerate(_RTT_POINTS[:n_points], start=3)))

        factors = _cleared(alg, U - V, "P", (1, 2), total), t_leg(1, U), t_leg(2, V)
        alg.rtt_factors[n_points] = factors
    r12, t1, t2 = factors
    return _identity_failures(claim, (r12, t1 * t2), (t2 * t1, r12))


def rep_rtt_check(m: int, n: int, n_points: int = 2) -> CheckResult:
    """The matrix form of the defining relations holds with T(u)
    replaced by its R-product image: R_12(u-v) T_1(u) T_2(v) =
    T_2(v) T_1(u) R_12(u-v) as an identity over Z[u, v], at the points
    0, 1, 5 cut to `n_points` (`_rtt_failures`)."""
    if not 1 <= n_points <= 3:
        raise ValueError(f"n_points must be 1, 2 or 3, not {n_points}")
    failures = _rtt_failures(algebra(m, n), n_points, "RTT")
    zs = _RTT_POINTS[:n_points]
    return CheckResult({"points": [str(z) for z in zs], **_identity_info("u", "v")}, failures)


# ---------------------------------------------------------------------------
# PBW shadows
# ---------------------------------------------------------------------------


def normal_monomials(alg, filt_max: int):
    """All normal monomial words with total level <= filt_max (odd
    generators at most once in a row, i.e. at most once overall in the
    sorted word)."""
    gens = list(alg.gens(filt_max))
    words = []

    def grow(word, start, budget):
        words.append(tuple(word))
        for idx in range(start, len(gens)):
            g = gens[idx]
            if g.r > budget:
                continue
            word.append(g)
            # an odd letter is never repeated: the next one comes after it
            grow(word, idx + g.odd, budget - g.r)
            word.pop()

    grow([], 0, filt_max)
    return words


def pbw_rank_check(m: int, n: int, filt_max: int = 3, points=(0, 1, 5)) -> CheckResult:
    """Normal monomials of total level <= filt_max map to linearly
    independent operators under the len(points)-point representation.
    The points are fixed; genericity is certified by the achieved rank.
    Each monomial is already normal, so its image is the shared word
    image `_eval_word`, ranked as it is."""
    alg = algebra(m, n)
    points = tuple(exact_point(z) for z in points)
    words = normal_monomials(alg, filt_max)
    rank = operator_rank(_eval_word(alg, word, points) for word in words)
    info = {
        "monomials": len(words),
        "rank": rank,
        "points": [str(z) for z in points],
        "filt_max": filt_max,
    }
    fails = [] if rank == len(words) else [
        failure({"reason": "rank deficit"}, f"rank {rank} < {len(words)}")]
    return CheckResult(info, fails)


def pbw_confluence_check(m: int, n: int, schedules: int = 1000, filt_max: int = 6,
                         max_len: int = 5, seed: int = 2024) -> CheckResult:
    """Randomized rewriting schedules against the deterministic leftmost
    strategy: every schedule must reach the identical normal form.  A
    word of two letters has level at least 2, so a `filt_max` below 2
    (which would draw forever) or no schedule raises ValueError.

    Words are drawn from the algebra's letters, so each schedule runs the
    randomized loop without re-lettering them; its terms are compared
    with the memo's normal form `alg._nf[word]` as dicts, and an
    `Element` of the memo's terms is built only for a failure's
    residual."""
    if filt_max < 2:
        raise ValueError(f"filt_max must be at least 2, not {filt_max}")
    if schedules < 1:
        raise ValueError(f"schedules must be at least 1, not {schedules}")
    alg = algebra(m, n)
    rng = random.Random(seed)
    gens = list(alg.gens(filt_max))
    # the letters a draw may pick with `budget` levels left, per budget
    pools = [[g for g in gens if g.r <= budget] or gens[:1] for budget in range(filt_max + 1)]
    failures = []
    done = 0
    while done < schedules:
        length = rng.randrange(2, max_len + 1)
        word = []
        budget = filt_max
        for _ in range(length):
            g = rng.choice(pools[budget])
            if g.r > budget:
                break
            word.append(g)
            budget -= g.r
        if len(word) < 2:
            continue
        word = tuple(word)
        reference = alg._nf[word]
        for _ in range(3):
            if done >= schedules:
                break
            randomized = alg.normal_order_randomized(word, rng)
            done += 1
            if randomized.terms != reference:
                failures.append(
                    failure({"word": [list(g) for g in word]},
                            element_to_text(randomized - Element(alg, 1, reference)))
                )
    return CheckResult({"schedules": done, "filt_max": filt_max, "seed": seed}, failures)
