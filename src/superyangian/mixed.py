"""Checks on mixed operators: T(u) and its hatted inverse on several legs.

T(u), a one-leg `matrices.MixedOp`, is placed on leg p of a tensor
product with the identity on the other legs; the hatted legs are built
the same way from the entries tau picks out of T(u)^-1.  This is the
arena for the matrix form of the defining relations, the single-relation
form of the inverse identity, and the fusion commutation of symmetrized
T-products.
"""

from __future__ import annotations

from itertools import product as iproduct

from .algebra import Algebra, algebra
from .checkresult import CheckResult
from .matrices import MixedOp, element_ring, hatted_entry, t_inverse, t_matrix
from .series import BiSeries, SeriesTail
from .tensors import EndoOperator, bake_sign, q_op, symmetrizers_direct


# ---------------------------------------------------------------------------
# T(u) legs as mixed matrices
# ---------------------------------------------------------------------------


def _leg_entries(alg: Algebra, order: int, hatted: bool) -> dict:
    """The entries of T(u), or with `hatted` {((i,), (j,)): That_ij(u)}
    read from the algebra's T(u)^-1."""
    if not hatted:
        return t_matrix(alg, order).entries
    tinv = t_inverse(alg, order)
    dims = range(1, alg.dim + 1)
    return {((i,), (j,)): hatted_entry(alg, tinv, i, j) for i in dims for j in dims}


def _on_leg(alg: Algebra, legs: int, leg: int, entries: dict) -> dict:
    """Place one-leg entries {((i,), (j,)): value} on operator leg `leg`
    of `legs`, identity on the others, with the baked Koszul sign."""
    out: dict = {}
    for ((i,), (j,)), value in entries.items():
        for others in iproduct(range(1, alg.dim + 1), repeat=legs - 1):
            rows = others[: leg - 1] + (i,) + others[leg - 1:]
            cols = others[: leg - 1] + (j,) + others[leg - 1:]
            out[(rows, cols)] = value if bake_sign(alg, rows, cols) > 0 else value.scale(-1)
    return out


def t_leg_series(m: int, n: int, legs: int, leg: int, order: int, shift: int = 0,
                 hatted: bool = False) -> MixedOp:
    """T_leg(u + shift) (or its hatted variant, built from the entries
    tau picks out of the inverse matrix) as a mixed matrix with
    SeriesTail<Element> entries on `legs` operator legs."""
    alg = algebra(m, n)
    entries = _leg_entries(alg, order, hatted)
    if shift:
        entries = {key: series.shift(shift) for key, series in entries.items()}
    return MixedOp(alg, legs, _on_leg(alg, legs, leg, entries))


def constant_mixed(op: EndoOperator, one) -> MixedOp:
    """The operator `op` with each entry times the entry unit `one`."""
    return MixedOp(op.alg, op.legs, {key: one.scale(value) for key, value in op.entries.items()})


def qtt_identity_check(m: int, n: int, order: int = 3) -> CheckResult:
    """(Q (x) 1) That_2(u) T_1(u) = Q (x) 1: the single-relation form of
    the left-inverse identity.

    Both sides are read off the T(u)^-1 that the same algebra built, so
    the identity holds by construction of T(u)^-1 and this check cannot
    catch a fault in the rewriting: it passes under a broken commutator
    expansion too (`tests/golden/failure_outputs.json`, `qtt-*`)."""
    alg = algebra(m, n)
    qm = constant_mixed(q_op(alg), SeriesTail.one(element_ring(alg), order))
    that2 = t_leg_series(m, n, 2, 2, order, hatted=True)
    t1 = t_leg_series(m, n, 2, 1, order)
    failures = (qm * that2 * t1).failures(qm, {})
    return CheckResult(not failures, {"order": order}, failures)


def qresi_identity_check(m: int, n: int, order: int = 3) -> CheckResult:
    """(Q (x) 1) T_1(u+M-N) That_2(u) = That_2(u) T_1(u+M-N) (Q (x) 1):
    the residue identity whose one-dimensional image produces Z(u).

    On gl(1|1) it holds by construction of T(u)^-1, as `qtt_identity_check`
    does, and cannot catch a fault in the rewriting (`qresi-11` in
    `tests/golden/failure_outputs.json` passes under a broken commutator
    expansion); on larger algebras it does fail then."""
    alg = algebra(m, n)
    qm = constant_mixed(q_op(alg), SeriesTail.one(element_ring(alg), order))
    t1 = t_leg_series(m, n, 2, 1, order, shift=m - n)
    that2 = t_leg_series(m, n, 2, 2, order, hatted=True)
    failures = (qm * t1 * that2).failures(that2 * t1 * qm, {})
    return CheckResult(not failures, {"order": order}, failures)


# ---------------------------------------------------------------------------
# two-variable mixed relation
# ---------------------------------------------------------------------------


def t_leg_biseries(m: int, n: int, legs: int, leg: int, du: int, dv: int,
                   variable: str, hatted: bool = False) -> MixedOp:
    """T_leg as a mixed matrix with BiSeries entries in u or in v."""
    alg = algebra(m, n)
    ring = element_ring(alg)
    entries = {}
    for key, series in _leg_entries(alg, max(du, dv), hatted).items():
        if variable == "u":
            entries[key] = BiSeries.in_u(ring, du, dv, series.coeffs[: du + 1])
        else:
            entries[key] = BiSeries.in_v(ring, du, dv, series.coeffs[: dv + 1])
    return MixedOp(alg, legs, _on_leg(alg, legs, leg, entries))


def trater_identity_check(m: int, n: int, order: int = 3) -> CheckResult:
    """((u-v-M+N) + Q (x) 1) T_1(u) That_2(v)
        = That_2(v) T_1(u) ((u-v-M+N) + Q (x) 1)

    (the mixed exchange relation with its single pole cleared), checked
    as a BiSeries identity to the stated order in each variable."""
    alg = algebra(m, n)
    du = dv = order + 1
    c = m - n
    t1 = t_leg_biseries(m, n, 2, 1, du, dv, "u")
    that2 = t_leg_biseries(m, n, 2, 2, du, dv, "v", hatted=True)
    qm = constant_mixed(q_op(alg), BiSeries(element_ring(alg), du, dv, {(0, 0): alg.one(1)}))
    prod_l = t1 * that2
    prod_r = that2 * t1
    q_l = qm * prod_l
    q_r = prod_r * qm

    def shrink(bis: BiSeries) -> BiSeries:
        return BiSeries(bis.ring, du - 1, dv - 1, bis.coeffs)

    def assemble(poly_part: MixedOp, q_part: MixedOp) -> MixedOp:
        # entrywise (u - v - c) * poly_part, plus the Q matrix factor
        entries = {}
        for key in set(poly_part.entries) | set(q_part.entries):
            val = None
            a = poly_part.entries.get(key)
            if a is not None:
                val = a.times_u_minus_v() + shrink(a.scale(-c))
            b = q_part.entries.get(key)
            if b is not None:
                val = shrink(b) if val is None else val + shrink(b)
            entries[key] = val
        return MixedOp(alg, 2, entries)

    failures = assemble(prod_l, q_l).failures(assemble(prod_r, q_r), {})
    return CheckResult(
        not failures,
        {"orders": [du - 1, dv - 1], "pole_cleared": "u-v-(M-N)"},
        failures,
    )


# ---------------------------------------------------------------------------
# fusion commutation
# ---------------------------------------------------------------------------


def fusion_commutation_check(m: int, n: int, legs: int = 2, order: int = 3) -> CheckResult:
    """(G (x) 1) T_1(u) ... T_n(u-n+1) = T_n(u-n+1) ... T_1(u) (G (x) 1)
    and the symmetrizer twin with hatted legs and shifts u, .., u+n-1.
    On fewer than two legs G and H are the identity, so those raise
    ValueError."""
    if m + n > 2:
        raise ValueError("guard: fusion check is limited to M+N <= 2")
    if not 2 <= legs <= 3:
        raise ValueError(f"legs must be 2 or 3, not {legs}")
    alg = algebra(m, n)
    g, h = symmetrizers_direct(alg, legs)
    failures = []
    for name, op, hatted, direction in (
        ("antisymmetrizer", g, False, -1),
        ("symmetrizer", h, True, +1),
    ):
        mats = [
            t_leg_series(m, n, legs, p, order, shift=direction * (p - 1), hatted=hatted)
            for p in range(1, legs + 1)
        ]
        om = constant_mixed(op, SeriesTail.one(element_ring(alg), order))
        lhs = om
        for mat in mats:
            lhs = lhs * mat
        rhs_chain = None
        for mat in reversed(mats):
            rhs_chain = mat if rhs_chain is None else rhs_chain * mat
        failures += lhs.failures(rhs_chain * om, {"version": name})
    return CheckResult(not failures, {"legs": legs, "order": order}, failures)
