"""Checks on mixed operators: T(u) and its hatted inverse on several legs.

T(u), a one-leg `matrices.MixedOp`, is placed on leg p of a tensor
product with the identity on the other legs; the hatted legs are built
the same way from the entries tau picks out of T(u)^-1.  On these legs
the fusion commutation of symmetrized T-products is checked.
"""

from __future__ import annotations

from itertools import product as iproduct

from .algebra import algebra
from .checkresult import CheckResult
from .matrices import MixedOp, hatted_entry, t_inverse, t_matrix
from .series import SeriesTail
from .tensors import EndoOperator, bake_sign, placed


# ---------------------------------------------------------------------------
# T(u) legs as mixed matrices
# ---------------------------------------------------------------------------


def t_leg_series(m: int, n: int, legs: int, leg: int, order: int, shift: int = 0,
                 hatted: bool = False) -> MixedOp:
    """T_leg(u + shift), or with `hatted` its variant That_ij(u + shift)
    read from the algebra's T(u)^-1, as a mixed matrix with
    SeriesTail<Element> entries on `legs` operator legs: the identity on
    the other legs, with the baked Koszul sign."""
    alg = algebra(m, n)
    dims = range(1, alg.dim + 1)
    if hatted:
        tinv = t_inverse(alg, order)
        entries = {((i,), (j,)): hatted_entry(alg, tinv, i, j) for i in dims for j in dims}
    else:
        entries = t_matrix(alg, order).entries
    out: dict = {}
    for ((i,), (j,)), series in entries.items():
        if shift:
            series = series.shift(shift)
        for others in iproduct(dims, repeat=legs - 1):
            rows = others[: leg - 1] + (i,) + others[leg - 1:]
            cols = others[: leg - 1] + (j,) + others[leg - 1:]
            out[(rows, cols)] = series if bake_sign(alg, rows, cols) > 0 else series.scale(-1)
    return MixedOp(alg, legs, out)


def constant_mixed(op: EndoOperator, one) -> MixedOp:
    """The operator `op` with each entry times the entry unit `one`."""
    return MixedOp(op.alg, op.legs, {key: one.scale(value) for key, value in op.entries.items()})


# ---------------------------------------------------------------------------
# fusion commutation
# ---------------------------------------------------------------------------


def fusion_commutation_check(m: int, n: int, legs: int = 2, order: int = 3) -> CheckResult:
    """(G (x) 1) T_1(u) ... T_n(u-n+1) = T_n(u-n+1) ... T_1(u) (G (x) 1)
    and the symmetrizer twin with hatted legs and shifts u, .., u+n-1.
    On fewer than two legs G and H are the identity, so those raise
    ValueError."""
    if not 2 <= legs <= 3:
        raise ValueError(f"legs must be 2 or 3, not {legs}")
    alg = algebra(m, n)
    g, h = (placed(alg, name, tuple(range(1, legs + 1)), legs) for name in "GH")
    failures = []
    for name, op, hatted, direction in (
        ("antisymmetrizer", g, False, -1),
        ("symmetrizer", h, True, +1),
    ):
        mats = [
            t_leg_series(m, n, legs, p, order, shift=direction * (p - 1), hatted=hatted)
            for p in range(1, legs + 1)
        ]
        om = constant_mixed(op, SeriesTail.one(alg, order))
        lhs = om
        for mat in mats:
            lhs = lhs * mat
        rhs_chain = None
        for mat in reversed(mats):
            rhs_chain = mat if rhs_chain is None else rhs_chain * mat
        failures += lhs.failures(rhs_chain * om, {"version": name})
    return CheckResult({"legs": legs, "order": order}, failures)
