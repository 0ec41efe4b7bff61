"""Mixed operators, and the fusion check on T(u) and its hatted inverse
on several legs.

An element of (End C^(M|N))^(x legs) (x) Y is stored as a sparse matrix
over multi-indices whose entries are SeriesTail series in u with Element
coefficients (`MixedOp`).  A missing entry is zero and the entries carry
their own arithmetic, so no coefficient ring is kept.
With the operator-leg Koszul signs baked into the entries (same baking
rule as EndoOperator), the product carries the residual super sign

    (A B)[I,L] = sum_J A[I,J] B[J,L] (-1)^((|I|+|J|)(|J|+|L|))

where |I| is the parity of a multi-index and each entry is
parity-homogeneous of degree |I|+|J|.  On one leg the baked sign is 1,
so the product is the super matrix product of `matrices`.

T(u), the entry dict of `matrices.t_matrix`, is placed on leg p of a
tensor product with the identity on the other legs; the hatted legs are
built the same way from the entries tau picks out of T(u)^-1.  On these
legs the fusion commutation of symmetrized T-products is checked.
"""

from __future__ import annotations

from itertools import product as iproduct

from .algebra import Algebra, algebra
from .checkresult import CheckResult, failure
from .grammar import first_residual_text
from .matrices import hatted_entry, t_inverse, t_matrix
from .series import SeriesTail
from .tensors import EndoOperator, bake_sign, placed


class MixedOp:
    """Sparse matrix over multi-indices with series entries.

    Entries are SeriesTail<Element> values; a missing entry is zero.
    Parities of entries are determined by their index pair (entries must
    be parity-homogeneous of that degree, which all constructors here
    guarantee)."""

    __slots__ = ("alg", "legs", "entries")

    def __init__(self, alg: Algebra, legs: int, entries: dict):
        self.alg = alg
        self.legs = legs
        self.entries = entries

    def __mul__(self, other: "MixedOp") -> "MixedOp":
        by_row: dict = {}
        for (row, col), v in other.entries.items():
            by_row.setdefault(row, []).append((col, v))
        par = self.alg.parities
        out: dict = {}
        for (row, mid), a in self.entries.items():
            pmid = sum(par[i] for i in mid)
            pa = (sum(par[i] for i in row) + pmid) & 1
            for col, b in by_row.get(mid, ()):
                pb = (pmid + sum(par[i] for i in col)) & 1
                term = a * b
                if pa and pb:
                    term = -term
                key = (row, col)
                if key in out:
                    out[key] = out[key] + term
                else:
                    out[key] = term
        return MixedOp(self.alg, self.legs, out)

    def failures(self, other: "MixedOp", location: dict) -> list:
        """A failure for each of the first five entries, in sorted index
        order, where `self` and `other` differ: `location` plus the entry,
        with the first nonzero coefficient of the difference."""
        out = []
        for key in sorted(set(self.entries) | set(other.entries)):
            a, b = self.entries.get(key), other.entries.get(key)
            diff = -b if a is None else a if b is None else a - b
            if not diff.is_zero():
                out.append(failure({**location, "entry": [list(key[0]), list(key[1])]},
                                   first_residual_text(diff)))
                if len(out) == 5:
                    break
        return out


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
        entries = {(i, j): hatted_entry(alg, tinv, i, j) for i in dims for j in dims}
    else:
        entries = t_matrix(alg, order)
    out: dict = {}
    for (i, j), series in entries.items():
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
