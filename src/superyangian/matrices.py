"""Mixed operators, the one matrix type with series entries: T(u) and T(u)^-1.

An element of (End C^(M|N))^(x legs) (x) Y is stored as a sparse matrix
over multi-indices whose entries are SeriesTail series in u with Element
coefficients.  A missing entry is zero and the entries carry their own
arithmetic, so no coefficient ring is kept.
With the operator-leg Koszul signs baked into the entries (same baking
rule as EndoOperator), the product carries the residual super sign

    (A B)[I,L] = sum_J A[I,J] B[J,L] (-1)^((|I|+|J|)(|J|+|L|))

where |I| is the parity of a multi-index and each entry is
parity-homogeneous of degree |I|+|J|.

T(u) = sum E_ij (x) T_ij(u) is the one-leg operator keyed ((i,), (j,)).
On one leg the baked sign is 1, so its product is the matrix product

    (A B)_il = sum_k A_ik B_kl (-1)^((ibar+kbar)(kbar+lbar))

that the tensor-product sign convention dictates once matrix units are
given the degree ibar+jbar.

T(u)^-1 is built coefficient by coefficient from T(u) T(u)^-1 = 1
(`invert_t`), not through operator products, so the product above stays
an independent check of it.
"""

from __future__ import annotations

from .algebra import Algebra
from .checkresult import failure
from .grammar import first_residual_text
from .series import SeriesTail


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

    def entry(self, i: int, j: int):
        """The (i, j) entry of a one-leg operator."""
        return self.entries[(i,), (j,)]

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


def gen_series(alg: Algebra, i: int, j: int, order: int) -> SeriesTail:
    """T_ij(u) = delta_ij + sum_r T[i,j,r] u^-r to order u^-order."""
    coeffs = [alg.one(1) if i == j else alg.zero(1)]
    coeffs += [alg.gen(i, j, r) for r in range(1, order + 1)]
    return SeriesTail(alg, order, coeffs)


def t_matrix(alg: Algebra, order: int) -> MixedOp:
    """T(u), the one-leg operator of the series T_ij(u)."""
    dims = range(1, alg.dim + 1)
    return MixedOp(alg, 1, {((i,), (j,)): gen_series(alg, i, j, order)
                            for i in dims for j in dims})


def transpose_sign(alg: Algebra, i: int, j: int) -> int:
    """(-1)^(jbar(ibar+1)), the sign of the super transposition
    T_ij(u) -> T_ji(u)."""
    return -1 if alg.parities[j] and not alg.parities[i] else 1


def hatted_entry(alg: Algebra, tinv: MixedOp, i: int, j: int) -> SeriesTail:
    """That_ij(u) = Ttilde_ji(u) (-1)^(jbar(ibar+1)): the entry tau picks
    out of T(u)^-1, and the image of T_ij(u) under omega."""
    series = tinv.entry(j, i)
    return series if transpose_sign(alg, i, j) > 0 else series.scale(-1)


def invert_t(t: MixedOp, known: MixedOp | None = None) -> MixedOp:
    """T(u)^-1 by the u^-r coefficient of T(u) T(u)^-1 = 1, solved for
    the highest term one order at a time:

        Ttilde^(r)_il = - sum_(s=1..r) sum_k T_ik^(s) Ttilde^(r-s)_kl
                          (-1)^((ibar+kbar)(kbar+lbar)),   Ttilde^(0) = 1.

    Coefficient r reads only T^(1) .. T^(r), so a lower-order inverse
    `known` of the same T(u) is resumed: its coefficients are kept, the
    same objects, and the recursion starts at the order after its own.

    The test suite checks both products T T^-1 and T^-1 T with the
    operator product, independently of this recursion.
    """
    alg = t.alg
    dims = range(1, alg.dim + 1)
    one, zero = alg.one(1), alg.zero(1)
    coeffs = {(i, k): t.entry(i, k).coeffs for i in dims for k in dims}
    if any(c[0] != (one if i == k else zero) for (i, k), c in coeffs.items()):
        raise ValueError("constant term of T(u) must be the identity matrix")
    order = t.entry(1, 1).order
    par = alg.parities
    # the minus sign of the recursion folded into the super sign
    sign = {(i, k, l): 1 if (par[i] + par[k]) * (par[k] + par[l]) % 2 else -1
            for i in dims for k in dims for l in dims}
    if known is None:
        inv = {(i, l): [one if i == l else zero] for i in dims for l in dims}
    else:
        inv = {(i, l): list(known.entry(i, l).coeffs) for i in dims for l in dims}
    for r in range(len(inv[1, 1]), order + 1):
        for i in dims:
            for l in dims:
                inv[i, l].append(alg.product_sum(
                    ((sign[i, k, l], coeffs[i, k][s], inv[k, l][r - s])
                     for s in range(1, r + 1)
                     for k in dims),
                    store=False,
                ))
    return MixedOp(alg, 1, {((i,), (l,)): SeriesTail(alg, order, c)
                            for (i, l), c in inv.items()})


def t_inverse(alg: Algebra, order: int) -> MixedOp:
    """T(u)^-1 to order u^-order.  The algebra keeps one copy, at the
    highest order requested so far: a higher order extends it from the
    order it has, keeping its coefficients, and a lower order is an
    exact truncation of it, as its u^-r coefficient depends only on
    T^(1) .. T^(r)."""
    tinv = alg.tinv
    if tinv is None or tinv.entry(1, 1).order < order:
        tinv = alg.tinv = invert_t(t_matrix(alg, order), tinv)
    if tinv.entry(1, 1).order == order:
        return tinv
    return MixedOp(alg, 1, {key: series.truncate(order) for key, series in tinv.entries.items()})
