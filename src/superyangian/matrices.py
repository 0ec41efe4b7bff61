"""The matrix T(u) of generating series and its inverse.

A SeriesMatrix is an (M+N) x (M+N) matrix of element-valued series.  The
entry (i, j) is parity-homogeneous of degree ibar+jbar in every
coefficient, and multiplication carries the super sign

    (A B)_il = sum_k A_ik B_kl (-1)^((ibar+kbar)(kbar+lbar))

which is what the tensor-product sign convention dictates once matrix
units are given the degree ibar+jbar.

T(u)^-1 is built coefficient by coefficient from T(u) T(u)^-1 = 1
(`invert_t`), not through matrix products, so the product above stays
an independent check of it.
"""

from __future__ import annotations

from .algebra import Algebra, element_ring
from .series import SeriesTail


class SeriesMatrix:
    """Square matrix of SeriesTail<Element> with parity-aware product."""

    __slots__ = ("alg", "order", "rows")

    def __init__(self, alg: Algebra, order: int, rows, check: bool = True):
        self.alg = alg
        self.order = order
        self.rows = tuple(tuple(row) for row in rows)
        dim = alg.dim
        if len(self.rows) != dim or any(len(r) != dim for r in self.rows):
            raise ValueError(f"need a {dim}x{dim} matrix")
        if check:
            self._check_parity()

    def _check_parity(self) -> None:
        alg = self.alg
        for i, row in enumerate(self.rows, start=1):
            for j, entry in enumerate(row, start=1):
                want = (alg.index_parity(i) + alg.index_parity(j)) & 1
                for coeff in entry.coeffs:
                    if coeff.is_zero():
                        continue
                    if coeff.parity() != want:
                        raise ValueError(
                            f"entry ({i},{j}) has a coefficient of wrong parity"
                        )

    def entry(self, i: int, j: int) -> SeriesTail:
        return self.rows[i - 1][j - 1]

    def __mul__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        alg = self.alg
        dim = alg.dim
        par = [alg.index_parity(i + 1) for i in range(dim)]
        ring = element_ring(alg)
        rows = []
        for i in range(dim):
            row = []
            for l in range(dim):
                acc = SeriesTail.zero(ring, self.order)
                for k in range(dim):
                    term = self.rows[i][k] * other.rows[k][l]
                    if (par[i] + par[k]) * (par[k] + par[l]) % 2:
                        term = term.scale(-1)
                    acc = acc + term
                row.append(acc)
            rows.append(row)
        return SeriesMatrix(alg, self.order, rows, check=False)

    def shift(self, c: int) -> "SeriesMatrix":
        return SeriesMatrix(
            self.alg,
            self.order,
            [[entry.shift(c) for entry in row] for row in self.rows],
            check=False,
        )

    def truncate(self, order: int) -> "SeriesMatrix":
        if order == self.order:
            return self
        return SeriesMatrix(
            self.alg,
            order,
            [[entry.truncate(order) for entry in row] for row in self.rows],
            check=False,
        )

    def is_identity(self) -> bool:
        for i, row in enumerate(self.rows):
            for j, entry in enumerate(row):
                want_const = self.alg.one(1) if i == j else self.alg.zero(1)
                if entry.coeffs[0] != want_const:
                    return False
                if any(not c.is_zero() for c in entry.coeffs[1:]):
                    return False
        return True


def gen_series(alg: Algebra, i: int, j: int, order: int) -> SeriesTail:
    """T_ij(u) = delta_ij + sum_r T[i,j,r] u^-r to order u^-order."""
    coeffs = [alg.one(1) if i == j else alg.zero(1)]
    coeffs += [alg.gen(i, j, r) for r in range(1, order + 1)]
    return SeriesTail(element_ring(alg), order, coeffs)


def t_matrix(alg: Algebra, order: int) -> SeriesMatrix:
    """T(u), the matrix of the series T_ij(u)."""
    dims = range(1, alg.dim + 1)
    return SeriesMatrix(alg, order, [[gen_series(alg, i, j, order) for j in dims] for i in dims])


def transpose_sign(alg: Algebra, i: int, j: int) -> int:
    """(-1)^(jbar(ibar+1)), the sign of the super transposition
    T_ij(u) -> T_ji(u)."""
    return -1 if alg.index_parity(j) * (alg.index_parity(i) + 1) % 2 else 1


def hatted_entry(alg: Algebra, tinv: SeriesMatrix, i: int, j: int) -> SeriesTail:
    """That_ij(u) = Ttilde_ji(u) (-1)^(jbar(ibar+1)): the entry tau picks
    out of T(u)^-1, and the image of T_ij(u) under omega."""
    series = tinv.entry(j, i)
    return series if transpose_sign(alg, i, j) > 0 else series.scale(-1)


def invert_t(t: SeriesMatrix) -> SeriesMatrix:
    """T(u)^-1 by the u^-r coefficient of T(u) T(u)^-1 = 1, solved for
    the highest term one order at a time:

        Ttilde^(r)_il = - sum_(s=1..r) sum_k T_ik^(s) Ttilde^(r-s)_kl
                          (-1)^((ibar+kbar)(kbar+lbar)),   Ttilde^(0) = 1.

    The test suite checks both products T T^-1 and T^-1 T with the
    matrix product, independently of this recursion.
    """
    alg = t.alg
    dims = range(alg.dim)
    one, zero = alg.one(1), alg.zero(1)
    for i in dims:
        for j in dims:
            if t.rows[i][j].coeffs[0] != (one if i == j else zero):
                raise ValueError("constant term of T(u) must be the identity matrix")
    par = [alg.index_parity(i + 1) for i in dims]
    # the minus sign of the recursion folded into the super sign
    sign = [[[1 if (par[i] + par[k]) * (par[k] + par[l]) % 2 else -1 for l in dims]
             for k in dims] for i in dims]
    inv = [[[one if i == l else zero] for l in dims] for i in dims]
    for r in range(1, t.order + 1):
        for i in dims:
            for l in dims:
                inv[i][l].append(alg.product_sum(
                    (sign[i][k][l], t.rows[i][k].coeffs[s], inv[k][l][r - s])
                    for s in range(1, r + 1)
                    for k in dims
                ))
    ring = element_ring(alg)
    rows = [[SeriesTail(ring, t.order, inv[i][l]) for l in dims] for i in dims]
    return SeriesMatrix(alg, t.order, rows, check=False)


def t_inverse(alg: Algebra, order: int) -> SeriesMatrix:
    """T(u)^-1 to order u^-order.  The algebra keeps one copy, built at
    the highest order requested so far; its u^-r coefficient depends
    only on T^(1) .. T^(r), so every lower order is an exact truncation
    of it."""
    if alg.tinv is None or alg.tinv.order < order:
        alg.tinv = invert_t(t_matrix(alg, order))
    return alg.tinv.truncate(order)
