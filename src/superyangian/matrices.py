"""The matrix T(u) of generating series and its inverse.

A SeriesMatrix is an (M+N) x (M+N) matrix of element-valued series.  The
entry (i, j) is parity-homogeneous of degree ibar+jbar in every
coefficient, and multiplication carries the super sign

    (A B)_il = sum_k A_ik B_kl (-1)^((ibar+kbar)(kbar+lbar))

which is what the tensor-product sign convention dictates once matrix
units are given the degree ibar+jbar.
"""

from __future__ import annotations

from .algebra import Algebra, Element
from .series import Ring, SeriesTail


def element_ring(alg: Algebra, legs: int = 1) -> Ring:
    return Ring(alg.zero(legs), alg.one(legs), f"Y({alg.m}|{alg.n})^(x{legs})")


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

    @classmethod
    def identity(cls, alg: Algebra, order: int) -> "SeriesMatrix":
        ring = element_ring(alg)
        rows = [
            [
                SeriesTail.constant(ring, alg.one(1) if i == j else alg.zero(1), order)
                for j in range(alg.dim)
            ]
            for i in range(alg.dim)
        ]
        return cls(alg, order, rows, check=False)

    def __add__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        return SeriesMatrix(
            self.alg,
            self.order,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
            check=False,
        )

    def __sub__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        return SeriesMatrix(
            self.alg,
            self.order,
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
            check=False,
        )

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
    """T(u)^-1 via the Neumann series of T = 1 + W, W = O(u^-1).

    Both T T^-1 = 1 and T^-1 T = 1 hold up to the truncation order; the
    test suite checks both products as well as the entrywise identity
    sum_k T_ik Ttilde_kj (-1)^((ibar+kbar)(jbar+kbar)) = delta_ij.
    """
    alg = t.alg
    for i in range(1, alg.dim + 1):
        for j in range(1, alg.dim + 1):
            const = t.entry(i, j).coeffs[0]
            want = alg.one(1) if i == j else alg.zero(1)
            if const != want:
                raise ValueError("constant term of T(u) must be the identity matrix")
    ident = SeriesMatrix.identity(alg, t.order)
    w = t - ident
    acc = ident
    power = ident
    for m in range(1, t.order + 1):
        power = power * w
        acc = acc + power if m % 2 == 0 else acc - power
    return acc


def t_inverse(alg: Algebra, order: int) -> SeriesMatrix:
    """T(u)^-1 to order u^-order.  The algebra keeps one copy, built at
    the highest order requested so far; the Neumann series makes every
    lower order an exact truncation of it."""
    if alg.tinv is None or alg.tinv.order < order:
        alg.tinv = invert_t(t_matrix(alg, order))
    return alg.tinv.truncate(order)
