"""Exact scalar and truncated power-series arithmetic in u^-1.

The coefficient field for everything in this package is the rationals.
An integral value is stored as a Python ``int``; any other rational is a
``fractions.Fraction`` (arbitrary precision, always lowest terms,
positive denominator).  ``exact`` converts at the boundaries and rejects
floats, so no coefficient is ever inexact.

A ``SeriesTail`` stores the coefficients c_0 .. c_D, 1-leg Elements of
one algebra, of

    c_0 + c_1 u^-1 + ... + c_D u^-D + O(u^-(D+1))

with the truncation order D carried explicitly.  Coefficients beyond
u^-D are unknown, not zero; mixing different orders in arithmetic is an
error rather than an implicit minimum, so that no check ever passes by
silent truncation.

A ``Poly`` is a polynomial in the spectral parameters u and v with
``int`` coefficients.  It mixes with ``int`` and is falsy when zero, so
an operator may have ``Poly`` entries, and an identity in u and v is
checked as one exact product instead of at sample points.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, gcd, lcm

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def rational_from_text(text: str) -> Fraction:
    """Parse the textual form of a rational: ``-7/3`` or ``4``."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a rational: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def exact(value) -> int | Fraction:
    """The exact coefficient for `value`: an integral value as ``int``,
    any other rational as ``Fraction``.  Floats (and anything else that
    is not an ``int`` or a ``Fraction``) raise ``TypeError``."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(
        f"coefficients must be int or Fraction, not {type(value).__name__}: {value!r}"
    )


def exact_point(value) -> Fraction:
    """An evaluation point as a ``Fraction``: ints, Fractions and the
    textual form of a rational (``-7/3``) are accepted, floats raise
    ``TypeError``.  Never an ``int``, so ``1 / point`` stays exact."""
    if isinstance(value, str):
        return rational_from_text(value)
    return Fraction(exact(value))


def add_scaled(out: dict, coeff, entries: dict) -> None:
    """out += coeff * entries in place: the one merge of sparse
    coefficient maps (Element terms, operator entries, Poly terms).  A
    zero coeff adds nothing, and a key whose sum cancels is dropped, so
    a map without zero coefficients keeps none."""
    if not coeff:
        return
    get = out.get
    for key, v in entries.items():
        w = get(key, 0) + v * coeff
        if w:
            out[key] = w
        else:
            out.pop(key, None)


def sparse_rank(rows) -> int:
    """Rank over Q of sparse rows, each a dict {column key: rational}, one
    block at a time.  Two rows are in one block when a chain of rows, each
    sharing a column key with the next, joins them (union-find over the
    keys).  Rows of different blocks have disjoint supports, so the rank
    is the sum of the blocks' ranks, each by `row_rank` on the block's
    own columns."""
    rows = [row for row in rows if row]
    parent: dict = {}

    def find(key):
        parent.setdefault(key, key)
        while parent[key] != key:
            parent[key] = parent[parent[key]]
            key = parent[key]
        return key

    for row in rows:
        first = find(next(iter(row)))
        for key in row:
            root = find(key)
            if root != first:
                parent[root] = first
    blocks: dict = {}
    for row in rows:
        blocks.setdefault(find(next(iter(row))), []).append(row)
    rank = 0
    for block in blocks.values():
        cols = list(dict.fromkeys(key for row in block for key in row))
        rank += row_rank([[row.get(c, 0) for c in cols] for row in block])
    return rank


def _primitive(row) -> list[int]:
    """A rational row scaled to coprime integers: the same line over Q."""
    row = [exact(x) for x in row]
    den = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def row_rank(rows) -> int:
    """Rank over Q of equal-length rows of rationals, by fraction-free
    elimination: every row is scaled to coprime integers, a pivot row
    eliminates the others by cross-multiplying, and each new row is
    divided by the gcd of its entries."""
    rows = [_primitive(r) for r in rows if any(r)]
    rank = 0
    while rows:
        k = next((k for k, row in enumerate(rows) if row[0]), None)
        if k is None:
            rows = [row[1:] for row in rows]
            continue
        head = rows.pop(k)
        h = head[0]
        rest = []
        for row in rows:
            c = row[0]
            if not c:
                rest.append(row[1:])
                continue
            row = [h * x - c * y for x, y in zip(row[1:], head[1:])]
            g = gcd(*row)
            if g:
                rest.append([x // g for x in row] if g > 1 else row)
        rows = rest
        rank += 1
    return rank


def rational_to_text(q: Fraction) -> str:
    """Textual form of a rational; the denominator 1 is omitted."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


VARIABLES = ("u", "v")
_POLY_TERM_RE = re.compile(r"([+-]?)([^+-]+)")
_POLY_FACTOR_RE = re.compile(r"(\d+)|([uv])(?:\^(\d+))?")


class Poly:
    """A polynomial in the spectral parameters u and v with ``int``
    coefficients: `terms` maps exponent pairs to nonzero ints.  It
    mixes with ``int`` under +, -, * and ==, and is falsy when zero, so
    it serves as an EndoOperator entry as it is.  A Poly is never changed
    once built, so a result may be one of the operands."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls({tuple(int(x == name) for x in VARIABLES): 1})

    @staticmethod
    def _terms(x) -> dict | None:
        if isinstance(x, Poly):
            return x.terms
        if isinstance(x, int):
            return {(0, 0): x} if x else {}
        return None

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        terms = Poly._terms(other)
        return NotImplemented if terms is None else self.terms == terms

    def __add__(self, other):
        terms = Poly._terms(other)
        if terms is None:
            return NotImplemented
        if not terms:
            return self
        out = dict(self.terms)
        add_scaled(out, 1, terms)
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 1:
                return self
            return Poly({e: c * other for e, c in self.terms.items()} if other else {})
        if not isinstance(other, Poly):
            return NotImplemented
        out: dict = {}
        for e, c in self.terms.items():
            for f, d in other.terms.items():
                k = (e[0] + f[0], e[1] + f[1])
                s = out.get(k, 0) + c * d
                if s:
                    out[k] = s
                else:
                    del out[k]
        return Poly(out)

    __rmul__ = __mul__

    def __str__(self) -> str:
        """Like ``2*u^2*v-3*v+1``: no spaces, so it is one field of the
        operator dump."""
        out = ""
        for e, c in sorted(self.terms.items(), reverse=True):
            factors = [x if k == 1 else f"{x}^{k}" for x, k in zip(VARIABLES, e) if k]
            if abs(c) != 1 or not factors:
                factors.insert(0, str(abs(c)))
            out += ("-" if c < 0 else "+" if out else "") + "*".join(factors)
        return out or "0"

    __repr__ = __str__

    @classmethod
    def from_text(cls, text: str) -> "Poly":
        """The inverse of `str`: parse ``2*u^2*v-3*v+1``."""
        if _POLY_TERM_RE.sub("", text):
            raise ValueError(f"not a polynomial in u, v: {text!r}")
        terms: dict = {}
        for sign, body in _POLY_TERM_RE.findall(text):
            coeff, exps = -1 if sign == "-" else 1, [0, 0]
            for factor in body.split("*"):
                m = _POLY_FACTOR_RE.fullmatch(factor)
                if m is None:
                    raise ValueError(f"not a polynomial in u, v: {text!r}")
                digits, var, power = m.groups()
                if digits:
                    coeff *= int(digits)
                else:
                    exps[VARIABLES.index(var)] += int(power or 1)
            terms[tuple(exps)] = terms.get(tuple(exps), 0) + coeff
        return cls({e: c for e, c in terms.items() if c})


class OrderMismatchError(ValueError):
    """Two series of different truncation orders were combined."""


class NonUnitError(ValueError):
    """Series inversion requires the constant term to be the unit."""


class SeriesTail:
    """Truncated formal power series in u^-1 whose coefficients are
    1-leg Elements of the algebra `alg`."""

    __slots__ = ("alg", "order", "coeffs")

    def __init__(self, alg, order: int, coeffs):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        coeffs = tuple(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError(
                f"need exactly {order + 1} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("SeriesTail is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def from_map(cls, alg, order: int, entries: dict) -> "SeriesTail":
        coeffs = [alg.zero(1)] * (order + 1)
        for r, v in entries.items():
            if not 0 <= r <= order:
                raise ValueError(f"coefficient index {r} outside 0..{order}")
            coeffs[r] = v
        return cls(alg, order, coeffs)

    @classmethod
    def constant(cls, alg, value, order: int) -> "SeriesTail":
        return cls.from_map(alg, order, {0: value})

    @classmethod
    def one(cls, alg, order: int) -> "SeriesTail":
        return cls.constant(alg, alg.one(1), order)

    @classmethod
    def zero(cls, alg, order: int) -> "SeriesTail":
        return cls(alg, order, [alg.zero(1)] * (order + 1))

    # -- basic queries -----------------------------------------------

    def coefficient(self, r: int):
        if not 0 <= r <= self.order:
            raise IndexError(f"coefficient u^-{r} beyond order {self.order}")
        return self.coeffs[r]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _check_order(self, other: "SeriesTail") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"series orders differ: {self.order} vs {other.order}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesTail):
            return NotImplemented
        self._check_order(other)
        return self.coeffs == other.coeffs

    def truncate(self, order: int) -> "SeriesTail":
        """The same series known only up to u^-order (order <= self.order)."""
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate order {self.order} to {order}")
        if order == self.order:
            return self
        return SeriesTail(self.alg, order, self.coeffs[: order + 1])

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "SeriesTail") -> "SeriesTail":
        self._check_order(other)
        return SeriesTail(
            self.alg, self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "SeriesTail") -> "SeriesTail":
        self._check_order(other)
        return SeriesTail(
            self.alg, self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self) -> "SeriesTail":
        return SeriesTail(self.alg, self.order, [-c for c in self.coeffs])

    def __mul__(self, other: "SeriesTail") -> "SeriesTail":
        """Cauchy product, one `Algebra.product_sum` per coefficient; the
        factors keep the written order."""
        self._check_order(other)
        a, b = self.coeffs, other.coeffs
        product_sum = self.alg.product_sum
        return SeriesTail(self.alg, self.order, [
            product_sum((1, a[p], b[r - p]) for p in range(r + 1))
            for r in range(self.order + 1)
        ])

    def scale(self, scalar) -> "SeriesTail":
        """Multiply every coefficient by a rational/int scalar."""
        return SeriesTail(self.alg, self.order, [c.scale(scalar) for c in self.coeffs])

    def inverse(self) -> "SeriesTail":
        """Two-sided inverse modulo u^-(order+1); needs constant term 1."""
        one = self.alg.one(1)
        if self.coeffs[0] != one:
            raise NonUnitError("series inverse needs constant term equal to the unit")
        product_sum = self.alg.product_sum
        inv = [one]
        for r in range(1, self.order + 1):
            inv.append(-product_sum((1, self.coeffs[q], inv[r - q]) for q in range(1, r + 1)))
        return SeriesTail(self.alg, self.order, inv)

    def shift(self, c) -> "SeriesTail":
        """Re-expand the series at u + c in powers of u^-1 (exact).

        Uses (u+c)^-a = sum_m binom(-a, m) c^m u^-(a+m) with the exact
        integer binomials binom(-a, m) = (-1)^m binom(a+m-1, m).
        """
        if c == 0:
            return self
        out = [self.alg.zero(1)] * (self.order + 1)
        for a, coeff in enumerate(self.coeffs):
            if not coeff:
                continue
            if a == 0:
                out[0] = out[0] + coeff
                continue
            power = 1
            for m in range(self.order - a + 1):
                binom = comb(a + m - 1, m) * (-1 if m % 2 else 1)
                if binom:
                    out[a + m] = out[a + m] + coeff * (binom * power)
                power = power * c
        return SeriesTail(self.alg, self.order, out)

    def negate_argument(self) -> "SeriesTail":
        """The series at -u: c_r u^-r becomes (-1)^r c_r u^-r."""
        return SeriesTail(
            self.alg, self.order, [-c if r % 2 else c for r, c in enumerate(self.coeffs)]
        )

    def __repr__(self):
        return f"SeriesTail(order={self.order}, coeffs={list(self.coeffs)!r})"
