"""Exact scalar and truncated power-series arithmetic in u^-1.

The coefficient field for everything in this package is the rationals.
An integral value is stored as a Python ``int``; any other rational is a
``fractions.Fraction`` (arbitrary precision, always lowest terms,
positive denominator).  ``exact`` converts at the boundaries and rejects
floats, so no coefficient is ever inexact.  Series are generic over any
exact ring whose elements support ``+``, ``-``, ``*`` (with each other
and with ``int``/``Fraction`` scalars) and ``==``.

A ``SeriesTail`` stores the coefficients c_0 .. c_D of

    c_0 + c_1 u^-1 + ... + c_D u^-D + O(u^-(D+1))

with the truncation order D carried explicitly.  Coefficients beyond
u^-D are unknown, not zero; mixing different orders in arithmetic is an
error rather than an implicit minimum, so that no check ever passes by
silent truncation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Any

Rational = Fraction

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


def row_rank(rows) -> int:
    """Rank over Q of equal-length rows of rationals, by Gaussian
    elimination; every quotient is taken through ``Fraction``."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    col = 0
    width = len(rows[0]) if rows else 0
    while rows and col < width:
        pivot = next((k for k, row in enumerate(rows) if row[col]), None)
        if pivot is None:
            col += 1
            continue
        rows[0], rows[pivot] = rows[pivot], rows[0]
        head = rows[0]
        inv = 1 / Fraction(head[col])
        for row in rows[1:]:
            if row[col]:
                f = row[col] * inv
                for c in range(col, width):
                    row[c] -= head[c] * f
        rows = [r for r in rows[1:] if any(r)]
        rank += 1
        col += 1
    return rank


def rational_to_text(q: Fraction) -> str:
    """Textual form of a rational; the denominator 1 is omitted."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class Ring:
    """Zero and unit of an exact coefficient ring.

    Ring elements are duck-typed: they must support +, -, * between
    themselves, * with int/Fraction scalars, and exact ==.
    """

    zero: Any
    one: Any
    name: str = "ring"


RATIONALS = Ring(Fraction(0), Fraction(1), "Q")


class OrderMismatchError(ValueError):
    """Two series of different truncation orders were combined."""


class NonUnitError(ValueError):
    """Series inversion requires the constant term to be the ring unit."""


class SeriesTail:
    """Truncated formal power series in u^-1 over an exact ring."""

    __slots__ = ("ring", "order", "coeffs")

    def __init__(self, ring: Ring, order: int, coeffs):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        coeffs = tuple(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError(
                f"need exactly {order + 1} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("SeriesTail is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def from_map(cls, ring: Ring, order: int, entries: dict[int, Any]) -> "SeriesTail":
        coeffs = [ring.zero] * (order + 1)
        for r, v in entries.items():
            if not 0 <= r <= order:
                raise ValueError(f"coefficient index {r} outside 0..{order}")
            coeffs[r] = v
        return cls(ring, order, coeffs)

    @classmethod
    def constant(cls, ring: Ring, value, order: int) -> "SeriesTail":
        return cls.from_map(ring, order, {0: value})

    @classmethod
    def one(cls, ring: Ring, order: int) -> "SeriesTail":
        return cls.constant(ring, ring.one, order)

    @classmethod
    def zero(cls, ring: Ring, order: int) -> "SeriesTail":
        return cls(ring, order, [ring.zero] * (order + 1))

    # -- basic queries -----------------------------------------------

    def coefficient(self, r: int):
        if not 0 <= r <= self.order:
            raise IndexError(f"coefficient u^-{r} beyond order {self.order}")
        return self.coeffs[r]

    def is_zero(self) -> bool:
        return all(c == self.ring.zero for c in self.coeffs)

    def _check_order(self, other: "SeriesTail") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"series orders differ: {self.order} vs {other.order}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesTail):
            return NotImplemented
        self._check_order(other)
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        raise TypeError("SeriesTail is not hashable")

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "SeriesTail") -> "SeriesTail":
        self._check_order(other)
        return SeriesTail(
            self.ring, self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "SeriesTail") -> "SeriesTail":
        self._check_order(other)
        return SeriesTail(
            self.ring, self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self) -> "SeriesTail":
        return SeriesTail(self.ring, self.order, [-c for c in self.coeffs])

    def __mul__(self, other: "SeriesTail") -> "SeriesTail":
        """Cauchy product; ring multiplication keeps the written order."""
        self._check_order(other)
        zero = self.ring.zero
        out = [zero] * (self.order + 1)
        for p, a in enumerate(self.coeffs):
            if a == zero:
                continue
            for q in range(self.order + 1 - p):
                b = other.coeffs[q]
                if b == zero:
                    continue
                out[p + q] = out[p + q] + a * b
        return SeriesTail(self.ring, self.order, out)

    def scale(self, scalar) -> "SeriesTail":
        """Multiply every coefficient by a central rational/int scalar."""
        if scalar == 0:
            return SeriesTail.zero(self.ring, self.order)
        return SeriesTail(self.ring, self.order, [c * scalar for c in self.coeffs])

    def inverse(self) -> "SeriesTail":
        """Two-sided inverse modulo u^-(order+1); needs constant term 1."""
        if self.coeffs[0] != self.ring.one:
            raise NonUnitError("series inverse needs constant term equal to the unit")
        zero = self.ring.zero
        inv = [self.ring.one]
        for r in range(1, self.order + 1):
            acc = zero
            for q in range(1, r + 1):
                a = self.coeffs[q]
                if a == zero:
                    continue
                acc = acc + a * inv[r - q]
            inv.append(-acc)
        return SeriesTail(self.ring, self.order, inv)

    def shift(self, c) -> "SeriesTail":
        """Re-expand the series at u + c in powers of u^-1 (exact).

        Uses (u+c)^-a = sum_m binom(-a, m) c^m u^-(a+m) with the exact
        integer binomials binom(-a, m) = (-1)^m binom(a+m-1, m).
        """
        if c == 0:
            return self
        zero = self.ring.zero
        out = [zero] * (self.order + 1)
        for a, coeff in enumerate(self.coeffs):
            if coeff == zero:
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
        return SeriesTail(self.ring, self.order, out)

    def derivative(self) -> "SeriesTail":
        """Formal d/du: c_r u^-r contributes -r c_r u^-(r+1).

        The contribution of the unknown u^-(order+1) tail is dropped, so
        the result is reliable exactly up to u^-order.
        """
        out = [self.ring.zero]
        for s in range(1, self.order + 1):
            out.append(self.coeffs[s - 1] * (-(s - 1)))
        return SeriesTail(self.ring, self.order, out)

    def __repr__(self):
        return f"SeriesTail(order={self.order}, coeffs={list(self.coeffs)!r})"


class BiSeries:
    """Truncated series in two variables u^-1, v^-1 over an exact ring.

    Coefficient keys (r, s) may be negative (finitely many positive
    powers of u, v), which is what multiplication by u - v produces.
    Keys with r <= order_u and s <= order_v are reliable; everything
    beyond is unknown.  Used to expand two-variable identities.
    """

    __slots__ = ("ring", "order_u", "order_v", "coeffs")

    def __init__(self, ring: Ring, order_u: int, order_v: int, coeffs: dict):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "order_u", order_u)
        object.__setattr__(self, "order_v", order_v)
        clean = {
            k: v
            for k, v in coeffs.items()
            if k[0] <= order_u and k[1] <= order_v and v != ring.zero
        }
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BiSeries is immutable")

    @classmethod
    def in_u(cls, ring: Ring, order_u: int, order_v: int, coeffs) -> "BiSeries":
        """A one-variable series in u embedded as a BiSeries."""
        return cls(ring, order_u, order_v, {(r, 0): c for r, c in enumerate(coeffs)})

    @classmethod
    def in_v(cls, ring: Ring, order_u: int, order_v: int, coeffs) -> "BiSeries":
        return cls(ring, order_u, order_v, {(0, s): c for s, c in enumerate(coeffs)})

    def coefficient(self, r: int, s: int):
        if r > self.order_u or s > self.order_v:
            raise IndexError(f"coefficient ({r},{s}) beyond orders")
        return self.coeffs.get((r, s), self.ring.zero)

    def _check_orders(self, other: "BiSeries") -> None:
        if (self.order_u, self.order_v) != (other.order_u, other.order_v):
            raise OrderMismatchError("BiSeries orders differ")

    def __add__(self, other: "BiSeries") -> "BiSeries":
        self._check_orders(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, self.ring.zero) + v
        return BiSeries(self.ring, self.order_u, self.order_v, out)

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        return self + (-other)

    def __neg__(self) -> "BiSeries":
        return BiSeries(
            self.ring, self.order_u, self.order_v, {k: -v for k, v in self.coeffs.items()}
        )

    def scale(self, scalar) -> "BiSeries":
        return BiSeries(
            self.ring,
            self.order_u,
            self.order_v,
            {k: v * scalar for k, v in self.coeffs.items()},
        )

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        """Cauchy product, factor order preserved; inputs must have no
        positive powers (all keys >= (0,0)) so every retained
        coefficient is fully determined."""
        self._check_orders(other)
        for k in list(self.coeffs) + list(other.coeffs):
            if k[0] < 0 or k[1] < 0:
                raise ValueError("BiSeries product needs non-negative exponents")
        out: dict = {}
        zero = self.ring.zero
        for (r1, s1), a in self.coeffs.items():
            for (r2, s2), b in other.coeffs.items():
                r, s = r1 + r2, s1 + s2
                if r > self.order_u or s > self.order_v:
                    continue
                key = (r, s)
                out[key] = out.get(key, zero) + a * b
        return BiSeries(self.ring, self.order_u, self.order_v, out)

    def times_u_minus_v(self) -> "BiSeries":
        """Exact multiplication by (u - v): coefficient bookkeeping only.

        The (r, s) coefficient feeds positions (r-1, s) with +, (r, s-1)
        with -.  One order of validity is lost in each variable.
        """
        out: dict = {}
        zero = self.ring.zero
        for (r, s), c in self.coeffs.items():
            k1 = (r - 1, s)
            out[k1] = out.get(k1, zero) + c
            k2 = (r, s - 1)
            out[k2] = out.get(k2, zero) - c
        return BiSeries(self.ring, self.order_u - 1, self.order_v - 1, out)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiSeries):
            return NotImplemented
        self._check_orders(other)
        keys = set(self.coeffs) | set(other.coeffs)
        zero = self.ring.zero
        return all(
            self.coeffs.get(k, zero) == other.coeffs.get(k, zero) for k in keys
        )

    def __hash__(self):
        raise TypeError("BiSeries is not hashable")

    def __repr__(self):
        return (
            f"BiSeries(orders=({self.order_u},{self.order_v}), "
            f"nonzero={len(self.coeffs)})"
        )
