"""Named (anti)automorphisms and the Hopf operations of the Yangian.

The three distinguished antiautomorphisms act on generating series by

    eta_M:       T_ij(u) -> T_ij(-u)           (T[i,j,r] -> (-1)^r T[i,j,r])
    antipode_S:  T_ij(u) -> Ttilde_ij(u)        (entry of T(u)^-1)
    transpose_T: T_ij(u) -> T_ji(u) (-1)^(jbar(ibar+1))

and omega = antipode_S o transpose_T = transpose_T o antipode_S is an
automorphism.  Antihomomorphisms extend to products by reversal with the
Koszul sign: beta(X X') = beta(X') beta(X) (-1)^(deg X deg X').

The coproduct is the algebra homomorphism

    Delta(T[i,j,r]) = sum_k sum_{a+b=r} T[i,k,a] (x) T[k,j,b]
                      * (-1)^((ibar+kbar)(jbar+kbar)),  T[p,q,0] = delta_pq,

and the counit sends every T[i,j,r], r >= 1, to zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .algebra import Algebra, Element, GenIndex
from .matrices import invert_t, t_matrix

ONE = 1


class MorphismOrderError(ValueError):
    """A generator level beyond the precomputed table order was requested;
    rebuild the table at a higher order."""


class MorphismTable:
    """Generator-image table for a (anti)homomorphism of the Yangian."""

    def __init__(
        self,
        alg: Algebra,
        name: str,
        kind: str,
        image_fn: Callable[[GenIndex], Element],
        order: int | None = None,
    ):
        if kind not in ("homomorphism", "antihomomorphism"):
            raise ValueError("kind must be homomorphism or antihomomorphism")
        self.alg = alg
        self.name = name
        self.kind = kind
        self._image_fn = image_fn
        self.order = order
        self._images: dict[GenIndex, Element] = {}
        self._word_cache: dict = {}

    def image(self, g: GenIndex) -> Element:
        g = GenIndex(*g)
        if self.order is not None and g.r > self.order:
            raise MorphismOrderError(
                f"{self.name} table was built to order {self.order}; "
                f"rebuild at order >= {g.r} for T[{g.i},{g.j},{g.r}]"
            )
        img = self._images.get(g)
        if img is None:
            img = self._image_fn(g)
            self._images[g] = img
        return img

    def _apply_word(self, word) -> Element:
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached
        alg = self.alg
        if not word:
            out = alg.one(1)
        elif self.kind == "homomorphism":
            out = self.image(word[0])
            for g in word[1:]:
                out = out * self.image(g)
        else:
            # reversal sign: each pair of odd letters that crosses
            pars = [alg.gen_parity(g) for g in word]
            exp = 0
            for p in range(len(word)):
                for q in range(p + 1, len(word)):
                    exp += pars[p] * pars[q]
            out = self.image(word[-1])
            for g in reversed(word[:-1]):
                out = out * self.image(g)
            if exp % 2:
                out = -out
        self._word_cache[word] = out
        return out

    def apply(self, x: Element) -> Element:
        """Apply to a 1-leg element."""
        if x.legs != 1:
            raise ValueError("morphism tables act on 1-leg elements")
        out = x.alg.zero(1)
        for (word,), coeff in x.terms.items():
            out = out + self._apply_word(word).scale(coeff)
        return out

    def apply_at_leg(self, x: Element, leg: int) -> Element:
        """Apply on one tensor leg (id (x) ... (x) map (x) ... (x) id).

        No extra sign arises: the table maps are parity-preserving.
        """
        if not 1 <= leg <= x.legs:
            raise ValueError("leg out of range")
        alg = x.alg
        out = alg.zero(x.legs)
        for mon, coeff in x.terms.items():
            mapped = self._apply_word(mon[leg - 1])
            for (w,), c in mapped.terms.items():
                repl = mon[: leg - 1] + (w,) + mon[leg:]
                out = out + Element(alg, x.legs, {repl: coeff * c})
        return out


def build_eta(alg: Algebra) -> MorphismTable:
    def image(g: GenIndex) -> Element:
        e = alg.gen(g.i, g.j, g.r)
        return -e if g.r % 2 else e

    return MorphismTable(alg, "eta_M", "antihomomorphism", image)


def build_transpose(alg: Algebra) -> MorphismTable:
    def image(g: GenIndex) -> Element:
        jb = alg.index_parity(g.j)
        ib = alg.index_parity(g.i)
        e = alg.gen(g.j, g.i, g.r)
        return -e if jb * (ib + 1) % 2 else e

    return MorphismTable(alg, "transpose_T", "antihomomorphism", image)


def build_antipode(alg: Algebra, order: int) -> MorphismTable:
    tinv = invert_t(t_matrix(alg, order))

    def image(g: GenIndex) -> Element:
        return tinv.entry(g.i, g.j).coefficient(g.r)

    return MorphismTable(alg, "antipode_S", "antihomomorphism", image, order=order)


def build_omega(alg: Algebra, order: int) -> MorphismTable:
    tinv = invert_t(t_matrix(alg, order))

    def image(g: GenIndex) -> Element:
        jb = alg.index_parity(g.j)
        ib = alg.index_parity(g.i)
        e = tinv.entry(g.j, g.i).coefficient(g.r)
        return -e if jb * (ib + 1) % 2 else e

    return MorphismTable(alg, "omega", "homomorphism", image, order=order)


def build_morphism(alg: Algebra, name: str, order: int = 6) -> MorphismTable:
    if name == "eta_M":
        return build_eta(alg)
    if name == "transpose_T":
        return build_transpose(alg)
    if name == "antipode_S":
        return build_antipode(alg, order)
    if name == "omega":
        return build_omega(alg, order)
    raise ValueError(f"unknown morphism {name!r}")


# ---------------------------------------------------------------------------
# Hopf operations
# ---------------------------------------------------------------------------


def counit(x: Element) -> Fraction:
    """epsilon: the scalar part (all generators map to zero)."""
    return x.scalar_part()


_COPRODUCT_CACHE: dict = {}


def coproduct_gen(alg: Algebra, g: GenIndex) -> Element:
    key = (alg.m, alg.n, g)
    cached = _COPRODUCT_CACHE.get(key)
    if cached is not None:
        return cached
    i, j, r = g
    ib, jb = alg.index_parity(i), alg.index_parity(j)
    terms = []
    for k in range(1, alg.dim + 1):
        kb = alg.index_parity(k)
        sign = -ONE if (ib + kb) * (jb + kb) % 2 else ONE
        for a in range(r + 1):
            b = r - a
            if a == 0:
                if i != k:
                    continue
                left = ()
            else:
                left = ((i, k, a),)
            if b == 0:
                if k != j:
                    continue
                right = ()
            else:
                right = ((k, j, b),)
            terms.append((sign, [left, right]))
    out = alg.element(terms)
    _COPRODUCT_CACHE[key] = out
    return out


def coproduct(x: Element) -> Element:
    """Delta on a 1-leg element, extended multiplicatively."""
    if x.legs != 1:
        raise ValueError("coproduct acts on 1-leg elements")
    alg = x.alg
    out = alg.zero(2)
    for (word,), coeff in x.terms.items():
        term = alg.one(2)
        for g in word:
            term = term * coproduct_gen(alg, g)
        out = out + term.scale(coeff)
    return out


def coproduct_at_leg(x: Element, leg: int) -> Element:
    """Apply Delta to one leg, splicing it into two adjacent legs."""
    if not 1 <= leg <= x.legs:
        raise ValueError("leg out of range")
    alg = x.alg
    out = alg.zero(x.legs + 1)
    for mon, coeff in x.terms.items():
        word = mon[leg - 1]
        expanded = alg.one(2)
        for g in word:
            expanded = expanded * coproduct_gen(alg, g)
        for (w1, w2), c in expanded.terms.items():
            repl = mon[: leg - 1] + (w1, w2) + mon[leg:]
            out = out + Element(alg, x.legs + 1, {repl: coeff * c})
    return out


def counit_at_leg(x: Element, leg: int) -> Element:
    """Apply epsilon to one leg, dropping it."""
    if not 1 <= leg <= x.legs:
        raise ValueError("leg out of range")
    if x.legs == 1:
        raise ValueError("cannot drop the only leg")
    alg = x.alg
    out = alg.zero(x.legs - 1)
    for mon, coeff in x.terms.items():
        if mon[leg - 1]:
            continue
        repl = mon[: leg - 1] + mon[leg:]
        out = out + Element(alg, x.legs - 1, {repl: coeff})
    return out
