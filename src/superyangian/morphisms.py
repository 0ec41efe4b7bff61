"""Named (anti)automorphisms and the Hopf operations of the Yangian.

The three distinguished antiautomorphisms act on generating series by

    eta_M:       T_ij(u) -> T_ij(-u)           (T[i,j,r] -> (-1)^r T[i,j,r])
    antipode_S:  T_ij(u) -> Ttilde_ij(u)        (entry of T(u)^-1)
    transpose_T: T_ij(u) -> T_ji(u) (-1)^(jbar(ibar+1))

and omega = antipode_S o transpose_T = transpose_T o antipode_S is an
automorphism.  Antihomomorphisms extend to products by reversal with the
Koszul sign: beta(X X') = beta(X') beta(X) (-1)^(deg X deg X').
The image of a word is built from the cached image of a shorter word
by one product: phi(w g) = phi(w) phi(g) for a homomorphism, and
beta(g w) = (-1)^(|g||w|) beta(w) beta(g) for an antihomomorphism, so
every prefix (or suffix) image is computed once.

The coproduct is the algebra homomorphism

    Delta(T[i,j,r]) = sum_k sum_{a+b=r} T[i,k,a] (x) T[k,j,b]
                      * (-1)^((ibar+kbar)(jbar+kbar)),  T[p,q,0] = delta_pq,

into the 2-leg algebra, and the counit sends every T[i,j,r], r >= 1, to
zero.  Delta is one more table ("Delta", `build_coproduct`): a table
knows the number of legs its images have (1 for the four maps above, 2
for Delta), so the empty word maps to the unit on that many legs, and
applying a table at one leg of an element splices the image monomials
in place of that leg.

The image of a supercommutator of two letters is cached too.  For a
homomorphism (s = 1) or an antihomomorphism (s = -1),

    phi(T_a T_b) - eps phi(T_b T_a) = s [phi(T_a), phi(T_b)],
    eps = (-1)^(|a||b|),

which `bracket` forms as one product sum of the two generator images.
The two word images on the left are each a full normal-ordered product,
and most of their terms cancel in the difference; the bracket keeps
only what is left.  `algebra.relation_residuals` reads the brackets, so a
relation check merges them instead of pairs of two-letter word images.

Generator images, word images and brackets are cached per algebra:
every table of one name on one algebra reads and fills the same three
dicts in `alg.morphisms`, so a rebuilt table, or a later check on the
same algebra, finds the products it needs already normal-ordered.  A
table has no truncation order: an antipode or omega image at level r is
the u^-r coefficient of the algebra's one T(u)^-1, which `t_inverse`
extends to order r when it is first asked for.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .algebra import Algebra, Element, GenIndex
from .matrices import hatted_entry, t_inverse, transpose_sign



class MorphismTable:
    """Generator-image table for a (anti)homomorphism of the Yangian.

    The name identifies the map on its algebra: the image, word and
    bracket caches are the algebra's three for that name, shared by every
    table of the name.  `legs` is the number of tensor legs of every
    image."""

    def __init__(
        self,
        alg: Algebra,
        name: str,
        kind: str,
        image_fn: Callable[[GenIndex], Element],
        legs: int = 1,
    ):
        self.alg = alg
        self.name = name
        self.kind = kind
        self._image_fn = image_fn
        self.legs = legs
        self._images, self._word_cache, self._brackets = alg.morphisms.setdefault(
            name, ({}, {}, {}))

    def image(self, g: GenIndex) -> Element:
        g = self.alg.letter(*g)
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
            out = alg.one(self.legs)
        elif len(word) == 1:
            out = self.image(word[0])
        elif self.kind == "homomorphism":
            # phi(w g) = phi(w) phi(g)
            out = self._apply_word(word[:-1]) * self.image(word[-1])
        else:
            # beta(g w) = (-1)^(|g||w|) beta(w) beta(g)
            head, rest = word[0], word[1:]
            sign = -1 if alg.gen_parity(head) and alg.word_parity(rest) else 1
            out = alg.product_sum(((sign, self._apply_word(rest), self.image(head)),))
        self._word_cache[word] = out
        return out

    def bracket(self, a: GenIndex, b: GenIndex) -> Element:
        """image(a b) - eps image(b a) = s [image(a), image(b)] for two
        letters of the algebra on a 1-leg table (see the module
        docstring).  Formed for a <= b as one product sum and cached
        under (a, b); b < a is the same entry times -eps
        (super-antisymmetry), so each unordered pair is computed once.
        A cached entry for a <= b is returned before eps is formed."""
        if a <= b:
            out = self._brackets.get((a, b))
            if out is not None:
                return out
        alg = self.alg
        eps = -1 if alg.gen_parity(a) and alg.gen_parity(b) else 1
        if a > b:
            return self.bracket(b, a).scale(-eps)
        s = 1 if self.kind == "homomorphism" else -1
        fa, fb = self.image(a), self.image(b)
        out = self._brackets[a, b] = alg.product_sum(((s, fa, fb), (-s * eps, fb, fa)))
        return out

    def apply(self, x: Element) -> Element:
        """Apply to a 1-leg element; the result has `self.legs` legs."""
        if x.legs != 1:
            raise ValueError("morphism tables act on 1-leg elements")
        return self.apply_at_leg(x, 1)

    def apply_at_leg(self, x: Element, leg: int) -> Element:
        """Apply on one tensor leg (id (x) ... (x) map (x) ... (x) id),
        splicing each image monomial in place of that leg; the result has
        x.legs + self.legs - 1 legs.

        No extra sign arises: the table maps are parity-preserving.
        """
        acc: dict = {}
        for mon, coeff in x.terms.items():
            pre, post = mon[: leg - 1], mon[leg:]
            for img, c in self._apply_word(mon[leg - 1]).terms.items():
                repl = pre + img + post
                acc[repl] = acc.get(repl, 0) + coeff * c
        return Element(x.alg, x.legs + self.legs - 1, {k: v for k, v in acc.items() if v})


def build_eta(alg: Algebra) -> MorphismTable:
    def image(g: GenIndex) -> Element:
        e = alg.gen(g.i, g.j, g.r)
        return -e if g.r % 2 else e

    return MorphismTable(alg, "eta_M", "antihomomorphism", image)


def build_transpose(alg: Algebra) -> MorphismTable:
    def image(g: GenIndex) -> Element:
        e = alg.gen(g.j, g.i, g.r)
        return e if transpose_sign(alg, g.i, g.j) > 0 else -e

    return MorphismTable(alg, "transpose_T", "antihomomorphism", image)


def build_antipode(alg: Algebra) -> MorphismTable:
    def image(g: GenIndex) -> Element:
        return t_inverse(alg, g.r).entry(g.i, g.j).coefficient(g.r)

    return MorphismTable(alg, "antipode_S", "antihomomorphism", image)


def build_omega(alg: Algebra) -> MorphismTable:
    def image(g: GenIndex) -> Element:
        return hatted_entry(alg, t_inverse(alg, g.r), g.i, g.j).coefficient(g.r)

    return MorphismTable(alg, "omega", "homomorphism", image)


# the named one-leg maps, each built from its algebra alone
MORPHISMS: dict[str, Callable[[Algebra], MorphismTable]] = {
    "eta_M": build_eta,
    "antipode_S": build_antipode,
    "transpose_T": build_transpose,
    "omega": build_omega,
}


def build_morphism(alg: Algebra, name: str) -> MorphismTable:
    builder = MORPHISMS.get(name)
    if builder is None:
        raise ValueError(f"unknown morphism {name!r}")
    return builder(alg)


# ---------------------------------------------------------------------------
# Hopf operations
# ---------------------------------------------------------------------------


def counit(x: Element) -> Fraction:
    """epsilon: the scalar part (all generators map to zero)."""
    return x.scalar_part()


def coproduct_gen(alg: Algebra, g: GenIndex) -> Element:
    """Delta(T[i,j,r]), computed afresh; `build_coproduct` caches it."""
    i, j, r = g
    ib, jb = alg.index_parity(i), alg.index_parity(j)
    terms = []
    for k in range(1, alg.dim + 1):
        kb = alg.index_parity(k)
        sign = -1 if (ib + kb) * (jb + kb) % 2 else 1
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
    return alg.element(terms)


def build_coproduct(alg: Algebra) -> MorphismTable:
    return MorphismTable(alg, "Delta", "homomorphism",
                         lambda g: coproduct_gen(alg, g), legs=2)


def coproduct(x: Element) -> Element:
    """Delta on a 1-leg element, extended multiplicatively."""
    return build_coproduct(x.alg).apply(x)


def coproduct_at_leg(x: Element, leg: int) -> Element:
    """Apply Delta to one leg, splicing it into two adjacent legs."""
    return build_coproduct(x.alg).apply_at_leg(x, leg)


def counit_at_leg(x: Element, leg: int) -> Element:
    """Apply epsilon to one leg of an element of two or more legs,
    dropping it."""
    acc: dict = {}
    for mon, coeff in x.terms.items():
        if mon[leg - 1]:
            continue
        repl = mon[: leg - 1] + mon[leg:]
        acc[repl] = acc.get(repl, 0) + coeff
    return Element(x.alg, x.legs - 1, {k: v for k, v in acc.items() if v})
