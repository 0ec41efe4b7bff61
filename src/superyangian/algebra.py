"""The Yangian of gl(M|N): generators, grading, normal ordering.

Generators T[i,j,r] with i,j in 1..M+N and level r >= 1 carry the
Z2-degree ibar+jbar, where ibar = 0 for i <= M and 1 for i > M.  The
defining relations are used in the coefficient form

    [T[i,j,r], T[k,l,s]] * (-1)^(ibar*kbar + ibar*lbar + kbar*lbar)
        = sum_{t=0}^{min(r,s)-1} ( T[k,j,t] T[i,l,r+s-1-t]
                                 - T[k,j,r+s-1-t] T[i,l,t] )

with T[p,q,0] = delta_pq.  Every word in the generators has a unique
normal form: per-leg words sorted non-decreasingly in the lexicographic
order on (i, j, r), with no odd generator repeated (odd squares are
rewritten away via X*X -> [X,X]/2).  Rewriting terminates because a
swap strictly decreases the inversion count at fixed total level while
a commutator insertion strictly decreases the total level.

The coefficient form above is not taken on trust: the test suite and
the `defining-relations` verification suite expand the two-variable
series form of the relations and require every coefficient to
normal-order to zero before anything downstream is believed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from typing import Iterable

from .series import Ring, add_scaled, exact

HALF = Fraction(1, 2)


class GenIndex(int):
    """A generator T[i,j,r], packed into one int (i << 24) | (j << 16) | r.

    Int order is the lexicographic order on (i, j, r), the canonical total
    order used by normal forms, so hashing and comparing letters, and the
    words made of them, run at int speed.  The packing needs
    0 <= i, j < 2**8 and 0 <= r < 2**16; anything else is a ValueError.
    `i`, `j` and `r` are plain instance attributes, and a letter unpacks
    as `i, j, r = g`.  A letter does not equal the tuple (i, j, r): get
    one from `Algebra.letter`."""

    def __new__(cls, i: int, j: int, r: int):
        if not (0 <= i < 1 << 8 and 0 <= j < 1 << 8 and 0 <= r < 1 << 16):
            raise ValueError(f"T[{i},{j},{r}] outside the letter packing "
                             "(i, j < 256, r < 65536)")
        self = int.__new__(cls, (i << 24) | (j << 16) | r)
        self.i = i
        self.j = j
        self.r = r
        return self

    def __iter__(self):
        return iter((self.i, self.j, self.r))

    def __repr__(self):
        return f"GenIndex(i={self.i}, j={self.j}, r={self.r})"


Word = tuple  # tuple[GenIndex, ...]
MonKey = tuple  # tuple[Word, ...], one word per tensor leg

_ALGEBRAS: dict[tuple[int, int], "Algebra"] = {}


def algebra(m: int, n: int) -> "Algebra":
    """Shared Algebra instance per (M, N), so rewriting caches persist."""
    key = (m, n)
    alg = _ALGEBRAS.get(key)
    if alg is None:
        alg = Algebra(m, n)
        _ALGEBRAS[key] = alg
    return alg


class NormalForms(dict):
    """The normal-form memo of one algebra: word -> {(normal word,):
    coefficient}, filled on first lookup.

    A hit is one `memo[word]`.  A miss runs `__missing__`, which rewrites
    the leftmost reducible pair of the word, reads the words it rewrites
    to from the memo itself (so they are filled first) and stores the
    result.  A normal word is wrapped into its key `(word,)` once, when it
    is memoized as its own normal form; every other value takes its keys
    from the values it is built from, so each normal word has one key
    object per algebra.  The memo owns the dicts, and a swap that adds no
    commutator term shares its swapped word's dict: readers never mutate
    a value.  The commutator expansion is read from `alg.comm_terms` at
    each miss, so an algebra whose expansion was replaced rewrites with
    the replacement."""

    __slots__ = ("alg",)

    def __init__(self, alg: "Algebra"):
        super().__init__()
        self.alg = alg

    def __missing__(self, word: Word) -> dict[MonKey, Fraction]:
        m = self.alg.m
        pos = -1
        square = False
        for p in range(len(word) - 1):
            x, y = word[p], word[p + 1]
            if x > y:
                pos = p
                break
            if x == y and (x.i > m) != (x.j > m):
                pos = p
                square = True
                break
        if pos < 0:
            result = {(word,): 1}
        else:
            x, y = word[pos], word[pos + 1]
            pre, post = word[:pos], word[pos + 2:]
            if square:
                # X*X with X odd: rewrite as [X,X]/2
                acc: dict[MonKey, Fraction] = {}
                for w, c in self.alg.comm_terms(x, x):
                    add_scaled(acc, c * HALF, self[pre + w + post])
                # the halves recombine: store integral sums as int again
                result = {k: exact(c) for k, c in acc.items()}
            else:
                # start from the swapped word's normal form: share it when
                # the swap adds nothing, else copy it and merge the
                # commutator terms in place
                child = self[pre + (y, x) + post]
                comm = self.alg.comm_terms(x, y)
                if (x.i > m) != (x.j > m) and (y.i > m) != (y.j > m):
                    result = {k: -c for k, c in child.items()}
                elif comm:
                    result = dict(child)
                else:
                    result = child
                for w, c in comm:
                    add_scaled(result, c, self[pre + w + post])
        self[word] = result
        return result


class Algebra:
    """Context object for Y(gl(M|N)): sizes, parities, rewriting caches.

    Each generator T[i,j,r] is one `GenIndex` object per algebra, a packed
    int made by `letter` and kept in `_letters`; every word the algebra
    builds is a tuple of these.  The packing bounds the indices below 256
    and the level below 65536.  Normal forms are memoized in `_nf`, a
    `NormalForms` that fills itself on a miss, as dicts keyed by the 1-leg
    monomial keys `(word,)` that `Element.terms` uses: each normal word is
    wrapped once, and every 1-leg product, commutator and residual reads
    `_nf[word]` and reuses those key objects instead of re-keying its
    result.  Letter parities are cached in `_letter_parity` on first use.
    Derived series are kept at the highest order asked for: T(u)^-1
    (`tinv`), S^2(T(u)) (`s2`) and Z(u) (`z`).
    """

    def __init__(self, m: int, n: int):
        if m < 0 or n < 0 or m + n < 1:
            raise ValueError("need M, N >= 0 with M + N >= 1")
        self.m = m
        self.n = n
        self.dim = m + n
        # (i, j, r) -> the one GenIndex of T[i,j,r] in this algebra; a
        # letter is an int and does not equal the plain tuple (i, j, r)
        self._letters: dict[tuple[int, int, int], GenIndex] = {}
        # word -> its normal form {(normal word,): coefficient}
        self._nf = NormalForms(self)
        self._comm: dict[tuple[GenIndex, GenIndex], tuple] = {}
        self._letter_parity: dict[GenIndex, int] = {}
        # index -> parity for 1..M+N; a missing key is an index out of range
        self.parities = {i: 0 if i <= m else 1 for i in range(1, self.dim + 1)}
        # Derived data, each filled on first use by the function named:
        # T(u)^-1, S^2(T(u)) and Z(u) at the highest order requested so
        # far, lower orders being exact truncations; T(u)^-1 is extended
        # from the order it has (matrices.t_inverse), S^2(T(u)) too, as
        # {(i, l): coefficient list} (central.antipode_square_series), and
        # Z(u) rebuilt (central.z_series).
        self.tinv = None
        self.s2 = None
        self.z = None
        self.multi_gens: dict = {}  # (GenIndex, points) -> tensors.multi_eval_rep_gen, n >= 1
        self.multi_words: dict = {}  # (word, points) -> tensors._eval_word, 2+ letters
        # points -> (r_max, tensors.rmatrix_route_images) at the highest
        # r_max requested so far, lower levels being the leading ones
        self.route_images: dict = {}
        self.placements: dict = {}  # (name, legs_at, total) -> tensors.placed
        # n_points -> (R_12, T_1, T_2) of tensor_checks.rep_rtt_check
        self.rtt_factors: dict = {}
        # name -> (generator images, word images, brackets) of
        # morphisms.MorphismTable: eta_M, antipode_S, transpose_T, omega
        # and the coproduct Delta
        self.morphisms: dict = {}

    def __repr__(self):
        return f"Algebra(M={self.m}, N={self.n})"

    # -- parities ----------------------------------------------------

    def index_parity(self, i: int) -> int:
        if not 1 <= i <= self.dim:
            raise ValueError(f"index {i} outside 1..{self.dim}")
        return 0 if i <= self.m else 1

    def gen_parity(self, g: GenIndex) -> int:
        p = self._letter_parity.get(g)
        if p is None:
            p = self._letter_parity[g] = (self.index_parity(g.i) + self.index_parity(g.j)) & 1
        return p

    def word_parity(self, word: Word) -> int:
        par = self._letter_parity
        return sum(par[g] if g in par else self.gen_parity(g) for g in word) & 1

    def monomial_parity(self, mon: MonKey) -> int:
        return sum(self.word_parity(w) for w in mon) & 1

    # -- element constructors ------------------------------------------

    def zero(self, legs: int = 1) -> "Element":
        return Element(self, legs, {})

    def one(self, legs: int = 1) -> "Element":
        return Element(self, legs, {((),) * legs: 1})

    def scalar(self, value, legs: int = 1) -> "Element":
        value = exact(value)
        if value == 0:
            return self.zero(legs)
        return Element(self, legs, {((),) * legs: value})

    def gen(self, i: int, j: int, r: int) -> "Element":
        return Element(self, 1, {((self.letter(i, j, r),),): 1})

    def letter(self, i: int, j: int, r: int) -> GenIndex:
        """The algebra's one GenIndex for T[i,j,r], validated when first
        made; indices and levels outside the packing raise ValueError."""
        key = (i, j, r)
        g = self._letters.get(key)
        if g is None:
            if not (1 <= i <= self.dim and 1 <= j <= self.dim):
                raise ValueError(f"indices ({i},{j}) outside 1..{self.dim}")
            if r < 1:
                raise ValueError("generator level must be >= 1")
            g = GenIndex(i, j, r)
            self._letters[key] = g
        return g

    def gens(self, max_level: int) -> Iterable[GenIndex]:
        for i in range(1, self.dim + 1):
            for j in range(1, self.dim + 1):
                for r in range(1, max_level + 1):
                    yield self.letter(i, j, r)

    def element(self, raw_terms) -> "Element":
        """Build an Element from raw (coefficient, monomial) pairs,
        normal-ordering every word."""
        legs = None
        acc: dict[MonKey, Fraction] = {}
        for coeff, mon in raw_terms:
            coeff = exact(coeff)
            mon = tuple(tuple(self.letter(*g) for g in w) for w in mon)
            if legs is None:
                legs = len(mon)
            elif len(mon) != legs:
                raise ValueError("mixed leg counts in element terms")
            add_scaled(acc, coeff, self._normal_monomial(mon))
        if legs is None:
            legs = 1
        return Element(self, legs, acc)

    def normal_order(self, raw_terms) -> "Element":
        """Alias for element(): normal-order a raw combination."""
        return self.element(raw_terms)

    # -- the defining relations in coefficient form --------------------

    def comm_terms(self, a: GenIndex, b: GenIndex):
        """Raw word expansion of the supercommutator [T_a, T_b].

        Returns a tuple of (word, coefficient) pairs, words of length
        <= 2, each of total level strictly below level(a) + level(b).
        """
        key = (a, b)
        cached = self._comm.get(key)
        if cached is not None:
            return cached
        i, j, r = a
        k, l, s = b
        sign, _ = relation_signs(self, i, j, k, l)
        letter = self.letter
        terms: list[tuple[Word, Fraction]] = []
        for t in range(min(r, s)):
            hi = r + s - 1 - t
            # + T[k,j,t] T[i,l,hi]
            if t == 0:
                if k == j:
                    terms.append(((letter(i, l, hi),), sign))
            else:
                terms.append(((letter(k, j, t), letter(i, l, hi)), sign))
            # - T[k,j,hi] T[i,l,t]
            if t == 0:
                if i == l:
                    terms.append(((letter(k, j, hi),), -sign))
            else:
                terms.append(((letter(k, j, hi), letter(i, l, t)), -sign))
        out = tuple(terms)
        self._comm[key] = out
        return out

    # -- normal ordering ----------------------------------------------

    def _normal_monomial(self, mon: MonKey) -> dict[MonKey, Fraction]:
        """Normal form of a multi-leg monomial; legs reduce independently.
        One leg returns the memo's own dict, which callers must not mutate."""
        nf = self._nf
        if len(mon) == 1:
            return nf[tuple(mon[0])]
        legs = [nf[tuple(w)] for w in mon]
        if all(len(d) == 1 for d in legs):
            words = tuple(next(iter(d))[0] for d in legs)
            coeff = 1
            for d in legs:
                coeff *= next(iter(d.values()))
            return {words: coeff}
        out: dict[MonKey, Fraction] = {}
        for combo in iproduct(*(d.items() for d in legs)):
            words = tuple(k[0] for k, _ in combo)
            coeff = 1
            for _, c in combo:
                coeff *= c
            out[words] = out.get(words, 0) + coeff
        return {k: v for k, v in out.items() if v}

    def normal_order_randomized(self, word, rng) -> "Element":
        """Normal-order a 1-leg word choosing a random reducible adjacent
        pair at every step.  Used to exercise confluence; the production
        path always picks the leftmost pair."""
        word = tuple(self.letter(*g) for g in word)
        m = self.m
        pending: list[tuple[Fraction, Word]] = [(1, word)]
        acc: dict[Word, Fraction] = {}
        while pending:
            coeff, w = pending.pop()
            spots = []
            for p in range(len(w) - 1):
                x, y = w[p], w[p + 1]
                if x > y:
                    spots.append((p, False))
                elif x == y and (x.i > m) != (x.j > m):
                    spots.append((p, True))
            if not spots:
                acc[w] = acc.get(w, 0) + coeff
                continue
            p, square = spots[rng.randrange(len(spots))]
            x, y = w[p], w[p + 1]
            pre, post = w[:p], w[p + 2:]
            if square:
                for cw, cc in self.comm_terms(x, x):
                    pending.append((exact(coeff * cc * HALF), pre + cw + post))
            else:
                sign = -1 if (x.i > m) != (x.j > m) and (y.i > m) != (y.j > m) else 1
                pending.append((coeff * sign, pre + (y, x) + post))
                for cw, cc in self.comm_terms(x, y):
                    pending.append((coeff * cc, pre + cw + post))
        return Element(self, 1, {(w,): c for w, c in acc.items() if c})

    def product_sum(self, triples) -> "Element":
        """sum coeff * a * b over (coeff, a, b) triples of 1-leg Elements.

        The normal form of every product of words wa + wb is summed
        straight into one dict under the memo's own `(normal word,)` keys,
        and a single Element, with the zero coefficients dropped, is built
        at the end: no intermediate product, partial sum or new key is
        ever made.  This is the one implementation of the 1-leg product
        (`Element.__mul__`) and of every sum of products over it (T(u)^-1,
        Z(u), series products, morphism word images).  Not `add_scaled`: a
        dict does not shrink as cancelled keys are popped, and the caches
        keep the result, so the filtered copy saves peak memory.
        """
        nf = self._nf
        acc: dict[MonKey, Fraction] = {}
        get = acc.get
        for coeff, a, b in triples:
            if not coeff:
                continue
            bterms = b.terms.items()
            for (wa,), ca in a.terms.items():
                cca = coeff * ca
                for (wb,), cb in bterms:
                    scale = cca * cb
                    for k, c in nf[wa + wb].items():
                        acc[k] = get(k, 0) + c * scale
        return Element(self, 1, {k: c for k, c in acc.items() if c})


def element_ring(alg: Algebra, legs: int = 1) -> Ring:
    """The ring of `legs`-leg Elements; on one leg its series products
    run through the algebra's fused `product_sum`."""
    return Ring(alg.zero(legs), alg.one(legs), alg.product_sum if legs == 1 else None)


class Element:
    """A normal-ordered element of Y(gl(M|N))^(tensor legs) over Q.

    Immutable; `terms` maps normal monomials to nonzero rationals: an
    integral coefficient is an ``int``, any other a ``Fraction``, and
    floats are rejected at every entry point (`Algebra.scalar`,
    `Algebra.element`, `scale`).  Two
    Elements are equal iff their algebras, leg counts and term maps
    agree.  Do not mutate `terms`.
    """

    __slots__ = ("alg", "legs", "terms")

    def __init__(self, alg: Algebra, legs: int, terms: dict):
        if legs < 1:
            raise ValueError("need at least one tensor leg")
        self.alg = alg
        self.legs = legs
        self.terms = terms

    # -- basics --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _check_compat(self, other: "Element") -> None:
        if self.alg is not other.alg:
            if (self.alg.m, self.alg.n) != (other.alg.m, other.alg.n):
                raise ValueError("elements of different algebras")
        if self.legs != other.legs:
            raise ValueError(f"leg counts differ: {self.legs} vs {other.legs}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return (
            (self.alg.m, self.alg.n) == (other.alg.m, other.alg.n)
            and self.legs == other.legs
            and self.terms == other.terms
        )

    # -- linear structure ----------------------------------------------

    def __add__(self, other: "Element") -> "Element":
        self._check_compat(other)
        out = dict(self.terms)
        add_scaled(out, 1, other.terms)
        return Element(self.alg, self.legs, out)

    def __sub__(self, other: "Element") -> "Element":
        self._check_compat(other)
        out = dict(self.terms)
        add_scaled(out, -1, other.terms)
        return Element(self.alg, self.legs, out)

    def __neg__(self) -> "Element":
        return Element(self.alg, self.legs, {m: -c for m, c in self.terms.items()})

    def scale(self, scalar) -> "Element":
        scalar = exact(scalar)
        if not scalar:
            return self.alg.zero(self.legs)
        return Element(
            self.alg, self.legs, {m: c * scalar for m, c in self.terms.items()}
        )

    # -- multiplication --------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Element):
            return NotImplemented
        self._check_compat(other)
        alg = self.alg
        legs = self.legs
        if legs == 1:
            return alg.product_sum(((1, self, other),))
        acc: dict[MonKey, Fraction] = {}
        parities_cache = {}

        def wpar(w):
            p = parities_cache.get(w)
            if p is None:
                p = alg.word_parity(w)
                parities_cache[w] = p
            return p

        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                # Koszul sign: leg-p factor of `other` passes legs p+1..n
                # of `self`
                exp = 0
                for p in range(legs - 1):
                    if wpar(mb[p]):
                        exp += sum(wpar(ma[q]) for q in range(p + 1, legs))
                coeff = ca * cb if exp % 2 == 0 else -ca * cb
                mon = tuple(ma[p] + mb[p] for p in range(legs))
                add_scaled(acc, coeff, alg._normal_monomial(mon))
        return Element(alg, legs, acc)

    # -- grading ----------------------------------------------------------

    def parity(self) -> int:
        """Z2-degree; zero counts as even, mixed parity is an error."""
        parities = {self.alg.monomial_parity(m) for m in self.terms}
        if not parities:
            return 0
        if len(parities) > 1:
            raise ValueError("element is not parity-homogeneous")
        return parities.pop()

    def parity_split(self) -> tuple["Element", "Element"]:
        even: dict[MonKey, Fraction] = {}
        odd: dict[MonKey, Fraction] = {}
        wpar = self.alg.word_parity
        for mon, c in self.terms.items():
            (odd if sum(map(wpar, mon)) & 1 else even)[mon] = c
        return Element(self.alg, self.legs, even), Element(self.alg, self.legs, odd)

    def filt_degree(self, which: int) -> int:
        """Degree for filtration 1 (level r per generator) or 2 (r-1)."""
        if not self.terms:
            raise ValueError("degree of the zero element is undefined")
        return max(_monomial_filt(m, which) for m in self.terms)

    def top_symbol(self, which: int) -> "Element":
        """The monomials attaining the top filtration degree: the
        representative of the image in the associated graded algebra."""
        top = self.filt_degree(which)
        return Element(
            self.alg,
            self.legs,
            {m: c for m, c in self.terms.items() if _monomial_filt(m, which) == top},
        )

    def scalar_part(self) -> Fraction:
        return self.terms.get(((),) * self.legs, 0)

    # -- leg plumbing ------------------------------------------------------

    def inject(self, leg: int, total_legs: int) -> "Element":
        """Place a 1-leg element at position `leg` (1-based) of a unit
        monomial with `total_legs` legs."""
        if self.legs != 1:
            raise ValueError("inject needs a 1-leg element")
        if not 1 <= leg <= total_legs:
            raise ValueError("leg out of range")
        out = {}
        for (w,), c in self.terms.items():
            mon = tuple(w if p == leg - 1 else () for p in range(total_legs))
            out[mon] = c
        return Element(self.alg, total_legs, out)

    def multiply_legs(self) -> "Element":
        """The linear map x (x) y (x) ... -> x y ... (tensor legs
        concatenated into a single leg, then normal-ordered)."""
        alg = self.alg
        acc: dict[MonKey, Fraction] = {}
        for mon, c in self.terms.items():
            word = tuple(g for w in mon for g in w)
            add_scaled(acc, c, alg._nf[word])
        return Element(alg, 1, acc)

    # -- display -----------------------------------------------------------

    def __repr__(self):
        from .grammar import element_to_text

        return f"<Element {element_to_text(self)}>"


def _monomial_filt(mon: MonKey, which: int) -> int:
    if which == 1:
        return sum(g.r for w in mon for g in w)
    if which == 2:
        return sum(g.r - 1 for w in mon for g in w)
    raise ValueError("filtration selector must be 1 or 2")


def supercommutator(x: Element, y: Element) -> Element:
    """[x, y] = xy - (-1)^(deg x deg y) yx, extended bilinearly over
    parity-homogeneous components: with x = xe + xo and y = ye + yo split
    by `parity_split`,

        [x, y] = xy - ye xe - yo xe - ye xo + yo xo.

    On 1-leg elements the five products are one `Algebra.product_sum`."""
    x._check_compat(y)
    xe, xo = x.parity_split()
    ye, yo = y.parity_split()
    if x.legs == 1:
        return x.alg.product_sum(((1, x, y), (-1, ye, xe), (-1, yo, xe),
                                  (-1, ye, xo), (1, yo, xo)))
    out = x * y
    out = out - ye * xe - ye * xo - yo * xe
    out = out + yo * xo
    return out


def embed_gl(alg: Algebra, i: int, j: int) -> Element:
    """Image of the gl(M|N) basis element e_ij inside the Yangian.

    The family satisfies the gl(M|N) supercommutation relations
    [e_ij, e_kl] = delta_jk e_il - delta_li e_kj (-1)^((ibar+jbar)(kbar+lbar))
    and is sent back to the matrix unit E_ij by the one-point evaluation
    representation at z = 0.
    """
    sign = -1 if alg.index_parity(i) == 0 else 1
    return alg.gen(j, i, 1).scale(sign)


def relation_signs(alg: Algebra, i: int, j: int, k: int, l: int) -> tuple[int, int]:
    """The signs of the defining relation for the quadruple (i, j, k, l):
    sign = (-1)^(ibar kbar + ibar lbar + kbar lbar), and eps = -1 exactly
    when both index pairs are odd, the supercommutator's sign
    (-1)^(|T_ij| |T_kl|)."""
    par = alg.parities
    ib, jb, kb, lb = par[i], par[j], par[k], par[l]
    sign = -1 if (ib * kb + ib * lb + kb * lb) & 1 else 1
    eps = -1 if (ib + jb) & 1 and (kb + lb) & 1 else 1
    return sign, eps


def relation_residuals(alg: Algebra, image, cells, bracket=None):
    """The defining relation, coefficient by coefficient, for every index
    quadruple (i, j, k, l) in `iproduct` order.

    For each quadruple this yields the quadruple and the list of its
    nonzero (cell, Element) pairs, in the order of `cells`: for a cell
    (p, q) the Element is the u^-p v^-q coefficient of

        (u-v) [T_ij(u), T_kl(v)] sign - (T_kj(u)T_il(v) - T_kj(v)T_il(u)),

    namely the residual

        sign (C[p+1, q] - C[p, q+1]) - D[p, q],
        C[r, s] = T_ij^(r) T_kl^(s) - eps T_kl^(s) T_ij^(r),
        D[p, q] = T_kj^(p) T_il^(q) - T_kj^(q) T_il^(p),

    with T^(0) = delta, T^(r) = 0 for r < 0, and `sign` and `eps` from
    `relation_signs`.  Each word of at most two letters, made of the
    algebra's letters, is mapped through `image`, which returns its
    {1-leg monomial key: coefficient} dict: the normal form
    `alg._nf.__getitem__`, or the `terms` of a morphism's word image.
    Without `bracket`, C[r, s] is those two word images; with it,
    C[r, s] is the Element `bracket(a, b)` for the letters a <= b of
    T_ij^(r) and T_kl^(s), or -eps bracket(b, a) when b < a, where
    `bracket(a, b)` equals image(a b) - eps image(b a) (see
    `MorphismTable.bracket`), and only the two words of D go through
    `image`.  A C[r, s] with r or s zero is never formed: T^(0) = delta
    is the unit or zero, and a bracket with the unit vanishes.

    The words of T_ab^(r), for r = 0 .. 1 + the largest index of
    `cells`, are built once: () for T_aa^(0) = 1, None for T_ab^(0) = 0
    with a != b, else the one-letter word.  Each cell's summands, at most
    four dicts, are merged in one loop, and its Element holds the merged
    dict without its zero coefficients, under the summands' own key
    objects."""
    top = 1 + max((max(cell) for cell in cells), default=-1)
    dims = range(1, alg.dim + 1)
    rows = {(a, b): [() if a == b else None] + [(alg.letter(a, b, r),) for r in range(1, top + 1)]
            for a in dims for b in dims}
    for i, j, k, l in iproduct(dims, repeat=4):
        sign, eps = relation_signs(alg, i, j, k, l)
        tij, tkl, tkj, til = rows[i, j], rows[k, l], rows[k, j], rows[i, l]
        bad = []
        for p, q in cells:
            summands = []
            # sign C[p+1, q] - sign C[p, q+1]
            for r, s, c in ((p + 1, q, sign), (p, q + 1, -sign)):
                if r > 0 and s > 0:
                    (a,), (b,) = tij[r], tkl[s]
                    if bracket is None:
                        summands += ((c, image((a, b))), (-c * eps, image((b, a))))
                    elif a <= b:
                        summands.append((c, bracket(a, b).terms))
                    else:
                        summands.append((-c * eps, bracket(b, a).terms))
            # - D[p, q]
            for r, s, c in ((p, q, -1), (q, p, 1)):
                if r >= 0 and s >= 0 and tkj[r] is not None and til[s] is not None:
                    summands.append((c, image(tkj[r] + til[s])))
            acc: dict = {}
            get = acc.get
            for c, terms in summands:
                for key, v in terms.items():
                    acc[key] = get(key, 0) + c * v
            merged = {key: v for key, v in acc.items() if v}
            if merged:
                bad.append(((p, q), Element(alg, 1, merged)))
        yield (i, j, k, l), bad
