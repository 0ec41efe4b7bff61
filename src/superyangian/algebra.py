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
from typing import Iterable, NamedTuple

from .series import exact

ZERO = 0
ONE = 1
HALF = Fraction(1, 2)


class GenIndex(NamedTuple):
    """A generator T[i,j,r]; the tuple order (i, j, r) is the canonical
    total order used by normal forms."""

    i: int
    j: int
    r: int


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


class Algebra:
    """Context object for Y(gl(M|N)): sizes, parities, rewriting caches."""

    def __init__(self, m: int, n: int):
        if m < 0 or n < 0 or m + n < 1:
            raise ValueError("need M, N >= 0 with M + N >= 1")
        self.m = m
        self.n = n
        self.dim = m + n
        self._nf: dict[Word, dict[Word, Fraction]] = {}
        self._comm: dict[tuple[GenIndex, GenIndex], tuple] = {}

    def __repr__(self):
        return f"Algebra(M={self.m}, N={self.n})"

    # -- parities ----------------------------------------------------

    def index_parity(self, i: int) -> int:
        if not 1 <= i <= self.dim:
            raise ValueError(f"index {i} outside 1..{self.dim}")
        return 0 if i <= self.m else 1

    def gen_parity(self, g: GenIndex) -> int:
        return (self.index_parity(g.i) + self.index_parity(g.j)) & 1

    def word_parity(self, word: Word) -> int:
        return sum(self.gen_parity(g) for g in word) & 1

    def monomial_parity(self, mon: MonKey) -> int:
        return sum(self.word_parity(w) for w in mon) & 1

    # -- element constructors ------------------------------------------

    def zero(self, legs: int = 1) -> "Element":
        return Element(self, legs, {})

    def one(self, legs: int = 1) -> "Element":
        return Element(self, legs, {((),) * legs: ONE})

    def scalar(self, value, legs: int = 1) -> "Element":
        value = exact(value)
        if value == 0:
            return self.zero(legs)
        return Element(self, legs, {((),) * legs: value})

    def gen(self, i: int, j: int, r: int) -> "Element":
        g = self.genindex(i, j, r)
        return Element(self, 1, {((g,),): ONE})

    def genindex(self, i: int, j: int, r: int) -> GenIndex:
        if not (1 <= i <= self.dim and 1 <= j <= self.dim):
            raise ValueError(f"indices ({i},{j}) outside 1..{self.dim}")
        if r < 1:
            raise ValueError("generator level must be >= 1")
        return GenIndex(i, j, r)

    def gens(self, max_level: int) -> Iterable[GenIndex]:
        for i in range(1, self.dim + 1):
            for j in range(1, self.dim + 1):
                for r in range(1, max_level + 1):
                    yield GenIndex(i, j, r)

    def element(self, raw_terms) -> "Element":
        """Build an Element from raw (coefficient, monomial) pairs,
        normal-ordering every word."""
        legs = None
        acc: dict[MonKey, Fraction] = {}
        for coeff, mon in raw_terms:
            coeff = exact(coeff)
            mon = tuple(tuple(GenIndex(*g) for g in w) for w in mon)
            if legs is None:
                legs = len(mon)
            elif len(mon) != legs:
                raise ValueError("mixed leg counts in element terms")
            _accumulate(acc, self._normal_monomial(mon), coeff)
        if legs is None:
            legs = 1
        return Element(self, legs, {k: v for k, v in acc.items() if v})

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
        ib, jb = self.index_parity(i), self.index_parity(j)
        kb, lb = self.index_parity(k), self.index_parity(l)
        sign = -ONE if (ib * kb + ib * lb + kb * lb) % 2 else ONE
        terms: list[tuple[Word, Fraction]] = []
        for t in range(min(r, s)):
            hi = r + s - 1 - t
            # + T[k,j,t] T[i,l,hi]
            if t == 0:
                if k == j:
                    terms.append(((GenIndex(i, l, hi),), sign))
            else:
                terms.append(((GenIndex(k, j, t), GenIndex(i, l, hi)), sign))
            # - T[k,j,hi] T[i,l,t]
            if t == 0:
                if i == l:
                    terms.append(((GenIndex(k, j, hi),), -sign))
            else:
                terms.append(((GenIndex(k, j, hi), GenIndex(i, l, t)), -sign))
        out = tuple(terms)
        self._comm[key] = out
        return out

    def commutator_rule(self, a: GenIndex, b: GenIndex) -> "Element":
        """The supercommutator [T_a, T_b], normal-ordered."""
        acc: dict[Word, Fraction] = {}
        for word, coeff in self.comm_terms(GenIndex(*a), GenIndex(*b)):
            _accumulate(acc, self._normal_word(word), coeff)
        return Element(self, 1, {(w,): c for w, c in acc.items() if c})

    # -- normal ordering ----------------------------------------------

    def _normal_word(self, word: Word) -> dict[Word, Fraction]:
        """Normal form of a single-leg word as {normal word: coefficient}."""
        cached = self._nf.get(word)
        if cached is not None:
            return cached
        pos = -1
        square = False
        for p in range(len(word) - 1):
            x, y = word[p], word[p + 1]
            if x > y:
                pos = p
                break
            if x == y and self.gen_parity(x):
                pos = p
                square = True
                break
        if pos < 0:
            result = {word: ONE}
        else:
            x, y = word[pos], word[pos + 1]
            pre, post = word[:pos], word[pos + 2:]
            acc: dict[Word, Fraction] = {}
            if square:
                # X*X with X odd: rewrite as [X,X]/2
                for w, c in self.comm_terms(x, x):
                    _accumulate(acc, self._normal_word(pre + w + post), c * HALF)
                # the halves recombine: store integral sums as int again
                acc = {w: exact(c) for w, c in acc.items()}
            else:
                sign = -ONE if self.gen_parity(x) and self.gen_parity(y) else ONE
                _accumulate(acc, self._normal_word(pre + (y, x) + post), sign)
                for w, c in self.comm_terms(x, y):
                    _accumulate(acc, self._normal_word(pre + w + post), c)
            result = {w: c for w, c in acc.items() if c}
        self._nf[word] = result
        return result

    def _normal_monomial(self, mon: MonKey) -> dict[MonKey, Fraction]:
        """Normal form of a multi-leg monomial; legs reduce independently."""
        legs = [self._normal_word(tuple(w)) for w in mon]
        if all(len(d) == 1 for d in legs):
            words = tuple(next(iter(d)) for d in legs)
            coeff = ONE
            for d in legs:
                coeff *= next(iter(d.values()))
            return {words: coeff}
        out: dict[MonKey, Fraction] = {}
        for combo in iproduct(*(d.items() for d in legs)):
            words = tuple(w for w, _ in combo)
            coeff = ONE
            for _, c in combo:
                coeff *= c
            out[words] = out.get(words, ZERO) + coeff
        return {k: v for k, v in out.items() if v}

    def normal_order_randomized(self, word, rng) -> "Element":
        """Normal-order a 1-leg word choosing a random reducible adjacent
        pair at every step.  Used to exercise confluence; the production
        path always picks the leftmost pair."""
        word = tuple(GenIndex(*g) for g in word)
        pending: list[tuple[Fraction, Word]] = [(ONE, word)]
        acc: dict[Word, Fraction] = {}
        while pending:
            coeff, w = pending.pop()
            spots = []
            for p in range(len(w) - 1):
                x, y = w[p], w[p + 1]
                if x > y:
                    spots.append((p, False))
                elif x == y and self.gen_parity(x):
                    spots.append((p, True))
            if not spots:
                acc[w] = acc.get(w, ZERO) + coeff
                continue
            p, square = spots[rng.randrange(len(spots))]
            x, y = w[p], w[p + 1]
            pre, post = w[:p], w[p + 2:]
            if square:
                for cw, cc in self.comm_terms(x, x):
                    pending.append((exact(coeff * cc * HALF), pre + cw + post))
            else:
                sign = -ONE if self.gen_parity(x) and self.gen_parity(y) else ONE
                pending.append((coeff * sign, pre + (y, x) + post))
                for cw, cc in self.comm_terms(x, y):
                    pending.append((coeff * cc, pre + cw + post))
        return Element(self, 1, {(w,): c for w, c in acc.items() if c})


def _accumulate(acc: dict, terms: dict, scale: Fraction) -> None:
    if not scale:
        return
    for key, coeff in terms.items():
        acc[key] = acc.get(key, ZERO) + coeff * scale


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

    def __hash__(self):
        raise TypeError("Element is not hashable")

    # -- linear structure ----------------------------------------------

    def __add__(self, other: "Element") -> "Element":
        self._check_compat(other)
        out = dict(self.terms)
        for mon, c in other.terms.items():
            v = out.get(mon, ZERO) + c
            if v:
                out[mon] = v
            else:
                out.pop(mon, None)
        return Element(self.alg, self.legs, out)

    def __sub__(self, other: "Element") -> "Element":
        self._check_compat(other)
        out = dict(self.terms)
        for mon, c in other.terms.items():
            v = out.get(mon, ZERO) - c
            if v:
                out[mon] = v
            else:
                out.pop(mon, None)
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
        acc: dict[MonKey, Fraction] = {}
        if legs == 1:
            for (wa,), ca in self.terms.items():
                for (wb,), cb in other.terms.items():
                    _accumulate(acc, alg._normal_word(wa + wb), ca * cb)
            return Element(alg, 1, {(w,): c for w, c in acc.items() if c})
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
                _accumulate(acc, alg._normal_monomial(mon), coeff)
        return Element(alg, legs, {k: v for k, v in acc.items() if v})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    # -- grading ----------------------------------------------------------

    def is_homogeneous(self) -> bool:
        parities = {self.alg.monomial_parity(m) for m in self.terms}
        return len(parities) <= 1

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
        for mon, c in self.terms.items():
            (even if self.alg.monomial_parity(mon) == 0 else odd)[mon] = c
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
        return self.terms.get(((),) * self.legs, ZERO)

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
        acc: dict[Word, Fraction] = {}
        for mon, c in self.terms.items():
            word = tuple(g for w in mon for g in w)
            _accumulate(acc, alg._normal_word(word), c)
        return Element(alg, 1, {(w,): v for w, v in acc.items() if v})

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
    parity-homogeneous components."""
    x._check_compat(y)
    xe, xo = x.parity_split()
    ye, yo = y.parity_split()
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
    sign = -ONE if alg.index_parity(i) == 0 else ONE
    return alg.gen(j, i, 1).scale(sign)


def defining_relation_residual(
    alg: Algebra, i: int, j: int, k: int, l: int, order_u: int, order_v: int
):
    """BiSeries expansion of the defining relation for the quadruple
    (i, j, k, l):

        (u-v) [T_ij(u), T_kl(v)] (-1)^(...) - (T_kj(u)T_il(v) - T_kj(v)T_il(u))

    Every reliable coefficient must normal-order to zero.  This is the
    master consistency gate for the coefficient form used in rewriting.
    """
    from .series import BiSeries, Ring

    ring = Ring(alg.zero(1), alg.one(1), f"Y({alg.m}|{alg.n})")

    def tseries_u(a, b):
        coeffs = [alg.one(1) if a == b else alg.zero(1)]
        coeffs += [alg.gen(a, b, r) for r in range(1, order_u + 1)]
        return BiSeries.in_u(ring, order_u, order_v, coeffs)

    def tseries_v(a, b):
        coeffs = [alg.one(1) if a == b else alg.zero(1)]
        coeffs += [alg.gen(a, b, s) for s in range(1, order_v + 1)]
        return BiSeries.in_v(ring, order_u, order_v, coeffs)

    pij = (alg.index_parity(i) + alg.index_parity(j)) & 1
    pkl = (alg.index_parity(k) + alg.index_parity(l)) & 1
    ib, kb = alg.index_parity(i), alg.index_parity(k)
    jb, lb = alg.index_parity(j), alg.index_parity(l)
    sign = -1 if (ib * kb + ib * lb + kb * lb) % 2 else 1

    tij_u = tseries_u(i, j)
    tkl_v = tseries_v(k, l)
    comm = tij_u * tkl_v - (tkl_v * tij_u).scale(-1 if (pij and pkl) else 1)
    lhs = comm.times_u_minus_v().scale(sign)
    rhs = tseries_u(k, j) * tseries_v(i, l) - tseries_v(k, j) * tseries_u(i, l)
    # align orders: the (u-v) product lost one order in each variable
    rhs = BiSeries(ring, order_u - 1, order_v - 1, rhs.coeffs)
    return lhs - rhs
