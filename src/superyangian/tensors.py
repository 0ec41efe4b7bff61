"""Exact graded linear algebra on (C^(M|N))^(x n).

An EndoOperator is a sparse matrix over Q indexed by multi-indices in
{1..M+N}^n.  Integral entries are ``int``, other entries ``Fraction``;
floats are rejected.  All Koszul signs are baked into the entries when an
operator is assembled from abstract tensor-product data, so composition
is plain exact matrix multiplication.  The baking rule is the iterated
module sign convention: the abstract basis operator

    E_(i1 j1) (x) ... (x) E_(in jn)

has the single matrix entry (rows I, cols J) with value

    prod_h (-1)^((ibar_h + jbar_h)(jbar_1 + ... + jbar_(h-1))).

Operations that genuinely live on the abstract tensor factors (tau on a
leg, partial supertrace) convert entries back through this bijection,
transform, and re-bake.

P, Q, the identity, chains of the even and odd projectors I and J, and
the symmetrizers G and H placed at given legs of a given space are built
once per algebra (`placed`); G and H come from one `symmetrizers_direct`
call per number of legs.  The R-matrix at a rational point c = a/b in
lowest terms is multiplied as the cleared factor a R(c) = a - bP, which
stays integral (`r_cleared`).

The n-point evaluation representation sends a generator to Delta applied
n-1 times, then the one-point evaluation on each leg
(`multi_eval_rep_gen`, which for one point is `eval_rep_gen`).  Generator
images are kept per algebra for every number of points, one-point images
included (`alg.multi_gens`), so `eval_rep_gen` runs once per letter and
point.  The coproduct route evaluates each distinct (leg word, leg) of
the iterated coproduct once, sums the monomials' tensor products as
abstract coefficients and bakes the sum once (`from_abstract`).  Every
word, on any number of points, is imaged in one place (`_eval_word`):
the image of its longest proper prefix times the image of its last
letter, with word images kept per algebra (`alg.multi_words`), so each
prefix is multiplied once.  Images of monomials, like the operands of
`+` and `-`, are summed by `series.add_scaled`; `eval_rep` is
`multi_eval_rep` at one point.  The R-matrix route to the same images, the u^-r
coefficients of R_12(u - z_1) ... R_(1,n+1)(u - z_n), is built once per
algebra and points, at the highest level bound asked so far
(`alg.route_images`).

Ranks (`EndoOperator.rank`, `operator_rank`) are `series.sparse_rank`:
the rows are split into blocks with connected column supports, and the
rank is the sum of the blocks' ranks.  Monomials of different gl(M|N)
weights have images with disjoint supports, so a PBW family splits by
weight (at least) without being told the weights.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product as iproduct
from operator import itemgetter

from .algebra import Algebra, Element, GenIndex, algebra
from .morphisms import coproduct_at_leg
from .series import (Poly, add_scaled, exact, exact_point, rational_from_text,
                     rational_to_text, sparse_rank)


DEFAULT_SPACE_GUARD = 4096


class SpaceGuardError(ValueError):
    """The requested tensor space exceeds the configured size guard."""


def _check_guard(dim: int, legs: int) -> None:
    if dim**legs > DEFAULT_SPACE_GUARD:
        raise SpaceGuardError(
            f"space of size {dim}**{legs} exceeds the guard {DEFAULT_SPACE_GUARD}"
        )


class EndoOperator:
    """Sparse exact operator on (C^(M|N))^(x legs); legs = 0 is a scalar.

    `entries` maps (rows, cols) to nonzero rationals: ``int`` when
    integral, ``Fraction`` otherwise.  Only the residual of a failed
    identity in the spectral parameters has `Poly` entries, the
    polynomials in u and v that `dump_operator` writes.  `scalar` and
    `scale` reject floats.
    """

    __slots__ = ("alg", "legs", "entries")

    def __init__(self, alg: Algebra, legs: int, entries: dict):
        self.alg = alg
        self.legs = legs
        self.entries = {k: v for k, v in entries.items() if v}

    @classmethod
    def _owning(cls, alg: Algebra, legs: int, entries: dict) -> "EndoOperator":
        """Wrap a freshly built dict without zeros, neither copying nor
        filtering it; the operator takes ownership of the dict."""
        op = cls.__new__(cls)
        op.alg = alg
        op.legs = legs
        op.entries = entries
        return op

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, alg: Algebra, legs: int) -> "EndoOperator":
        _check_guard(alg.dim, legs)
        entries = {}
        for idx in iproduct(range(1, alg.dim + 1), repeat=legs):
            entries[(idx, idx)] = 1
        return cls(alg, legs, entries)

    @classmethod
    def zero(cls, alg: Algebra, legs: int) -> "EndoOperator":
        return cls(alg, legs, {})

    @classmethod
    def from_abstract(cls, alg: Algebra, legs: int, abstract: dict) -> "EndoOperator":
        """Bake abstract tensor coefficients {(rows, cols): coeff} into
        matrix entries (the single sign-critical code path), dropping zero
        coefficients; the entries keep the key objects of `abstract`."""
        entries = {}
        for key, coeff in abstract.items():
            if coeff:
                entries[key] = coeff * bake_sign(alg, *key)
        return cls._owning(alg, legs, entries)

    def to_abstract(self) -> dict:
        """Inverse of from_abstract (the bijection is diagonal)."""
        alg = self.alg
        return {
            key: coeff * bake_sign(alg, key[0], key[1])
            for key, coeff in self.entries.items()
        }

    # -- ring structure ---------------------------------------------------

    def _check(self, other: "EndoOperator") -> None:
        if (self.alg.m, self.alg.n, self.legs) != (other.alg.m, other.alg.n, other.legs):
            raise ValueError("operators on different spaces")

    def __add__(self, other: "EndoOperator") -> "EndoOperator":
        self._check(other)
        out = dict(self.entries)
        add_scaled(out, 1, other.entries)
        return EndoOperator._owning(self.alg, self.legs, out)

    def __sub__(self, other: "EndoOperator") -> "EndoOperator":
        self._check(other)
        out = dict(self.entries)
        add_scaled(out, -1, other.entries)
        return EndoOperator._owning(self.alg, self.legs, out)

    def __neg__(self) -> "EndoOperator":
        return EndoOperator._owning(self.alg, self.legs, {k: -v for k, v in self.entries.items()})

    def scale(self, scalar) -> "EndoOperator":
        scalar = exact(scalar)
        if not scalar:
            return EndoOperator.zero(self.alg, self.legs)
        return EndoOperator._owning(
            self.alg, self.legs, {k: v * scalar for k, v in self.entries.items()}
        )

    def divide(self, d: int) -> "EndoOperator":
        """The exact quotient by a nonzero integer; integral entries stay
        ``int``."""
        return EndoOperator(
            self.alg, self.legs, {k: exact(Fraction(v, d)) for k, v in self.entries.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, EndoOperator):
            return NotImplemented
        self._check(other)
        by_row: dict = {}
        for (row, col), v in other.entries.items():
            by_row.setdefault(row, []).append((col, v))
        out: dict = {}
        for (row, mid), a in self.entries.items():
            for col, b in by_row.get(mid, ()):
                key = (row, col)
                w = out.get(key, 0) + a * b
                if w:
                    out[key] = w
                else:
                    out.pop(key, None)
        return EndoOperator._owning(self.alg, self.legs, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EndoOperator):
            return NotImplemented
        return (
            (self.alg.m, self.alg.n, self.legs) == (other.alg.m, other.alg.n, other.legs)
            and self.entries == other.entries
        )

    def is_zero(self) -> bool:
        return not self.entries

    def scalar_value(self) -> Fraction:
        if self.legs != 0:
            raise ValueError("not a scalar operator")
        return self.entries.get(((), ()), 0)

    def rank(self) -> int:
        rows: dict = {}
        for (r, c), v in self.entries.items():
            rows.setdefault(r, {})[c] = v
        return sparse_rank(rows.values())

    def __repr__(self):
        return f"<EndoOperator {self.alg.m}|{self.alg.n} legs={self.legs} nnz={len(self.entries)}>"


def bake_sign(alg: Algebra, rows, cols) -> int:
    par = alg.parities
    exp = 0
    prefix = 0
    try:
        for i, j in zip(rows, cols):
            exp += (par[i] + par[j]) * prefix
            prefix += par[j]
    except KeyError as exc:
        raise ValueError(f"index {exc.args[0]} outside 1..{alg.dim}") from None
    return -1 if exp % 2 else 1


def operator_rank(ops) -> int:
    """Rank of a family of operators viewed as vectors over Q."""
    return sparse_rank(op.entries for op in ops)


# ---------------------------------------------------------------------------
# elementary operators
# ---------------------------------------------------------------------------


def matrix_unit(alg: Algebra, i: int, j: int) -> EndoOperator:
    return EndoOperator(alg, 1, {((i,), (j,)): 1})


def perm_p(alg: Algebra) -> EndoOperator:
    """P = sum E_ij (x) E_ji (-1)^jbar; acts as the super swap
    e_i (x) e_j -> e_j (x) e_i (-1)^(ibar jbar)."""
    abstract = {}
    for i in range(1, alg.dim + 1):
        for j in range(1, alg.dim + 1):
            sign = -1 if alg.parities[j] else 1
            abstract[((i, j), (j, i))] = sign
    return EndoOperator.from_abstract(alg, 2, abstract)


def q_op(alg: Algebra) -> EndoOperator:
    """Q = (id (x) tau)(P) = sum E_ij (x) E_ij (-1)^(ibar jbar)."""
    abstract = {}
    for i in range(1, alg.dim + 1):
        for j in range(1, alg.dim + 1):
            sign = -1 if alg.parities[i] and alg.parities[j] else 1
            abstract[((i, i), (j, j))] = sign
    return EndoOperator.from_abstract(alg, 2, abstract)


def projectors_ij(alg: Algebra) -> tuple[EndoOperator, EndoOperator]:
    """(I, J): projections onto the even and odd subspaces."""
    i_entries = {}
    j_entries = {}
    for k in range(1, alg.dim + 1):
        if not alg.parities[k]:
            i_entries[((k,), (k,))] = 1
        else:
            j_entries[((k,), (k,))] = 1
    return EndoOperator(alg, 1, i_entries), EndoOperator(alg, 1, j_entries)


def embed(op: EndoOperator, legs_at: tuple, total_legs: int) -> EndoOperator:
    """X_(h1...hm): place an m-leg operator at m distinct legs in
    1..total_legs of a larger space, identity elsewhere."""
    alg = op.alg
    _check_guard(alg.dim, total_legs)
    others = [h for h in range(1, total_legs + 1) if h not in legs_at]
    # leg h of a full index is item source[h] of (operator index) + filler
    source = {h: pos for pos, h in enumerate([*legs_at, *others])}
    order = [source[h] for h in range(1, total_legs + 1)]
    pick = itemgetter(*order) if len(order) > 1 else lambda seq: tuple(seq[p] for p in order)
    fillers = list(iproduct(range(1, alg.dim + 1), repeat=len(others)))
    out: dict = {}  # each (entry, filler) pair has a key of its own
    for (rows, cols), coeff in op.to_abstract().items():
        for filler in fillers:
            full_rows, full_cols = pick(rows + filler), pick(cols + filler)
            out[full_rows, full_cols] = coeff * bake_sign(alg, full_rows, full_cols)
    return EndoOperator._owning(alg, total_legs, out)


_ELEMENTARY = {
    "P": perm_p,
    "Q": q_op,
    "I": lambda alg: projectors_ij(alg)[0],
    "J": lambda alg: projectors_ij(alg)[1],
}
_SYMMETRIZERS = ("G", "H")  # in the order `symmetrizers_direct` returns them


def placed(alg: Algebra, name: str, legs_at: tuple, total: int) -> EndoOperator:
    """An operator placed at `legs_at` of a `total`-leg space, built once
    per algebra and key and kept in `alg.placements`: the identity (name
    "1", legs_at ()); P or Q; the chain I_(h1) ... I_(hk) or
    J_(h1) ... J_(hk) of the even or odd projector, one factor per leg
    of `legs_at`; or the symmetrizer G or H on k = len(legs_at) legs.
    G and H on all k legs of a k-leg space are built together, by one
    `symmetrizers_direct` call, and placed elsewhere by `embed`.  The
    operator is shared: callers must not mutate its entries."""
    key = (name, legs_at, total)
    op = alg.placements.get(key)
    if op is not None:
        return op
    if name == "1":
        op = EndoOperator.identity(alg, total)
    elif name not in _SYMMETRIZERS:
        op = _ELEMENTARY[name](alg)
        if op.legs == 1:
            op = tensor([op] * len(legs_at))
        op = embed(op, legs_at, total)
    elif legs_at != tuple(range(1, total + 1)):
        own = tuple(range(1, len(legs_at) + 1))
        op = embed(placed(alg, name, own, len(own)), legs_at, total)
    else:
        for sym, sym_op in zip(_SYMMETRIZERS, symmetrizers_direct(alg, total)):
            alg.placements[sym, legs_at, total] = sym_op
        return alg.placements[key]
    alg.placements[key] = op
    return op


def tensor(ops) -> EndoOperator:
    """op_1 (x) op_2 (x) ... of one or more operators, as a single baked
    operator."""
    ops = list(ops)
    return EndoOperator.from_abstract(
        ops[0].alg,
        sum(op.legs for op in ops),
        _tensor_abstract([op.to_abstract().items() for op in ops]),
    )


def _tensor_abstract(parts) -> dict:
    """The abstract coefficients of a tensor product, from each factor's
    abstract (key, coefficient) items; every key is made once."""
    out: dict = {}
    for combo in iproduct(*parts):
        rows: tuple = ()
        cols: tuple = ()
        coeff = 1
        for (r, c), v in combo:
            rows += r
            cols += c
            coeff *= v
        out[rows, cols] = coeff
    return out


def tau_leg(op: EndoOperator, leg: int) -> EndoOperator:
    """Apply the antiautomorphism tau: E_ij -> E_ji (-1)^(ibar(jbar+1))
    on one abstract tensor factor, 1 <= leg <= op.legs."""
    alg = op.alg
    out: dict = {}
    for (rows, cols), coeff in op.to_abstract().items():
        i, j = rows[leg - 1], cols[leg - 1]
        sign = -1 if alg.parities[i] and not alg.parities[j] else 1
        new_rows = rows[: leg - 1] + (j,) + rows[leg:]
        new_cols = cols[: leg - 1] + (i,) + cols[leg:]
        key = (new_rows, new_cols)
        out[key] = out.get(key, 0) + coeff * sign
    return EndoOperator.from_abstract(alg, op.legs, out)


def partial_supertrace(op: EndoOperator, legs_to_trace) -> EndoOperator:
    """Apply str: E_ij -> delta_ij (-1)^ibar on the chosen abstract legs."""
    legs_to_trace = set(legs_to_trace)
    if not legs_to_trace <= set(range(1, op.legs + 1)):
        raise ValueError("legs to trace out of range")
    alg = op.alg
    keep = [h for h in range(1, op.legs + 1) if h not in legs_to_trace]
    out: dict = {}
    for (rows, cols), coeff in op.to_abstract().items():
        c = coeff
        ok = True
        for h in legs_to_trace:
            i, j = rows[h - 1], cols[h - 1]
            if i != j:
                ok = False
                break
            if alg.parities[i]:
                c = -c
        if not ok:
            continue
        new_rows = tuple(rows[h - 1] for h in keep)
        new_cols = tuple(cols[h - 1] for h in keep)
        key = (new_rows, new_cols)
        out[key] = out.get(key, 0) + c
    return EndoOperator.from_abstract(alg, len(keep), out)


def supertrace(op: EndoOperator) -> Fraction:
    return partial_supertrace(op, range(1, op.legs + 1)).scalar_value()


# ---------------------------------------------------------------------------
# the Yang R-matrix and its partial-transpose inverse
# ---------------------------------------------------------------------------


def r_cleared(alg: Algebra, c, legs_at: tuple = (1, 2), total: int = 2) -> EndoOperator:
    """a R(c) = a - bP placed at `legs_at`, for c = a/b != 0 in lowest
    terms (R has its pole at 0): an integral operator, R(c) times the
    numerator of c."""
    c = exact_point(c)
    a, b = c.numerator, c.denominator
    out = dict.fromkeys(placed(alg, "1", (), total).entries, a)
    add_scaled(out, -b, placed(alg, "P", legs_at, total).entries)
    return EndoOperator(alg, total, out)


# ---------------------------------------------------------------------------
# symmetrizers / antisymmetrizers
# ---------------------------------------------------------------------------


def perm_sign(sigma) -> int:
    """The sign of a permutation given as a sequence: (-1)^inversions."""
    sign = 1
    for a in range(len(sigma)):
        for b in range(a + 1, len(sigma)):
            if sigma[a] > sigma[b]:
                sign = -sign
    return sign


def perm_action(alg: Algebra, sigma) -> EndoOperator:
    """The super action of a permutation on (C^(M|N))^(x n): basis vector
    indexed by K goes to the reindexed vector with the sign
    prod over inversions (a<b, sigma(a)>sigma(b)) of (-1)^(kbar_a kbar_b)."""
    n = len(sigma)
    _check_guard(alg.dim, n)
    entries = {}
    for kk in iproduct(range(1, alg.dim + 1), repeat=n):
        exp = 0
        for a in range(n):
            for b in range(a + 1, n):
                if sigma[a] > sigma[b]:
                    exp += alg.parities[kk[a]] * alg.parities[kk[b]]
        rows = [0] * n
        for a in range(n):
            rows[sigma[a] - 1] = kk[a]
        entries[(tuple(rows), kk)] = -1 if exp % 2 else 1
    return EndoOperator(alg, n, entries)


def symmetrizers_direct(alg: Algebra, n: int) -> tuple[EndoOperator, EndoOperator]:
    """(G, H) as sums over the symmetric group of super permutation
    actions, with and without alternating signs."""
    g = EndoOperator.zero(alg, n)
    h = EndoOperator.zero(alg, n)
    for sigma in permutations(range(1, n + 1)):
        action = perm_action(alg, sigma)
        sign = perm_sign(sigma)
        g = g + action.scale(sign)
        h = h + action
    return g, h


def symmetrizers_recursive(alg: Algebra, n: int) -> tuple[EndoOperator, EndoOperator]:
    """(G, H) from the one-box recursions
    G(n) = (1 - P_1n - ... - P_(n-1)n)(G(n-1) (x) 1)."""
    g = EndoOperator.identity(alg, 1)
    h = EndoOperator.identity(alg, 1)
    for k in range(2, n + 1):
        g_embedded = embed(g, tuple(range(1, k)), k)
        h_embedded = embed(h, tuple(range(1, k)), k)
        p_sum = EndoOperator.zero(alg, k)
        for a in range(1, k):
            p_sum = p_sum + placed(alg, "P", (a, k), k)
        ident = placed(alg, "1", (), k)
        g = (ident - p_sum) * g_embedded
        h = (ident + p_sum) * h_embedded
    return g, h


def symmetrizers_fusion(alg: Algebra, n: int) -> tuple[EndoOperator, EndoOperator]:
    """(G, H) as ordered products of R-matrix values at integer points
    (the fusion procedure), multiplied as cleared factors c - P and
    divided back by the product of the points."""
    g = h = placed(alg, "1", (), n)
    g_scale = h_scale = 1
    for j in range(2, n + 1):
        for i in range(1, j):
            g = g * r_cleared(alg, j - i, (i, j), n)
            h = h * r_cleared(alg, i - j, (i, j), n)
            g_scale *= j - i
            h_scale *= i - j
    return g.divide(g_scale), h.divide(h_scale)


# ---------------------------------------------------------------------------
# evaluation representations
# ---------------------------------------------------------------------------


def eval_rep_gen(alg: Algebra, g: GenIndex, z) -> EndoOperator:
    """T[i,j,r] -> -E_ji z^(r-1) (-1)^jbar."""
    z = exact_point(z)
    sign = -1 if alg.parities[g.j] else 1
    return EndoOperator(alg, 1, {((g.j,), (g.i,)): exact(-sign * z ** (g.r - 1))})


def _check_points(points: tuple) -> None:
    """Reject points that are not `Fraction`s, as `exact_point` returns
    them, before a cache keyed by them is read: a float equals its exact
    value as a key, and would hit the image cached for it."""
    if not all(isinstance(z, Fraction) for z in points):
        raise TypeError(f"points must be Fractions, as exact_point returns them: {points!r}")


def _eval_word(alg: Algebra, word, points: tuple) -> EndoOperator:
    """The n-point image of a word: the empty word maps to the identity on
    len(points) legs, a letter to its generator image, and a longer word
    to the image of `word[:-1]` times that of its last letter, kept in
    `alg.multi_words`; so each prefix is multiplied once per algebra and
    points.  The result is shared: callers must not mutate its entries."""
    if not word:
        return placed(alg, "1", (), len(points))
    if len(word) == 1:
        return multi_eval_rep_gen(alg, word[0], points)
    _check_points(points)
    key = (word, points)
    op = alg.multi_words.get(key)
    if op is None:
        op = _eval_word(alg, word[:-1], points) * multi_eval_rep_gen(alg, word[-1], points)
        alg.multi_words[key] = op
    return op


def eval_rep(x: Element, z) -> EndoOperator:
    """The one-point evaluation representation, an algebra homomorphism."""
    return multi_eval_rep(x, (z,))


def multi_eval_rep_gen(alg: Algebra, g: GenIndex, points: tuple) -> EndoOperator:
    """Image of a generator under the n-point representation, for points
    as `exact_point` returns them, kept in `alg.multi_gens` for every
    n >= 1: `eval_rep_gen` at one point, else `_coproduct_route`.  Any
    other point raises TypeError before the cache is read."""
    _check_points(points)
    key = (g, points)
    op = alg.multi_gens.get(key)
    if op is None:
        if len(points) == 1:
            op = eval_rep_gen(alg, g, points[0])
        else:
            op = _coproduct_route(alg, g, points)
        alg.multi_gens[key] = op
    return op


def _coproduct_route(alg: Algebra, g: GenIndex, points: tuple) -> EndoOperator:
    """Delta applied n-1 times to a generator, then the one-point
    evaluation on each leg.  Each distinct (leg word, leg) is evaluated
    and taken to abstract coordinates once; the monomials' tensor
    products are summed as abstract coefficients and baked once."""
    x = alg.gen(*g)
    for leg in range(1, len(points)):
        x = coproduct_at_leg(x, leg)
    leg_parts: dict = {}  # (word, leg) -> abstract items of its image
    abstract: dict = {}
    for mon, coeff in x.terms.items():
        parts = []
        for leg, word in enumerate(mon):
            if (word, leg) not in leg_parts:
                image = _eval_word(alg, word, points[leg:leg + 1])
                leg_parts[word, leg] = image.to_abstract().items()
            parts.append(leg_parts[word, leg])
        add_scaled(abstract, coeff, _tensor_abstract(parts))
    return EndoOperator.from_abstract(alg, len(points), abstract)


def multi_eval_rep(x: Element, points) -> EndoOperator:
    """The n-point evaluation representation on a 1-leg element."""
    alg = x.alg
    points = tuple(exact_point(z) for z in points)
    out: dict = {}
    for (word,), coeff in x.terms.items():
        add_scaled(out, coeff, _eval_word(alg, word, points).entries)
    return EndoOperator._owning(alg, len(points), out)


def rmatrix_route_images(alg: Algebra, points: tuple, r_max: int) -> dict:
    """Generator images of levels 1..r_max (at least) read off the
    R-matrix product

        T(u) -> R_12(u - z_1) ... R_(1,n+1)(u - z_n)

    for points as `exact_point` returns them, built by `_rmatrix_route`
    and kept in `alg.route_images` per points at the highest r_max asked
    so far: the images of a lower level bound are the leading levels of
    those of a higher one, so a lower r_max reads the kept images and a
    higher one rebuilds them once.  Any other point raises TypeError
    before the cache is read.  The dict and its operators are shared:
    callers must not mutate them, and read only the levels they asked
    for."""
    _check_points(points)
    kept = alg.route_images.get(points)
    if kept is None or kept[0] < r_max:
        kept = r_max, _rmatrix_route(alg, points, r_max)
        alg.route_images[points] = kept
    return kept[1]


def _rmatrix_route(alg: Algebra, points: tuple, r_max: int) -> dict:
    """The R-matrix product on the auxiliary-plus-n-legs space, with P
    embedded at each (1, h), as the list of its u^-r coefficients X^(r),
    X^(0) = 1.  Each factor R(u - z) = 1 - P sum_k z^k u^-(k+1) is
    multiplied in by X^(r) <- X^(r) - W^(r) P, W^(r) = X^(r-1) + z W^(r-1)
    over the old X, W^(0) = 0: one operator product per level.  Each
    X^(r) is grouped by the auxiliary (first) leg.  It stays an operator
    product, independent of the coproduct route it is compared with."""
    n = len(points)
    total = n + 1
    zero = EndoOperator.zero(alg, total)
    prod = [EndoOperator.identity(alg, total)] + [zero] * r_max
    for h, z in enumerate(points, start=2):
        p_embedded = placed(alg, "P", (1, h), total)
        w = zero
        factored = prod[:1]
        for r in range(1, r_max + 1):
            w = prod[r - 1] + w.scale(z)
            factored.append(prod[r] - w * p_embedded)
        prod = factored
    images: dict = {}
    for r in range(1, r_max + 1):
        grouped: dict = {}
        for (rows, cols), coeff in prod[r].to_abstract().items():
            aux = (rows[0], cols[0])
            grouped.setdefault(aux, {})[(rows[1:], cols[1:])] = coeff
        for (i, j), abstract in grouped.items():
            images[alg.letter(i, j, r)] = EndoOperator.from_abstract(alg, n, abstract)
    for i in range(1, alg.dim + 1):
        for j in range(1, alg.dim + 1):
            for r in range(1, r_max + 1):
                images.setdefault(alg.letter(i, j, r), EndoOperator.zero(alg, n))
    return images


# ---------------------------------------------------------------------------
# operator dump format
# ---------------------------------------------------------------------------


def dump_operator(op: EndoOperator) -> str:
    lines = [f"{op.alg.m} {op.alg.n} {op.legs}"]
    for (rows, cols) in sorted(op.entries):
        value = op.entries[(rows, cols)]
        text = str(value) if isinstance(value, Poly) else rational_to_text(value)
        lines.append(f"{','.join(map(str, rows))} {','.join(map(str, cols))} {text}")
    return "\n".join(lines) + "\n"


def parse_operator_dump(text: str) -> EndoOperator:
    """The inverse of `dump_operator`.  A malformed dump raises
    ValueError naming its line: a header that is not three ints, or has
    a negative leg count or an M, N that no algebra has, a row or column
    whose length is not `legs`, an index outside 1..M+N, a value that is
    neither a rational nor a polynomial in u and v, a repeated
    (row, col), or a zero value."""
    lines = [(k, line) for k, line in enumerate(text.splitlines(), 1) if line.strip()]
    k, header = lines[0] if lines else (1, "")
    try:
        alg, legs = _dump_header(header)
    except ValueError as exc:
        raise ValueError(f"operator dump line {k}: {exc}") from None
    entries = {}
    for k, line in lines[1:]:
        try:
            key, value = _dump_entry(alg, legs, line)
            if key in entries:
                raise ValueError(f"entry {key} repeated")
        except ValueError as exc:
            raise ValueError(f"operator dump line {k}: {exc}") from None
        entries[key] = value
    return EndoOperator(alg, legs, entries)


def _dump_header(header: str) -> tuple:
    """(algebra, legs) of the header line `M N legs`."""
    try:
        m, n, legs = (int(x) for x in header.split())
    except ValueError:
        raise ValueError(f"header {header!r} is not three ints M N legs") from None
    if legs < 0:
        raise ValueError(f"header {header!r} has a negative leg count")
    return algebra(m, n), legs


def _dump_entry(alg: Algebra, legs: int, line: str) -> tuple:
    """((rows, cols), value) of one dump line `rows cols value`, which is
    `value` alone on no legs."""
    *fields, text = line.split()
    if len(fields) != (2 if legs else 0):
        raise ValueError(f"{line!r} is not '{'rows cols value' if legs else 'value'}'")
    rows, cols = (tuple(int(x) for x in field.split(",")) for field in fields) if legs else ((), ())
    if len(rows) != legs or len(cols) != legs:
        raise ValueError(f"row {fields[0]} or column {fields[1]} does not have {legs} legs")
    if not all(1 <= x <= alg.dim for x in rows + cols):
        raise ValueError(f"an index of {fields[0]} {fields[1]} is outside 1..{alg.dim}")
    value = Poly.from_text(text) if "u" in text or "v" in text else exact(rational_from_text(text))
    if not value:
        raise ValueError("zero value")
    return (rows, cols), value
