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
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product as iproduct

from .algebra import Algebra, Element, GenIndex, algebra, supercommutator
from .checkresult import CheckResult, failure
from .series import Ring, SeriesTail, exact, row_rank

ZERO = 0
ONE = 1

DEFAULT_SPACE_GUARD = 4096


class SpaceGuardError(ValueError):
    """The requested tensor space exceeds the configured size guard."""


def _check_guard(dim: int, legs: int, guard: int) -> None:
    if dim**legs > guard:
        raise SpaceGuardError(
            f"space of size {dim}**{legs} exceeds the guard {guard}; "
            "raise the guard explicitly if this is intended"
        )


class EndoOperator:
    """Sparse exact operator on (C^(M|N))^(x legs); legs = 0 is a scalar.

    `entries` maps (rows, cols) to nonzero rationals: ``int`` when
    integral, ``Fraction`` otherwise.  `scalar` and `scale` reject floats.
    """

    __slots__ = ("alg", "legs", "entries")

    def __init__(self, alg: Algebra, legs: int, entries: dict):
        self.alg = alg
        self.legs = legs
        self.entries = {k: v for k, v in entries.items() if v}

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, alg: Algebra, legs: int, guard: int = DEFAULT_SPACE_GUARD) -> "EndoOperator":
        _check_guard(alg.dim, legs, guard)
        entries = {}
        for idx in iproduct(range(1, alg.dim + 1), repeat=legs):
            entries[(idx, idx)] = ONE
        return cls(alg, legs, entries)

    @classmethod
    def zero(cls, alg: Algebra, legs: int) -> "EndoOperator":
        return cls(alg, legs, {})

    @classmethod
    def scalar(cls, alg: Algebra, value, legs: int = 0) -> "EndoOperator":
        value = exact(value)
        if legs == 0:
            return cls(alg, 0, {((), ()): value} if value else {})
        return cls.identity(alg, legs).scale(value)

    @classmethod
    def from_abstract(cls, alg: Algebra, legs: int, abstract: dict) -> "EndoOperator":
        """Bake abstract tensor coefficients {(rows, cols): coeff} into
        matrix entries (the single sign-critical code path)."""
        entries = {}
        for (rows, cols), coeff in abstract.items():
            if not coeff:
                continue
            s = bake_sign(alg, rows, cols)
            key = (rows, cols)
            entries[key] = entries.get(key, ZERO) + coeff * s
        return cls(alg, legs, entries)

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
        for k, v in other.entries.items():
            w = out.get(k, ZERO) + v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        return EndoOperator(self.alg, self.legs, out)

    def __sub__(self, other: "EndoOperator") -> "EndoOperator":
        return self + (-other)

    def __neg__(self) -> "EndoOperator":
        return EndoOperator(self.alg, self.legs, {k: -v for k, v in self.entries.items()})

    def scale(self, scalar) -> "EndoOperator":
        scalar = exact(scalar)
        if not scalar:
            return EndoOperator.zero(self.alg, self.legs)
        return EndoOperator(
            self.alg, self.legs, {k: v * scalar for k, v in self.entries.items()}
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
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
                w = out.get(key, ZERO) + a * b
                if w:
                    out[key] = w
                else:
                    out.pop(key, None)
        return EndoOperator(self.alg, self.legs, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, EndoOperator):
            return NotImplemented
        return (
            (self.alg.m, self.alg.n, self.legs) == (other.alg.m, other.alg.n, other.legs)
            and self.entries == other.entries
        )

    def __hash__(self):
        raise TypeError("EndoOperator is not hashable")

    def is_zero(self) -> bool:
        return not self.entries

    # -- graded structure ---------------------------------------------------

    def entry_parity(self, key) -> int:
        rows, cols = key
        alg = self.alg
        return (
            sum(alg.index_parity(i) for i in rows)
            + sum(alg.index_parity(j) for j in cols)
        ) & 1

    def parity(self) -> int:
        parities = {self.entry_parity(k) for k in self.entries}
        if not parities:
            return 0
        if len(parities) > 1:
            raise ValueError("operator is not parity-homogeneous")
        return parities.pop()

    def scalar_value(self) -> Fraction:
        if self.legs != 0:
            raise ValueError("not a scalar operator")
        return self.entries.get(((), ()), ZERO)

    def rank(self) -> int:
        cols: dict = {}
        rows: dict = {}
        for (r, c), v in self.entries.items():
            rows.setdefault(r, {})[c] = v
        matrix = []
        for r in sorted(rows):
            row = rows[r]
            for c in row:
                cols.setdefault(c, len(cols))
            matrix.append(row)
        dense = [
            [row.get(c, ZERO) for c in sorted(cols, key=cols.get)] for row in matrix
        ]
        return row_rank(dense)

    def __repr__(self):
        return f"<EndoOperator {self.alg.m}|{self.alg.n} legs={self.legs} nnz={len(self.entries)}>"


def bake_sign(alg: Algebra, rows, cols) -> int:
    exp = 0
    prefix = 0
    for h in range(len(rows)):
        if h:
            exp += (alg.index_parity(rows[h]) + alg.index_parity(cols[h])) * prefix
        prefix += alg.index_parity(cols[h])
    return -ONE if exp % 2 else ONE


def operator_rank(ops) -> int:
    """Rank of a family of operators viewed as vectors over Q."""
    basis: dict = {}
    rows = []
    for op in ops:
        for key in op.entries:
            basis.setdefault(key, len(basis))
        rows.append(op.entries)
    dense = []
    order = sorted(basis, key=basis.get)
    for row in rows:
        dense.append([row.get(k, ZERO) for k in order])
    return row_rank(dense)


# ---------------------------------------------------------------------------
# elementary operators
# ---------------------------------------------------------------------------


def matrix_unit(alg: Algebra, i: int, j: int) -> EndoOperator:
    return EndoOperator(alg, 1, {((i,), (j,)): ONE})


def perm_p(alg: Algebra) -> EndoOperator:
    """P = sum E_ij (x) E_ji (-1)^jbar; acts as the super swap
    e_i (x) e_j -> e_j (x) e_i (-1)^(ibar jbar)."""
    abstract = {}
    for i in range(1, alg.dim + 1):
        for j in range(1, alg.dim + 1):
            sign = -ONE if alg.index_parity(j) else ONE
            abstract[((i, j), (j, i))] = sign
    return EndoOperator.from_abstract(alg, 2, abstract)


def q_op(alg: Algebra) -> EndoOperator:
    """Q = (id (x) tau)(P) = sum E_ij (x) E_ij (-1)^(ibar jbar)."""
    abstract = {}
    for i in range(1, alg.dim + 1):
        for j in range(1, alg.dim + 1):
            sign = -ONE if alg.index_parity(i) * alg.index_parity(j) else ONE
            abstract[((i, i), (j, j))] = sign
    return EndoOperator.from_abstract(alg, 2, abstract)


def projectors_ij(alg: Algebra) -> tuple[EndoOperator, EndoOperator]:
    """(I, J): projections onto the even and odd subspaces."""
    i_entries = {}
    j_entries = {}
    for k in range(1, alg.dim + 1):
        if alg.index_parity(k) == 0:
            i_entries[((k,), (k,))] = ONE
        else:
            j_entries[((k,), (k,))] = ONE
    return EndoOperator(alg, 1, i_entries), EndoOperator(alg, 1, j_entries)


def embed(op: EndoOperator, legs_at: tuple, total_legs: int, guard: int = DEFAULT_SPACE_GUARD) -> EndoOperator:
    """X_(h1...hm): place an m-leg operator at the given (distinct) legs
    of a larger space, identity elsewhere."""
    alg = op.alg
    _check_guard(alg.dim, total_legs, guard)
    if len(set(legs_at)) != len(legs_at) or len(legs_at) != op.legs:
        raise ValueError("legs_at must list distinct legs, one per operator leg")
    if any(not 1 <= h <= total_legs for h in legs_at):
        raise ValueError("leg out of range")
    others = [h for h in range(1, total_legs + 1) if h not in legs_at]
    abstract = op.to_abstract()
    out: dict = {}
    for (rows, cols), coeff in abstract.items():
        for filler in iproduct(range(1, alg.dim + 1), repeat=len(others)):
            full_rows = [0] * total_legs
            full_cols = [0] * total_legs
            for pos, h in enumerate(legs_at):
                full_rows[h - 1] = rows[pos]
                full_cols[h - 1] = cols[pos]
            for pos, h in enumerate(others):
                full_rows[h - 1] = filler[pos]
                full_cols[h - 1] = filler[pos]
            key = (tuple(full_rows), tuple(full_cols))
            s = bake_sign(alg, key[0], key[1])
            out[key] = out.get(key, ZERO) + coeff * s
    return EndoOperator(alg, total_legs, out)


def tensor(ops) -> EndoOperator:
    """op_1 (x) op_2 (x) ... as a single baked operator."""
    ops = list(ops)
    if not ops:
        raise ValueError("empty tensor product")
    alg = ops[0].alg
    legs = sum(op.legs for op in ops)
    out: dict = {}
    parts = [op.to_abstract() for op in ops]
    for combo in iproduct(*(p.items() for p in parts)):
        rows: tuple = ()
        cols: tuple = ()
        coeff = ONE
        for (r, c), v in combo:
            rows += r
            cols += c
            coeff *= v
        key = (rows, cols)
        s = bake_sign(alg, rows, cols)
        out[key] = out.get(key, ZERO) + coeff * s
    return EndoOperator(alg, legs, out)


def tau_leg(op: EndoOperator, leg: int) -> EndoOperator:
    """Apply the antiautomorphism tau: E_ij -> E_ji (-1)^(ibar(jbar+1))
    on one abstract tensor factor."""
    if not 1 <= leg <= op.legs:
        raise ValueError("leg out of range")
    alg = op.alg
    out: dict = {}
    for (rows, cols), coeff in op.to_abstract().items():
        i, j = rows[leg - 1], cols[leg - 1]
        sign = -ONE if alg.index_parity(i) * (alg.index_parity(j) + 1) % 2 else ONE
        new_rows = rows[: leg - 1] + (j,) + rows[leg:]
        new_cols = cols[: leg - 1] + (i,) + cols[leg:]
        key = (new_rows, new_cols)
        out[key] = out.get(key, ZERO) + coeff * sign
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
            if alg.index_parity(i):
                c = -c
        if not ok:
            continue
        new_rows = tuple(rows[h - 1] for h in keep)
        new_cols = tuple(cols[h - 1] for h in keep)
        key = (new_rows, new_cols)
        out[key] = out.get(key, ZERO) + c
    return EndoOperator.from_abstract(alg, len(keep), out)


def supertrace(op: EndoOperator) -> Fraction:
    return partial_supertrace(op, range(1, op.legs + 1)).scalar_value()


# ---------------------------------------------------------------------------
# the Yang R-matrix and its partial-transpose inverse
# ---------------------------------------------------------------------------


def operator_ring(alg: Algebra, legs: int) -> Ring:
    return Ring(
        EndoOperator.zero(alg, legs),
        EndoOperator.identity(alg, legs),
        f"End({alg.m}|{alg.n})^(x{legs})",
    )


class EndoSeries:
    """An operator-valued series in u^-1 together with an exact
    evaluation mode at rational points away from the poles."""

    def __init__(self, series: SeriesTail, evaluate, poles=frozenset()):
        self.series = series
        self._evaluate = evaluate
        self.poles = frozenset(poles)

    def at(self, q) -> EndoOperator:
        q = Fraction(q)
        if q in self.poles:
            raise ZeroDivisionError(f"evaluation at a pole: u = {q}")
        return self._evaluate(q)

    def __mul__(self, other: "EndoSeries") -> "EndoSeries":
        return EndoSeries(
            self.series * other.series,
            lambda q: self._evaluate(q) * other._evaluate(q),
            self.poles | other.poles,
        )

    def negate_argument(self) -> "EndoSeries":
        flipped = SeriesTail(
            self.series.ring,
            self.series.order,
            [
                c.scale((-1) ** r) if r % 2 else c
                for r, c in enumerate(self.series.coeffs)
            ],
        )
        return EndoSeries(
            flipped, lambda q: self._evaluate(-q), {-p for p in self.poles}
        )


def r_matrix(alg: Algebra, order: int = 4) -> EndoSeries:
    """R(u) = 1 - P u^-1."""
    ring = operator_ring(alg, 2)
    p = perm_p(alg)
    ident = ring.one
    coeffs = [ident, -p] + [ring.zero] * max(0, order - 1)
    series = SeriesTail(ring, order, coeffs[: order + 1])
    return EndoSeries(series, lambda q: ident - p.scale(ONE / q), {Fraction(0)})


def r_at(alg: Algebra, c) -> EndoOperator:
    """R evaluated at the rational point c."""
    c = Fraction(c)
    if c == 0:
        raise ZeroDivisionError("R(u) has its pole at u = 0")
    return EndoOperator.identity(alg, 2) - perm_p(alg).scale(ONE / c)


# ---------------------------------------------------------------------------
# symmetrizers / antisymmetrizers
# ---------------------------------------------------------------------------


def perm_action(alg: Algebra, sigma, guard: int = DEFAULT_SPACE_GUARD) -> EndoOperator:
    """The super action of a permutation on (C^(M|N))^(x n): basis vector
    indexed by K goes to the reindexed vector with the sign
    prod over inversions (a<b, sigma(a)>sigma(b)) of (-1)^(kbar_a kbar_b)."""
    n = len(sigma)
    _check_guard(alg.dim, n, guard)
    entries = {}
    for kk in iproduct(range(1, alg.dim + 1), repeat=n):
        exp = 0
        for a in range(n):
            for b in range(a + 1, n):
                if sigma[a] > sigma[b]:
                    exp += alg.index_parity(kk[a]) * alg.index_parity(kk[b])
        rows = [0] * n
        for a in range(n):
            rows[sigma[a] - 1] = kk[a]
        entries[(tuple(rows), kk)] = -ONE if exp % 2 else ONE
    return EndoOperator(alg, n, entries)


def symmetrizers_direct(alg: Algebra, n: int) -> tuple[EndoOperator, EndoOperator]:
    """(G, H) as sums over the symmetric group of super permutation
    actions, with and without alternating signs."""
    g = EndoOperator.zero(alg, n)
    h = EndoOperator.zero(alg, n)
    for sigma in permutations(range(1, n + 1)):
        action = perm_action(alg, sigma)
        sign = _perm_sign(sigma)
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
            p_sum = p_sum + embed(perm_p(alg), (a, k), k)
        ident = EndoOperator.identity(alg, k)
        g = (ident - p_sum) * g_embedded
        h = (ident + p_sum) * h_embedded
    return g, h


def symmetrizers_fusion(alg: Algebra, n: int) -> tuple[EndoOperator, EndoOperator]:
    """(G, H) as ordered products of R-matrix values at integer points
    (the fusion procedure)."""
    g = EndoOperator.identity(alg, n)
    h = EndoOperator.identity(alg, n)
    for j in range(2, n + 1):
        for i in range(1, j):
            g = g * embed(r_at(alg, j - i), (i, j), n)
            h = h * embed(r_at(alg, i - j), (i, j), n)
    return g, h


def symmetrizers(alg: Algebra, n: int) -> tuple[EndoOperator, EndoOperator]:
    """(G^(n), H^(n)); the three independent constructions are compared
    by symmetrizer_agreement_check."""
    return symmetrizers_direct(alg, n)


def _perm_sign(sigma) -> int:
    sign = 1
    for a in range(len(sigma)):
        for b in range(a + 1, len(sigma)):
            if sigma[a] > sigma[b]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# evaluation representations
# ---------------------------------------------------------------------------


def eval_rep_gen(alg: Algebra, g: GenIndex, z) -> EndoOperator:
    """T[i,j,r] -> -E_ji z^(r-1) (-1)^jbar."""
    z = Fraction(z)
    sign = -ONE if alg.index_parity(g.j) else ONE
    return EndoOperator(alg, 1, {((g.j,), (g.i,)): exact(-sign * z ** (g.r - 1))})


def eval_rep(x: Element, z) -> EndoOperator:
    """The one-point evaluation representation, an algebra homomorphism."""
    if x.legs != 1:
        raise ValueError("eval_rep acts on 1-leg elements")
    alg = x.alg
    out = EndoOperator.zero(alg, 1)
    for (word,), coeff in x.terms.items():
        img = EndoOperator.identity(alg, 1)
        for g in word:
            img = img * eval_rep_gen(alg, g, z)
        out = out + img.scale(coeff)
    return out


_MULTI_GEN_CACHE: dict = {}


def multi_eval_rep_gen(alg: Algebra, g: GenIndex, points: tuple) -> EndoOperator:
    """Image of a generator under the n-point representation (iterated
    coproduct followed by legwise one-point evaluation)."""
    from .morphisms import coproduct_at_leg

    key = (alg.m, alg.n, g, points)
    cached = _MULTI_GEN_CACHE.get(key)
    if cached is not None:
        return cached
    n = len(points)
    x = alg.gen(*g)
    for leg in range(1, n):
        x = coproduct_at_leg(x, leg)
    # x now has n legs (iterated coproduct of a single generator)
    out = EndoOperator.zero(alg, n)
    for mon, coeff in x.terms.items():
        factors = []
        for h in range(n):
            img = EndoOperator.identity(alg, 1)
            for gen in mon[h]:
                img = img * eval_rep_gen(alg, gen, points[h])
            factors.append(img)
        out = out + tensor(factors).scale(coeff)
    _MULTI_GEN_CACHE[key] = out
    return out


def multi_eval_rep(x: Element, points) -> EndoOperator:
    """The n-point evaluation representation on a 1-leg element."""
    if x.legs != 1:
        raise ValueError("multi_eval_rep acts on 1-leg elements")
    alg = x.alg
    points = tuple(Fraction(z) for z in points)
    n = len(points)
    if n == 1:
        return eval_rep(x, points[0])
    out = EndoOperator.zero(alg, n)
    for (word,), coeff in x.terms.items():
        img = EndoOperator.identity(alg, n)
        for g in word:
            img = img * multi_eval_rep_gen(alg, g, points)
        out = out + img.scale(coeff)
    return out


def rmatrix_route_images(alg: Algebra, points, r_max: int) -> dict:
    """Generator images read off the R-matrix product

        T(u) -> R_12(u - z_1) ... R_(1,n+1)(u - z_n)

    on the auxiliary-plus-n-legs space: expand in u^-1 and group the
    abstract coefficients by the auxiliary (first) leg."""
    points = tuple(Fraction(z) for z in points)
    n = len(points)
    total = n + 1
    ring = operator_ring(alg, total)
    prod = SeriesTail.one(ring, r_max)
    p = perm_p(alg)
    for h, z in enumerate(points, start=2):
        coeffs = [ring.one]
        p_embedded = embed(p, (1, h), total)
        # R(u - z) = 1 - P sum_k z^k u^-(k+1)
        for r in range(1, r_max + 1):
            coeffs.append(p_embedded.scale(-(z ** (r - 1))))
        prod = prod * SeriesTail(ring, r_max, coeffs)
    images: dict = {}
    for r in range(1, r_max + 1):
        op = prod.coefficient(r)
        grouped: dict = {}
        for (rows, cols), coeff in op.to_abstract().items():
            aux = (rows[0], cols[0])
            grouped.setdefault(aux, {})[(rows[1:], cols[1:])] = (
                grouped.get(aux, {}).get((rows[1:], cols[1:]), ZERO) + coeff
            )
        for (i, j), abstract in grouped.items():
            images[GenIndex(i, j, r)] = EndoOperator.from_abstract(alg, n, abstract)
    for i in range(1, alg.dim + 1):
        for j in range(1, alg.dim + 1):
            for r in range(1, r_max + 1):
                images.setdefault(GenIndex(i, j, r), EndoOperator.zero(alg, n))
    return images


# ---------------------------------------------------------------------------
# operator dump format
# ---------------------------------------------------------------------------


def dump_operator(op: EndoOperator) -> str:
    from .series import rational_to_text

    lines = [f"{op.alg.m} {op.alg.n} {op.legs}"]
    for (rows, cols) in sorted(op.entries):
        value = op.entries[(rows, cols)]
        lines.append(
            f"{','.join(map(str, rows))} {','.join(map(str, cols))} "
            f"{rational_to_text(value)}"
        )
    return "\n".join(lines) + "\n"


def parse_operator_dump(text: str) -> EndoOperator:
    from .series import rational_from_text

    lines = [ln for ln in text.splitlines() if ln.strip()]
    m, n, legs = (int(x) for x in lines[0].split())
    alg = algebra(m, n)
    entries = {}
    for ln in lines[1:]:
        row_s, col_s, val_s = ln.split()
        rows = tuple(int(x) for x in row_s.split(","))
        cols = tuple(int(x) for x in col_s.split(","))
        entries[(rows, cols)] = rational_from_text(val_s)
    return EndoOperator(alg, legs, entries)
