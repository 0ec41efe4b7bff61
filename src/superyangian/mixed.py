"""Mixed objects: operators on (C^(M|N))^(x legs) with Yangian entries.

An element of (End C^(M|N))^(x legs) (x) Y is stored as a sparse matrix
over multi-indices whose entries are series with Element coefficients.
With the operator-leg Koszul signs baked into the entries (same baking
rule as EndoOperator), the product carries the residual super sign

    (A B)[I,L] = sum_J A[I,J] B[J,L] (-1)^((|I|+|J|)(|J|+|L|))

where |I| is the parity of a multi-index and each entry is
parity-homogeneous of degree |I|+|J|.  This is the arena for the matrix
form of the defining relations, the single-relation form of the inverse
identity, and the fusion commutation of symmetrized T-products.
"""

from __future__ import annotations

from itertools import product as iproduct

from .algebra import Algebra, algebra
from .checkresult import CheckResult, failure
from .grammar import element_to_text
from .matrices import element_ring, hatted_entry
from .series import BiSeries, Ring, SeriesTail
from .central import tower
from .tensors import EndoOperator, bake_sign, perm_p, q_op, symmetrizers_direct


class MixedOp:
    """Sparse matrix over multi-indices with ring-element entries.

    Entries may be SeriesTail<Element>, BiSeries<Element> or plain
    Element values; the entry ring is whatever `ring` says.  Parities of
    entries are determined by their index pair (entries must be
    parity-homogeneous of that degree, which all constructors here
    guarantee)."""

    __slots__ = ("alg", "legs", "ring", "entries")

    def __init__(self, alg: Algebra, legs: int, ring: Ring, entries: dict):
        self.alg = alg
        self.legs = legs
        self.ring = ring
        self.entries = entries

    def _parity(self, idx) -> int:
        return sum(self.alg.index_parity(i) for i in idx) & 1

    def __add__(self, other: "MixedOp") -> "MixedOp":
        out = dict(self.entries)
        for k, v in other.entries.items():
            if k in out:
                out[k] = out[k] + v
            else:
                out[k] = v
        return MixedOp(self.alg, self.legs, self.ring, out)

    def __sub__(self, other: "MixedOp") -> "MixedOp":
        out = dict(self.entries)
        for k, v in other.entries.items():
            if k in out:
                out[k] = out[k] - v
            else:
                out[k] = _ring_scale(v, -1)
        return MixedOp(self.alg, self.legs, self.ring, out)

    def __mul__(self, other: "MixedOp") -> "MixedOp":
        by_row: dict = {}
        for (row, col), v in other.entries.items():
            by_row.setdefault(row, []).append((col, v))
        out: dict = {}
        for (row, mid), a in self.entries.items():
            pa = (self._parity(row) + self._parity(mid)) & 1
            for col, b in by_row.get(mid, ()):
                pb = (self._parity(mid) + self._parity(col)) & 1
                term = a * b
                if pa and pb:
                    term = _ring_scale(term, -1)
                key = (row, col)
                if key in out:
                    out[key] = out[key] + term
                else:
                    out[key] = term
        return MixedOp(self.alg, self.legs, self.ring, out)

    def entry(self, row, col):
        got = self.entries.get((row, col))
        return got if got is not None else self.ring.zero

    def difference_entries(self, other: "MixedOp"):
        keys = set(self.entries) | set(other.entries)
        for key in sorted(keys):
            diff = self.entry(*key) - other.entry(*key)
            if not diff.is_zero():
                yield key, diff

    def equals(self, other: "MixedOp") -> bool:
        return next(self.difference_entries(other), None) is None


def _ring_scale(value, scalar):
    if isinstance(value, (SeriesTail, BiSeries)):
        return value.scale(scalar)
    return value * scalar


# ---------------------------------------------------------------------------
# T(u) legs as mixed matrices
# ---------------------------------------------------------------------------


def _leg_entries(m: int, n: int, order: int, hatted: bool) -> dict:
    """{(i, j): T_ij(u)}, or with `hatted` {(i, j): That_ij(u)}, the
    series read from the algebra's T(u) and T(u)^-1."""
    tw = tower(m, n, order)
    dims = range(1, tw.alg.dim + 1)
    return {
        (i, j): hatted_entry(tw.alg, tw.tinv, i, j) if hatted else tw.t.entry(i, j)
        for i in dims
        for j in dims
    }


def _on_leg(alg: Algebra, legs: int, leg: int, entries: dict) -> dict:
    """Place single-leg entries {(i, j): value} on operator leg `leg` of
    `legs`, identity on the others, with the baked Koszul sign."""
    out: dict = {}
    for (i, j), value in entries.items():
        for others in iproduct(range(1, alg.dim + 1), repeat=legs - 1):
            rows = others[: leg - 1] + (i,) + others[leg - 1:]
            cols = others[: leg - 1] + (j,) + others[leg - 1:]
            out[(rows, cols)] = value if bake_sign(alg, rows, cols) > 0 else value.scale(-1)
    return out


def t_leg_series(m: int, n: int, legs: int, leg: int, order: int, shift: int = 0,
                 hatted: bool = False) -> MixedOp:
    """T_leg(u + shift) (or its hatted variant, built from the entries
    tau picks out of the inverse matrix) as a mixed matrix with
    SeriesTail<Element> entries on `legs` operator legs."""
    alg = algebra(m, n)
    entries = _leg_entries(m, n, order, hatted)
    if shift:
        entries = {key: series.shift(shift) for key, series in entries.items()}
    return MixedOp(alg, legs, _series_ring(alg, order), _on_leg(alg, legs, leg, entries))


def _series_ring(alg: Algebra, order: int) -> Ring:
    ring = element_ring(alg)
    return Ring(
        SeriesTail.zero(ring, order),
        SeriesTail.one(ring, order),
        f"SeriesTail(Element, D={order})",
    )


def constant_mixed(op: EndoOperator, order: int) -> MixedOp:
    alg = op.alg
    ring = _series_ring(alg, order)
    entries = {}
    for key, value in op.entries.items():
        entries[key] = ring.one.scale(value)
    return MixedOp(alg, op.legs, ring, entries)


def qtt_identity_check(m: int, n: int, order: int = 3) -> CheckResult:
    """(Q (x) 1) That_2(u) T_1(u) = Q (x) 1: the single-relation form of
    the left-inverse identity."""
    alg = algebra(m, n)
    q = q_op(alg)
    qm = constant_mixed(q, order)
    that2 = t_leg_series(m, n, 2, 2, order, hatted=True)
    t1 = t_leg_series(m, n, 2, 1, order)
    lhs = qm * that2 * t1
    failures = []
    for key, diff in lhs.difference_entries(qm):
        failures.append(failure({"entry": [list(key[0]), list(key[1])]},
                                _series_residual(diff)))
        if len(failures) >= 5:
            break
    return CheckResult(not failures, {"order": order}, failures)


def qresi_identity_check(m: int, n: int, order: int = 3) -> CheckResult:
    """(Q (x) 1) T_1(u+M-N) That_2(u) = That_2(u) T_1(u+M-N) (Q (x) 1):
    the residue identity whose one-dimensional image produces Z(u)."""
    alg = algebra(m, n)
    q = q_op(alg)
    qm = constant_mixed(q, order)
    t1 = t_leg_series(m, n, 2, 1, order, shift=m - n)
    that2 = t_leg_series(m, n, 2, 2, order, hatted=True)
    lhs = qm * t1 * that2
    rhs = that2 * t1 * qm
    failures = []
    for key, diff in lhs.difference_entries(rhs):
        failures.append(failure({"entry": [list(key[0]), list(key[1])]},
                                _series_residual(diff)))
        if len(failures) >= 5:
            break
    return CheckResult(not failures, {"order": order}, failures)


def _series_residual(diff) -> str:
    if isinstance(diff, SeriesTail):
        for r in range(diff.order + 1):
            c = diff.coefficient(r)
            if not c.is_zero():
                return f"u^-{r}: " + element_to_text(c)
    if isinstance(diff, BiSeries):
        for (r, s), c in sorted(diff.coeffs.items()):
            if not c.is_zero():
                return f"u^-{r} v^-{s}: " + element_to_text(c)
    return element_to_text(diff) if hasattr(diff, "terms") else str(diff)


# ---------------------------------------------------------------------------
# two-variable mixed relation
# ---------------------------------------------------------------------------


def _bi_ring(alg: Algebra, du: int, dv: int) -> Ring:
    ring = element_ring(alg)
    return Ring(
        BiSeries(ring, du, dv, {}),
        BiSeries(ring, du, dv, {(0, 0): alg.one(1)}),
        f"BiSeries(Element, {du},{dv})",
    )


def t_leg_biseries(m: int, n: int, legs: int, leg: int, du: int, dv: int,
                   variable: str, hatted: bool = False) -> MixedOp:
    """T_leg as a mixed matrix with BiSeries entries in u or in v."""
    alg = algebra(m, n)
    ring = element_ring(alg)
    entries = {}
    for key, series in _leg_entries(m, n, max(du, dv), hatted).items():
        if variable == "u":
            entries[key] = BiSeries.in_u(ring, du, dv, series.coeffs[: du + 1])
        else:
            entries[key] = BiSeries.in_v(ring, du, dv, series.coeffs[: dv + 1])
    return MixedOp(alg, legs, _bi_ring(alg, du, dv), _on_leg(alg, legs, leg, entries))


def trater_identity_check(m: int, n: int, order: int = 3) -> CheckResult:
    """((u-v-M+N) + Q (x) 1) T_1(u) That_2(v)
        = That_2(v) T_1(u) ((u-v-M+N) + Q (x) 1)

    (the mixed exchange relation with its single pole cleared), checked
    as a BiSeries identity to the stated order in each variable."""
    alg = algebra(m, n)
    du = dv = order + 1
    c = m - n
    t1 = t_leg_biseries(m, n, 2, 1, du, dv, "u")
    that2 = t_leg_biseries(m, n, 2, 2, du, dv, "v", hatted=True)
    q = q_op(alg)
    ring_full = _bi_ring(alg, du, dv)
    qm = MixedOp(
        alg, 2, ring_full,
        {k: ring_full.one.scale(v) for k, v in q.entries.items()},
    )
    prod_l = t1 * that2
    prod_r = that2 * t1
    q_l = qm * prod_l
    q_r = prod_r * qm
    ring_small = _bi_ring(alg, du - 1, dv - 1)

    def shrink(bis: BiSeries) -> BiSeries:
        return BiSeries(bis.ring, du - 1, dv - 1, bis.coeffs)

    def assemble(poly_part: MixedOp, q_part: MixedOp) -> MixedOp:
        # entrywise (u - v - c) * poly_part, plus the Q matrix factor
        entries = {}
        for key in set(poly_part.entries) | set(q_part.entries):
            val = None
            a = poly_part.entries.get(key)
            if a is not None:
                val = a.times_u_minus_v() + shrink(a.scale(-c))
            b = q_part.entries.get(key)
            if b is not None:
                val = shrink(b) if val is None else val + shrink(b)
            entries[key] = val
        return MixedOp(alg, 2, ring_small, entries)

    lhs = assemble(prod_l, q_l)
    rhs = assemble(prod_r, q_r)
    failures = []
    for key, diff in lhs.difference_entries(rhs):
        failures.append(failure({"entry": [list(key[0]), list(key[1])]},
                                _series_residual(diff)))
        if len(failures) >= 5:
            break
    return CheckResult(
        not failures,
        {"orders": [du - 1, dv - 1], "pole_cleared": "u-v-(M-N)"},
        failures,
    )


# ---------------------------------------------------------------------------
# fusion commutation
# ---------------------------------------------------------------------------


def fusion_commutation_check(m: int, n: int, legs: int = 2, order: int = 3) -> CheckResult:
    """(G (x) 1) T_1(u) ... T_n(u-n+1) = T_n(u-n+1) ... T_1(u) (G (x) 1)
    and the symmetrizer twin with hatted legs and shifts u, .., u+n-1."""
    if m + n > 2 or legs > 3:
        raise ValueError("guard: fusion check is limited to M+N <= 2, legs <= 3")
    alg = algebra(m, n)
    g, h = symmetrizers_direct(alg, legs)
    failures = []
    for name, op, hatted, direction in (
        ("antisymmetrizer", g, False, -1),
        ("symmetrizer", h, True, +1),
    ):
        mats = [
            t_leg_series(m, n, legs, p, order, shift=direction * (p - 1), hatted=hatted)
            for p in range(1, legs + 1)
        ]
        om = constant_mixed(op, order)
        lhs = om
        for mat in mats:
            lhs = lhs * mat
        rhs_chain = None
        for mat in reversed(mats):
            rhs_chain = mat if rhs_chain is None else rhs_chain * mat
        rhs = rhs_chain * om
        for key, diff in lhs.difference_entries(rhs):
            failures.append(failure({"version": name,
                                     "entry": [list(key[0]), list(key[1])]},
                                    _series_residual(diff)))
            if len(failures) >= 5:
                break
    return CheckResult(not failures, {"legs": legs, "order": order}, failures)
