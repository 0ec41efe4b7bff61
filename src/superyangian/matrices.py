"""The generating matrix T(u), its inverse, and the one recursion that
grows T(u)^-1 and S^2(T(u)).

T(u) = sum E_ij (x) T_ij(u) and every matrix derived from it are entry
dicts {(i, j): SeriesTail} of series in u with Element coefficients.
The product of two such matrices carries the super sign

    (A B)_il = sum_k A_ik B_kl (-1)^((ibar+kbar)(kbar+lbar))

that the tensor-product sign convention dictates once matrix units are
given the degree ibar+jbar; `mixed.MixedOp` implements it on any number
of legs, for the fusion check.

The algebra keeps T(u)^-1 (`alg.tinv`) and S^2(T(u)) (`alg.s2`, see
`central.antipode_square_series`) as coefficient lists
{(i, l): [X^(0), X^(1), ...]} at the highest order asked for, each
grown by `grow` from the order it has, and callers read them as
SeriesTail truncations (`truncations`).  T(u)^-1 is solved coefficient
by coefficient from T(u) T(u)^-1 = 1, not through operator products,
so the product above stays an independent check of it.
"""

from __future__ import annotations

from .algebra import Algebra
from .series import SeriesTail


def gen_series(alg: Algebra, i: int, j: int, order: int) -> SeriesTail:
    """T_ij(u) = delta_ij + sum_r T[i,j,r] u^-r to order u^-order."""
    coeffs = [alg.one(1) if i == j else alg.zero(1)]
    coeffs += [alg.gen(i, j, r) for r in range(1, order + 1)]
    return SeriesTail(alg, order, coeffs)


def t_matrix(alg: Algebra, order: int) -> dict:
    """T(u) as {(i, j): T_ij(u)}."""
    dims = range(1, alg.dim + 1)
    return {(i, j): gen_series(alg, i, j, order) for i in dims for j in dims}


def transpose_sign(alg: Algebra, i: int, j: int) -> int:
    """(-1)^(jbar(ibar+1)), the sign of the super transposition
    T_ij(u) -> T_ji(u)."""
    return -1 if alg.parities[j] and not alg.parities[i] else 1


def hatted_entry(alg: Algebra, tinv: dict, i: int, j: int) -> SeriesTail:
    """That_ij(u) = Ttilde_ji(u) (-1)^(jbar(ibar+1)): the entry tau picks
    out of T(u)^-1 {(i, j): Ttilde_ij(u)}, and the image of T_ij(u)
    under omega."""
    series = tinv[j, i]
    return series if transpose_sign(alg, i, j) > 0 else series.scale(-1)


def grow(alg: Algebra, kept: dict | None, order: int, term) -> dict:
    """The coefficient lists {(i, l): [X^(0), .., X^(order)]} of the
    matrix series X(u) with X^(0) = 1 and

        X^(r)_il = sum_(s=1..r) sum_k term(i, k, l, s, X^(r-s)_kl),

    each term a (coefficient, a, b) triple of `Algebra.product_sum`.
    `kept`, lists of an earlier call with the same `term` or None, is
    extended in place from the order it has, keeping its coefficients
    (coefficient r reads only lower ones), and returned.  Each missing
    coefficient is one `product_sum` per entry, its product words kept
    out of the normal-form memo (`store=False`), as the lists keep the
    sums."""
    dims = range(1, alg.dim + 1)
    if kept is None:
        one, zero = alg.one(1), alg.zero(1)
        kept = {(i, l): [one if i == l else zero] for i in dims for l in dims}
    for r in range(len(kept[1, 1]), order + 1):
        for i in dims:
            for l in dims:
                kept[i, l].append(alg.product_sum(
                    (term(i, k, l, s, kept[k, l][r - s]) for s in range(1, r + 1) for k in dims),
                    store=False,
                ))
    return kept


def truncations(alg: Algebra, kept: dict, order: int) -> dict:
    """{(i, l): SeriesTail} to order u^-order, read from coefficient
    lists of at least that order; the coefficients are the kept
    objects."""
    return {key: SeriesTail(alg, order, c[:order + 1]) for key, c in kept.items()}


def inverse_coefficients(alg: Algebra, order: int) -> dict:
    """The algebra's T(u)^-1 as coefficient lists, grown to at least
    order u^-order from the u^-r coefficient of T(u) T(u)^-1 = 1,
    solved for its highest term:

        Ttilde^(r)_il = - sum_(s=1..r) sum_k T[i,k,s] Ttilde^(r-s)_kl
                          (-1)^((ibar+kbar)(kbar+lbar)),   Ttilde^(0) = 1.

    Coefficient r reads only T^(1) .. T^(r), so a lower order is an
    exact truncation of the kept lists."""
    par = alg.parities
    # the minus sign of the recursion folded into the super sign
    alg.tinv = grow(alg, alg.tinv, order, lambda i, k, l, s, x: (
        1 if (par[i] + par[k]) * (par[k] + par[l]) % 2 else -1, alg.gen(i, k, s), x))
    return alg.tinv


def t_inverse(alg: Algebra, order: int) -> dict:
    """T(u)^-1 to order u^-order as {(i, l): Ttilde_il(u)}."""
    return truncations(alg, inverse_coefficients(alg, order), order)
