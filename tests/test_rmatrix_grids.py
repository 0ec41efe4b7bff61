"""The work the R-matrix identity checks do and the certificate they name.

These checks once evaluated their identities on grids of points or at
random samples; each is now an identity over Z[u, v], checked one
coefficient of u^a v^b at a time.  Each side is a product of operator
polynomials, sums of u^a v^b (s + X) with s an integer times the
identity and X an integer operator.  Work is counted in operations,
never timed: the `EndoOperator` products and the cleared factors that
`yang_baxter_check` and `rep_rtt_check` build on a fresh algebra, where
no operand of a product has a `Poly` entry and the number of products
does not depend on the dimension.  `rep_rtt_check` keeps its factors per
algebra: a second call builds none, and a fresh algebra with a broken P
still fails.

The coefficient form is pinned against the form it replaced: each side,
summed back into one operator with `Poly` entries, is the product of the
cleared factors with `Poly` entries, and the residual is their
difference, on gl(1|1), gl(2|1) and gl(1|2), clean and with a broken P
or Q.
"""

import pytest

from defects import DEFECTS, fresh_algebra
from helpers import poly_cleared
from superyangian import tensor_checks
from superyangian.algebra import algebra
from superyangian.series import VARIABLES, Poly
from superyangian.tensor_checks import (
    q_identity_check,
    rep_rtt_check,
    unitarity_check,
    yang_baxter_check,
)
from superyangian.tensors import EndoOperator, dump_operator, placed

U, V = map(Poly.var, VARIABLES)

RTT_POINTS = (0, 1, 5)  # z_h on the point legs h = 3, 4, 5


def count_work(monkeypatch, m: int, n: int) -> tuple[list, list]:
    """On a fresh gl(m|n): the entry types of the two operands of every
    operator product, and every (c, name, legs_at) the checks pass to
    `_cleared`, in call order."""
    fresh_algebra(monkeypatch, m, n)
    products, factors = [], []
    mul = EndoOperator.__mul__
    cleared = tensor_checks._cleared

    def counting(self, other):
        products.append({type(v) for op in (self, other) for v in op.entries.values()})
        return mul(self, other)

    def recording(alg, c, name, legs_at, total):
        factors.append((c, name, legs_at))
        return cleared(alg, c, name, legs_at, total)

    monkeypatch.setattr(EndoOperator, "__mul__", counting)
    monkeypatch.setattr(tensor_checks, "_cleared", recording)
    return products, factors


def rtt_products(k: int) -> int:
    """The operator products of the two sides of RTT at k points: T_1 T_2
    and T_2 T_1 multiply the k X parts of each factor pairwise, then R_12
    multiplies each of the (k + 1)^2 - 1 X parts of those."""
    return 2 * k**2 + 2 * ((k + 1) ** 2 - 1)


def test_yang_baxter_makes_eight_products_of_integer_operators(monkeypatch):
    products, factors = count_work(monkeypatch, 2, 1)
    assert not yang_baxter_check(2, 1).failures
    # per side: one product of the X parts of the first two factors, then
    # one for each of the three X parts of that (at 1, u and v) with the third
    assert len(products) == 8
    assert set().union(*products) == {int}
    assert factors == [(U - V, "P", (1, 2)), (U, "P", (1, 3)), (V, "P", (2, 3))]


@pytest.mark.parametrize("m, n, n_points", [(1, 1, 1), (1, 1, 2), (1, 1, 3), (2, 1, 2), (2, 1, 3)])
def test_rep_rtt_makes_a_fixed_number_of_integer_products(monkeypatch, m, n, n_points):
    products, factors = count_work(monkeypatch, m, n)
    assert not rep_rtt_check(m, n, n_points).failures
    # T_1(u) and T_2(v) take 1 + ... + (n_points - 1) products each
    assert len(products) == n_points * (n_points - 1) + rtt_products(n_points)
    assert set().union(*products) == {int}
    legs = list(zip((3, 4, 5), RTT_POINTS))[:n_points]  # (leg h, point z_h)
    assert factors == (
        [(U - V, "P", (1, 2))]
        + [(U - z, "P", (1, h)) for h, z in legs]
        + [(V - z, "P", (2, h)) for h, z in legs]
    )


def test_a_second_rtt_check_builds_no_factor(monkeypatch):
    products, factors = count_work(monkeypatch, 2, 1)
    first = rep_rtt_check(2, 1, 2)
    assert not first.failures and len(factors) == 5
    products.clear()
    factors.clear()
    second = rep_rtt_check(2, 1, 2)
    assert second.info == first.info and factors == []
    assert len(products) == rtt_products(2)  # the two sides alone


def test_a_broken_p_on_a_fresh_algebra_fails_rtt(monkeypatch):
    """The factors are kept per algebra: those of the shared gl(2|1) do
    not reach a fresh one with a broken P."""
    assert not rep_rtt_check(2, 1, 2).failures
    DEFECTS["p-sign"](monkeypatch, [(2, 1)])
    assert rep_rtt_check(2, 1, 2).failures


CHECKS = {
    "yang-baxter": (lambda: yang_baxter_check(1, 1), ["u", "v"]),
    "unitarity": (lambda: unitarity_check(1, 1), ["u"]),
    "q-identity": (lambda: q_identity_check(1, 1), ["u"]),
    "rep-rtt": (lambda: rep_rtt_check(1, 1), ["u", "v"]),
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_verified_names_the_identity_certificate(name):
    check, variables = CHECKS[name]
    info = check().info
    assert info["certificate"] == "identity"
    assert info["variables"] == variables
    assert not {"grid", "degree_bound_per_variable", "samples", "seed"} & set(info)


def assembled(side) -> EndoOperator:
    """The sum of u^a v^b (s + X) over the terms of an operator
    polynomial, as one operator with `Poly` entries."""
    one = side.one
    out: dict = {}
    for e, (s, x) in side.terms.items():
        monomial = Poly({e: 1})
        for c, op in [(s, one)] + ([(1, x)] if x is not None else []):
            for key, v in op.entries.items():
                out[key] = out.get(key, 0) + monomial * (c * v)
    return EndoOperator(one.alg, one.legs, out)


def rtt_reference(alg, n_points: int) -> tuple[EndoOperator, EndoOperator]:
    total = n_points + 2

    def t_leg(aux, x):
        out = placed(alg, "1", (), total)
        for h, z in enumerate(RTT_POINTS[:n_points], start=3):
            out = out * poly_cleared(alg, x - z, "P", (aux, h), total)
        return out

    r12, t1, t2 = poly_cleared(alg, U - V, "P", (1, 2), total), t_leg(1, U), t_leg(2, V)
    return r12 * t1 * t2, t2 * t1 * r12


def reference_sides(identity: str, alg) -> tuple[EndoOperator, EndoOperator]:
    """The two sides of an identity, each one product of cleared factors
    with `Poly` entries."""
    if identity == "yang-baxter":
        r12 = poly_cleared(alg, U - V, "P", (1, 2), 3)
        r13 = poly_cleared(alg, U, "P", (1, 3), 3)
        r23 = poly_cleared(alg, V, "P", (2, 3), 3)
        return r12 * r13 * r23, r23 * r13 * r12
    if identity == "unitarity":
        lhs = poly_cleared(alg, -U, "P", (1, 2), 2) * poly_cleared(alg, U, "P", (1, 2), 2)
        return lhs, EndoOperator(alg, 2, dict.fromkeys(placed(alg, "1", (), 2).entries, 1 - U * U))
    if identity == "QR":
        q23 = placed(alg, "Q", (2, 3), 3)
        lhs = q23 * poly_cleared(alg, U, "Q", (1, 3), 3) * poly_cleared(alg, U, "P", (1, 2), 3)
        return lhs, EndoOperator(alg, 3, {k: v * (U * U - 1) for k, v in q23.entries.items()})
    return rtt_reference(alg, int(identity[-1]))


# identity -> (the claim its check reports, the check)
IDENTITIES = {
    "yang-baxter": ("yang-baxter", yang_baxter_check),
    "unitarity": ("unitarity", unitarity_check),
    "QR": ("QR", q_identity_check),
    "RTT-1": ("RTT", lambda m, n: rep_rtt_check(m, n, 1)),
    "RTT-2": ("RTT", lambda m, n: rep_rtt_check(m, n, 2)),
}


@pytest.mark.parametrize("defect", [None, "p", "q"])
@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2)])
@pytest.mark.parametrize("identity", list(IDENTITIES))
def test_coefficient_sides_sum_to_the_poly_entry_products(monkeypatch, identity, m, n, defect):
    if defect is None:
        fresh_algebra(monkeypatch, m, n)
    else:
        DEFECTS[f"{defect}-doubled"](monkeypatch, [(m, n)])
    seen = {}
    identity_failures = tensor_checks._identity_failures

    def capturing(name, lhs, rhs):
        seen[name] = (lhs, rhs)
        return identity_failures(name, lhs, rhs)

    monkeypatch.setattr(tensor_checks, "_identity_failures", capturing)
    claim, check = IDENTITIES[identity]
    check(m, n)
    (f, g), (h, k) = seen[claim]
    want_lhs, want_rhs = reference_sides(identity, algebra(m, n))
    assert assembled(f * g) == want_lhs
    assert assembled(h * k) == want_rhs
    residual = want_lhs - want_rhs
    want = [] if residual.is_zero() else [dump_operator(residual)]
    assert [x["residual"] for x in identity_failures(claim, (f, g), (h, k))] == want
