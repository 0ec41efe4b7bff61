"""The work the R-matrix identity checks do and the certificate they name.

These checks once evaluated their identities on grids of points or at
random samples; each is now one product per side over Z[u, v].  Work
is counted in operations, never timed: the `EndoOperator` products and
the cleared factors `yang_baxter_check` and `rep_rtt_check` build on a
fresh algebra.  `rep_rtt_check` keeps its factors per algebra: a second
call builds none, and a fresh algebra with a broken P still fails.
"""

import pytest

from superyangian import tensor_checks, tensors
from superyangian.algebra import _ALGEBRAS, Algebra
from superyangian.series import VARIABLES, Poly
from superyangian.tensor_checks import (
    q_identity_check,
    rep_rtt_check,
    unitarity_check,
    yang_baxter_check,
)
from superyangian.tensors import EndoOperator

U, V = map(Poly.var, VARIABLES)


def count_work(monkeypatch, m: int, n: int) -> tuple[list, list]:
    """On a fresh gl(m|n): every operator product, and every (c, legs_at)
    the checks pass to `r_cleared`, in call order."""
    monkeypatch.setitem(_ALGEBRAS, (m, n), Algebra(m, n))
    products, factors = [], []
    mul = EndoOperator.__mul__
    r_cleared = tensor_checks.r_cleared

    def counting(self, other):
        products.append(1)
        return mul(self, other)

    def recording(alg, c, legs_at=(1, 2), total=2):
        factors.append((c, legs_at))
        return r_cleared(alg, c, legs_at, total)

    monkeypatch.setattr(EndoOperator, "__mul__", counting)
    monkeypatch.setattr(tensor_checks, "r_cleared", recording)
    return products, factors


def test_yang_baxter_makes_four_products_of_three_cleared_factors(monkeypatch):
    products, factors = count_work(monkeypatch, 2, 1)
    assert yang_baxter_check(2, 1).ok
    assert len(products) == 4
    assert factors == [(U - V, (1, 2)), (U, (1, 3)), (V, (2, 3))]


@pytest.mark.parametrize("m, n, n_points", [(1, 1, 1), (1, 1, 2), (1, 1, 3), (2, 1, 2), (2, 1, 3)])
def test_rep_rtt_makes_a_fixed_number_of_products(monkeypatch, m, n, n_points):
    products, factors = count_work(monkeypatch, m, n)
    assert rep_rtt_check(m, n, n_points).ok
    # T_1(u) and T_2(v) take n_points - 1 products each, and each side 2
    # more per block of rows, one block per index pair on legs 1 and 2
    assert len(products) == 2 * (n_points - 1) + 4 * (m + n) ** 2
    legs = list(zip((3, 4, 5), (0, 1, 5)))[:n_points]  # (leg h, point z_h)
    assert factors == (
        [(U - V, (1, 2))] + [(U - z, (1, h)) for h, z in legs] + [(V - z, (2, h)) for h, z in legs]
    )


def test_a_second_rtt_check_builds_no_cleared_factor(monkeypatch):
    products, factors = count_work(monkeypatch, 2, 1)
    first = rep_rtt_check(2, 1, 2)
    assert first.ok and len(factors) == 5
    products.clear()
    factors.clear()
    second = rep_rtt_check(2, 1, 2)
    assert second.info == first.info and factors == []
    assert len(products) == 4 * 3 ** 2  # the two sides' blocks alone


def test_a_broken_p_on_a_fresh_algebra_fails_rtt(monkeypatch):
    """The factors are kept per algebra: those of the shared gl(2|1) do
    not reach a fresh one with a broken P."""
    assert rep_rtt_check(2, 1, 2).ok

    def broken_perm_p(alg):
        entries = dict(tensors.perm_p(alg).entries)
        entries[(1, 2), (2, 1)] = -entries[(1, 2), (2, 1)]
        return EndoOperator(alg, 2, entries)

    monkeypatch.setitem(_ALGEBRAS, (2, 1), Algebra(2, 1))
    monkeypatch.setitem(tensors._ELEMENTARY, "P", broken_perm_p)
    assert not rep_rtt_check(2, 1, 2).ok


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
