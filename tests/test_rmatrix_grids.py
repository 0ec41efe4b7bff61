"""The work the R-matrix grid checks do and the points they use.

Work is counted in operations, never timed: the products and cleared
factors `yang_baxter_check` builds on a fresh algebra, and the (u, v)
`rep_rtt_check` draws.
"""

from fractions import Fraction

import pytest

from superyangian import tensor_checks
from superyangian.algebra import _ALGEBRAS, Algebra
from superyangian.tensor_checks import rep_rtt_check, yang_baxter_check
from superyangian.tensors import EndoOperator


def record_r_cleared(monkeypatch) -> list:
    """Every (c, legs_at) the checks pass to `r_cleared`, in call order."""
    calls = []
    r_cleared = tensor_checks.r_cleared

    def recording(alg, c, legs_at=(1, 2), total=2):
        calls.append((c, legs_at))
        return r_cleared(alg, c, legs_at, total)

    monkeypatch.setattr(tensor_checks, "r_cleared", recording)
    return calls


def test_yang_baxter_evaluates_each_difference_triple_once(monkeypatch):
    monkeypatch.setitem(_ALGEBRAS, (2, 1), Algebra(2, 1))
    calls = record_r_cleared(monkeypatch)
    products = []
    mul = EndoOperator.__mul__

    def counting(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(EndoOperator, "__mul__", counting)
    assert yang_baxter_check(2, 1).ok
    # 37 distinct (u-v, u-w, v-w) on the 64 points, 4 products each;
    # 7 values of each difference, one cleared factor each
    assert len(products) == 4 * 37
    assert len(calls) == 21 == len(set(calls))


def test_yang_baxter_grid_is_a_certificate():
    info = yang_baxter_check(1, 1).info
    bound = info["degree_bound_per_variable"]
    assert bound == 2
    assert len(info["grid"]) == 3
    for grid in info["grid"]:
        assert len(set(grid)) == len(grid) > bound + 1


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1)])
def test_rep_rtt_at_three_points_draws_around_the_poles(m, n):
    # the default seed draws u = 14/3, v = 5 at trial 4, and 5 is a pole
    assert rep_rtt_check(m, n, 3, samples=5).ok


def test_rep_rtt_draws_at_two_points_are_unchanged(monkeypatch):
    calls = record_r_cleared(monkeypatch)
    assert rep_rtt_check(1, 1, 2).ok
    # with z = 0 on leg 3, the factor on legs (1, 3) is at u, on (2, 3) at v
    us = [c for c, legs_at in calls if legs_at == (1, 3)]
    vs = [c for c, legs_at in calls if legs_at == (2, 3)]
    assert us == [Fraction(x) for x in (
        "26/3", "28/3", "37/3", "15/2", "14/3", "26/3", "38/3", "13", "18", "30")]
    assert vs == [Fraction(x) for x in (
        "34/3", "34/3", "49/3", "10", "5", "61/6", "41/3", "15", "20", "94/3")]
