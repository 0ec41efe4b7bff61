"""The Q-identity battery, the symmetrizer agreement check and the
fusion check: the operators they take from `placed`, and the work they
do.  G and H on k legs come from one `symmetrizers_direct` call per
algebra and k, shared by all three.

Each placed projector chain or symmetrizer must equal what the checks
built per call before: a chain as the product of single-leg embeds
starting from the identity, a symmetrizer as the embedded
`symmetrizers_direct` operator.  The two product identities of the
battery are checked times M N over Z; a residual divided back by M N
must be the lhs - rhs of the identity with its 1/M and 1/N factors.
"""

from fractions import Fraction
from math import factorial

import pytest

from defects import DEFECTS, fresh_algebra, q_doubled
from superyangian import tensors
from superyangian.algebra import algebra
from superyangian.mixed import fusion_commutation_check
from superyangian.tensor_checks import q_identity_check, symmetrizer_agreement_check
from superyangian.tensors import (
    EndoOperator,
    dump_operator,
    embed,
    perm_p,
    projectors_ij,
    symmetrizers_direct,
)

PAIRS = [(1, 1), (2, 1), (1, 2)]
PRODUCT_CLAIMS = ("projected-Q product", "symmetrized-Q product")


def chain_of_embeds(proj: EndoOperator, legs_at: tuple, total: int) -> EndoOperator:
    out = EndoOperator.identity(proj.alg, total)
    for h in legs_at:
        out = out * embed(proj, (h,), total)
    return out


def count_calls(monkeypatch, *names) -> list:
    """The names of the `tensors` functions among `names` as they are
    called, in call order."""
    calls = []
    for name in names:
        real = getattr(tensors, name)
        monkeypatch.setattr(tensors, name,
                            lambda *args, _name=name, _real=real: calls.append(_name) or _real(*args))
    return calls


@pytest.mark.parametrize("m,n", PAIRS)
def test_placed_chains_and_symmetrizers_equal_the_per_call_operators(m, n, monkeypatch):
    alg = fresh_algebra(monkeypatch, m, n)
    assert not q_identity_check(m, n).failures
    assert not symmetrizer_agreement_check(m, n).failures
    i_proj, j_proj = projectors_ij(alg)
    legs = m + n + 2
    want_keys = {
        ("I", tuple(range(1, m + 1)), legs), ("I", tuple(range(2, m + 2)), legs),
        ("I", (m + 1,), legs), ("I", (1,), legs),
        ("J", tuple(range(m + 3, legs + 1)), legs), ("J", tuple(range(m + 2, m + n + 2)), legs),
        ("J", (m + 2,), legs), ("J", (legs,), legs),
        ("G", tuple(range(1, m + 1)), legs), ("G", tuple(range(2, m + 2)), legs),
        ("H", tuple(range(m + 2, m + n + 2)), legs), ("H", tuple(range(m + 3, legs + 1)), legs),
        ("I", tuple(range(1, m + 2)), m + 1), ("J", tuple(range(1, n + 2)), n + 1),
        ("I", (1,), 1), ("J", (1,), 1),  # the one-leg projectors themselves
        # G and H on all legs of their own space, one `symmetrizers_direct`
        # call per k; the battery's k = M and k = N are among them
        *((name, tuple(range(1, k + 1)), k) for name in "GH" for k in range(1, 5)),
    }
    keys = {key for key in alg.placements if key[0] in "IJGH"}
    assert keys == want_keys
    for name, legs_at, total in keys:
        got = alg.placements[name, legs_at, total]
        if name in "IJ":
            want = chain_of_embeds(i_proj if name == "I" else j_proj, legs_at, total)
        else:
            op = symmetrizers_direct(alg, len(legs_at))["GH".index(name)]
            want = embed(op, legs_at, total)
        assert got == want, (name, legs_at, total)


def test_a_second_battery_builds_no_operator(monkeypatch):
    alg = fresh_algebra(monkeypatch, 2, 1)
    assert not q_identity_check(2, 1).failures
    keys = set(alg.placements)
    calls = count_calls(monkeypatch, "embed", "symmetrizers_direct")
    assert not q_identity_check(2, 1).failures
    assert set(alg.placements) == keys
    assert calls == []


def test_symmetrizers_are_built_once_per_number_of_legs(monkeypatch):
    fresh_algebra(monkeypatch, 1, 1)
    calls = count_calls(monkeypatch, "symmetrizers_direct")
    assert not fusion_commutation_check(1, 1, 3).failures
    assert calls == ["symmetrizers_direct"]
    calls.clear()
    assert not symmetrizer_agreement_check(1, 1, 4).failures
    assert calls == ["symmetrizers_direct"] * 3  # k = 1, 2 and 4; k = 3 is kept
    calls.clear()
    assert not symmetrizer_agreement_check(1, 1, 4).failures
    assert not fusion_commutation_check(1, 1, 2).failures
    assert not fusion_commutation_check(1, 1, 3).failures
    assert calls == []


def test_the_fusion_check_embeds_nothing(monkeypatch):
    fresh_algebra(monkeypatch, 1, 1)
    calls = count_calls(monkeypatch, "embed")
    assert not fusion_commutation_check(1, 1, 2).failures
    assert calls == []


@pytest.mark.parametrize("m,n", PAIRS)
def test_the_battery_multiplies_and_scales_no_fraction(m, n, monkeypatch):
    fresh_algebra(monkeypatch, m, n)
    seen = []
    real_mul, real_scale = EndoOperator.__mul__, EndoOperator.scale

    def mul(self, other):
        seen.extend(self.entries.values())
        if isinstance(other, EndoOperator):
            seen.extend(other.entries.values())
        return real_mul(self, other)

    def scale(self, scalar):
        seen.append(scalar)
        return real_scale(self, scalar)

    monkeypatch.setattr(EndoOperator, "__mul__", mul)
    monkeypatch.setattr(EndoOperator, "scale", scale)
    assert not q_identity_check(m, n).failures
    assert seen and not any(isinstance(v, Fraction) for v in seen)


def uncleared_residuals(alg, q_of) -> dict:
    """lhs - rhs of the two product identities, with the factors 1/M and
    1/N and every operand built per call."""
    m, n = alg.m, alg.n
    legs = last = m + n + 2
    ident = EndoOperator.identity(alg, legs)
    i_proj, j_proj = projectors_ij(alg)

    def q_at(a, b):
        return embed(q_of(alg), (a, b), legs)

    def p_at(a, b):
        return embed(perm_p(alg), (a, b), legs)

    def proj(op, at):
        return embed(op, (at,), legs)

    i_chain_1 = chain_of_embeds(i_proj, range(1, m + 1), legs)
    j_chain_3 = chain_of_embeds(j_proj, range(m + 3, legs + 1), legs)
    chains_2 = (chain_of_embeds(i_proj, range(2, m + 2), legs)
                * chain_of_embeds(j_proj, range(m + 2, m + n + 2), legs))
    q_factor = (
        q_at(1, last)
        * (ident - q_at(m + 1, last).scale(Fraction(1, m)))
        * (ident + q_at(1, m + 2).scale(Fraction(1, n)))
    )
    projected = (
        q_factor * i_chain_1 * (proj(i_proj, m + 1) + proj(j_proj, m + 2)) * j_chain_3
        - chains_2 * q_at(1, last) * (
            (p_at(1, m + 1) * proj(j_proj, last)).scale(Fraction(-1, m))
            + (p_at(m + 2, last) * proj(i_proj, 1)).scale(Fraction(1, n))
        )
    )
    g = embed(symmetrizers_direct(alg, m)[0], tuple(range(1, m + 1)), legs)
    h = embed(symmetrizers_direct(alg, n)[1], tuple(range(m + 3, legs + 1)), legs)
    g_2 = embed(symmetrizers_direct(alg, m)[0], tuple(range(2, m + 2)), legs)
    h_2 = embed(symmetrizers_direct(alg, n)[1], tuple(range(m + 2, m + n + 2)), legs)
    symmetrized = (
        chains_2 * g_2 * h_2 * q_factor * g * h
        - (p_at(1, m + 1) * p_at(m + 2, last) * i_chain_1 * j_chain_3 * g * h
           * q_at(m + 1, m + 2)).scale(factorial(m - 1) * factorial(n - 1))
    )
    return dict(zip(PRODUCT_CLAIMS, (projected, symmetrized)))


@pytest.mark.parametrize("m,n", PAIRS)
def test_a_cleared_residual_is_the_uncleared_lhs_minus_rhs(m, n, monkeypatch):
    DEFECTS["q-doubled"](monkeypatch, [(m, n)])
    got = {f["location"]["claim"]: f["residual"] for f in q_identity_check(m, n).failures}
    want = uncleared_residuals(algebra(m, n), q_doubled)
    for claim in PRODUCT_CLAIMS:
        assert not want[claim].is_zero()
        assert got[claim] == dump_operator(want[claim])
