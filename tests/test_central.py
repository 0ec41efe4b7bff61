"""Z(u), B(u), C(u) and the identity checks built on them.

S^2(T(u)) of `antipode_square_check` comes from a coefficient recursion
on T(u)^-1; it equals the antipode table applied twice, and the check
makes no morphism-table call (work is counted, never timed, on a fresh
gl(2|1)).  The table's long-word path is no longer read by it, so a
sign defect there (`antipode-long-word`) is shown to fail the table
comparison and the order-4 `grouplike` check instead, and with it the
five `grouplike` reports of the default `run-all` matrix.
"""

from collections import Counter

import pytest

from defects import DEFECTS, fresh_algebra
from superyangian.algebra import Algebra, algebra, supercommutator
from superyangian.central import (
    antipode_square_check,
    antipode_square_series,
    apply_table_to_series,
    az_relation_check,
    berezinian,
    berezinian_factors,
    berezinian_theorem_check,
    closure_check,
    gen_series,
    grouplike_check,
    hopf_axioms_check,
    l3_commutation_check,
    quantum_determinant_c,
    z_centrality_check,
    z_coherence_check,
    z_series,
    z_symbol_check,
)
from superyangian.matrices import t_inverse, t_matrix
from superyangian.morphisms import MorphismTable, build_antipode, counit
from superyangian.suites import default_config, run_all


def test_z_constant_and_first_coefficient():
    for (m, n) in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        z = z_series(algebra(m, n), 3)
        alg = algebra(m, n)
        assert z.coefficient(0) == alg.one(1)
        assert z.coefficient(1).is_zero()


def test_z_1x1_matches_quotient_construction():
    alg = algebra(1, 0)
    t = t_matrix(alg, 4)
    direct = t.entry(1, 1).shift(1) * t.entry(1, 1).inverse()
    assert z_series(alg, 4) == direct


def test_z_coefficients_are_even():
    z = z_series(algebra(1, 1), 4)
    for r in range(5):
        assert z.coefficient(r).parity() == 0


def test_z_centrality_sample():
    assert z_centrality_check(1, 1, 4, 3).ok
    z = z_series(algebra(1, 1), 3)
    alg = algebra(1, 1)
    for g in alg.gens(3):
        assert supercommutator(z.coefficient(2), alg.gen(*g)).is_zero()


def test_z_coherence():
    for (m, n) in [(1, 1), (2, 1), (0, 2)]:
        assert z_coherence_check(m, n, 4).ok


def test_z_second_coefficient_explicit():
    # Z^(2) = - sum_i (-1)^ibar T[i,i,1] plus nothing else at that level
    alg = algebra(1, 1)
    z = z_series(algebra(1, 1), 2)
    want = -(alg.gen(1, 1, 1) - alg.gen(2, 2, 1))
    assert z.coefficient(2) == want


def test_z_symbol_checks():
    assert z_symbol_check(1, 1, 4).ok
    assert z_symbol_check(2, 1, 4).ok
    # explicit instance: r=3, M=N=1: top part = -2(T[1,1,2] - T[2,2,2])
    alg = algebra(1, 1)
    z = z_series(algebra(1, 1), 3)
    top = z.coefficient(3).top_symbol(2)
    assert top == (alg.gen(1, 1, 2) - alg.gen(2, 2, 2)).scale(-2)
    assert z.coefficient(2).filt_degree(2) == 0


def test_berezinian_1_1_is_corner_product():
    alg = algebra(1, 1)
    want = t_matrix(alg, 4).entry(1, 1).shift(-1) * t_inverse(alg, 4).entry(2, 2).shift(-1)
    assert berezinian(1, 1, 4) == want


def test_berezinian_2_0_is_quantum_determinant():
    t = t_matrix(algebra(2, 0), 3)
    want = (t.entry(1, 1).shift(1) * t.entry(2, 2)
            - t.entry(2, 1).shift(1) * t.entry(1, 2))
    assert berezinian(2, 0, 3) == want


def test_berezinian_without_odd_indices_builds_no_inverse(monkeypatch):
    alg = fresh_algebra(monkeypatch, 2, 0)
    first, _ = berezinian_factors(2, 0, 4)
    assert berezinian(2, 0, 4) == first
    assert alg.tinv is None


def test_berezinian_counit_is_one():
    for (m, n) in [(1, 1), (2, 1), (0, 2)]:
        b = berezinian(m, n, 3)
        for r in range(4):
            assert counit(b.coefficient(r)) == (1 if r == 0 else 0)


def test_berezinian_theorem_small():
    for (m, n) in [(1, 0), (1, 1), (2, 0), (0, 1), (0, 2)]:
        assert berezinian_theorem_check(m, n, 4).ok


def test_berezinian_factors_commute():
    first, second = berezinian_factors(1, 1, 4)
    assert first * second == second * first


def test_c_series_n1():
    t = t_matrix(algebra(0, 1), 3)
    assert quantum_determinant_c(1, 3) == t.entry(1, 1).shift(-1)


def test_az_relation():
    assert az_relation_check(1, 4).ok
    assert az_relation_check(2, 4).ok


def test_antipode_square():
    # M=N: the shift vanishes, S^2 is conjugation by Z(u)
    assert antipode_square_check(1, 1, 4).ok
    # Y(gl_1) is commutative: S^2 = id and Z(u) = T(u+1)/T(u)
    assert antipode_square_check(1, 0, 4).ok
    assert antipode_square_check(2, 1, 3).ok


def test_s_squared_identity_on_commutative_case():
    s = build_antipode(algebra(1, 0))
    t11 = gen_series(algebra(1, 0), 1, 1, 4)
    assert apply_table_to_series(s, apply_table_to_series(s, t11)) == t11


ANTIPODE_SQUARE_ALGEBRAS = [(1, 1), (2, 1), (1, 2), (0, 2)]


def _entries_unlike_the_table(m: int, n: int, order: int) -> list:
    """The entries (i, j) whose S^2(T_ij(u)) from the recursion differs
    from the antipode table applied twice to T_ij(u)."""
    alg = algebra(m, n)
    s = build_antipode(alg)
    return [(i, j) for (i, j), s2 in antipode_square_series(alg, order).items()
            if s2 != apply_table_to_series(
                s, apply_table_to_series(s, gen_series(alg, i, j, order)))]


@pytest.mark.parametrize("m,n", ANTIPODE_SQUARE_ALGEBRAS)
def test_s2_recursion_is_the_antipode_table_applied_twice(m, n):
    assert _entries_unlike_the_table(m, n, 4) == []


@pytest.mark.parametrize("m,n", ANTIPODE_SQUARE_ALGEBRAS)
def test_a_long_word_antipode_sign_defect_fails_the_table_comparison_and_grouplike(
        m, n, monkeypatch):
    DEFECTS["antipode-long-word"](monkeypatch, [(m, n)])
    assert _entries_unlike_the_table(m, n, 4) != []
    assert not grouplike_check("z", m, n, 4).ok
    # the recursion reads T(u)^-1, never the table
    assert antipode_square_check(m, n, 4).ok


def test_the_default_matrix_kills_the_long_word_antipode_defect(monkeypatch):
    """Its `grouplike` reports run at the suite's default order, 4; at
    order 3 all five passed under the defect."""
    entries = [e for e in default_config()["suites"] if e["name"] == "grouplike"]
    pairs = [(e["params"]["m"], e["params"]["n"]) for e in entries]
    DEFECTS["antipode-long-word"](monkeypatch, pairs)
    reports, exit_code = run_all({"suites": entries})
    assert exit_code == 1 and len(reports) == 5
    for report in reports:
        assert report.params["order"] == 4
        assert [ce["location"] for ce in report.counterexamples] == [{"axiom": "antipode-inverts"}]


def test_antipode_square_makes_no_morphism_table_call(monkeypatch):
    fresh_algebra(monkeypatch, 2, 1)
    counts = Counter()

    def counting(cls, name):
        method = getattr(cls, name)

        def counted(*args):
            counts[name] += 1
            return method(*args)

        monkeypatch.setattr(cls, name, counted)

    counting(MorphismTable, "_apply_word")
    counting(MorphismTable, "apply")
    counting(Algebra, "product_sum")
    assert antipode_square_check(2, 1, 4).ok
    first = counts["product_sum"]
    assert first > 0
    assert counts["_apply_word"] == counts["apply"] == 0
    assert antipode_square_check(2, 1, 4).ok
    assert counts["product_sum"] - first <= first
    assert counts["_apply_word"] == counts["apply"] == 0


def test_hopf_axioms():
    assert hopf_axioms_check(1, 1, 3).ok
    assert hopf_axioms_check(2, 1, 2).ok


def test_grouplike_checks():
    assert grouplike_check("z", 1, 1, 3).ok
    assert grouplike_check("berezinian", 1, 1, 3).ok
    assert grouplike_check("z", 2, 1, 3).ok


def test_grouplike_z2_coefficient():
    # Delta(Z^(2)) = Z^(2) x 1 + 1 x Z^(2) because Z^(1) = 0
    from superyangian.morphisms import coproduct

    z = z_series(algebra(1, 1), 2)
    z2 = z.coefficient(2)
    assert coproduct(z2) == z2.inject(1, 2) + z2.inject(2, 2)


def test_l3_commutation():
    assert l3_commutation_check(1, 1, 4).ok
    with pytest.raises(ValueError):
        l3_commutation_check(1, 0, 3)


def test_l3_explicit_example():
    alg = algebra(1, 1)
    tt = t_inverse(alg, 3).entry(2, 2).coefficient(2)
    assert supercommutator(alg.gen(1, 1, 1), tt).is_zero()


def test_closure_check_wrapper():
    assert closure_check(1, 1, 3).ok
