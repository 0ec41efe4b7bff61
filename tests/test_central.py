"""Z(u), B(u), C(u) and the identity checks built on them.

`z_centrality_check` splits each Z^(r) by parity once per level, and
`p21_symbol_check` brackets two letters as one `product_sum`; both give
the info and failures of the loops they replace, kept here as
references (one `supercommutator` per commutator), clean and under the
`rewriting`, `z-odd` and `z-shifted` defects.

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
from helpers import primitive
from superyangian.algebra import Algebra, algebra, relation_signs, supercommutator
from superyangian.central import (
    CentralSeriesError,
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
    p21_symbol_check,
    quantum_determinant_c,
    z_centrality_check,
    z_coherence_check,
    z_series,
    z_symbol_check,
)
from superyangian.checkresult import CheckResult, failure
from superyangian.grammar import element_to_text
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
        assert not z.coefficient(r).parity_split()[1]


def test_z_centrality_sample():
    assert not z_centrality_check(1, 1, 4, 3).failures
    z = z_series(algebra(1, 1), 3)
    alg = algebra(1, 1)
    for g in alg.gens(3):
        assert supercommutator(z.coefficient(2), alg.gen(*g)).is_zero()


def test_z_coherence():
    for (m, n) in [(1, 1), (2, 1), (0, 2)]:
        assert not z_coherence_check(m, n, 4).failures


def test_z_second_coefficient_explicit():
    # Z^(2) = - sum_i (-1)^ibar T[i,i,1] plus nothing else at that level
    alg = algebra(1, 1)
    z = z_series(algebra(1, 1), 2)
    want = -(alg.gen(1, 1, 1) - alg.gen(2, 2, 1))
    assert z.coefficient(2) == want


def test_z_symbol_checks():
    assert not z_symbol_check(1, 1, 4).failures
    assert not z_symbol_check(2, 1, 4).failures
    # explicit instance: r=3, M=N=1: top part = -2(T[1,1,2] - T[2,2,2])
    alg = algebra(1, 1)
    z = z_series(algebra(1, 1), 3)
    top = z.coefficient(3).top_symbol()
    assert top == (alg.gen(1, 1, 2) - alg.gen(2, 2, 2)).scale(-2)
    assert z.coefficient(2).filt_degree() == 0


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
        assert not berezinian_theorem_check(m, n, 4).failures


def test_berezinian_factors_commute():
    first, second = berezinian_factors(1, 1, 4)
    assert first * second == second * first


def test_c_series_n1():
    t = t_matrix(algebra(0, 1), 3)
    assert quantum_determinant_c(1, 3) == t.entry(1, 1).shift(-1)


def test_az_relation():
    assert not az_relation_check(1, 4).failures
    assert not az_relation_check(2, 4).failures


def test_antipode_square():
    # M=N: the shift vanishes, S^2 is conjugation by Z(u)
    assert not antipode_square_check(1, 1, 4).failures
    # Y(gl_1) is commutative: S^2 = id and Z(u) = T(u+1)/T(u)
    assert not antipode_square_check(1, 0, 4).failures
    assert not antipode_square_check(2, 1, 3).failures


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
    assert grouplike_check("z", m, n, 4).failures
    # the recursion reads T(u)^-1, never the table
    assert not antipode_square_check(m, n, 4).failures


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
    assert not antipode_square_check(2, 1, 4).failures
    first = counts["product_sum"]
    assert first > 0
    assert counts["_apply_word"] == counts["apply"] == 0
    assert not antipode_square_check(2, 1, 4).failures
    assert counts["product_sum"] - first <= first
    assert counts["_apply_word"] == counts["apply"] == 0


def test_hopf_axioms():
    assert not hopf_axioms_check(1, 1, 3).failures
    assert not hopf_axioms_check(2, 1, 2).failures


def test_grouplike_checks():
    assert not grouplike_check("z", 1, 1, 3).failures
    assert not grouplike_check("berezinian", 1, 1, 3).failures
    assert not grouplike_check("z", 2, 1, 3).failures


def test_grouplike_z2_coefficient():
    # Delta(Z^(2)) = Z^(2) x 1 + 1 x Z^(2) because Z^(1) = 0
    from superyangian.morphisms import coproduct

    z = z_series(algebra(1, 1), 2)
    z2 = z.coefficient(2)
    assert coproduct(z2) == primitive(z2)


def test_l3_commutation():
    assert not l3_commutation_check(1, 1, 4).failures
    with pytest.raises(ValueError):
        l3_commutation_check(1, 0, 3)


def test_l3_explicit_example():
    alg = algebra(1, 1)
    tt = t_inverse(alg, 3).entry(2, 2).coefficient(2)
    assert supercommutator(alg.gen(1, 1, 1), tt).is_zero()


def test_closure_check_wrapper():
    assert not closure_check(1, 1, 3).failures


# -- the loops the centrality and symbol checks replaced, as references --


def reference_z_centrality(m, n, r_max, s_max):
    """`z_centrality_check` with one `supercommutator` per generator."""
    alg = algebra(m, n)
    z = z_series(alg, r_max)
    failures = []
    for r in range(2, r_max + 1):
        zr = z.coefficient(r)
        for i in range(1, alg.dim + 1):
            for j in range(1, alg.dim + 1):
                for s in range(1, s_max + 1):
                    comm = supercommutator(zr, alg.gen(i, j, s))
                    if not comm.is_zero():
                        failures.append(failure({"z_level": r, "generator": [i, j, s]},
                                                element_to_text(comm)))
    return CheckResult({"r_max": r_max, "s_max": s_max, "bounded": True}, failures)


def reference_p21(m, n, bound):
    """`p21_symbol_check` with one `supercommutator` per pair of letters."""
    alg = algebra(m, n)
    failures = []
    dims = range(1, alg.dim + 1)
    for i in dims:
        for j in dims:
            for k in dims:
                for l in dims:
                    sign, _ = relation_signs(alg, i, j, k, l)
                    for r in range(1, bound):
                        for s in range(1, bound - r + 1):
                            comm = supercommutator(alg.gen(i, j, r), alg.gen(k, l, s))
                            want = alg.zero(1)
                            if k == j:
                                want = want + alg.gen(i, l, r + s - 1)
                            if i == l:
                                want = want - alg.gen(k, j, r + s - 1)
                            want = want.scale(sign)
                            if want.is_zero():
                                ok = comm.is_zero() or comm.filt_degree() < r + s - 2
                            else:
                                ok = (not comm.is_zero()
                                      and comm.filt_degree() == r + s - 2
                                      and comm.top_symbol() == want)
                            if not ok:
                                failures.append(
                                    failure({"indices": [i, j, k, l], "levels": [r, s]},
                                            element_to_text(comm)))
    return CheckResult({"bound": bound}, failures)


CUT_ALGEBRAS = [(1, 1), (2, 1), (1, 2)]
# defect -> failures on each of CUT_ALGEBRAS at r_max 4, s_max 3
CENTRALITY_FAILURES = {None: [0, 0, 0], "z-odd": [9, 15, 15], "z-shifted": [8, 20, 20]}


@pytest.mark.parametrize("defect", list(CENTRALITY_FAILURES))
@pytest.mark.parametrize("pair", CUT_ALGEBRAS)
def test_z_centrality_matches_one_supercommutator_per_generator(monkeypatch, defect, pair):
    m, n = pair
    if defect is None:
        fresh_algebra(monkeypatch, m, n)
    else:
        DEFECTS[defect](monkeypatch, [pair])
    got = z_centrality_check(m, n, 4, 3)
    want = reference_z_centrality(m, n, 4, 3)
    assert got.info == want.info
    assert got.failures == want.failures
    assert len(got.failures) == CENTRALITY_FAILURES[defect][CUT_ALGEBRAS.index(pair)]


@pytest.mark.parametrize("pair", CUT_ALGEBRAS)
def test_z_centrality_and_its_reference_stop_at_a_broken_rewriting(monkeypatch, pair):
    DEFECTS["rewriting"](monkeypatch, [pair])
    for check in (z_centrality_check, reference_z_centrality):
        with pytest.raises(CentralSeriesError):
            check(*pair, 4, 3)


@pytest.mark.parametrize("defect", [None, "rewriting"])
@pytest.mark.parametrize("pair", CUT_ALGEBRAS)
def test_p21_symbol_matches_one_supercommutator_per_pair(monkeypatch, defect, pair):
    if defect is None:
        fresh_algebra(monkeypatch, *pair)
    else:
        DEFECTS[defect](monkeypatch, [pair])
    got = p21_symbol_check(*pair, 4)
    want = reference_p21(*pair, 4)
    assert got.info == want.info
    assert got.failures == want.failures
    assert bool(got.failures) == (defect is not None)
