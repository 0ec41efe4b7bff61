"""Acceptance criteria, one test per criterion, exact tolerance (zero).

Every test prints one PASS/FAIL line (run with `pytest -s` to see them
on passing runs).  Two sub-claims are known to be mathematically
unattainable as stated and are implemented faithfully anyway; see
test_criterion_07 (the eta/antipode commutation pair) and
test_criterion_09 (the fixed-point rank test).  The analysis lives in
the failure messages of those tests.
"""

from superyangian.central import (
    antipode_square_check,
    az_relation_check,
    berezinian_theorem_check,
    closure_check,
    grouplike_check,
    hopf_axioms_check,
    l3_commutation_check,
    morphism_commutation_check,
    morphism_relation_check,
    p21_symbol_check,
    z_centrality_check,
    z_coherence_check,
    z_symbol_check,
)
from superyangian.mixed import fusion_commutation_check
from superyangian.tensor_checks import (
    eval_relations_check,
    multi_eval_consistency_check,
    pbw_confluence_check,
    pbw_rank_check,
    q_identity_check,
    symmetrizer_agreement_check,
    unitarity_check,
    yang_baxter_check,
)

PAIRS_DIM_LE_3 = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                  (3, 0), (2, 1), (1, 2), (0, 3)]
PAIRS_DIM_LE_4 = PAIRS_DIM_LE_3 + [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]


def _verdict(num: int, label: str, results: list) -> None:
    ok = all(r for _, r in results)
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    bad = [name for name, r in results if not r]
    assert ok, f"criterion {num}: failing sub-checks: {bad}"


def test_criterion_01_defining_relation_closure():
    results = []
    for (m, n) in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        results.append((f"closure({m},{n}) r+s<=6", not closure_check(m, n, 6).failures))
    _verdict(1, "defining-relation closure normal-orders to zero", results)


def test_criterion_02_yang_baxter_and_unitarity():
    results = []
    for (m, n) in PAIRS_DIM_LE_4:
        results.append((f"yang-baxter({m},{n})", not yang_baxter_check(m, n).failures))
        results.append((f"unitarity({m},{n})", not unitarity_check(m, n).failures))
    _verdict(2, "Yang-Baxter equation and unitarity via identity certificate", results)


def test_criterion_03_z_coherence_and_centrality():
    results = []
    for (m, n) in PAIRS_DIM_LE_3:
        results.append((f"coherence({m},{n}) to u^-6", not z_coherence_check(m, n, 6).failures))
        results.append((f"centrality({m},{n}) r<=5 s<=4",
                        not z_centrality_check(m, n, 5, 4).failures))
    _verdict(3, "Z(u) coherence, Z^(1) = 0, bounded centrality", results)


def test_criterion_04_berezinian_theorem():
    results = []
    for (m, n), order in [((1, 1), 5), ((2, 1), 5), ((1, 2), 5), ((2, 2), 4)]:
        results.append((f"B(u+1)=Z(u)B(u) ({m},{n}) to u^-{order}",
                        not berezinian_theorem_check(m, n, order).failures))
    results.append(("quantum-determinant regression (2,0) to u^-4",
                    not berezinian_theorem_check(2, 0, 4).failures))
    for n in (1, 2):
        results.append((f"Z(u)C(u+1)=C(u) (0,{n})", not az_relation_check(n, 4).failures))
    _verdict(4, "quantum Berezinian relation B(u+1) = Z(u)B(u)", results)


def test_criterion_05_antipode_square():
    results = []
    for (m, n) in PAIRS_DIM_LE_3:
        results.append((f"Z(u)S^2(T_ij(u))=T_ij(u+M-N) ({m},{n}) to u^-5",
                        not antipode_square_check(m, n, 5).failures))
        results.append((f"hopf axioms ({m},{n}) r<=4",
                        not hopf_axioms_check(m, n, 4).failures))
    _verdict(5, "antipode square and the antipode Hopf axiom", results)


def test_criterion_06_grouplike_and_symmetry():
    results = []
    for (m, n) in [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (2, 1), (1, 2)]:
        results.append((f"grouplike Z ({m},{n}) to u^-4",
                        not grouplike_check("z", m, n, 4).failures))
        results.append((f"grouplike B ({m},{n}) to u^-4",
                        not grouplike_check("berezinian", m, n, 4).failures))
    _verdict(6, "Delta(Z)=ZxZ, Delta(B)=BxB, S(Z)=Z^-1, omega(Z)=Z^-1, "
                "transpose-invariance", results)


def test_criterion_07_morphism_suite():
    """Relation preservation passes; of the three pairwise commutation
    claims, eta_M with antipode_S is FALSE as stated: the counterexample
    eta(S(T[1,1,2])) - S(eta(T[1,1,2])) = T[1,1,1] - T[2,2,1] (already
    for N = 0) is exact, and the true composition law is

        eta(Ttilde_ij(u)) = Z(-u-M+N)^-1 Ttilde_ij(-u-M+N)

    (verified exactly by eta_antipode_twist_check).  See the decisions
    ledger; this criterion is expected red on that single sub-claim."""
    results = []
    for (m, n) in PAIRS_DIM_LE_3:
        results.append((f"relation preservation ({m},{n}) r+s<=5",
                        not morphism_relation_check(m, n, 5).failures))
        results.append((f"pairwise commutation + omega ({m},{n}) r<=4",
                        not morphism_commutation_check(m, n, 4).failures))
    _verdict(7, "morphism suite: relation preservation, pairwise "
                "commutation, omega composition", results)


def test_criterion_08_symbol_checks():
    results = []
    for (m, n) in PAIRS_DIM_LE_3:
        results.append((f"Z-symbols ({m},{n}) r<=5 + independence",
                        not z_symbol_check(m, n, 5).failures))
        results.append((f"bracket symbols ({m},{n}) r+s<=5",
                        not p21_symbol_check(m, n, 5).failures))
    _verdict(8, "graded-image formulas for Z^(r) and generator brackets", results)


def test_criterion_09_pbw_suite():
    """Confluence passes.  The rank sub-claim is FALSE as stated: the
    even central element acts as the scalar n in every n-fold tensor of
    evaluation representations, so T[1,1,1] - T[2,2,1] + 3 lies in the
    kernel of the 3-point representation and the 49 monomials of level
    <= 3 can never be independent (achieved rank: 26, stable across
    point choices).  See the decisions ledger; expected red on that
    sub-claim."""
    results = []
    total = 0
    for (m, n) in [(1, 1), (2, 1), (1, 2)]:
        rep = pbw_confluence_check(m, n, schedules=400, filt_max=6)
        total += rep.info["schedules"]
        results.append((f"confluence({m},{n})", not rep.failures))
    results.append((">=1000 schedules", total >= 1000))
    rank = pbw_rank_check(1, 1, 3, (0, 1, 5))
    results.append((f"rank test (1,1): {rank.info['rank']}/{rank.info['monomials']}",
                    not rank.failures))
    _verdict(9, "PBW suite: confluence and bounded-rank shadow", results)


def test_criterion_10_tensor_identity_suite():
    results = []
    results.append(("identity battery (1,1)", not q_identity_check(1, 1).failures))
    results.append(("identity battery (2,1) incl. L1 on 243-dim space",
                    not q_identity_check(2, 1).failures))
    for (m, n) in [(1, 1), (2, 1), (1, 2)]:
        results.append((f"inverse-entry commutation ({m},{n}) r+s<=6",
                        not l3_commutation_check(m, n, 6).failures))
    for (m, n) in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]:
        results.append((f"symmetrizer agreement ({m},{n}) n<=4",
                        not symmetrizer_agreement_check(m, n, 4).failures))
    for (m, n) in [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]:
        results.append((f"fusion commutation ({m},{n}) n=2 order 3",
                        not fusion_commutation_check(m, n, 2, 3).failures))
    _verdict(10, "tensor identity battery, factor commutation, "
                 "symmetrizers, fusion", results)


def test_criterion_11_representation_consistency():
    results = []
    for (m, n) in PAIRS_DIM_LE_3:
        results.append((
            f"2-point routes agree ({m},{n}) r<=3",
            not multi_eval_consistency_check(m, n, (0, 1), 3).failures,
        ))
        results.append((
            f"3-point routes agree ({m},{n}) r<=3",
            not multi_eval_consistency_check(m, n, (0, 1, 5), 3).failures,
        ))
        results.append((
            f"relations vanish under eval ({m},{n}) z in {{0,1,-2}}",
            not eval_relations_check(m, n, (0, 1, -2), 3).failures,
        ))
    _verdict(11, "evaluation representations: route agreement and "
                 "relation images", results)
