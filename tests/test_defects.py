"""Every defect of `defects.DEFECTS` reaches the seam it names on fresh
algebras, and leaves nothing behind.

For each defect a probe reads its seam on an algebra: inside the
installer's context `algebra(m, n)` is a new object whose probe differs
from that of a clean gl(m|n); once the context exits, `_ALGEBRAS` holds
the objects it held before, and a clean gl(m|n) probes as it did (so no
module-level seam stays patched).  A doubled I reaches every placed
chain: on gl(2|1) the chain I_1 I_2 on four legs has 2 * 2 at
(1111, 1111).
"""

from fractions import Fraction

import pytest

from defects import DEFECTS, _store_z
from superyangian.algebra import _ALGEBRAS, Algebra, algebra
from superyangian.central import z_series
from superyangian.grammar import element_to_text
from superyangian.morphisms import build_antipode
from superyangian.suites import SuiteSpec, run_suite
from superyangian.tensors import multi_eval_rep_gen, placed


def rewriting_probe(alg):
    # T21^(1) T12^(2) is out of order, and its swap reads comm_terms at r + s = 3
    return alg.gen(2, 1, 1) * alg.gen(1, 2, 2)


def z_probe(alg):
    return z_series(alg, 4)


def eval_probe(alg):
    return multi_eval_rep_gen(alg, alg.letter(1, 2, 2), (Fraction(1),))


PROBES = {
    "rewriting": rewriting_probe,
    "z-shifted": lambda alg: z_series(alg, 4).coefficient(3),
    "z-odd": z_probe,
    "tinv-doubled": z_probe,
    "tinv-times-series": z_probe,
    "p-sign": lambda alg: placed(alg, "P", (1, 2), 2),
    "p-doubled": lambda alg: placed(alg, "P", (1, 2), 2),
    "q-doubled": lambda alg: placed(alg, "Q", (1, 2), 2),
    "i-doubled": lambda alg: placed(alg, "I", (1, 2), 4),
    "eval-level2-sign": eval_probe,
    "eval-plus-e11": eval_probe,
    "antipode-long-word": lambda alg: build_antipode(alg)._apply_word(
        (alg.letter(1, 1, 1),) * 3),
}
# z-shifted also breaks the rewriting of gl(2|0) when installed on gl(0|2)
PAIRS = {"z-shifted": [(1, 1), (0, 2)]}


@pytest.mark.parametrize("name", list(DEFECTS))
def test_a_defect_reaches_its_seam_on_fresh_algebras_and_is_undone_on_exit(name):
    pairs = PAIRS.get(name, [(1, 1), (2, 1)])
    probe = PROBES[name]
    clean = {pair: probe(Algebra(*pair)) for pair in pairs}
    shared = {pair: algebra(*pair) for pair in pairs}
    before = dict(_ALGEBRAS)
    with pytest.MonkeyPatch.context() as mp:
        DEFECTS[name](mp, pairs)
        replaced = {pair for pair, alg in _ALGEBRAS.items() if before.get(pair) is not alg}
        for pair in pairs:
            assert algebra(*pair) is not shared[pair]
            assert probe(algebra(*pair)) != clean[pair], pair
        if name == "i-doubled":
            chain = probe(algebra(2, 1))
            assert chain.entries[(1, 1, 1, 1), (1, 1, 1, 1)] == 4
        assert replaced - set(pairs) == ({(2, 0)} if name == "z-shifted" else set())
        if name == "z-shifted":
            assert rewriting_probe(algebra(2, 0)) != rewriting_probe(Algebra(2, 0))
    assert _ALGEBRAS.keys() == before.keys()
    assert all(_ALGEBRAS[pair] is alg for pair, alg in before.items())
    assert {pair: probe(Algebra(*pair)) for pair in pairs} == clean


Z_SITES = {
    "tinv-doubled": {"coefficient": 0},
    "tinv-times-series": {"coefficient": 1},
    "z-odd": {"coefficient": 3, "reason": "odd parity"},
}


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
@pytest.mark.parametrize("name", list(Z_SITES))
def test_a_z_defect_fails_the_z_central_report_at_its_coherence_site(name, m, n):
    """Each of the three failure sites of `z_coherence_check` fires, and
    no CentralSeriesError comes first (that would fail at the stage)."""
    with pytest.MonkeyPatch.context() as mp:
        DEFECTS[name](mp, [(m, n)])
        report = run_suite(SuiteSpec("z-central", {"m": m, "n": n, "order": 4,
                                                   "r_max": 4, "s_max": 3}))
    assert report.status == "fail"
    assert report.counterexamples[0]["location"] == Z_SITES[name]


def test_a_z_coefficient_with_an_odd_part_fails_z_central_with_a_counterexample():
    """Z^(3) + T[1,2,1] on gl(1|1) has an even and an odd part: coherence
    fails at the coefficient, with the whole coefficient as its residual,
    instead of erroring on a parity that is not defined."""
    with pytest.MonkeyPatch.context() as mp:
        _store_z(mp, 1, 1, lambda alg, c: c + alg.gen(1, 2, 1))
        z3 = algebra(1, 1).z.coefficient(3)
        report = run_suite(SuiteSpec("z-central", {"m": 1, "n": 1, "order": 4,
                                                   "r_max": 4, "s_max": 3}))
    assert report.status == "fail"
    first = report.counterexamples[0]
    assert first["location"] == {"coefficient": 3, "reason": "odd parity"}
    assert first["residual"] == element_to_text(z3)


# the defects that break an operator of the placed or one-point tables,
# each with a pair that has nothing for it to break
SEAMLESS = {"p-sign": (1, 0), "p-doubled": (1, 0), "q-doubled": (1, 0), "i-doubled": (0, 1),
            "eval-level2-sign": None, "eval-plus-e11": (1, 0)}


@pytest.mark.parametrize("name", list(SEAMLESS))
def test_an_operator_defect_leaves_every_other_algebra_clean(name):
    """Installed for gl(1|1), the defect does not reach a gl(2|1) that is
    not broken, inside the context or after it, so nothing broken is
    cached there."""
    probe = PROBES[name]
    clean = probe(Algebra(2, 1))
    with pytest.MonkeyPatch.context() as outer:
        bystander = Algebra(2, 1)
        outer.setitem(_ALGEBRAS, (2, 1), bystander)
        with pytest.MonkeyPatch.context() as mp:
            DEFECTS[name](mp, [(1, 1)])
            assert probe(algebra(1, 1)) != probe(Algebra(1, 1))
            assert probe(bystander) == clean
        assert probe(bystander) == clean
        assert bystander.placements.keys() or bystander.multi_gens.keys()


@pytest.mark.parametrize("name", [name for name, pair in SEAMLESS.items() if pair])
def test_an_operator_defect_on_a_pair_without_its_seam_names_the_pair(name):
    m, n = SEAMLESS[name]
    before = dict(_ALGEBRAS)
    with pytest.MonkeyPatch.context() as mp:
        with pytest.raises(ValueError, match=rf"^pair \({m}, {n}\) has no "):
            DEFECTS[name](mp, [(m, n)])
    assert _ALGEBRAS == before
