"""Morphism images cached once per algebra and read at any level from
its one T(u)^-1, generator brackets against the word images they
replace in the relation check, one-dict accumulation in the morphism
and Hopf maps, and the evaluation relation check against the
coefficient-form computation it replaced."""

import json
import random
from itertools import product as iproduct

import pytest

from defects import DEFECTS, fresh_algebra
from helpers import letter_parity, random_tensor_element
from superyangian import tensor_checks, tensors
from superyangian.algebra import Algebra, Element, GenIndex, algebra
from superyangian.central import morphism_relation_check
from superyangian.matrices import t_inverse
from superyangian.morphisms import (
    build_antipode,
    build_eta,
    build_omega,
    build_transpose,
    coproduct,
    coproduct_at_leg,
    coproduct_gen,
    counit_at_leg,
)
from superyangian.series import exact_point
from superyangian.tensors import EndoOperator, matrix_unit


def test_antipode_tables_of_one_algebra_share_caches_and_images():
    alg = Algebra(2, 1)
    t_inverse(alg, 5)  # T(u)^-1 to order 5 before any image is asked for
    s, again = build_antipode(alg), build_antipode(alg)
    assert s._images is again._images
    assert s._word_cache is again._word_cache
    fresh = build_antipode(Algebra(2, 1))  # an algebra that never saw order 5
    gens = list(alg.gens(3))
    for g in gens:
        assert s.image(g) == again.image(g) == fresh.image(g)
    for a, b in [(gens[0], gens[5]), (gens[7], gens[2]), (gens[4], gens[4])]:
        assert s._apply_word((a, b)) == fresh._apply_word((a, b))
        assert again._apply_word((a, b)) is s._apply_word((a, b))
    # one bracket dict per name, one entry per ordered pair a <= b, the
    # only order the relation check asks for
    assert s._brackets is again._brackets
    pairs = [(a, b) for a in gens[:6] for b in gens[:6] if a <= b]
    for a, b in pairs:
        assert again.bracket(a, b) == s.bracket(a, b) == fresh.bracket(a, b)
    assert sorted(s._brackets) == pairs
    assert all(again.bracket(*key) is s._brackets[key] for key in s._brackets)


def test_tables_of_different_names_keep_apart():
    alg = Algebra(1, 1)
    eta, tr = build_eta(alg), build_transpose(alg)
    x = alg.gen(2, 1, 1)
    assert eta.apply(x) == -x
    assert tr.apply(x) == alg.gen(1, 2, 1)
    assert eta._word_cache is not tr._word_cache
    assert eta._brackets is not tr._brackets
    assert set(alg.morphisms) == {"eta_M", "transpose_T"}


# -- generator brackets against the word images they replace ----------------


def assert_brackets_match_word_images(alg):
    """For every pair of letters of level <= 3, in both orders and with
    a == b: bracket(a, b) is image(a b) - eps image(b a), term for term."""
    letters = list(alg.gens(3))
    nonzero = 0
    for build in (build_eta, build_transpose, build_antipode, build_omega):
        table = build(alg)
        for a in letters:
            for b in letters:
                eps = -1 if letter_parity(alg, a) and letter_parity(alg, b) else 1
                want = table._apply_word((a, b)) - table._apply_word((b, a)).scale(eps)
                got = table.bracket(a, b)
                assert got.terms == want.terms, (table.name, a, b)
                assert all(got.terms.values())
                nonzero += bool(got.terms)
    assert nonzero


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (0, 2)])
def test_brackets_are_differences_of_word_images(m, n):
    assert_brackets_match_word_images(Algebra(m, n))


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
def test_brackets_are_differences_of_word_images_under_a_broken_rewriting(m, n, monkeypatch):
    DEFECTS["rewriting"](monkeypatch, [(m, n)])
    assert_brackets_match_word_images(algebra(m, n))


def test_the_relation_check_keeps_brackets_and_only_right_hand_word_images(monkeypatch):
    """On a fresh gl(2|1) at bound 4 the antipode's two-letter word
    images are only the right-hand words T_kj^(p) T_il^(q) with p != q,
    p, q >= 1 and p + q <= 4: 81 index pairs times 4 level pairs.  With
    p = q, D[p, p] is one word image taken twice with opposite signs, so
    it is never imaged.  Each product on the left is a bracket of letters
    with level sum at most 5, one per unordered pair: (810 ordered pairs
    + 18 with a == b) / 2."""
    alg = fresh_algebra(monkeypatch, 2, 1)
    assert not morphism_relation_check(2, 1, 4).failures
    _, words, brackets = alg.morphisms["antipode_S"]
    two = [w for w in words if len(w) == 2]
    assert len(two) == 324
    assert all(a.r != b.r for a, b in two)
    assert max(a.r + b.r for a, b in two) == 4
    assert len(brackets) == 414
    assert max(a.r + b.r for a, b in brackets) == 5
    assert all(a <= b for a, b in brackets)


# -- one-dict accumulation against a plain repeated sum ---------------------


def _sum_apply(table, x):
    out = x.alg.zero(1)
    for (word,), coeff in x.terms.items():
        out = out + table._apply_word(word).scale(coeff)
    return out


def _sum_apply_at_leg(table, x, leg):
    out = x.alg.zero(x.legs)
    for mon, coeff in x.terms.items():
        for (w,), c in table._apply_word(mon[leg - 1]).terms.items():
            repl = mon[: leg - 1] + (w,) + mon[leg:]
            out = out + Element(x.alg, x.legs, {repl: coeff * c})
    return out


def _sum_expanded(alg, word):
    out = alg.one(2)
    for g in word:
        out = out * coproduct_gen(alg, g)
    return out


def _sum_coproduct(x):
    out = x.alg.zero(2)
    for (word,), coeff in x.terms.items():
        out = out + _sum_expanded(x.alg, word).scale(coeff)
    return out


def _sum_coproduct_at_leg(x, leg):
    out = x.alg.zero(x.legs + 1)
    for mon, coeff in x.terms.items():
        for (w1, w2), c in _sum_expanded(x.alg, mon[leg - 1]).terms.items():
            repl = mon[: leg - 1] + (w1, w2) + mon[leg:]
            out = out + Element(x.alg, x.legs + 1, {repl: coeff * c})
    return out


def _sum_counit_at_leg(x, leg):
    out = x.alg.zero(x.legs - 1)
    for mon, coeff in x.terms.items():
        if not mon[leg - 1]:
            repl = mon[: leg - 1] + mon[leg:]
            out = out + Element(x.alg, x.legs - 1, {repl: coeff})
    return out


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
def test_one_dict_maps_match_a_repeated_sum(m, n):
    alg = algebra(m, n)
    rng = random.Random(1000 * m + n)
    # products of level-3 generators normal-order into levels up to 5
    tables = [build_eta(alg), build_transpose(alg), build_antipode(alg), build_omega(alg)]
    for _ in range(3):
        x = random_tensor_element(alg, rng, 1)
        y = random_tensor_element(alg, rng, 2)
        for table in tables:
            assert table.apply(x) == _sum_apply(table, x)
            for leg in (1, 2):
                assert table.apply_at_leg(y, leg) == _sum_apply_at_leg(table, y, leg)
        assert coproduct(x) == _sum_coproduct(x)
        for leg in (1, 2):
            assert coproduct_at_leg(y, leg) == _sum_coproduct_at_leg(y, leg)
            assert counit_at_leg(y, leg) == _sum_counit_at_leg(y, leg)
    # images that cancel leave no zero coefficient behind: S(T[1,1,1]^2)
    # is T[1,1,1]^2, which also occurs in S(T[1,1,2])
    s = tables[2]
    t111 = alg.gen(1, 1, 1)
    square = ((GenIndex(1, 1, 1),) * 2,)
    a = s.apply(alg.gen(1, 1, 2)).terms[square]
    x = alg.gen(1, 1, 2) - (t111 * t111).scale(a)
    got = s.apply(x)
    assert got == _sum_apply(s, x)
    assert square not in got.terms and all(got.terms.values())


# -- eval_relations_check against the coefficient-form reference ------------


def _relations_failures_recomputed(m, n, z_values, level_bound):
    """The relation check as first written, in coefficient form: each
    relation coefficient (p, q) with p + q <= level_bound in matrix
    arithmetic on the one-point images, c(r, s) built once as c(p+1, q)
    and again as c(p, q+1), side products rebuilt per (p, q)."""
    alg = algebra(m, n)
    failures = []
    for z in z_values:
        z = exact_point(z)
        img = {g: tensors.eval_rep_gen(alg, g, z) for g in alg.gens(level_bound + 1)}
        ident = EndoOperator.identity(alg, 1)

        def t_of(i, j, r):
            if r == 0:
                return ident if i == j else EndoOperator.zero(alg, 1)
            return img[GenIndex(i, j, r)]

        for i, j, k, l in iproduct(range(1, alg.dim + 1), repeat=4):
            ib, jb = alg.parities[i], alg.parities[j]
            kb, lb = alg.parities[k], alg.parities[l]
            sign = -1 if (ib * kb + ib * lb + kb * lb) % 2 else 1
            pij, pkl = (ib + jb) & 1, (kb + lb) & 1

            def comm(r, s):
                if r == 0 or s == 0:
                    return EndoOperator.zero(alg, 1)
                a, b = t_of(i, j, r), t_of(k, l, s)
                return (a * b - (b * a).scale(-1 if pij and pkl else 1)).scale(sign)

            for p in range(level_bound + 1):
                for q in range(level_bound - p + 1):
                    lhs = comm(p + 1, q) - comm(p, q + 1)
                    rhs = t_of(k, j, p) * t_of(i, l, q) - t_of(k, j, q) * t_of(i, l, p)
                    if lhs != rhs:
                        failures.append(
                            tensor_checks._op_failure(
                                {"z": str(z), "indices": [i, j, k, l],
                                 "coefficient": [p, q]},
                                lhs - rhs,
                            )
                        )
    return failures


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
def test_eval_relations_failures_are_byte_identical_with_a_broken_image(m, n, monkeypatch):
    """With E_11 added to the image of T[1,2,2], the coefficient-form
    reference fails, and the relation check reports exactly one failure
    per z: that image minus its R-matrix coefficient, E_11."""
    DEFECTS["eval-plus-e11"](monkeypatch, [(m, n)], GenIndex(1, 2, 2))
    report = tensor_checks.eval_relations_check(m, n, z_values=(0, 3), level_bound=2)
    e11 = matrix_unit(algebra(m, n), 1, 1)
    want = [tensor_checks._op_failure({"z": str(exact_point(z)), "generator": [1, 2, 2]}, e11)
            for z in (0, 3)]
    assert report.failures and _relations_failures_recomputed(m, n, (0, 3), 2)
    assert json.dumps(report.failures, sort_keys=True) == json.dumps(want, sort_keys=True)


@pytest.mark.parametrize("broken", [(1, 2, 2), (1, 1, 1), (2, 1, 1), (2, 2, 3)],
                         ids=lambda g: "T%d%d%d" % g)
@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2)])
def test_eval_relations_failures_match_the_reference_at_level_three(m, n, broken, monkeypatch):
    """Wherever the coefficient-form reference fails, the relation check
    fails too, at every z and on the broken generator alone; neither reads
    an image above the level bound.  Checked at level bound 3 on z
    (0, 3, -2) and at level bound 2 on z (0, 3).  Broken diagonal images
    reach the reference's t^(0) = delta factors."""
    DEFECTS["eval-plus-e11"](monkeypatch, [(m, n)], GenIndex(*broken))
    for z_values, level_bound in (((0, 3, -2), 3), ((0, 3), 2)):
        read = broken[2] <= level_bound
        want = _relations_failures_recomputed(m, n, z_values, level_bound)
        report = tensor_checks.eval_relations_check(m, n, z_values, level_bound)
        assert bool(want) == read and bool(report.failures) == read
        assert [f["location"] for f in report.failures] == [
            {"z": str(exact_point(z)), "generator": list(broken)} for z in z_values if read]


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_a_level_two_sign_flip_fails_the_relation_check_at_level_three(m, n, monkeypatch):
    """The flipped images are c_r t with (c_1, c_2, c_3) = (1, -z, z^2),
    which satisfy every relation coefficient with p + q <= 3
    (c_1 c_3 = c_2^2), so the coefficient-form reference passes; the
    level-2 images differ from their R-matrix coefficients wherever
    z != 0."""
    DEFECTS["eval-level2-sign"](monkeypatch, [(m, n)])
    alg = algebra(m, n)
    report = tensor_checks.eval_relations_check(m, n, (0, 1, -2), 3)
    assert [f["location"] for f in report.failures] == [
        {"z": z, "generator": list(g)} for z in ("1", "-2") for g in alg.gens(3) if g.r == 2]
    assert not _relations_failures_recomputed(m, n, (0, 1, -2), 3)
