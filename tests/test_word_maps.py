"""Every generator map extended to words one way: the coproduct as a
2-leg morphism table, the evaluation representations through one word
evaluator, and the small shared pieces around them (the parity table of
the sign baking, the algebra of a parsed series, one CLI parameter
list)."""

import random
from fractions import Fraction

import pytest

from defects import break_rewriting
from helpers import random_tensor_element
from superyangian.algebra import Algebra, Element, GenIndex, algebra
from superyangian.cli import INT_PARAMS, _suite_params, build_parser
from superyangian.grammar import parse_series
from superyangian.morphisms import (
    build_coproduct,
    coproduct,
    coproduct_at_leg,
    coproduct_gen,
)
from superyangian.tensors import (
    EndoOperator,
    eval_rep,
    eval_rep_gen,
    multi_eval_rep,
    multi_eval_rep_gen,
)


def _fold_coproduct(alg, word):
    out = alg.one(2)
    for g in word:
        out = out * coproduct_gen(alg, g)
    return out


def _random_words(alg, rng, count, max_len=4, max_level=2):
    gens = list(alg.gens(max_level))
    return [tuple(rng.choice(gens) for _ in range(rng.randrange(max_len + 1)))
            for _ in range(count)]


@pytest.mark.parametrize("make", [
    lambda: Algebra(1, 1), lambda: Algebra(2, 1), lambda: Algebra(0, 2),
    lambda: break_rewriting(Algebra(1, 1)), lambda: break_rewriting(Algebra(2, 1)),
], ids=["11", "21", "02", "11-mutant", "21-mutant"])
def test_coproduct_word_images_are_the_left_fold_and_cache_every_prefix(make):
    alg = make()
    rng = random.Random(alg.dim)
    table = build_coproduct(alg)
    assert table.legs == 2
    for word in _random_words(alg, rng, 25):
        assert table._apply_word(word) == _fold_coproduct(alg, word)
        words = alg.morphisms["Delta"][1]
        assert all(word[:k] in words for k in range(1, len(word) + 1))
    # a rebuilt table reads the same caches
    assert build_coproduct(alg)._word_cache is table._word_cache


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
def test_coproduct_at_every_leg_of_three_leg_elements_matches_a_fold(m, n):
    alg = algebra(m, n)
    rng = random.Random(100 * m + n)
    for _ in range(3):
        x = random_tensor_element(alg, rng, 3, terms=6, max_level=2)
        for leg in (1, 2, 3):
            want = alg.zero(4)
            for mon, coeff in x.terms.items():
                for (w1, w2), c in _fold_coproduct(alg, mon[leg - 1]).terms.items():
                    repl = mon[: leg - 1] + (w1, w2) + mon[leg:]
                    want = want + Element(alg, 4, {repl: coeff * c})
            assert coproduct_at_leg(x, leg) == want


def test_coproduct_of_a_one_leg_element_matches_a_fold():
    alg = algebra(2, 1)
    x = random_tensor_element(alg, random.Random(7), 1, max_len=3)
    want = alg.zero(2)
    for (word,), coeff in x.terms.items():
        want = want + _fold_coproduct(alg, word).scale(coeff)
    assert coproduct(x) == want


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (0, 2)])
def test_one_point_multi_eval_is_eval_rep_gen(m, n):
    alg = algebra(m, n)
    for z in (0, 1, Fraction(-3, 2)):
        for g in alg.gens(3):
            assert multi_eval_rep_gen(alg, g, (Fraction(z),)) == eval_rep_gen(alg, g, z)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
def test_eval_rep_is_the_fold_over_generator_images(m, n):
    alg = algebra(m, n)
    rng = random.Random(10 * m + n)
    for z in (0, 2, Fraction(1, 3)):
        x = random_tensor_element(alg, rng, 1, max_len=3)
        want = EndoOperator.zero(alg, 1)
        for (word,), coeff in x.terms.items():
            img = EndoOperator.identity(alg, 1)
            for g in word:
                img = img * eval_rep_gen(alg, g, z)
            want = want + img.scale(coeff)
        assert eval_rep(x, z) == want
        assert multi_eval_rep(x, [z]) == want


@pytest.mark.parametrize("bad", [0, 4, -1])
@pytest.mark.parametrize("key", [
    lambda b: ((b,), (1,)), lambda b: ((1,), (b,)),
    lambda b: ((b, 1), (1, 1)), lambda b: ((1, 2), (2, b)),
], ids=["row", "col", "first-row-of-two", "second-col-of-two"])
def test_baking_rejects_an_index_out_of_range(bad, key):
    alg = algebra(2, 1)
    rows, cols = key(bad)
    with pytest.raises(ValueError):
        EndoOperator.from_abstract(alg, len(rows), {(rows, cols): 1})


def test_one_element_ring():
    alg = algebra(1, 1)
    parsed = parse_series("1 + {T[1,1,1]}*u^-1 + O(u^-3)", alg)
    assert parsed.alg is alg
    assert parsed.coefficient(1) == alg.gen(1, 1, 1)


@pytest.mark.parametrize("command", ["check", "compute"])
def test_every_parameter_flag_reaches_the_params(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command").choices[command]
    flags = {a.option_strings[0]: a.dest for a in sub._actions
             if a.option_strings and a.dest not in ("help", "map_name")}
    assert len(flags) == len(INT_PARAMS) + 1
    argv = [command, "hopf-axioms" if command == "check" else "z"]
    want = {}
    for value, (flag, dest) in enumerate(sorted(flags.items()), start=1):
        if dest == "points":
            argv += [flag, "0,1/2,-3"]
            want[dest] = ["0", "1/2", "-3"]
        else:
            argv += [flag, str(value)]
            want[dest] = value
    assert _suite_params(parser.parse_args(argv)) == want


def test_coproduct_generator_images_live_in_the_delta_table():
    alg = Algebra(1, 1)
    g = GenIndex(1, 2, 1)
    image = build_coproduct(alg).image(g)
    assert image == coproduct_gen(alg, g)
    assert alg.morphisms["Delta"][0][g] is image
    assert not hasattr(alg, "coproducts")
