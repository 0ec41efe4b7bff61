"""One object per letter and one key per normal word.

* Every constructor path of `Element` yields terms keyed one word per
  tensor leg, each letter the algebra's own `Algebra.letter` object, and
  elements built along different paths from the same seeded input
  compare equal.
* The normal-form memo maps a normal word w to {(w,): 1}; product sums
  and the morphism tables' cached brackets reuse the memo's key objects;
  and two fresh algebras of one type, as the defects of
  `tests/defects.py` install them, share no letter and no key.
"""

import random
from fractions import Fraction

import pytest

from defects import DEFECTS, break_rewriting
from helpers import left_fold_image, parity_split_supercommutator
from superyangian.algebra import Algebra, algebra, relation_residuals, supercommutator
from superyangian.grammar import element_to_text, parse_element
from superyangian.morphisms import (
    build_antipode,
    build_coproduct,
    build_eta,
    build_omega,
    build_transpose,
)
from superyangian.tensor_checks import normal_monomials

PAIRS = [(1, 1), (2, 1), (1, 2), (0, 2)]


def assert_layout(alg, x):
    """Each key holds one word per leg, and each letter is interned."""
    assert x.alg is alg
    for key, coeff in x.terms.items():
        assert coeff
        assert type(key) is tuple and len(key) == x.legs
        for word in key:
            assert type(word) is tuple
            for g in word:
                assert g is alg.letter(*g)


def raw_words(alg, rng, count, max_len=3, max_level=2):
    """Seeded words of plain (i, j, r) tuples, never the algebra's letters."""
    return [tuple((rng.randint(1, alg.dim), rng.randint(1, alg.dim),
                   rng.randint(1, max_level))
                  for _ in range(rng.randrange(max_len + 1)))
            for _ in range(count)]


def raw_element(alg, rng, terms=5, legs=1, max_len=3):
    raw = []
    for _ in range(terms):
        mon = raw_words(alg, rng, legs, max_len)
        raw.append((Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)), mon))
    return alg.element(raw)


@pytest.mark.parametrize("m,n", PAIRS)
def test_every_constructor_path_keys_interned_words(m, n):
    alg = Algebra(m, n)
    rng = random.Random(1100 + 10 * m + n)
    a, b = raw_element(alg, rng), raw_element(alg, rng)
    built = {"element": [a, b]}

    pairs = [((1, alg.dim, 2), (alg.dim, 1, 1))]
    for _ in range(4):
        pairs.append(tuple((rng.randint(1, alg.dim), rng.randint(1, alg.dim), rng.randint(1, 3))
                           for _ in range(2)))
    built["gen"] = [alg.gen(*g) for g, _ in pairs]
    built["comm_terms"] = []
    for g, h in pairs:
        rule = alg.element([(c, [w]) for w, c in alg.comm_terms(alg.letter(*g), alg.letter(*h))])
        assert rule == supercommutator(alg.gen(*g), alg.gen(*h))
        built["comm_terms"].append(rule)

    ps = alg.product_sum([(2, a, b), (Fraction(-1, 3), b, a)])
    assert ps == (a * b).scale(2) + (b * a).scale(Fraction(-1, 3))
    built["product_sum"] = [ps]

    two = raw_element(alg, rng, legs=2)
    flat = two.multiply_legs()
    assert flat == alg.element([(c, [w0 + w1]) for (w0, w1), c in two.terms.items()])
    built["multiply_legs"] = [flat]

    sc = supercommutator(a, b)
    assert sc == parity_split_supercommutator(a, b)
    built["supercommutator"] = [sc]

    randomized = []
    for word in raw_words(alg, rng, 6, max_len=4):
        got = alg.normal_order_randomized(word, rng)
        assert got == alg.element([(1, [word])])
        randomized.append(got)
    built["normal_order_randomized"] = randomized

    parsed = [parse_element(alg, element_to_text(x)) for x in (a, b, ps)]
    assert parsed == [a, b, ps]
    built["parse_element"] = parsed

    # two letters of level <= 2 normal-order to letters of level <= 3
    tables = [build_eta(alg), build_transpose(alg), build_antipode(alg), build_omega(alg)]
    images = []
    for table in tables:
        x = raw_element(alg, rng, max_len=2)
        img = table.apply(x)
        want = alg.zero(1)
        for (word,), c in x.terms.items():
            want = want + left_fold_image(table, word).scale(c)
        assert img == want, table.name
        images.append(img)
    images.append(build_coproduct(alg).apply(a))
    built["MorphismTable.apply"] = images
    letters = list(alg.gens(2))
    built["MorphismTable.bracket"] = [table.bracket(*rng.sample(letters, 2))
                                      for table in tables for _ in range(3)]

    for path, elements in built.items():
        assert any(x.terms for x in elements), path
        for x in elements:
            assert_layout(alg, x)


@pytest.mark.parametrize("m,n", PAIRS)
def test_relation_residual_coefficients_key_interned_words(m, n):
    cells = [(p, q) for p in range(-1, 3) for q in range(-1, 3)]
    clean = Algebra(m, n)
    assert not any(bad for _, bad in relation_residuals(clean, clean._nf.__getitem__, cells))
    alg = break_rewriting(Algebra(m, n))
    # the same coefficients with every word normal-ordered through element()
    via_element = relation_residuals(alg, lambda w: alg.element([(1, [w])]).terms, cells)
    nonzero = 0
    for (quad, bad), (ref_quad, ref) in zip(relation_residuals(alg, alg._nf.__getitem__, cells),
                                            via_element, strict=True):
        assert quad == ref_quad
        assert [cell for cell, _ in bad] == [cell for cell, _ in ref], quad
        for (cell, coeff), (_, want) in zip(bad, ref):
            assert_layout(alg, coeff)
            assert coeff.terms == want.terms
            nonzero += 1
    assert nonzero


@pytest.mark.parametrize("m,n", PAIRS)
def test_the_memo_keys_each_normal_word_once(m, n):
    alg = Algebra(m, n)
    for word in normal_monomials(alg, 3):
        assert alg._nf[word] == {(word,): 1}
    rng = random.Random(1200 + 10 * m + n)
    a, b = raw_element(alg, rng), raw_element(alg, rng)
    got = alg.product_sum([(1, a, b), (3, b, a)])
    assert got.terms
    for key in got.terms:
        (memo_key,) = alg._nf[key[0]]
        assert key is memo_key
    brackets = [build(alg).bracket(g, h) for build in (build_eta, build_antipode)
                for g in alg.gens(2) for h in alg.gens(2)]
    assert any(brackets)
    for _, _, cached in alg.morphisms.values():
        for x in cached.values():
            for key in x.terms:
                (memo_key,) = alg._nf[key[0]]
                assert key is memo_key
    for nf in alg._nf.values():
        for key in nf:
            (memo_key,) = alg._nf[key[0]]
            assert key is memo_key


def test_fresh_algebras_share_no_letter_and_no_key(monkeypatch):
    made = []
    for _ in range(2):
        DEFECTS["rewriting"](monkeypatch, [(1, 1)])
        alg = algebra(1, 1)
        x = alg.element([(1, [((1, 2, 2), (2, 1, 1), (1, 1, 2))]), (2, [((2, 2, 2),) * 2])])
        made.append((alg, x * x))
    (a, xa), (b, xb) = made
    assert a is not b and xa == xb and xa.terms

    def ids(alg):
        letters = {id(g) for g in alg._letters.values()}
        keys = {id(key) for nf in alg._nf.values() for key in nf}
        return letters, keys

    (la, ka), (lb, kb) = ids(a), ids(b)
    assert la and ka
    assert not la & lb
    assert not ka & kb
