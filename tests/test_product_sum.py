"""The fused product-sum kernel against references that do not use it.

* `Algebra.product_sum` equals both a fold of `Element` products and
  the normal forms of the concatenated words, built through
  `Algebra.element`, on seeded random 1-leg elements, with zero
  coefficients, zero factors and exact cancellation to zero.
* The fused `supercommutator` equals the five-product `parity_split`
  form it replaced.
* Word images built from cached prefixes or suffixes equal the left
  fold of generator images, for all four morphisms, on clean algebras
  and under the `rewriting` defect.
* A series product and inverse equal the plain fold of `Element`
  products, coefficient by coefficient.
"""

import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from defects import break_rewriting
from helpers import left_fold_image, parity_split_supercommutator
from superyangian.algebra import Algebra, Element, algebra, supercommutator
from superyangian.matrices import gen_series
from superyangian.morphisms import build_antipode, build_eta, build_omega, build_transpose

PAIRS = [(1, 1), (2, 1), (1, 2), (0, 2)]


def random_element(alg, rng, terms=6, max_level=2, max_len=3):
    gens = list(alg.gens(max_level))
    raw = []
    for _ in range(terms):
        word = tuple(rng.choice(gens) for _ in range(rng.randrange(max_len + 1)))
        raw.append((Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)), [word]))
    return alg.element(raw)


def random_triples(alg, rng, count):
    triples = []
    for _ in range(count):
        coeff = rng.choice([0, 1, -1, 2, Fraction(-3, 2)])
        a = random_element(alg, rng) if rng.random() > 0.15 else alg.zero(1)
        b = random_element(alg, rng) if rng.random() > 0.15 else alg.zero(1)
        triples.append((coeff, a, b))
    return triples


def fold_of_products(alg, triples):
    acc = alg.zero(1)
    for coeff, a, b in triples:
        acc = acc + (a * b).scale(coeff)
    return acc


def concatenated_words(alg, triples):
    raw = [(coeff * ca * cb, [wa + wb])
           for coeff, a, b in triples
           for (wa,), ca in a.terms.items()
           for (wb,), cb in b.terms.items()]
    return alg.element(raw) if raw else alg.zero(1)


@pytest.mark.parametrize("m,n", PAIRS)
def test_kernel_equals_the_fold_of_products(m, n):
    alg = algebra(m, n)
    rng = random.Random(7000 + 10 * m + n)
    for _ in range(12):
        triples = random_triples(alg, rng, rng.randrange(1, 6))
        got = alg.product_sum(triples)
        assert got == fold_of_products(alg, triples)
        assert got == concatenated_words(alg, triples)
        assert all(c for c in got.terms.values())


@pytest.mark.parametrize("m,n", PAIRS)
def test_kernel_cancels_exactly_and_skips_zeros(m, n):
    alg = algebra(m, n)
    rng = random.Random(8000 + 10 * m + n)
    a, b = random_element(alg, rng), random_element(alg, rng)
    assert alg.product_sum([(3, a, b), (-3, a, b)]).terms == {}
    assert alg.product_sum([(1, a, b), (-1, a * b, alg.one(1))]).terms == {}
    assert alg.product_sum([(0, a, b), (5, alg.zero(1), b), (5, a, alg.zero(1))]).terms == {}
    assert alg.product_sum([]).terms == {}
    # a cancellation inside one product: [x, x] = 0 for an even x
    x = alg.gen(1, 1, 1)
    y = alg.gen(1, 1, 2)
    assert alg.product_sum([(1, x, y), (-1, y, x)]).terms == {}
    assert alg.product_sum([(1, a, b)]) == a * b


@pytest.mark.parametrize("m,n", PAIRS)
def test_fused_supercommutator_equals_the_parity_split_form(m, n):
    alg = algebra(m, n)
    rng = random.Random(9000 + 10 * m + n)
    for _ in range(10):
        x, y = random_element(alg, rng), random_element(alg, rng)
        assert supercommutator(x, y) == parity_split_supercommutator(x, y)
    for g, h in iproduct(list(alg.gens(2))[:6], repeat=2):
        x, y = alg.gen(*g), alg.gen(*h)
        assert supercommutator(x, y) == parity_split_supercommutator(x, y)


def sample_words(alg, rng):
    gens = list(alg.gens(2))
    words = [()] + [(g,) for g in gens] + list(iproduct(gens[:5], repeat=2))
    words += [tuple(rng.choice(gens) for _ in range(length))
              for length in (3, 4) for _ in range(12)]
    return words


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2)])
def test_word_images_from_cached_prefixes_equal_the_left_fold(m, n, broken):
    alg = break_rewriting(Algebra(m, n)) if broken else Algebra(m, n)
    rng = random.Random(100 * m + 10 * n + broken)
    tables = [build_eta(alg), build_transpose(alg), build_antipode(alg), build_omega(alg)]
    for word in sample_words(alg, rng):
        for table in tables:
            assert table._apply_word(word) == left_fold_image(table, word), (table.name, word)
    # every prefix (homomorphism) or suffix (antihomomorphism) is cached
    omega, antipode = tables[3], tables[2]
    longest = max(sample_words(alg, random.Random(0)), key=len)
    omega._apply_word(longest)
    antipode._apply_word(longest)
    for cut in range(1, len(longest)):
        assert longest[:cut] in omega._word_cache
        assert longest[cut:] in antipode._word_cache


def _fold(alg, pairs):
    """sum x * y over the (x, y) pairs, one Element product at a time."""
    acc = alg.zero(1)
    for x, y in pairs:
        acc = acc + x * y
    return acc


@pytest.mark.parametrize("m,n", PAIRS)
def test_series_product_equals_the_plain_fold(m, n):
    alg = algebra(m, n)
    for order in (1, 3, 4):
        a = gen_series(alg, 1, 1, order)
        b = gen_series(alg, 1, alg.dim, order)
        folded = [_fold(alg, ((a.coeffs[p], b.coeffs[r - p]) for p in range(r + 1)))
                  for r in range(order + 1)]
        assert list((a * b).coeffs) == folded
        inverse = [alg.one(1)]
        for r in range(1, order + 1):
            inverse.append(-_fold(alg, ((a.coeffs[q], inverse[r - q]) for q in range(1, r + 1))))
        assert list(a.inverse().coeffs) == inverse


def test_product_sum_rejects_multi_leg_elements():
    alg = algebra(1, 1)
    x = alg.element([(1, [[(1, 2, 1)], []])])
    with pytest.raises(ValueError):
        alg.product_sum([(1, x, x)])
    # the multi-leg product keeps its own path
    assert isinstance(x * x, Element) and (x * x).legs == 2
