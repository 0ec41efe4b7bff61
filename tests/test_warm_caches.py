"""The warm-pass caches change no result.

* The self-filling normal-form memo (`algebra.NormalForms`) gives, word
  for word, what the recursive normal form it replaced gave; a copy
  of that recursion is kept here as the reference.  A swap that adds no
  commutator term still shares its swapped word's dict.
* The 1-leg `supercommutator`, one `product_sum` of five products,
  equals the term-wise definition sum over word pairs of
  NF(wa wb) - (-1)^(|wa||wb|) NF(wb wa).
* S^2(T(u)) is kept on the algebra at the highest order asked for and
  cut down below it.
* `relation_residuals` yields every quadruple, and each nonzero cell,
  in order, as an Element under the memo's key objects.
"""

import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from defects import DEFECTS, break_rewriting
from superyangian.algebra import HALF, Algebra, algebra, relation_residuals, supercommutator
from superyangian.central import antipode_square_series
from superyangian.series import add_scaled, exact

PAIRS = [(1, 1), (2, 1), (1, 2), (0, 2)]


def reference_normal_form(alg, word, memo):
    """Normal form of `word` by the recursion the algebra ran before the
    memo filled itself, memoized in `memo`."""
    cached = memo.get(word)
    if cached is not None:
        return cached
    m = alg.m
    pos, square = -1, False
    for p in range(len(word) - 1):
        x, y = word[p], word[p + 1]
        if x > y:
            pos = p
            break
        if x == y and (x.i > m) != (x.j > m):
            pos, square = p, True
            break
    if pos < 0:
        result = {(word,): 1}
    else:
        x, y = word[pos], word[pos + 1]
        pre, post = word[:pos], word[pos + 2:]
        result = {}
        if square:
            for w, c in alg.comm_terms(x, x):
                add_scaled(result, c * HALF, reference_normal_form(alg, pre + w + post, memo))
            result = {k: exact(c) for k, c in result.items()}
        else:
            sign = -1 if (x.i > m) != (x.j > m) and (y.i > m) != (y.j > m) else 1
            add_scaled(result, sign, reference_normal_form(alg, pre + (y, x) + post, memo))
            for w, c in alg.comm_terms(x, y):
                add_scaled(result, c, reference_normal_form(alg, pre + w + post, memo))
    memo[word] = result
    return result


def swept_words(alg):
    """Every word of at most 4 letters over the letters of level <= 3
    whose total level is at most 5 (40771 words on gl(2|1))."""
    letters = list(alg.gens(3))
    for length in range(5):
        for word in iproduct(letters, repeat=length):
            if sum(g.r for g in word) <= 5:
                yield word


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize("m,n", PAIRS)
def test_the_self_filling_memo_equals_the_recursive_normal_form(m, n, broken):
    alg = break_rewriting(Algebra(m, n)) if broken else Algebra(m, n)
    assert not alg._nf
    reference = {}
    count = 0
    for word in swept_words(alg):
        assert alg._nf[word] == reference_normal_form(alg, word, reference), word
        count += 1
    assert count > 2000
    # the memo filled itself with exactly the words the recursion reached
    assert alg._nf.keys() == reference.keys()
    # a swap that adds nothing shares its child's dict
    shared = 0
    for word in alg._nf:
        for p in range(len(word) - 1):
            x, y = word[p], word[p + 1]
            if x == y and alg.gen_parity(x):
                break
            if x > y:
                if not (alg.gen_parity(x) and alg.gen_parity(y)) and not alg.comm_terms(x, y):
                    assert alg._nf[word] is alg._nf[word[:p] + (y, x) + word[p + 2:]]
                    shared += 1
                break
    assert shared > 100


def term_wise_supercommutator(x, y):
    """sum over word pairs of ca cb (NF(wa wb) - (-1)^(|wa||wb|) NF(wb wa)),
    every word normal-ordered through `Algebra.element`."""
    alg = x.alg
    raw = []
    for (wa,), ca in x.terms.items():
        for (wb,), cb in y.terms.items():
            sign = 1 if alg.word_parity(wa) and alg.word_parity(wb) else -1
            raw += [(ca * cb, [wa + wb]), (sign * ca * cb, [wb + wa])]
    return alg.element(raw)


def mixed_element(alg, rng, terms=6):
    """A seeded 1-leg element from raw terms, some with coefficient 0, of
    both parities."""
    gens = list(alg.gens(2))
    raw = []
    for _ in range(terms):
        word = [rng.choice(gens) for _ in range(rng.randrange(4))]
        coeff = rng.choice([0, 0, 1, -2, Fraction(3, 2), Fraction(-1, 3)])
        raw.append((coeff, [word]))
    return alg.element(raw)


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2)])
def test_fused_supercommutator_equals_the_term_wise_definition(m, n, broken):
    alg = break_rewriting(Algebra(m, n)) if broken else Algebra(m, n)
    rng = random.Random(4100 + 10 * m + n + broken)
    elements = [mixed_element(alg, rng) for _ in range(8)]
    assert any(x.parity_split()[0] and x.parity_split()[1] for x in elements)
    odd = next(g for g in alg.gens(1) if alg.gen_parity(g))
    elements += [alg.zero(1), alg.one(1), alg.scalar(Fraction(-5, 2)),
                 alg.gen(1, 1, 1) + alg.gen(1, 1, 2), alg.gen(*odd)]
    for x, y in iproduct(elements, repeat=2):
        got = supercommutator(x, y)
        assert got == term_wise_supercommutator(x, y)
        assert all(got.terms.values())
    # exact cancellation: the unit, an even element with itself, and
    # two odd letters that anticommute
    even = elements[-2]
    assert supercommutator(elements[0], alg.one(1)).terms == {}
    assert supercommutator(even, even.scale(3)).terms == {}
    x = alg.gen(*odd)
    assert supercommutator(x, x) == x * x + x * x


@pytest.mark.parametrize("m,n", PAIRS)
def test_s2_is_kept_at_the_highest_order_and_cut_below_it(m, n, monkeypatch):
    alg = Algebra(m, n)
    assert alg.s2 is None
    top = antipode_square_series(alg, 5)
    kept = {key: list(c) for key, c in alg.s2.items()}
    assert all(len(c) == 6 for c in kept.values())
    low = antipode_square_series(alg, 3)
    direct = antipode_square_series(Algebra(m, n), 3)
    assert low == direct
    for key, series in top.items():
        assert series.truncate(3) == low[key]
        assert all(a is b for a, b in zip(low[key].coeffs, kept[key]))
    # the top copy is not rebuilt: no product sum runs for order <= 5
    monkeypatch.setattr(alg, "product_sum", None)
    assert antipode_square_series(alg, 5) == top
    assert all(alg.s2[key] == c and all(a is b for a, b in zip(alg.s2[key], c))
               for key, c in kept.items())


@pytest.mark.parametrize("m,n", PAIRS)
def test_s2_grows_in_place_and_a_fresh_defect_algebra_starts_empty(m, n, monkeypatch):
    alg = Algebra(m, n)
    low = antipode_square_series(alg, 2)
    grown = antipode_square_series(alg, 4)
    assert grown == antipode_square_series(Algebra(m, n), 4)
    for key, series in low.items():
        assert all(a is b for a, b in zip(series.coeffs, grown[key].coeffs))
    shared = algebra(m, n)
    clean = antipode_square_series(shared, 3)
    assert shared.s2 is not None
    DEFECTS["tinv-doubled"](monkeypatch, [(m, n)])
    broken = algebra(m, n)
    assert broken is not shared and broken.s2 is None
    assert antipode_square_series(broken, 3) != clean


@pytest.mark.parametrize("m,n", PAIRS)
def test_relation_residual_terms_yields_every_cell_under_memo_keys(m, n):
    cells = [(p, q) for p in range(-1, 3) for q in range(-1, 3)]
    for broken in (False, True):
        alg = break_rewriting(Algebra(m, n)) if broken else Algebra(m, n)
        got = list(relation_residuals(alg, alg._nf.__getitem__, cells))
        assert [quad for quad, _ in got] == list(iproduct(range(1, alg.dim + 1), repeat=4))
        nonzero = 0
        for quad, bad in got:
            assert [cell for cell, _ in bad] == [cell for cell in cells
                                                 if cell in dict(bad)], quad
            for cell, x in bad:
                assert x.legs == 1 and type(x.terms) is dict and all(x.terms.values())
                for key in x.terms:
                    (memo_key,) = alg._nf[key[0]]
                    assert key is memo_key
            nonzero += len(bad)
        assert bool(nonzero) == broken
