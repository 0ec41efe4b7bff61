"""Letters are packed ints, and the kernel's shortcuts change no result.

* `GenIndex` packs T[i,j,r] into one int whose order is the (i, j, r)
  order, unpacks as (i, j, r), and keeps its old `repr`.
* Every letter an algebra makes carries its Z2-degree ibar + jbar as
  `odd`.
* A swap that adds no commutator term memoizes the swapped word's own
  dict: the memo shares it instead of copying it.
* `pbw_confluence_check` draws its letters from one pool per budget and
  `normal_order_randomized` reads each letter's `odd`: both make the
  same rng draws, words and verdicts as the plain loop they replace, a
  copy of which is kept here as the reference.  The check's failure
  site fires under the `rewriting` defect with the words and residuals
  the reference loop gives.
* A word given to `normal_order_randomized` or `Algebra.element` as the
  algebra's letters, as foreign letters or as raw triples becomes the
  same word of the algebra's letters.
"""

import json
import random
from itertools import product

import pytest

from defects import DEFECTS
from helpers import letter_parity
from superyangian.algebra import HALF, Algebra, Element, GenIndex, algebra
from superyangian.checkresult import failure
from superyangian.grammar import element_to_text
from superyangian.series import exact
from superyangian.tensor_checks import pbw_confluence_check


def test_letters_are_packed_ints_in_the_tuple_order():
    alg = Algebra(2, 2)
    letters = list(alg.gens(9))
    assert len(letters) == 4 * 4 * 9
    for g in letters:
        assert isinstance(g, int) and type(g) is GenIndex
        assert tuple(g) == (g.i, g.j, g.r)
        assert alg.letter(*g) is g
        assert repr(g) == f"GenIndex(i={g.i}, j={g.j}, r={g.r})"
        assert json.dumps(list(g)) == json.dumps([g.i, g.j, g.r])
    for a, b in product(letters, repeat=2):
        assert (a < b) == (tuple(a) < tuple(b))
        assert (a == b) == (tuple(a) == tuple(b))


@pytest.mark.parametrize("m,n", [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)])
def test_every_letter_carries_its_parity(m, n):
    for alg in (algebra(m, n), Algebra(m, n)):
        for g in alg.gens(3):
            assert type(g.odd) is int
            assert g.odd == letter_parity(alg, g), g


def test_a_letter_is_not_its_tuple():
    g = Algebra(1, 1).letter(1, 2, 3)
    assert g != (1, 2, 3)
    i, j, r = g
    assert (i, j, r) == (1, 2, 3)
    assert g == GenIndex(1, 2, 3) and hash(g) == hash(GenIndex(1, 2, 3))


def _memo_shares(alg, word):
    """Whether the memo value of `word` is its swapped child's own dict,
    and whether it must be: the leftmost reducible pair is a swap of two
    letters not both odd whose commutator has no terms."""
    m = alg.m
    odd = [(g.i > m) != (g.j > m) for g in word]
    nf = alg._nf[word]
    for p in range(len(word) - 1):
        x, y = word[p], word[p + 1]
        if x == y and odd[p]:
            return None
        if x > y:
            if (odd[p] and odd[p + 1]) or alg.comm_terms(x, y):
                return None
            child = word[:p] + (y, x) + word[p + 2:]
            return nf is alg._nf[child]
    return None


def test_a_swap_that_adds_nothing_shares_its_childs_dict():
    alg = Algebra(2, 1)
    word = (alg.letter(2, 2, 1), alg.letter(1, 1, 1))
    assert not alg.comm_terms(*word)
    nf = alg._nf[word]
    assert nf is alg._nf[word[::-1]]
    assert nf == {(word[::-1],): 1}
    shared = [_memo_shares(alg, w) for w in product(list(alg.gens(2)), repeat=3)]
    assert shared.count(True) > 100 and False not in shared


# -- the reference: the draw loop and randomized rewriting as they were ---


def reference_randomized(alg, word, rng):
    word = tuple(alg.letter(*g) for g in word)
    pending = [(1, word)]
    acc = {}
    while pending:
        coeff, w = pending.pop()
        spots = []
        for p in range(len(w) - 1):
            x, y = w[p], w[p + 1]
            if x > y:
                spots.append((p, False))
            elif x == y and letter_parity(alg, x):
                spots.append((p, True))
        if not spots:
            acc[w] = acc.get(w, 0) + coeff
            continue
        p, square = spots[rng.randrange(len(spots))]
        x, y = w[p], w[p + 1]
        pre, post = w[:p], w[p + 2:]
        if square:
            for cw, cc in alg.comm_terms(x, x):
                pending.append((exact(coeff * cc * HALF), pre + cw + post))
        else:
            sign = -1 if letter_parity(alg, x) and letter_parity(alg, y) else 1
            pending.append((coeff * sign, pre + (y, x) + post))
            for cw, cc in alg.comm_terms(x, y):
                pending.append((coeff * cc, pre + cw + post))
    return Element(alg, 1, {(w,): c for w, c in acc.items() if c})


def reference_schedules(alg, schedules, filt_max, max_len, seed):
    """The words drawn, one randomized result per schedule, and the rng."""
    rng = random.Random(seed)
    gens = list(alg.gens(filt_max))
    drawn = []
    done = 0
    while done < schedules:
        length = rng.randrange(2, max_len + 1)
        word = []
        budget = filt_max
        for _ in range(length):
            g = rng.choice([g for g in gens if g.r <= budget] or gens[:1])
            if g.r > budget:
                break
            word.append(g)
            budget -= g.r
        if len(word) < 2:
            continue
        word = tuple(word)
        for _ in range(3):
            if done >= schedules:
                break
            drawn.append((word, reference_randomized(alg, word, rng), rng.getstate()))
            done += 1
    return drawn, rng.getstate()


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (0, 2)])
@pytest.mark.parametrize("seed", [0, 2024])
def test_randomized_rewriting_matches_the_reference(m, n, seed):
    alg = algebra(m, n)
    pick = random.Random(seed + 1)
    gens = list(alg.gens(3))
    words = [tuple(pick.choice(gens) for _ in range(k)) for k in (2, 3, 4) for _ in range(8)]
    rng, ref_rng = random.Random(seed), random.Random(seed)
    words += [(g, g, g) for g in gens[:6]]
    for word in words:
        got = alg.normal_order_randomized([tuple(g) for g in word], rng)
        assert got == reference_randomized(alg, word, ref_rng)
        assert got == alg.element([(1, [word])])
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("m,n,filt_max,max_len", [(1, 1, 6, 5), (2, 1, 4, 4), (0, 2, 5, 5)])
def test_confluence_draws_match_the_reference(monkeypatch, m, n, filt_max, max_len):
    alg = algebra(m, n)
    seed = 7 + filt_max
    schedules = 60
    expected, expected_state = reference_schedules(alg, schedules, filt_max, max_len, seed)
    seen = []
    randomized = alg.normal_order_randomized

    def recording(word, rng):
        out = randomized(word, rng)
        seen.append((word, out, rng.getstate()))
        return out

    monkeypatch.setattr(alg, "normal_order_randomized", recording)
    result = pbw_confluence_check(m, n, schedules, filt_max, max_len, seed)
    assert not result.failures
    assert result.info == {"schedules": schedules, "filt_max": filt_max, "seed": seed}
    assert seen == expected
    assert seen[-1][2] == expected_state


CONFLUENCE_FAILURES = {(1, 1): 11, (2, 1): 7, (0, 2): 7}


@pytest.mark.parametrize("m,n", list(CONFLUENCE_FAILURES))
def test_confluence_fails_under_a_broken_rewriting_as_the_reference_does(monkeypatch, m, n):
    DEFECTS["rewriting"](monkeypatch, [(m, n)])
    alg = algebra(m, n)
    result = pbw_confluence_check(m, n, 300, 6, 5, 11)
    drawn, _ = reference_schedules(alg, 300, 6, 5, 11)
    want = []
    for word, got, _ in drawn:
        reference = alg.element([(1, [word])])
        if got != reference:
            want.append(failure({"word": [list(g) for g in word]},
                                element_to_text(got - reference)))
    assert result.info == {"schedules": 300, "filt_max": 6, "seed": 11}
    assert result.failures == want
    assert len(want) == CONFLUENCE_FAILURES[m, n]


def test_a_word_is_lettered_by_value_whatever_it_is_given_as():
    alg = Algebra(1, 1)
    letters = (alg.letter(2, 1, 1), alg.letter(1, 2, 2), alg.letter(1, 2, 2))
    raw = [(2, 1, 1), [1, 2, 2], (1, 2, 2)]
    foreign = tuple(Algebra(2, 0).letter(*g) for g in letters)
    assert any(f.odd != g.odd for f, g in zip(foreign, letters))
    want = alg.element([(1, [letters])])
    for word in (letters, raw, foreign, raw[:1] + list(letters[1:])):
        got = alg.element([(1, [word])])
        assert got == want
        assert all(g is alg.letter(*g) for (w,) in got.terms for g in w)
        assert alg.normal_order_randomized(word, random.Random(3)) == want
        # a one-shot iterable is read once, also when lettering falls back
        assert alg.element([(1, [iter(word)])]) == want
        assert alg.normal_order_randomized(iter(word), random.Random(3)) == want


def test_confluence_rejects_a_vacuous_filtration_bound():
    # no word of two letters has level sum 1: filt_max 1 once drew forever
    for filt_max in (1, 0, -1):
        with pytest.raises(ValueError):
            pbw_confluence_check(1, 1, 10, filt_max)
    with pytest.raises(ValueError):
        pbw_confluence_check(1, 1, 0, 5)

