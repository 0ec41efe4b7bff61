"""`Algebra.letter_brackets`: [x, T_g] read from the defining relation as a
superderivation, equal term for term to the product route
`supercommutator(x, T_g)`.

The random elements mix even and odd words, so a letter's bracket meets
both parities of the letters to its right; every Z^(r) is even but holds
odd letters, so its brackets with odd letters read the suffix sign too.
"""

import random

import pytest

from superyangian.algebra import Algebra, supercommutator
from superyangian.central import z_series

PAIRS = [(1, 1), (2, 1), (1, 2), (0, 2), (2, 2)]


def assert_matches_supercommutator(alg, xs):
    letters = list(alg.gens(3))
    for x in xs:
        got = alg.letter_brackets(x, letters)
        assert list(got) == letters
        for g in letters:
            assert got[g].terms == supercommutator(x, alg.gen(*g)).terms, (x, g)


def random_element(alg, rng):
    letters = list(alg.gens(3))
    terms = [(rng.choice([-2, -1, 1, 3]), [tuple(rng.choice(letters)
                                                for _ in range(rng.randrange(1, 4)))])
             for _ in range(5)]
    return alg.element(terms)


@pytest.mark.parametrize("m,n", PAIRS)
def test_letter_brackets_match_supercommutator_on_random_elements(m, n):
    alg = Algebra(m, n)
    rng = random.Random(10 * m + n)
    xs = [random_element(alg, rng) for _ in range(6)]
    even, odd = zip(*(x.parity_split() for x in xs))
    # gl(0|2) has no odd letter
    assert any(even) and any(odd) == (m > 0 < n)
    assert_matches_supercommutator(alg, xs)


@pytest.mark.parametrize("m,n", PAIRS)
def test_letter_brackets_match_supercommutator_on_z_and_scalars(m, n):
    alg = Algebra(m, n)
    z = z_series(alg, 5)
    zs = [z.coefficient(r) for r in range(6)]
    assert any(len(w) > 1 for c in zs for (w,) in c.terms)
    assert_matches_supercommutator(alg, [alg.zero(1), alg.scalar(3), *zs])

