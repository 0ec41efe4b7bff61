"""Reference constructions and seeded inputs shared by several test
modules, so that no test module imports another."""

from fractions import Fraction

from superyangian.series import Poly
from superyangian.tensors import EndoOperator, placed


def random_tensor_element(alg, rng, legs, terms=8, max_level=3, max_len=2):
    """A seeded `legs`-leg element with rational coefficients."""
    gens = list(alg.gens(max_level))
    raw = []
    for _ in range(terms):
        mon = [tuple(rng.choice(gens) for _ in range(rng.randrange(max_len + 1)))
               for _ in range(legs)]
        raw.append((Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)), mon))
    return alg.element(raw)


def primitive(x):
    """x (x) 1 + 1 (x) x for a 1-leg element x, built from raw terms."""
    words = [(w, c) for (w,), c in x.terms.items()]
    return x.alg.element([(c, [w, ()]) for w, c in words] + [(c, [(), w]) for w, c in words])


def letter_parity(alg, g):
    """The Z2-degree ibar + jbar of the letter T[i,j,r], from the index
    parities alone."""
    return alg.parities[g.i] ^ alg.parities[g.j]


def element_parity(x):
    """The Z2-degree of a parity-homogeneous element (zero counts as
    even), or None when it has parts of both degrees."""
    even, odd = x.parity_split()
    return None if even and odd else 1 if odd else 0


def parity_split_supercommutator(x, y):
    """[x, y] as the five products of even and odd parts it was once."""
    xe, xo = x.parity_split()
    ye, yo = y.parity_split()
    return x * y - ye * xe - ye * xo - yo * xe + yo * xo


def left_fold_image(table, word):
    """The image of a word as the left fold of the table's generator
    images, with the Koszul sign of an antihomomorphism."""
    alg = table.alg
    if not word:
        return alg.one(1)
    if table.kind == "homomorphism":
        out = table.image(word[0])
        for g in word[1:]:
            out = out * table.image(g)
        return out
    pars = [letter_parity(alg, g) for g in word]
    exp = sum(pars[p] * pars[q] for p in range(len(word)) for q in range(p + 1, len(word)))
    out = table.image(word[-1])
    for g in reversed(word[:-1]):
        out = out * table.image(g)
    return -out if exp % 2 else out


def poly_cleared(alg, c: Poly, name: str, legs_at: tuple, total: int) -> EndoOperator:
    """c - P or c + Q placed at `legs_at` for a polynomial c, as one
    operator with `Poly` entries: c R(c) or c Rtilde(c)."""
    sign = -1 if name == "P" else 1
    out = dict.fromkeys(placed(alg, "1", (), total).entries, c)
    for key, v in placed(alg, name, legs_at, total).entries.items():
        out[key] = out.get(key, 0) + sign * v
    return EndoOperator(alg, total, out)
