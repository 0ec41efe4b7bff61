"""Named defects for the mutant tests, and the failure-golden harness.

`DEFECTS` maps a name to an installer `install(mp, pairs)`, where `mp` is
a `pytest.MonkeyPatch` (the fixture, or `pytest.MonkeyPatch.context()`
from plain Python) and `pairs` lists the (M, N) to break.  It puts a
fresh `Algebra` behind `algebra(m, n)` for each pair, so no shared normal
form or cache is poisoned, and patches one seam:

* `rewriting`: `comm_terms` flips the sign of its length-1 terms at level
  sum 3 (`break_rewriting` does so to an algebra a test built itself).
* `z-shifted`: T[1,1,2] is added to the u^-3 coefficient of Z(u), built
  to order 4.  On gl(0|2) it also installs `rewriting` on gl(2|0), whose
  B(u) the az check reads.  `z-odd`: that coefficient is replaced by the
  odd T[1,M+1,1] (so M, N >= 1).
* `tinv-doubled`, `tinv-times-series`: the algebra's T(u)^-1 is stored
  to order 6 as T(u)^-1 times 2, or times the series 1 + u^-1, so every
  reader at order 6 or below finds it.  T(u)^-1 times a central series
  keeps both routes to Z(u) coherent, so Z(u) is built, times the same
  series.
* `p-sign`: P's (12, 21) entry is negated.  `p-doubled`, `q-doubled`,
  `i-doubled`: P's (12, 21), Q's (11, 22) or the even projector I's
  (1, 1) entry is doubled.  The broken operator is built for each
  broken algebra, where `placed` reads it through `tensors._ELEMENTARY`;
  every other algebra reads the clean one.
* `eval-level2-sign`: the one-point image of every level-2 generator of
  a broken algebra is negated, however it is reached.  `eval-plus-e11`:
  E_11 is added to the one-point image of one generator, T[1,2,2]
  unless another is given.
* `antipode-long-word`: the antipode table negates its image of every
  word of three or more letters.

A pair without the entry that `p-sign`, `p-doubled`, `q-doubled` or
`i-doubled` breaks, or without the generator of `eval-plus-e11`, raises
ValueError naming the pair.

A failure-golden `Case` runs one check under one defect; its verdict,
info and failures, or the construction error it raised, are compared
with a golden file as JSON text.
"""

import json
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable

import pytest

from superyangian import tensors
from superyangian.algebra import _ALGEBRAS, Algebra, GenIndex
from superyangian.central import CentralSeriesError, z_series
from superyangian.matrices import t_inverse
from superyangian.morphisms import MorphismTable
from superyangian.series import SeriesTail
from superyangian.tensors import EndoOperator, matrix_unit, perm_p, projectors_ij, q_op

_EVAL_REP_GEN = tensors.eval_rep_gen


def fresh_algebra(mp, m: int, n: int) -> Algebra:
    """A new gl(m|n) behind `algebra(m, n)`, with every cache empty."""
    alg = Algebra(m, n)
    mp.setitem(_ALGEBRAS, (m, n), alg)
    return alg


def break_rewriting(alg: Algebra) -> Algebra:
    """`alg`, which no other test may share, with the `rewriting` defect."""
    comm_terms = alg.comm_terms

    def flipped(a, b):
        terms = comm_terms(a, b)
        if a.r + b.r != 3:
            return terms
        return tuple((w, -c if len(w) == 1 else c) for w, c in terms)

    alg.comm_terms = flipped
    return alg


def rewriting(mp, pairs) -> None:
    for m, n in pairs:
        break_rewriting(fresh_algebra(mp, m, n))


def _store_z(mp, m: int, n: int, edit: Callable) -> None:
    """Store Z(u) to order 4 with its u^-3 coefficient c replaced by
    `edit(alg, c)`."""
    alg = fresh_algebra(mp, m, n)
    z = z_series(alg, 4)
    coeffs = list(z.coeffs)
    coeffs[3] = edit(alg, coeffs[3])
    alg.z = SeriesTail(z.alg, z.order, coeffs)


def z_shifted(mp, pairs) -> None:
    for m, n in pairs:
        _store_z(mp, m, n, lambda alg, c: c + alg.gen(1, 1, 2))
        if (m, n) == (0, 2):
            rewriting(mp, [(2, 0)])


def z_odd(mp, pairs) -> None:
    for m, n in pairs:
        _store_z(mp, m, n, lambda alg, c: alg.gen(1, alg.m + 1, 1))


def _inverse_times(edit: Callable) -> Callable:
    """An installer that stores T(u)^-1 to order 6 with each series s
    replaced by `edit(s)` on the broken algebras, the way `_store_z`
    stores Z(u)."""
    def install(mp, pairs) -> None:
        for m, n in pairs:
            alg = fresh_algebra(mp, m, n)
            alg.tinv = {key: list(edit(s).coeffs) for key, s in t_inverse(alg, 6).items()}

    return install


def _times_one_plus_inverse_u(s: SeriesTail) -> SeriesTail:
    one = s.alg.one(1)
    return s * SeriesTail.from_map(s.alg, s.order, {0: one, 1: one})


def _scaled(op: EndoOperator, key, factor: int) -> EndoOperator:
    entries = dict(op.entries)
    if key not in entries:
        raise ValueError(f"pair ({op.alg.m}, {op.alg.n}) has no entry {key} to break")
    entries[key] = factor * entries[key]
    return EndoOperator(op.alg, op.legs, entries)


def q_doubled(alg) -> EndoOperator:
    return _scaled(q_op(alg), ((1, 1), (2, 2)), 2)


def _elementary(name: str, build: Callable) -> Callable:
    """An installer under which `placed` reads `build(alg)` as the
    operator `name` of each broken algebra, and the clean one elsewhere."""
    def install(mp, pairs) -> None:
        broken = {}
        for m, n in pairs:
            alg = fresh_algebra(mp, m, n)
            broken[alg] = build(alg)
        clean = tensors._ELEMENTARY[name]
        mp.setitem(tensors._ELEMENTARY, name,
                   lambda alg: broken[alg] if alg in broken else clean(alg))

    return install


def _eval_image(edit: Callable) -> Callable:
    """An installer of the one-point images `edit(alg, g, image)` on the
    broken algebras, and the clean images elsewhere."""
    def install(mp, pairs) -> None:
        fresh = [fresh_algebra(mp, m, n) for m, n in pairs]

        def images(alg, g, z):
            image = _EVAL_REP_GEN(alg, g, z)
            return edit(alg, g, image) if any(alg is a for a in fresh) else image

        mp.setattr(tensors, "eval_rep_gen", images)

    return install


def eval_plus_e11(mp, pairs, broken: GenIndex = GenIndex(1, 2, 2)) -> None:
    for m, n in pairs:
        if max(broken.i, broken.j) > m + n:
            raise ValueError(f"pair ({m}, {n}) has no generator T[{broken.i},{broken.j},"
                             f"{broken.r}] to break")
    _eval_image(lambda alg, g, img: img + matrix_unit(alg, 1, 1) if g == broken else img)(
        mp, pairs)


def antipode_long_word(mp, pairs) -> None:
    fresh = [fresh_algebra(mp, m, n) for m, n in pairs]
    apply_word = MorphismTable._apply_word

    def negated(self, word):
        out = apply_word(self, word)  # its suffix images are broken too
        if self.name == "antipode_S" and len(word) >= 3 and any(self.alg is a for a in fresh):
            return -out
        return out

    mp.setattr(MorphismTable, "_apply_word", negated)


DEFECTS = {
    "rewriting": rewriting,
    "z-shifted": z_shifted,
    "z-odd": z_odd,
    "tinv-doubled": _inverse_times(lambda s: s.scale(2)),
    "tinv-times-series": _inverse_times(_times_one_plus_inverse_u),
    "p-sign": _elementary("P", lambda alg: _scaled(perm_p(alg), ((1, 2), (2, 1)), -1)),
    "p-doubled": _elementary("P", lambda alg: _scaled(perm_p(alg), ((1, 2), (2, 1)), 2)),
    "q-doubled": _elementary("Q", q_doubled),
    "i-doubled": _elementary("I", lambda alg: _scaled(projectors_ij(alg)[0], ((1,), (1,)), 2)),
    "eval-level2-sign": _eval_image(lambda alg, g, img: -img if g.r == 2 else img),
    "eval-plus-e11": eval_plus_e11,
    "antipode-long-word": antipode_long_word,
}


# -- failure goldens ----------------------------------------------------------

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@dataclass(frozen=True)
class Case:
    """`check(*args)` with `defect` installed for `pairs`; `keep` is the
    number of failures pinned, all of them when None."""

    defect: str
    pairs: list
    check: Callable
    args: tuple
    keep: int | None = 5


def case_output(case: Case) -> dict:
    with pytest.MonkeyPatch.context() as mp:
        DEFECTS[case.defect](mp, case.pairs)
        try:
            result = case.check(*case.args)
        except CentralSeriesError as exc:  # the construction error is the output
            return {"error": f"{type(exc).__name__}: {exc}"}
        return json.loads(json.dumps(
            {"ok": not result.failures, "info": result.info, "failures": result.failures[:case.keep]}))


@cache
def read_golden(path: Path) -> dict:
    return json.loads(path.read_text())


def write_golden(path: Path, cases: dict) -> None:
    """Regenerate a golden file, only from a tree whose outputs are trusted."""
    outputs = {name: case_output(case) for name, case in cases.items()}
    path.write_text(json.dumps(outputs, indent=1) + "\n")


def golden_test(path: Path, cases: dict) -> Callable:
    """The test that pins each case of `cases` to its entry in `path`."""
    @pytest.mark.parametrize("name", list(cases))
    def test_failure_output_matches_golden(name):
        # compared as text, so the order of the location keys is pinned too
        assert json.dumps(case_output(cases[name])) == json.dumps(read_golden(path)[name])

    return test_failure_output_matches_golden
