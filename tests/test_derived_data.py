"""Derived data owned by the Algebra: one T(u)^-1, S^2(T(u)) and Z(u)
per algebra, at the highest order requested and truncated below it,
T(u)^-1 and S^2(T(u)) grown from the order they have by one recursion,
and a warm Z(u) read without a product; derived data keeps its summed
products but not their one-shot product words in the normal-form memo;
the default run-all output pinned byte for byte."""

from pathlib import Path

import pytest

from defects import break_rewriting, fresh_algebra
from superyangian.algebra import Algebra, NormalForms
from superyangian import central
from superyangian.central import antipode_square_series, morphism_relation_check, z_series
from superyangian.matrices import hatted_entry, t_inverse
from superyangian.morphisms import build_antipode, build_omega
from superyangian.suites import default_config, reports_to_json, run_all

GOLDEN = Path(__file__).resolve().parent / "golden" / "default_reports.json"
PAIRS = [(1, 1), (2, 1), (1, 2), (0, 2)]


@pytest.mark.parametrize("m,n", PAIRS)
def test_lower_orders_are_truncations_of_the_highest(m, n):
    alg = Algebra(m, n)
    z_series(alg, 6)
    top_tinv, top_z = alg.tinv, alg.z
    assert len(top_tinv[1, 1]) == 7 and top_z.order == 6
    low = t_inverse(alg, 3)
    direct = t_inverse(Algebra(m, n), 3)
    assert low[1, 1].order == 3
    for i in range(1, alg.dim + 1):
        for j in range(1, alg.dim + 1):
            assert low[i, j] == direct[i, j]
    # Z(u) built from scratch at order 3 in an algebra that never saw order 6
    assert z_series(alg, 3) == z_series(Algebra(m, n), 3)
    assert alg.tinv is top_tinv and alg.z is top_z


@pytest.mark.parametrize("m,n", PAIRS)
def test_a_warm_z_series_runs_no_product_sum(m, n, monkeypatch):
    alg = Algebra(m, n)
    top = z_series(alg, 6)
    top_tinv, top_z = alg.tinv, alg.z
    # neither Z(u) nor T(u)^-1 is rebuilt at order <= 6
    monkeypatch.setattr(alg, "product_sum", None)
    assert z_series(alg, 6) is top
    assert z_series(alg, 3) == top.truncate(3)
    assert alg.tinv is top_tinv and alg.z is top_z


@pytest.mark.parametrize("m,n", PAIRS)
def test_the_inverse_grows_in_place_from_the_order_it_has(m, n):
    alg = Algebra(m, n)
    low = t_inverse(alg, 3)
    kept = alg.tinv
    grown = t_inverse(alg, 6)
    assert alg.tinv is kept
    direct = t_inverse(Algebra(m, n), 6)
    for key, series in direct.items():
        assert grown[key] == series
        assert all(a is b for a, b in zip(grown[key].coeffs[:4], low[key].coeffs, strict=True))


# T(u)^-1 at orders 0, 3, 1 and 6, and S^2(T(u)) at the same orders, the
# last while T(u)^-1 is still at order 3
GROWTH_ASKS = [("tinv", 0), ("tinv", 3), ("s2", 0), ("s2", 3), ("tinv", 1), ("s2", 1),
               ("s2", 6), ("tinv", 6)]
GROWN = {"tinv": t_inverse, "s2": antipode_square_series}


def held_order(alg, name):
    """The order of the kept series `name`, 0 when there is none: its
    X^(0) = 1 costs no product sum."""
    lists = getattr(alg, name)
    return len(lists[1, 1]) - 1 if lists else 0


@pytest.mark.parametrize("m,n", PAIRS)
def test_the_inverse_and_s2_grow_through_one_recursion(m, n, monkeypatch):
    """Each ask equals a fresh build at its order and is read from the
    kept coefficient objects, which are grown in place; each coefficient
    the algebra lacks costs one product sum per entry, so an order
    already held costs none."""
    alg = Algebra(m, n)
    calls = []
    product_sum = alg.product_sum
    monkeypatch.setattr(alg, "product_sum",
                        lambda *args, **kwargs: calls.append(1) or product_sum(*args, **kwargs))
    for name, order in GROWTH_ASKS:
        before = {kept: {key: (c, list(c)) for key, c in (getattr(alg, kept) or {}).items()}
                  for kept in GROWN}
        tops = {kept: held_order(alg, kept) for kept in GROWN}
        calls.clear()
        got = GROWN[name](alg, order)
        assert got == GROWN[name](Algebra(m, n), order)
        kept = getattr(alg, name)
        assert all(a is b for key, series in got.items()
                   for a, b in zip(series.coeffs, kept[key][:order + 1], strict=True))
        for other, lists in before.items():
            for key, (c, old) in lists.items():
                assert getattr(alg, other)[key] is c
                assert all(a is b for a, b in zip(old, c[:len(old)], strict=True))
        grown = sum(held_order(alg, other) - tops[other] for other in GROWN)
        assert len(calls) == alg.dim ** 2 * grown
        if before[name] and order <= tops[name]:
            assert calls == []


@pytest.mark.parametrize("m,n", PAIRS)
def test_table_images_asked_level_by_level_match_the_whole_inverse(m, n):
    alg = Algebra(m, n)
    s, omega = build_antipode(alg), build_omega(alg)
    direct = t_inverse(Algebra(m, n), 6)
    dims = range(1, alg.dim + 1)
    for r in range(1, 7):
        for i in dims:
            for j in dims:
                assert s.image(alg.letter(i, j, r)) == direct[i, j].coefficient(r)
                want = hatted_entry(alg, direct, i, j).coefficient(r)
                assert omega.image(alg.letter(i, j, r)) == want
        assert len(alg.tinv[1, 1]) == r + 1


def derived_data(mp, m, n, broken):
    """T(u)^-1, the route sums of Z(u) and S^2(T(u)) to order 5 and every
    bracket `morphism_relation_check` reads at bound 3, on a fresh gl(m|n)
    behind `algebra(m, n)`: the coefficients of level >= 1 of each series
    and the brackets of each table, as lists of term dicts.  Under the
    `rewriting` defect the first two routes disagree, and Z(u) is not
    built."""
    alg = fresh_algebra(mp, m, n)
    if broken:
        break_rewriting(alg)
    routes = []
    route_sum = central._route_sum
    mp.setattr(central, "_route_sum", lambda *args: routes.append(route_sum(*args)) or routes[-1])
    if broken:
        with pytest.raises(central.CentralSeriesError, match="disagree"):
            z_series(alg, 5)
    else:
        z_series(alg, 5)
    s2 = antipode_square_series(alg, 5)
    morphism_relation_check(m, n, 3)
    series = {**{("route", k): entry for k, entry in enumerate(routes)},
              **{("tinv", *key): entry for key, entry in t_inverse(alg, 5).items()},
              **{("s2", *key): entry for key, entry in s2.items()}}
    data = {key: [c.terms for c in entry.coeffs[1:]] for key, entry in series.items()}
    data.update(((name, "brackets"), [b.terms for b in caches[2].values()])
                for name, caches in alg.morphisms.items())
    return alg, data


def in_order(data):
    """Each term dict as its list of items, so that two equal sums built
    in different orders differ."""
    return {key: [[*terms.items()] for terms in sums] for key, sums in data.items()}


@pytest.mark.parametrize("broken", [False, True], ids=["clean", "rewriting"])
@pytest.mark.parametrize("m,n", PAIRS)
def test_derived_data_keeps_its_product_words_out_of_the_memo(m, n, broken, monkeypatch):
    with monkeypatch.context() as mp:
        product_sum = Algebra.product_sum
        mp.setattr(Algebra, "product_sum",
                   lambda alg, triples, store=True: product_sum(alg, triples))
        ref, want = derived_data(mp, m, n, broken)

    unstored = []
    rewrite_unstored = NormalForms.unstored

    def spy(nf, word):
        # a top-level product word the memo lacks: it is stored only when
        # it is its own normal form
        result = rewrite_unstored(nf, word)
        assert (word in nf) == ((word,) in result)
        if word not in nf:
            unstored.append(word)
        return result

    monkeypatch.setattr(NormalForms, "unstored", spy)
    alg, got = derived_data(monkeypatch, m, n, broken)
    assert in_order(got) == in_order(want)
    assert {key[0] for key in got} == {"route", "tinv", "s2", "eta_M", "transpose_T",
                                       "antipode_S"}
    # the memo keeps a subset of the reference's words: the unstored
    # product words that no later rewrite read are the saving
    assert alg._nf.keys() < ref._nf.keys()
    assert ref._nf.keys() - alg._nf.keys() <= set(unstored)
    # each normal word has one key object, its memo entry's, in every
    # memo value and every product the derived data summed
    summed = [terms for sums in got.values() for terms in sums]
    for terms in [*alg._nf.values(), *summed]:
        for key in terms:
            entry = alg._nf.get(key[0], {})
            assert entry == {key: 1} and next(iter(entry)) is key


def test_default_run_all_matches_golden_bytes():
    reports, _ = run_all(default_config())
    for report in reports:
        report.wall_time_s = 0
    assert reports_to_json(reports) == GOLDEN.read_text()
