"""Derived data owned by the Algebra: one T(u)^-1 and one Z(u) per
algebra, at the highest order requested and truncated below it, the
inverse extended from the order it has, and a warm Z(u) read without a
product; the default run-all output pinned byte for byte."""

from pathlib import Path

import pytest

from superyangian.algebra import Algebra
from superyangian.central import z_series
from superyangian.matrices import hatted_entry, invert_t, t_inverse, t_matrix
from superyangian.morphisms import build_antipode, build_omega
from superyangian.suites import default_config, reports_to_json, run_all

GOLDEN = Path(__file__).resolve().parent / "golden" / "default_reports.json"
PAIRS = [(1, 1), (2, 1), (1, 2), (0, 2)]


@pytest.mark.parametrize("m,n", PAIRS)
def test_lower_orders_are_truncations_of_the_highest(m, n):
    alg = Algebra(m, n)
    z_series(alg, 6)
    top_tinv, top_z = alg.tinv, alg.z
    assert top_tinv.entry(1, 1).order == 6 and top_z.order == 6
    low = t_inverse(alg, 3)
    direct = invert_t(t_matrix(alg, 3))
    assert low.entry(1, 1).order == 3
    for i in range(1, alg.dim + 1):
        for j in range(1, alg.dim + 1):
            assert low.entry(i, j) == direct.entry(i, j)
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
    grown = t_inverse(alg, 6)
    assert alg.tinv is grown
    direct = invert_t(t_matrix(alg, 6))
    for key, series in direct.entries.items():
        assert grown.entries[key] == series
        assert all(a is b for a, b in zip(grown.entries[key].coeffs[:4],
                                          low.entries[key].coeffs, strict=True))


@pytest.mark.parametrize("m,n", PAIRS)
def test_table_images_asked_level_by_level_match_the_whole_inverse(m, n):
    alg = Algebra(m, n)
    s, omega = build_antipode(alg), build_omega(alg)
    direct = invert_t(t_matrix(Algebra(m, n), 6))
    dims = range(1, alg.dim + 1)
    for r in range(1, 7):
        for i in dims:
            for j in dims:
                assert s.image(alg.letter(i, j, r)) == direct.entry(i, j).coefficient(r)
                want = hatted_entry(alg, direct, i, j).coefficient(r)
                assert omega.image(alg.letter(i, j, r)) == want
        assert alg.tinv.entry(1, 1).order == r


def test_default_run_all_matches_golden_bytes():
    reports, _ = run_all(default_config())
    for report in reports:
        report.wall_time_s = 0
    assert reports_to_json(reports) == GOLDEN.read_text()
