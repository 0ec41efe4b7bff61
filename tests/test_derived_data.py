"""Derived data owned by the Algebra: one T(u)^-1 and one Z(u) per
algebra, built at the highest order requested and truncated below it;
the default run-all output pinned byte for byte."""

from pathlib import Path

import pytest

from superyangian.algebra import Algebra
from superyangian.central import SeriesTower, tower
from superyangian.matrices import invert_t, t_matrix
from superyangian.morphisms import MorphismOrderError, build_antipode
from superyangian.suites import default_config, reports_to_json, run_all

GOLDEN = Path(__file__).resolve().parent / "golden" / "default_reports.json"


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (0, 2)])
def test_lower_orders_are_truncations_of_the_highest(m, n):
    alg = Algebra(m, n)
    SeriesTower(alg, 6).z_series()
    top_tinv, top_z = alg.tinv, alg.z
    assert top_tinv.entry(1, 1).order == 6 and top_z.order == 6
    low = SeriesTower(alg, 3)
    direct = invert_t(t_matrix(alg, 3))
    assert low.tinv.entry(1, 1).order == 3
    for i in range(1, alg.dim + 1):
        for j in range(1, alg.dim + 1):
            assert low.tinv.entry(i, j) == direct.entry(i, j)
    # Z(u) built from scratch at order 3 in an algebra that never saw order 6
    assert low.z_series() == SeriesTower(Algebra(m, n), 3).z_series()
    assert alg.tinv is top_tinv and alg.z is top_z


def test_shared_inverse_keeps_the_antipode_order_guard():
    alg = Algebra(1, 1)
    SeriesTower(alg, 6)
    s = build_antipode(alg, 2)
    assert alg.tinv.entry(1, 1).order == 6
    assert s.image(alg.letter(1, 2, 2)) == alg.tinv.entry(1, 2).coefficient(2)
    with pytest.raises(MorphismOrderError):
        s.image(alg.letter(1, 1, 3))


def test_tower_antipode_table_persists():
    tw = tower(1, 1, 3)
    assert tw.antipode is tw.antipode
    assert tower(1, 1, 3).antipode is tw.antipode


def test_default_run_all_matches_golden_bytes():
    reports, _ = run_all(default_config())
    for report in reports:
        report.wall_time_s = 0
    assert reports_to_json(reports) == GOLDEN.read_text()
