"""Errors are not skips, and bad generators stop at the Python boundary.

* A `CentralSeriesError` raised inside a claim is a `fail` whose
  counterexample is the construction stage, and `run_all` then exits 1.
  The error is provoked with the `rewriting` defect on a fresh gl(1|1).
* Any other exception inside a claim is an `error` report, and both
  `check` and `run-all` exit 1 on it.
* `Algebra.element` and `normal_order_randomized` reject an index
  outside 1..M+N or a level below 1 with `ValueError`.
* `Algebra.letter` rejects an index or level that the algebra allows but
  the letter packing (i, j < 256, r < 65536) cannot hold, and the largest
  level still sorts in the (i, j, r) order.
"""

import json
import random

import pytest

from defects import DEFECTS
from superyangian.algebra import Algebra, GenIndex, algebra
from superyangian.central import CentralSeriesError, z_coherence_check
from superyangian.checkresult import failure
from superyangian.cli import main
from superyangian.suites import SUITES, SuiteSpec, run_all, run_suite

Z_SUITES = ["antipode-square", "berezinian-theorem", "grouplike", "z-central"]


@pytest.fixture
def broken_gl11(monkeypatch):
    DEFECTS["rewriting"](monkeypatch, [(1, 1)])


@pytest.mark.parametrize("name", Z_SUITES)
def test_coherence_failure_is_a_fail_not_a_skip(name, broken_gl11):
    report = run_suite(SuiteSpec(name, {"m": 1, "n": 1}))
    assert report.status == "fail"
    assert report.skip_reason is None
    [ce] = report.counterexamples
    assert ce["location"] == {"stage": "construction"}
    assert ce["kind"] == "error"
    assert "sums at (1," in ce["residual"]


def test_coherence_failure_has_the_z_coherence_check_form(broken_gl11):
    """`z_coherence_check` raises the error; `run_suite` alone reports it."""
    order = 4
    with pytest.raises(CentralSeriesError) as exc:
        z_coherence_check(1, 1, order)
    report = run_suite(SuiteSpec("antipode-square", {"m": 1, "n": 1, "order": order}))
    assert report.counterexamples == [
        failure({"stage": "construction"}, str(exc.value), "error")]


def test_run_all_exits_1_on_a_coherence_failure(broken_gl11):
    config = {"suites": [{"name": name, "params": {"m": 1, "n": 1}} for name in Z_SUITES]}
    reports, exit_code = run_all(config)
    assert exit_code == 1
    assert [r.status for r in reports] == ["fail"] * len(Z_SUITES)


@pytest.fixture
def broken_claim(monkeypatch):
    def check(m, n):
        raise RuntimeError("an internal invariant broke")

    monkeypatch.setattr(SUITES["yang-baxter"], "claims", (("yang-baxter", check, ("m", "n")),))


def test_an_internal_error_is_an_error_report_and_exits_1(broken_claim, tmp_path, capsys):
    """Once a `skipped` report and exit 0 from both commands, then a
    `skipped` report and exit 1."""
    assert main(["check", "yang-baxter"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "error"
    assert report["skip_reason"] == "RuntimeError: an internal invariant broke"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"suites": [{"name": "yang-baxter"}],
                                       "output": str(tmp_path / "reports.json")}))
    assert main(["run-all", "--config", str(config_path)]) == 1
    [report] = json.loads((tmp_path / "reports.json").read_text())
    assert report["status"] == "error"
    assert report["skip_reason"] == "RuntimeError: an internal invariant broke"
    assert capsys.readouterr().out.startswith("ERROR   yang-baxter ")


def test_clean_algebra_still_passes():
    report = run_suite(SuiteSpec("antipode-square", {"m": 1, "n": 1, "order": 3}))
    assert report.status == "pass"


@pytest.mark.parametrize("letter", [(5, 5, 1), (1, 3, 1), (0, 1, 1), (1, 1, 0), (2, 1, -1)])
def test_element_rejects_bad_generators(letter):
    alg = algebra(1, 1)
    with pytest.raises(ValueError):
        alg.element([(1, [((1, 1, 1),)]), (1, [(letter,)])])
    with pytest.raises(ValueError):
        alg.element([(1, [((1, 2, 1), letter)])])
    with pytest.raises(ValueError):
        alg.normal_order_randomized([(2, 1, 1), letter], random.Random(0))


def test_element_accepts_good_generators():
    alg = algebra(1, 1)
    x = alg.element([(1, [((2, 2, 1), (1, 1, 1))])])
    assert x == alg.gen(1, 1, 1) * alg.gen(2, 2, 1)
    assert alg.normal_order_randomized([(2, 2, 1), (1, 1, 1)], random.Random(0)) == x


@pytest.mark.parametrize("letter", [(1, 1, 65536), (256, 1, 1), (1, 256, 1)])
def test_letter_rejects_values_outside_the_packing(letter):
    alg = Algebra(256, 1)
    with pytest.raises(ValueError, match="packing"):
        alg.letter(*letter)
    with pytest.raises(ValueError, match="packing"):
        GenIndex(*letter)
    assert letter not in alg._letters


def test_the_top_level_sorts_in_the_tuple_order():
    alg = Algebra(2, 0)
    top = alg.letter(1, 1, 65535)
    assert alg.letter(1, 1, 65534) < top < alg.letter(1, 2, 1)
    big = Algebra(255, 0)
    assert big.letter(254, 255, 65535) < big.letter(255, 1, 1) < big.letter(255, 255, 65535)
