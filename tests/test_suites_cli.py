"""Suite runner, report format, and the command-line interface."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from defects import DEFECTS
from superyangian.algebra import Algebra
from superyangian.cli import INT_PARAMS, main
from superyangian.grammar import element_to_text
from superyangian.matrices import invert_t, t_matrix
from superyangian.suites import (
    COMPUTE_TARGETS,
    SUITES,
    SuiteSpec,
    compute,
    default_config,
    parameter_error,
    reports_to_json,
    run_all,
    run_suite,
)

DEFAULT_GOLDEN = Path(__file__).resolve().parent / "golden" / "default_reports.json"


def test_every_registered_suite_has_anchor_and_defaults():
    for name, suite in SUITES.items():
        assert suite.anchor
        assert isinstance(suite.defaults, dict)


@pytest.mark.parametrize("name", SUITES)
def test_a_suite_takes_exactly_the_parameters_its_claims_read(name):
    """`fusion-commutation` once echoed two defaults that nothing read."""
    suite = SUITES[name]
    read = {arg for _, _, arguments in suite.claims for arg in arguments if isinstance(arg, str)}
    assert set(suite.defaults) == read
    claim_names = [claim for claim, _, _ in suite.claims]
    assert len(set(claim_names)) == len(claim_names)


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite(SuiteSpec("no-such-suite"))


def test_a_size_over_the_cap_raises():
    """Once a `skipped` report; every input error now raises from `run_suite`."""
    with pytest.raises(ValueError) as exc:
        run_suite(SuiteSpec("z-central", {"m": 3, "n": 1}))
    assert str(exc.value) == "z-central: ValueError: M + N must be at most 3, not 4"


def test_unknown_parameter_raises_naming_it():
    """The reason names its exception type, as every other input error does."""
    why = r"^yang-baxter: ValueError: unknown parameter 'bogus' \(known: m, n\)$"
    with pytest.raises(ValueError, match=why):
        run_suite(SuiteSpec("yang-baxter", {"m": 1, "n": 1, "bogus": 3}))


@pytest.mark.parametrize("name,key,value", [
    ("grouplike", "order", "x"),
    ("defining-relations", "bound", 2.0),
    ("eval-rep", "r_max", True),
    ("eval-rep", "points", [0, 0.5]),
    ("eval-rep", "points", [0, "1/0"]),
    ("pbw-rank", "points", "0,1,5"),
])
def test_wrongly_typed_parameter_produces_a_type_error_skip(name, key, value):
    """Once a `skipped` report; now a ValueError with the same reason."""
    with pytest.raises(ValueError, match=f"^{name}: TypeError: parameter {key!r}"):
        run_suite(SuiteSpec(name, {"m": 1, "n": 1, key: value}))


# each of these once ran and passed or skipped while checking nothing
OUT_OF_RANGE = [
    ("eval-rep", "r_max", 0, "must be at least 1, not 0"),
    ("eval-rep", "r_max", -2, "must be at least 1, not -2"),
    ("eval-rep", "points", [], "must not be empty"),
    ("pbw-rank", "filt_max", 0, "must be at least 1, not 0"),
    ("pbw-rank", "points", [], "must not be empty"),
    ("fusion-commutation", "legs", 1, "must be at least 2, not 1"),
    ("fusion-commutation", "n_max", 1, "must be at least 2, not 1"),
    ("defining-relations", "bound", 0, "must be at least 1, not 0"),
    ("morphism-suite", "bound", -1, "must be at least 0, not -1"),
    ("morphism-suite", "r_max", 0, "must be at least 1, not 0"),
    ("pbw-confluence", "filt_max", 1, "must be at least 2, not 1"),
    ("pbw-confluence", "schedules", 0, "must be at least 1, not 0"),
    ("hopf-axioms", "r_max", 0, "must be at least 1, not 0"),
    ("berezinian-theorem", "order", 0, "must be at least 1, not 0"),
    ("grouplike", "order", 0, "must be at least 1, not 0"),
    ("antipode-square", "order", 0, "must be at least 1, not 0"),
    ("az-relation", "order", 0, "must be at least 1, not 0"),
    ("z-central", "order", 0, "must be at least 1, not 0"),
    ("z-central", "r_max", 1, "must be at least 2, not 1"),
    ("z-central", "s_max", 0, "must be at least 1, not 0"),
    ("p28-symbol", "r_max", 1, "must be at least 2, not 1"),
    ("l3", "bound", 1, "must be at least 2, not 1"),
    ("l3", "order", 0, "must be at least 1, not 0"),
    ("eta-twist", "order", 0, "must be at least 1, not 0"),
    ("fusion-commutation", "order", 0, "must be at least 1, not 0"),
    # once a runner ValueError, reported as a skip after the run started
    ("fusion-commutation", "legs", 4, "must be at most 3, not 4"),
    ("yang-baxter", "m", -1, "must be at least 0, not -1"),
    ("eval-rep", "n", -2, "must be at least 0, not -2"),
    ("az-relation", "n", 0, "must be at least 1, not 0"),
]


def suite_params(name: str, **params) -> dict:
    """`params` on gl(1|1); `az-relation` takes N alone."""
    return {**({"n": 1} if name == "az-relation" else {"m": 1, "n": 1}), **params}


@pytest.mark.parametrize("name,key,value,why", OUT_OF_RANGE)
def test_out_of_range_parameter_produces_a_value_error_skip(name, key, value, why):
    """Once a `skipped` report; now a ValueError with the same reason."""
    with pytest.raises(ValueError) as exc:
        run_suite(SuiteSpec(name, suite_params(name, **{key: value})))
    assert str(exc.value) == f"{name}: ValueError: parameter {key!r} {why}"


@pytest.mark.parametrize("name,params", [
    ("eval-rep", {"r_max": 1, "points": [2]}),
    ("pbw-rank", {"filt_max": 1, "points": [2]}),
    ("fusion-commutation", {"legs": 2, "n_max": 2}),
    ("defining-relations", {"bound": 1}),
    ("morphism-suite", {"bound": 0, "r_max": 1}),
    ("pbw-confluence", {"schedules": 1, "filt_max": 2}),
    ("hopf-axioms", {"r_max": 1}),
    ("berezinian-theorem", {"order": 1}),
    ("grouplike", {"order": 1}),
    ("antipode-square", {"order": 1}),
    ("az-relation", {"order": 1}),
    ("z-central", {"order": 1, "r_max": 2, "s_max": 1}),
    ("p28-symbol", {"r_max": 2}),
    ("l3", {"bound": 2, "order": 1}),
    ("eta-twist", {"order": 1}),
    ("fusion-commutation", {"legs": 3, "order": 1}),
    ("yang-baxter", {"m": 0}),
    ("az-relation", {"n": 1}),
], ids=["eval-rep-r_max", "pbw-rank-filt_max", "fusion-commutation-legs-n_max",
        "defining-relations-bound", "morphism-suite-bound-r_max",
        "pbw-confluence-schedules-filt_max", "hopf-axioms-r_max",
        "berezinian-theorem-order", "grouplike-order",
        "antipode-square-order", "az-relation-order", "z-central-order-r_max-s_max",
        "p28-symbol-r_max", "l3-bound-order", "eta-twist-order",
        "fusion-commutation-max-legs-order",
        "yang-baxter-m", "az-relation-n"])
def test_the_least_level_passes_the_range_check(name, params):
    assert parameter_error(SuiteSpec(name, suite_params(name, **params))) is None


@pytest.mark.parametrize("name,key,value,why", OUT_OF_RANGE)
def test_cli_check_rejects_an_out_of_range_parameter(name, key, value, why, monkeypatch, capsys):
    from superyangian import cli

    monkeypatch.setattr(cli, "_suite_params", lambda args: suite_params(name, **{key: value}))
    assert main(["check", name]) == 2
    captured = capsys.readouterr()
    assert f"ValueError: parameter {key!r} {why}" in captured.err and captured.out == ""


BOTH_ZERO = "ValueError: parameters 'm' and 'n' must not both be 0"


def test_m_and_n_both_zero_is_an_input_error(tmp_path, capsys):
    """Once `Algebra` raised inside the runner: a skip, and `run-all`
    exited 0."""
    params = {"m": 0, "n": 0}
    with pytest.raises(ValueError, match=f"^yang-baxter: {BOTH_ZERO}$"):
        run_suite(SuiteSpec("yang-baxter", params))
    assert main(["check", "yang-baxter", "--m", "0", "--n", "0"]) == 2
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"suites": [{"name": "yang-baxter", "params": params}],
                                       "output": str(tmp_path / "reports.json")}))
    assert main(["run-all", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err.count(BOTH_ZERO) == 2
    assert not (tmp_path / "reports.json").exists()


def test_cli_check_eta_twist_passes_and_fails_under_a_shifted_z(monkeypatch, capsys):
    """The twist law that holds in place of criterion 7, at its defaults
    on a clean gl(1|1) and with a Z(u) whose u^-3 coefficient is off."""
    assert main(["check", "eta-twist"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["params"] == {"m": 1, "n": 1, "order": 4} and report["status"] == "pass"
    DEFECTS["z-shifted"](monkeypatch, [(1, 1)])
    assert main(["check", "eta-twist"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail" and len(report["counterexamples"]) == 4
    assert report["counterexamples"][0] == {
        "location": {"entry": [1, 1]}, "kind": "element", "residual": "u^-3: -1*T[1,1,2]"}


@pytest.mark.parametrize("argv,reason", [
    (["check", "yang-baxter", "--m", "4", "--n", "1"],
     "yang-baxter: ValueError: M + N must be at most 4, not 5"),
    (["check", "az-relation", "--n", "4"],
     "az-relation: ValueError: parameter 'n' must be at most 3, not 4"),
    (["check", "l3", "--m", "0", "--n", "2"],
     "l3: ValueError: parameter 'm' must be at least 1, not 0"),
    (["check", "q-identities", "--n", "0"],
     "q-identities: ValueError: parameter 'n' must be at least 1, not 0"),
    (["check", "eta-twist", "--m", "3", "--n", "1"],
     "eta-twist: ValueError: M + N must be at most 3, not 4"),
], ids=["yang-baxter", "az-relation", "l3-m-0", "q-identities-n-0", "eta-twist"])
def test_cli_check_rejects_a_dimension_over_the_guard(argv, reason, capsys):
    """Once a `skipped` report and exit 0."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert reason in captured.err and captured.out == ""


CAPPED = sorted(name for name, suite in SUITES.items() if suite.max_dim is not None)


@pytest.mark.parametrize("name", CAPPED)
def test_every_cap_at_its_boundary(name, capsys):
    """M + N = `max_dim` is admitted and one more is an input error."""
    cap = SUITES[name].max_dim
    assert parameter_error(SuiteSpec(name, {"m": cap - 1, "n": 1})) is None
    reason = f"ValueError: M + N must be at most {cap}, not {cap + 1}"
    assert parameter_error(SuiteSpec(name, {"m": cap, "n": 1})) == reason
    assert main(["check", name, "--m", str(cap), "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert f"{name}: {reason}" in captured.err and captured.out == ""


def test_cli_run_all_of_a_suite_over_its_guard_is_an_input_error(tmp_path, capsys):
    """Once one `skipped` report and exit 0: a run that checked nothing
    succeeded.  `run_suite` raises the same reason."""
    params = {"m": 4, "n": 1}
    reason = "yang-baxter: ValueError: M + N must be at most 4, not 5"
    with pytest.raises(ValueError) as exc:
        run_suite(SuiteSpec("yang-baxter", params))
    assert str(exc.value) == reason
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"suites": [{"name": "yang-baxter", "params": params}],
                                       "output": str(tmp_path / "reports.json")}))
    assert main(["run-all", "--config", str(config_path)]) == 2
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "reports.json").exists()


def test_cli_check_rejects_range_errors_given_as_flags(capsys):
    assert main(["check", "eval-rep", "--r-max", "0"]) == 2
    assert main(["check", "pbw-rank", "--filt-max", "0"]) == 2
    assert main(["check", "eval-rep", "--points", ","]) == 2
    assert main(["check", "fusion-commutation", "--legs", "1"]) == 2
    assert main(["check", "fusion-commutation", "--n-max", "1"]) == 2
    assert main(["check", "defining-relations", "--bound", "0"]) == 2
    assert main(["check", "morphism-suite", "--bound=-1"]) == 2
    assert main(["check", "pbw-confluence", "--filt-max", "1"]) == 2
    assert main(["check", "hopf-axioms", "--r-max", "0"]) == 2
    assert main(["check", "fusion-commutation", "--legs", "4"]) == 2
    assert main(["check", "z-central", "--s-max", "0"]) == 2
    assert main(["check", "yang-baxter", "--m=-1", "--n", "2"]) == 2
    err = capsys.readouterr().err
    assert "'m' must be at least 0, not -1" in err
    assert "'legs' must be at most 3, not 4" in err and "'s_max' must be at least 1" in err
    assert "'bound' must be at least 1" in err and "'bound' must be at least 0" in err
    assert "'filt_max' must be at least 2" in err and "'r_max' must be at least 1, not 0" in err
    assert "'r_max' must be at least 1" in err and "'filt_max' must be at least 1" in err
    assert "'points' must not be empty" in err
    assert "'legs' must be at least 2" in err and "'n_max' must be at least 2" in err


def test_cli_run_all_rejects_out_of_range_parameters_before_running(tmp_path, capsys):
    config = {
        "suites": [{"name": name, "params": suite_params(name, **{key: value})}
                   for name, key, value, _ in OUT_OF_RANGE]
        + [{"name": "berezinian-theorem", "params": {"m": 1, "n": 1, "order": 3}}],
        "output": str(tmp_path / "reports.json"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run-all", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert "ValueError: parameter" in captured.err and captured.out == ""
    assert not (tmp_path / "reports.json").exists()


def test_int_and_rational_string_parameters_pass_the_type_check():
    spec = SuiteSpec("eval-rep", {"m": 1, "n": 1, "r_max": 2, "points": [0, "-7/3", "5"]})
    assert parameter_error(spec) is None


@pytest.mark.parametrize("argv,why", [
    (["check", "yang-baxter", "--order", "4"],
     "yang-baxter: ValueError: unknown parameter 'order' (known: m, n)"),
    (["check", "hopf-axioms", "--coassoc-r-max", "2"], "unrecognized arguments: --coassoc-r-max 2"),
], ids=["yang-baxter-order", "hopf-axioms-coassoc-r-max"])
def test_cli_check_rejects_a_removed_parameter(argv, why, capsys):
    """`yang-baxter` once read `order` for a series re-proof of unitarity,
    and `hopf-axioms` an optional `coassoc_r_max` it could not honour."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert why in captured.err and captured.out == ""


@pytest.mark.parametrize("argv,why", [
    (["check", "eval-rep", "--points", "1/0"], "zero denominator: '1/0'"),
    (["check", "pbw-rank", "--points", "0,1/0"], "zero denominator: '1/0'"),
    (["check", "eval-rep", "--points", "0,0.5"], "not a rational: '0.5'"),
    (["check", "eval-rep", "--points", "0,,1", "--r-max", "1"], "not a rational: ''"),
    (["check", "eval-rep", "--points", "0,1,", "--r-max", "1"], "not a rational: ''"),
], ids=["eval-rep-1/0", "pbw-rank-0,1/0", "eval-rep-0.5", "eval-rep-inner-empty",
        "eval-rep-trailing-empty"])
def test_cli_check_rejects_a_malformed_point(argv, why, capsys):
    """A point flag is read with the grammar of config points; `1/0` once
    died in the flag parsing with a ZeroDivisionError and exit 1, and an
    empty item was once dropped, so `0,,1` ran at the points (0, 1)."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert why in captured.err and captured.out == ""


def test_every_int_parameter_of_a_suite_has_a_flag_and_no_other():
    int_params = {key for suite in SUITES.values()
                  for key, value in suite.defaults.items() if isinstance(value, int)}
    assert set(INT_PARAMS) == int_params and len(INT_PARAMS) == len(int_params)


def test_default_config_and_workloads_name_only_known_parameters(monkeypatch):
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    import workloads

    configs = [default_config()["suites"]]
    configs += [workloads.suite_list(name, 1) for name in workloads.WORKLOADS]
    for entry in (e for suites in configs for e in suites):
        # no unknown parameter, none of the wrong type, none over a cap
        assert parameter_error(SuiteSpec(entry["name"], entry["params"])) is None, entry


def test_report_contains_anchor_and_verified_bounds():
    report = run_suite(SuiteSpec("berezinian-theorem", {"m": 1, "n": 1, "order": 3}))
    assert report.status == "pass"
    assert report.anchor == "B(u+1) = Z(u) B(u)"
    assert report.verified["order"] == 3


def test_reports_reproducible_modulo_wall_time():
    spec = SuiteSpec("p28-symbol", {"m": 1, "n": 1, "r_max": 3})
    a = run_suite(spec).to_dict()
    b = run_suite(spec).to_dict()
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_failure_payload_reparses_and_reevaluates():
    # the morphism suite genuinely fails on the eta/antipode pair; its
    # counterexample must re-parse through the element grammar and
    # re-evaluate to the reported residual
    from superyangian.algebra import algebra
    from superyangian.grammar import parse_element
    from superyangian.morphisms import build_antipode, build_eta

    report = run_suite(SuiteSpec("morphism-suite", {"m": 1, "n": 1, "bound": 3, "r_max": 3}))
    assert report.status == "fail"
    bad = next(c for c in report.counterexamples
               if c["location"].get("claim") == "eta/S")
    alg = algebra(1, 1)
    residual = parse_element(alg, bad["residual"])
    assert not residual.is_zero()
    i, j, r = bad["location"]["generator"]
    eta = build_eta(alg)
    s = build_antipode(alg)
    x = alg.gen(i, j, r)
    assert eta.apply(s.apply(x)) - s.apply(eta.apply(x)) == residual


def test_run_all_rejects_empty_suite_list():
    with pytest.raises(ValueError):
        run_all({"suites": []})
    with pytest.raises(ValueError):
        run_all({"suites": [{"name": "l3", "params": {}}]}, name_filter="berezinian")


def test_run_all_filter_and_ordering(tmp_path):
    config = {
        "suites": [
            {"name": "p28-symbol", "params": {"m": 1, "n": 1, "r_max": 3}},
            {"name": "berezinian-theorem", "params": {"m": 1, "n": 1, "order": 3}},
            {"name": "berezinian-theorem", "params": {"m": 1, "n": 0, "order": 3}},
        ],
    }
    reports, exit_code = run_all(config, "berezinian")
    assert exit_code == 0
    assert [r.suite for r in reports] == ["berezinian-theorem", "berezinian-theorem"]
    # sorted by params: m=1,n=0 before m=1,n=1
    assert reports[0].params["n"] == 0
    payload = reports_to_json(reports)
    parsed = json.loads(payload)
    assert len(parsed) == 2


def test_default_config_covers_documented_pairs():
    config = default_config()
    pairs = {(e["params"].get("m"), e["params"].get("n"))
             for e in config["suites"] if "m" in e["params"]}
    for want in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)]:
        assert want in pairs


def test_compute_z_output_shape():
    text = compute("z", {"m": 1, "n": 1, "order": 3})
    assert text.startswith("1 + {")
    assert "u^-1 " not in text.split("u^-2")[0]
    assert text.endswith("+ O(u^-4)")


def test_compute_normal_form_example():
    got = compute("normal-form", {"m": 1, "n": 1}, "T[2,1,1]*T[1,2,1]")
    assert got == "1*T[1,1,1] - 1*T[1,2,1]*T[2,1,1] - 1*T[2,2,1]"


def test_compute_rejects_bad_target():
    with pytest.raises(ValueError):
        compute("eigenvalues", {})


def test_cli_check_pass_and_fail_exit_codes(capsys):
    assert main(["check", "berezinian-theorem", "--m", "1", "--n", "1", "--order", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "pass"
    assert main(["check", "pbw-rank", "--m", "1", "--n", "1", "--filt-max", "2"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "fail"
    assert out["counterexamples"]


def test_cli_usage_error_exit_code(capsys):
    assert main(["check", "no-such-suite"]) == 2
    assert main(["compute", "apply-map", "T[1,1,1]"]) == 2


def test_cli_check_rejects_a_parameter_the_suite_does_not_take(capsys):
    assert main(["check", "yang-baxter", "--m", "1", "--n", "1", "--bound", "3"]) == 2
    captured = capsys.readouterr()
    assert "'bound'" in captured.err and captured.out == ""


def test_cli_run_all_rejects_an_unknown_parameter_before_running(tmp_path, capsys):
    # berezinian-theorem sorts first, so a late check would have run it
    config = {
        "suites": [
            {"name": "yang-baxter", "params": {"m": 1, "n": 1, "bound": 3}},
            {"name": "berezinian-theorem", "params": {"m": 1, "n": 1, "order": 3}},
        ],
        "output": str(tmp_path / "reports.json"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run-all", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert "'bound'" in captured.err and captured.out == ""
    assert not (tmp_path / "reports.json").exists()


def test_cli_check_rejects_a_wrongly_typed_parameter(monkeypatch, capsys):
    # the flags parse to ints and rational strings, so the bad value is
    # planted where they are collected
    from superyangian import cli

    monkeypatch.setattr(cli, "_suite_params", lambda args: {"m": 1, "n": 1, "r_max": True})
    assert main(["check", "eval-rep"]) == 2
    captured = capsys.readouterr()
    assert "TypeError: parameter 'r_max'" in captured.err and captured.out == ""


def test_cli_run_all_rejects_wrongly_typed_parameters_before_running(tmp_path, capsys):
    # each of these once ran: two as TypeError skips, r_max true as 1
    config = {
        "suites": [
            {"name": "grouplike", "params": {"m": 1, "n": 1, "order": "x"}},
            {"name": "defining-relations", "params": {"m": 1, "n": 1, "bound": 2.0}},
            {"name": "eval-rep", "params": {"m": 1, "n": 1, "r_max": True}},
        ],
        "output": str(tmp_path / "reports.json"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run-all", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert "TypeError: parameter 'bound'" in captured.err and captured.out == ""
    assert not (tmp_path / "reports.json").exists()


def test_cli_compute(capsys):
    assert main(["compute", "normal-form", "--m", "1", "--n", "1",
                 "T[2,1,1]*T[1,2,1]"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "1*T[1,1,1] - 1*T[1,2,1]*T[2,1,1] - 1*T[2,2,1]"


def test_cli_apply_map_reads_a_level_of_its_own_choosing(capsys):
    assert main(["compute", "apply-map", "--map", "antipode_S", "--m", "1", "--n", "1",
                 "T[1,2,5]"]) == 0
    want = invert_t(t_matrix(Algebra(1, 1), 5)).entry(1, 2).coefficient(5)
    assert capsys.readouterr().out.strip() == element_to_text(want)


@pytest.mark.parametrize("argv", [
    ["qdet", "--m", "2", "--n", "1"],
    ["normal-form", "--r-max", "3", "T[1,1,1]"],
    ["z", "--points", "1,2"],
    ["apply-map", "--map", "antipode_S", "--order", "4", "T[1,2,1]"],
    ["berezinian", "--map", "omega"],
], ids=lambda argv: argv[0])
def test_cli_compute_rejects_a_flag_its_target_does_not_read(argv, capsys):
    assert main(["compute", *argv]) == 2
    captured = capsys.readouterr()
    assert "unknown parameter" in captured.err and captured.out == ""


@pytest.mark.parametrize("target", COMPUTE_TARGETS)
def test_cli_compute_takes_every_flag_its_target_reads(target, capsys):
    values = {"m": "1", "n": "1", "order": "2", "map": "omega"}
    argv = ["compute", target]
    for key in COMPUTE_TARGETS[target]:
        argv += ["--" + key, values[key]]
    if target in ("normal-form", "apply-map"):
        argv.append("T[1,2,1]")
    assert main(argv) == 0
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("target,flag", [("qdet", "'m'"), ("c-series", "'n'"),
                                         ("apply-map", "'map'")])
def test_cli_compute_needs_the_flags_without_a_default(target, flag, capsys):
    assert main(["compute", target, "T[1,1,1]"]) == 2
    assert flag in capsys.readouterr().err


INPUT_ARGV = {"z": ["--m", "1", "--n", "1"], "berezinian": ["--m", "1", "--n", "1"],
              "qdet": ["--m", "1"], "c-series": ["--n", "1"]}


@pytest.mark.parametrize("target", INPUT_ARGV)
def test_cli_compute_rejects_an_input_its_target_does_not_read(target, capsys):
    """Once the input was dropped and the series printed, with exit 0."""
    assert main(["compute", target, *INPUT_ARGV[target], "--order", "2", "T[1,1,1]"]) == 2
    assert capsys.readouterr() == ("", f"error: {target} reads no input element, "
                                       f"not 'T[1,1,1]'\n")


@pytest.mark.parametrize("argv", [["normal-form"], ["apply-map", "--map", "omega"]],
                         ids=lambda argv: argv[0])
def test_cli_compute_needs_an_input_element(argv, capsys):
    assert main(["compute", *argv, "--m", "1", "--n", "1"]) == 2
    assert capsys.readouterr() == ("", f"error: {argv[0]} needs an input element\n")


@pytest.mark.parametrize("text,why", [
    ("", "empty element (at position 0)"),
    ("T[1,1,1]*", "dangling operator (at position 8)"),
    ("T[1,1,1] +", "dangling operator at end of input (at position 10)"),
    ("T[1,1,1] (x) T[2,2,1] + T[1,1,1]", "inconsistent leg counts (at position 24)"),
], ids=["empty", "dangling", "dangling-at-end", "leg-counts"])
def test_cli_normal_form_rejects_a_malformed_element(text, why, capsys):
    assert main(["compute", "normal-form", text]) == 2
    assert capsys.readouterr() == ("", f"error: {why}\n")


@pytest.mark.parametrize("text,position", [
    ("2 3", 2),
    ("T[1,1,1] 2", 9),
    ("T[1,1,1] T[2,2,1]", 9),
], ids=["rationals", "generator-rational", "generators"])
def test_cli_normal_form_rejects_juxtaposed_terms(text, position, capsys):
    assert main(["compute", "normal-form", "--m", "1", "--n", "1", text]) == 2
    assert capsys.readouterr() == ("", f"error: expected '+' or '-' (at position {position})\n")


@pytest.mark.parametrize("text,position", [("1/0*T[1,1,1]", 0), ("T[2,2,1] - 3/0", 11)],
                         ids=["first-term", "later-term"])
def test_cli_normal_form_names_the_position_of_a_zero_denominator(text, position, capsys):
    """Once the only malformed element without its position."""
    assert main(["compute", "normal-form", "--m", "1", "--n", "1", text]) == 2
    zero = text.split()[-1].split("*")[0]
    assert capsys.readouterr() == ("", f"error: zero denominator: {zero!r} "
                                       f"(at position {position})\n")


def test_cli_joins_the_input_words_with_spaces(capsys):
    """So factors given as separate words need their '*'."""
    assert main(["compute", "normal-form", "T[1,1,1]", "T[2,2,1]"]) == 2
    assert capsys.readouterr().err == "error: expected '+' or '-' (at position 9)\n"
    assert main(["compute", "normal-form", "T[1,1,1]", "*", "T[2,2,1]"]) == 0
    assert capsys.readouterr().out == "1*T[1,1,1]*T[2,2,1]\n"


def _console(*argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "superyangian", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)


def test_the_console_entry_point_runs_the_cli():
    flags = ["compute", "normal-form", "--m", "1", "--n", "1"]
    done = _console(*flags, "T[2,1,1]*T[1,2,1]")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "1*T[1,1,1] - 1*T[1,2,1]*T[2,1,1] - 1*T[2,2,1]\n"
    done = _console(*flags, "2 3")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: expected '+' or '-' (at position 2)\n"


def test_cli_run_all_runs_the_built_in_matrix(tmp_path, capsys):
    out_path = tmp_path / "reports.json"
    assert main(["run-all", "--output", str(out_path)]) == 1
    reports = json.loads(out_path.read_text())
    for report in reports:
        report["wall_time_s"] = 0.0
    assert reports == json.loads(DEFAULT_GOLDEN.read_text())
    assert capsys.readouterr().out.endswith(f"wrote 69 reports to {out_path}\n")


def test_cli_run_all_prints_the_default_config(capsys):
    assert main(["run-all", "--print-default-config"]) == 0
    assert json.loads(capsys.readouterr().out) == default_config()


def test_cli_run_all_with_config(tmp_path, capsys):
    config = {
        "suites": [
            {"name": "berezinian-theorem", "params": {"m": 1, "n": 1, "order": 3}},
            {"name": "z-central", "params": {"m": 1, "n": 0, "order": 3,
                                             "r_max": 3, "s_max": 2}},
        ],
        "output": str(tmp_path / "reports.json"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run-all", "--config", str(cfg_path)]) == 0
    reports = json.loads((tmp_path / "reports.json").read_text())
    assert len(reports) == 2
    assert all(r["status"] == "pass" for r in reports)


def test_cli_run_all_bad_config(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["run-all", "--config", str(cfg)]) == 2



VALID_ENTRY = {"name": "yang-baxter", "params": {"m": 1, "n": 1}}


@pytest.mark.parametrize("argv, why", [
    (["check", "eval-rep", "--points", ""], "eval-rep: ValueError: parameter 'points' must not be empty"),
    (["run-all", "--config", ""], "[Errno 2] No such file or directory: ''"),
    (["run-all", "--output", ""], "config 'output' must be a non-empty string, not ''"),
], ids=["points", "config", "output"])
def test_cli_rejects_an_empty_flag_value_before_any_suite_runs(
        argv, why, tmp_path, monkeypatch, capsys):
    """Each empty value was once read as no flag at all: the default
    points, the built-in matrix, or a write to reports.json."""
    monkeypatch.chdir(tmp_path)
    ran = []

    def refuse(*args):
        ran.append(args)
        raise AssertionError("a claim ran")

    for name, suite in SUITES.items():
        claims = tuple((claim, refuse, arguments) for claim, _, arguments in suite.claims)
        monkeypatch.setitem(SUITES, name, replace(suite, claims=claims))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {why}\n"
    assert ran == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("config, why", [
    ([VALID_ENTRY], "config must be an object, not list"),
    ({"suites": ["yang-baxter"]}, "config suites[0] must be an object"),
    ({"suites": [VALID_ENTRY, {"name": "l3", "params": [1]}]},
     "config suites[1] (l3): 'params' must be an object"),
    ({"suites": [{"params": {"m": 1, "n": 1}}]}, "config suites[0] needs a string 'name'"),
    ({"suites": [VALID_ENTRY], "output": True}, "config 'output' must be a non-empty string"),
    ({"suites": [VALID_ENTRY], "output": 7}, "config 'output' must be a non-empty string"),
    ({"suites": [VALID_ENTRY], "output": ""}, "config 'output' must be a non-empty string"),
    ({"suites": [VALID_ENTRY], "outptu": "x.json"},
     "config: unknown key 'outptu' (known: suites, output, parallelism)"),
    ({"suites": [{"name": "yang-baxter", "params": {"m": 1, "n": 1}, "parms": {"m": 3}}]},
     "config suites[0] (yang-baxter): unknown key 'parms' (known: name, params)"),
    ({"suites": [VALID_ENTRY], "parallelism": 2},
     "config 'parallelism' must be 1, as the runner is sequential, not 2"),
    ({"suites": [VALID_ENTRY], "parallelism": True},
     "config 'parallelism' must be 1, as the runner is sequential, not True"),
], ids=["list", "string-entry", "list-params", "no-name", "output-true", "output-int",
        "output-empty", "top-level-key", "entry-key", "parallelism-2", "parallelism-true"])
def test_cli_run_all_rejects_a_malformed_config_before_running(
        config, why, tmp_path, monkeypatch, capsys):
    """Each once ran: a traceback and exit 1, a misleading message, for
    an `output` of true or 7, every suite run and written to a file
    descriptor, or, for a misspelt key, the suite run without it and
    written to reports.json."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(["run-all", "--config", "config.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {why}")
    assert captured.err.count("\n") == 1  # one line, no traceback
    assert [path.name for path in tmp_path.iterdir()] == ["config.json"]
