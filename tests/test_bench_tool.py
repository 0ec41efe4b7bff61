"""`tools/bench.py` archives a baseline revision and the working tree,
runs the unchanged benchmark, or `run-all` on a config, in each and
writes both sides per pair.

Only exit codes, shapes and verdict counts are asserted, never a timing.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = {"setup_s", "cold_s", "warm_s", "peak_rss_mb", "verdict_match_frac"}


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def head_commit():
    done = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    if done.returncode != 0:
        pytest.skip("not a git checkout with a commit")
    return done.stdout.strip()


def test_one_pair_on_the_tensor_oracle_writes_both_sides(tmp_path):
    head = head_commit()
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, "tools/bench.py", "--baseline", "HEAD", "--pairs", "1",
         "--seconds", "0", "--workloads", "tensor-oracle", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    env = report["environment"]
    assert env["baseline"] == {"rev": "HEAD", "commit": head}
    assert (env["pairs"], env["seeds"]) == (1, [0])
    assert list(report["workloads"]) == ["tensor-oracle"]
    result = report["workloads"]["tensor-oracle"]
    assert result["pairs"] == 1
    assert result["failed"] == {"baseline": [0], "worktree": [0]}
    assert set(result["metrics"]) == END_TO_END
    for name, metric in result["metrics"].items():
        for side in ("baseline", "worktree"):
            assert len(metric[side]["values"]) == 1, name
            assert metric[side]["median"] == metric[side]["values"][0], name
        assert metric["change_wins"] in (0, 1), name
    frac = result["metrics"]["verdict_match_frac"]
    assert frac["baseline"]["values"] == frac["worktree"]["values"] == [1.0]


def test_one_pair_on_a_one_suite_config_writes_both_sides(tmp_path):
    head = head_commit()
    config = {"suites": [{"name": "morphism-suite", "params": {"m": 1, "n": 1, "bound": 2}}]}
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config))
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, "tools/bench.py", "--baseline", "HEAD", "--pairs", "1",
         "--config", str(config_file), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    env = report["environment"]
    assert env["baseline"] == {"rev": "HEAD", "commit": head}
    assert (env["pairs"], env["config"]) == (1, config)
    assert "workloads" not in report
    result = report["config"]
    assert result["pairs"] == 1
    # the known eta/S red: exit 1, one report on each side, and the same
    assert result["attempted"] == {"baseline": [1], "worktree": [1]}
    assert result["failed"] == {"baseline": [0], "worktree": [0]}
    assert set(result["metrics"]) == {"wall_s", "peak_rss_mb"}
    for name, metric in result["metrics"].items():
        assert metric["better"] == "lower"
        for side in ("baseline", "worktree"):
            assert len(metric[side]["values"]) == 1 and metric[side]["values"][0] > 0, name


@pytest.mark.parametrize("args", [
    ["--config", "c.json", "--seconds", "1"],
    ["--config", "c.json", "--workloads", "tensor-oracle"],
    ["--workloads", "tensor-oracle"],
])
def test_seconds_go_with_the_workloads_and_only_with_them(args):
    with pytest.raises(SystemExit) as exc:
        load_bench().main(["--baseline", "HEAD", "--pairs", "1", "--out", "x.json", *args])
    assert exc.value.code == 2


def test_wins_follow_the_better_direction_and_ties_count_for_neither():
    bench = load_bench()
    base, change = [3, 2, 5, 4], [2, 2, 6, 1]
    assert bench.change_wins(base, change, "lower") == 2
    assert bench.change_wins(base, change, "higher") == 1
    assert bench.summary([4, 1, 3, 2]) == {"values": [4, 1, 3, 2], "median": 2.5,
                                           "q1": 1.75, "q3": 3.25}
    assert bench.summary([7]) == {"values": [7], "median": 7, "q1": 7, "q3": 7}
