"""The reports of the benchmark's `abstract-deep` and `tensor-oracle`
workloads, pinned byte for byte apart from `wall_time_s`, as
`default_reports.json` pins the `batch-default` matrix.  The suite
lists are read from `perfbench/workloads.py`; the golden file maps each
(workload, seed) case to its `reports_to_json` text, under the workload's
name at seed 1 and under ``<workload>/seed-<seed>`` at any other seed.
`tensor-oracle` is pinned at seeds 1-3: its evaluation points differ per
seed, so a cache keyed too coarsely by them would hand one seed's images
to another.  Regenerate the file only from a tree whose outputs are
trusted:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_workload_reports as t; t.write_golden()"

A second pass over the `tensor-oracle` lists of seeds 1-3, in the
process that ran each seed of the first pass from empty caches, must
report exactly what the first pass did.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from superyangian.suites import reports_to_json, run_all

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "workload_reports.json"
CASES = [("abstract-deep", 1), ("tensor-oracle", 1), ("tensor-oracle", 2), ("tensor-oracle", 3)]
ORACLE_SEEDS = (1, 2, 3)


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def golden_key(workload: str, seed: int) -> str:
    return workload if seed == 1 else f"{workload}/seed-{seed}"


def workload_json(workload: str, seed: int) -> str:
    reports, _ = run_all({"suites": _workloads().suite_list(workload, seed)})
    for report in reports:
        report.wall_time_s = 0
    return reports_to_json(reports)


def write_golden() -> None:
    GOLDEN.write_text(json.dumps({golden_key(*case): workload_json(*case) for case in CASES},
                                 indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("workload,seed", CASES, ids=[golden_key(*case) for case in CASES])
def test_workload_reports_match_golden_bytes(workload, seed):
    assert workload_json(workload, seed) == json.loads(GOLDEN.read_text())[golden_key(workload, seed)]


def test_a_warm_tensor_oracle_pass_reports_what_the_cold_pass_did(monkeypatch):
    """The first pass runs each seed on new algebras, with every cache
    empty; the second runs all three on the algebras the first pass left,
    so a seed reads images another seed's points filled."""
    # the package exports the function `algebra` under the module's name
    registry = importlib.import_module("superyangian.algebra")
    cold = []
    for seed in ORACLE_SEEDS:
        monkeypatch.setattr(registry, "_ALGEBRAS", {})
        cold.append(workload_json("tensor-oracle", seed))
    warm = [workload_json("tensor-oracle", seed) for seed in ORACLE_SEEDS]
    assert warm == cold
