"""The reports of the benchmark's `abstract-deep` and `tensor-oracle`
workloads at seed 1, pinned byte for byte apart from `wall_time_s`, as
`default_reports.json` pins the `batch-default` matrix.  The suite
lists are read from `perfbench/workloads.py`; the golden file maps each
workload to its `reports_to_json` text.  Regenerate it only from a tree
whose outputs are trusted:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_workload_reports as t; t.write_golden()"
"""

import importlib.util
import json
from pathlib import Path

import pytest

from superyangian.suites import reports_to_json, run_all

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "workload_reports.json"
WORKLOADS = ("abstract-deep", "tensor-oracle")
SEED = 1


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload_json(workload: str) -> str:
    reports, _ = run_all({"suites": _workloads().suite_list(workload, SEED)})
    for report in reports:
        report.wall_time_s = 0
    return reports_to_json(reports)


def write_golden() -> None:
    GOLDEN.write_text(json.dumps({w: workload_json(w) for w in WORKLOADS},
                                 indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_match_golden_bytes(workload):
    assert workload_json(workload) == json.loads(GOLDEN.read_text())[workload]
