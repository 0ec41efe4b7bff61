"""The benchmark script runs end to end and finds every verdict correct.

Only the exit code and the verdict counts are asserted, never a timing.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_script_runs_and_verdicts_match():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "abstract-deep",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
