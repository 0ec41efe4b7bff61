"""A/B benchmark of a baseline revision against the working tree.

    python tools/bench.py --baseline REV [--workloads W,...] --pairs N \
        --seconds S --out BENCH_<n>.json
    python tools/bench.py --baseline REV --config FILE --pairs N \
        --out BENCH_<n>.json

Both sides are `git archive`d into one scratch directory, at two paths of
equal length: REV, and the working tree as `git add -A` would commit it
(built in a temporary index; the real index is not touched).  Each
tree's `src/` and `perfbench/` are compiled to bytecode before the first
run, so every run imports from the same state.  For pair k = 0 .. N-1
the tree's own, unchanged `perfbench/run.py --workload W --seed k
--seconds S` runs in each tree in turn, the baseline first when k is
even and the change first when k is odd.  Only the last stdout line of
each run, its result object, is read.

The output holds the environment and, per workload and end-to-end
metric, each side's per-pair values with their median and quartiles,
and the number of pairs the change won: read lower or higher as
`BENCHMARK.json` says the metric is better, a tie counting for neither
side.  Each side's `attempted` and `failed` counts are kept per pair.
The workloads default to those `BENCHMARK.json` lists.  A run that
exits non-zero stops the benchmark.

With `--config FILE` the benchmark times a suite matrix instead: pair k
runs `python -m superyangian run-all --config FILE` once per side, in a
fresh process importing that tree's `src/`, in the same alternating
order, and records its wall time (`wall_s`) and its own peak RSS
(`peak_rss_mb`, the `ru_maxrss` that `os.wait4` returns for it).  The
result sits under `"config"` in the same shape as a workload's:
`attempted` counts each run's reports, and `failed` those that differ
from the same report of the baseline's first run, `wall_time_s` aside.
A run that exits 2 or more (a usage or internal error) stops the
benchmark; exit 1 is a red verdict, which the reports compare.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("baseline", "worktree")  # directory names of equal length


def git(*args: str, env: dict | None = None) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          env=env).stdout


def worktree_tree() -> str:
    """The tree object of the working tree as `git add -A` would stage it,
    written through a temporary index file."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        git("add", "-A", env=env)
        return git("write-tree", env=env).decode().strip()


def archive(treeish: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", treeish))) as tar:
        tar.extractall(dest, filter="data")
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=dest, check=True, capture_output=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name} {workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_config(tree: Path, config: Path) -> tuple[dict, list]:
    """One `run-all --config` in `tree`: its result object, shaped as a
    workload run's without `failed`, and its reports without
    `wall_time_s`."""
    out = tree / "bench-reports.json"
    cmd = [sys.executable, "-m", "superyangian", "run-all", "--config", str(config),
           "--output", str(out)]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    with tempfile.TemporaryFile() as stderr:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                                stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code not in (0, 1):
            stderr.seek(0)
            raise RuntimeError(f"{tree.name} run-all --config {config}: exit {code}\n"
                               f"{stderr.read().decode()}")
    reports = json.loads(out.read_text())
    for report in reports:
        report.pop("wall_time_s")
    return {"metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": usage.ru_maxrss / 1024, "unit": "MB"}},
            "attempted": len(reports)}, reports


def summary(values: list) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def change_wins(base: list, change: list, better: str) -> int:
    sign = 1 if better == "lower" else -1
    return sum(sign * (b - c) > 0 for b, c in zip(base, change))


def compare(results: dict, better: dict) -> dict:
    """Per metric, each side's summary and the change's wins, from
    `results`, {side: [result object per pair]}."""
    base, change = results[SIDES[0]], results[SIDES[1]]
    out = {"metrics": {}}
    for name in base[0]["metrics"]:
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        out["metrics"][name] = {
            "unit": base[0]["metrics"][name]["unit"],
            "better": better[name],
            **{side: summary(values[side]) for side in SIDES},
            "change_wins": change_wins(values[SIDES[0]], values[SIDES[1]], better[name]),
        }
    for key in ("attempted", "failed"):
        out[key] = {side: [r[key] for r in results[side]] for side in SIDES}
    out["pairs"] = len(base)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--baseline", required=True, help="git revision to compare against")
    ap.add_argument("--workloads", help="comma-separated workloads (default: BENCHMARK.json's)")
    ap.add_argument("--config", type=Path, help="time run-all on this config, not the workloads")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="perfbench seconds per run (workloads only)")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.config is None and args.seconds is None:
        ap.error("--seconds is required without --config")
    if args.config is not None and (args.seconds is not None or args.workloads):
        ap.error("--config takes neither --seconds nor --workloads")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in declared["workloads"]])
    baseline = git("rev-parse", "--verify", args.baseline + "^{commit}").decode().strip()
    trees = {SIDES[0]: baseline, SIDES[1]: worktree_tree()}

    scratch = Path(tempfile.mkdtemp(prefix="bench-"))
    try:
        for side, treeish in trees.items():
            archive(treeish, scratch / side)
        report = {
            "environment": {
                "python": platform.python_version(),
                "platform": platform.platform(),
                "nproc": os.cpu_count(),
                "loadavg_1m_at_start": os.getloadavg()[0],
                "baseline": {"rev": args.baseline, "commit": baseline},
                "worktree": {"head": git("rev-parse", "HEAD").decode().strip(),
                             "tree": trees[SIDES[1]]},
                "pairs": args.pairs,
                "order": "pair k runs the baseline first when k is even",
                "bytecode": "src/ and perfbench/ precompiled in each tree",
            },
        }
        orders = [SIDES if k % 2 == 0 else SIDES[::-1] for k in range(args.pairs)]
        if args.config is None:
            report["environment"].update(seconds=args.seconds, seeds=list(range(args.pairs)))
            report["workloads"] = {}
            for workload in workloads:
                results: dict = {side: [] for side in SIDES}
                for k, order in enumerate(orders):
                    for side in order:
                        results[side].append(run_once(scratch / side, workload, k,
                                                      args.seconds))
                report["workloads"][workload] = compare(results, better)
        else:
            config = args.config.resolve()
            report["environment"]["config"] = json.loads(config.read_text())
            results = {side: [] for side in SIDES}
            runs = []
            for order in orders:
                for side in order:
                    result, reports = run_config(scratch / side, config)
                    results[side].append(result)
                    runs.append((result, reports))
            reference = runs[0][1]
            for result, reports in runs:
                result["failed"] = (sum(a != b for a, b in zip(reports, reference))
                                    + abs(len(reports) - len(reference)))
            report["config"] = compare(results, {"wall_s": "lower", "peak_rss_mb": "lower"})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
