"""Benchmark of superyangian: time to verdict, cold and warm.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
`src/`.  Standard library only; Linux (`ru_maxrss` is read in KiB).

The benchmark drives the public suite API as a closed loop with one
client: `superyangian.suites.run_all` with `parallelism: 1`, each suite
starting after the previous one returned.  Each measured process
(`child.py`) is a fresh interpreter that makes two identical passes over
the workload's suite list: pass 1 with every cache empty (`cold_s`),
pass 2 with the caches pass 1 filled (`warm_s`).  Processes run back to
back until S seconds have passed, at least one; every figure is the
median over them.  Set-up (`setup_s`: spawn, import of every module of
the package, building the config) is measured in nine further
processes that only set up, and in each measured one.

Times are scaled to a reference speed of the machine (`reference.py`):
on a shared virtual machine a core's speed switches between two levels
every few seconds, and raw pass times spread by a fifth or more between
runs.  The raw wall times are printed in the `detail` line.

Every report of every pass is checked against the expected verdict
(`workloads.verdict_problem`); `attempted` counts suite instances run
and `failed` those whose verdict differs.  A suite that raised inside
the program is reported `skipped`, which is a mismatch, so a broken
build cannot pass as a fast one.

With --trace 1 the run also makes one traced process that wraps each
module's entry points (`tracer.py`) and reports per-layer call counts
and self times for each pass, plus the tracing overhead: traced pass
time minus the untraced median.

The last stdout line is the result object; the lines before it give the
environment and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_ONLY_RUNS = 9
# The whole run must end within 180 s; a child still running at this
# deadline is killed and the run fails.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, trace: int, setup_only: bool, deadline: float) -> dict:
    """Run one child; returns its result with the set-up time added, raw
    (`setup_wall_s`) and scaled by the kernel samples the child took
    right after set-up (`setup_s`)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    lines: list[tuple[float, str]] = []
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)

    def read():
        for line in proc.stdout:
            lines.append((perf_counter(), line.strip()))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        code = proc.wait(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {' '.join(cmd[1:])} still running at the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reader.join(timeout=10)
        proc.stdout.close()
    if code != 0 or len(lines) < 2 or lines[0][1] != "ready":
        raise BenchError(f"child {' '.join(cmd[1:])} failed (exit {code})")
    result = json.loads(lines[-1][1])
    result["setup_wall_s"] = lines[0][0] - t0
    result["setup_s"] = reference.at_nominal(result["setup_wall_s"], result["setup_speed"])
    return result


def check_verdicts(config_entries: list[dict], reports: list[dict]) -> list[str]:
    """Match each report to its config entry and compare verdicts;
    returns one line per mismatch."""
    problems = []
    unmatched = list(config_entries)
    for rep in reports:
        match = next((e for e in unmatched if e["name"] == rep["suite"] and all(
            rep["params"].get(k) == v for k, v in e["params"].items())), None)
        if match is None:
            problems.append(f"{rep['suite']} {rep['params']}: report matches no config entry")
            continue
        unmatched.remove(match)
        why = workloads.verdict_problem(match, rep)
        if why:
            problems.append(f"{rep['suite']} {json.dumps(match['params'])}: {why}")
    problems += [f"{e['name']} {json.dumps(e['params'])}: no report" for e in unmatched]
    return problems


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_1m_at_start": os.getloadavg()[0],
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cache_state": {
            "setup_s": "fresh process, before any suite runs",
            "cold_s": "pass 1 of a fresh process: every cache empty",
            "warm_s": "pass 2 of the same process: caches filled by pass 1",
            "peak_rss_mb": "after both passes, untraced processes",
            "*.self_s.cold": "traced pass 1",
            "*.self_s.warm": "traced pass 2",
        },
    }


def run(args) -> dict:
    start = perf_counter()
    deadline = start + DEADLINE_S
    entries = workloads.suite_list(args.workload, args.seed)

    setups = [spawn(args.workload, args.seed, 0, True, deadline)
              for _ in range(SETUP_ONLY_RUNS)]
    children = []
    measure_start = perf_counter()
    longest = 0.0
    while not children or (perf_counter() - measure_start < args.seconds
                           and perf_counter() + 2 * longest < deadline):
        t0 = perf_counter()
        children.append(spawn(args.workload, args.seed, 0, False, deadline))
        longest = max(longest, perf_counter() - t0)
    traced = spawn(args.workload, args.seed, 1, False, deadline) if args.trace else None

    attempted = 0
    problems: list[str] = []
    for child in children + ([traced] if traced else []):
        for p in child["passes"]:
            attempted += len(entries)
            problems += [f"{p['phase']}: {line}" for line in check_verdicts(entries, p["reports"])]
    setups += children

    cold = statistics.median(c["passes"][0]["seconds"] for c in children)
    warm = statistics.median(c["passes"][1]["seconds"] for c in children)
    mismatch = len(problems) / attempted
    e2e = {
        "setup_s": (statistics.median(c["setup_s"] for c in setups), "s"),
        "cold_s": (cold, "s"),
        "warm_s": (warm, "s"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in children), "MB"),
        "verdict_match_frac": (1.0 - mismatch, "1"),
    }
    detail = {
        "processes": len(children),
        "setup_samples": len(setups),
        "reports_per_pass": len(entries),
        "verdict_mismatch_frac": mismatch,
        "cold_s_samples": [c["passes"][0]["seconds"] for c in children],
        "warm_s_samples": [c["passes"][1]["seconds"] for c in children],
        "setup_wall_s": statistics.median(c["setup_wall_s"] for c in setups),
        "cold_wall_s_samples": [c["passes"][0]["wall_s"] for c in children],
        "warm_wall_s_samples": [c["passes"][1]["wall_s"] for c in children],
        "speed_samples": [[p["speed_samples"] for p in c["passes"]] for c in children],
        "elapsed_s": perf_counter() - start,
    }
    if traced is None:
        metrics = e2e
    else:
        layers = traced["layers"]
        units = {"calls": "count", "cold": "s", "warm": "s", "distinct_frac": "1"}
        metrics = {name: (value, units[name.rsplit(".", 1)[1]]) for name, value in layers.items()}
        metrics["trace.overhead_s.cold"] = (traced["passes"][0]["seconds"] - cold, "s")
        metrics["trace.overhead_s.warm"] = (traced["passes"][1]["seconds"] - warm, "s")
        metrics["trace.entry_points_missing"] = (len(traced["missing"]), "count")
        metrics["trace.layers_absent"] = (len(traced["absent"]), "count")
        detail["untraced"] = {k: v[0] for k, v in e2e.items()}
        detail["missing_entry_points"] = traced["missing"]
        detail["absent_layers"] = traced["absent"]
    return {"metrics": metrics, "detail": detail, "problems": problems, "attempted": attempted}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "superyangian", "__init__.py")):
        print(f"no superyangian sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    print("environment " + json.dumps(environment(args), sort_keys=True), flush=True)
    try:
        out = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in out["problems"]:
        print(f"verdict mismatch: {line}")
    print("detail " + json.dumps(out["detail"], sort_keys=True))
    for name, (value, unit) in out["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"verdict_mismatch_frac = {out['detail']['verdict_mismatch_frac']:.6g} 1")
    result = {
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": min(len(out["problems"]), out["attempted"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
