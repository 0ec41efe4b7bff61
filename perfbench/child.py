"""One measured process of the benchmark: set up, then two passes.

Run by `run.py`, never directly.  The process imports every module of
the package from the checkout it lives in, builds the workload's suite
list and prints ``ready``: that is the end of set-up.  It then makes two
identical passes over the list.  Pass 1 starts with every cache empty
because the process is new; pass 2 finds whatever pass 1 left cached.
The last stdout line is a JSON object with both pass times, the peak
RSS, every report and, when traced, the per-layer totals.

Cache state comes only from the process boundary and the pass order:
this file never reads or clears the package's caches.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pkgutil
import resource
import sys
from time import perf_counter

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_package():
    """Import every module of the package from this checkout's `src`."""
    sys.path.insert(0, SRC)
    import superyangian

    where = os.path.realpath(os.path.dirname(superyangian.__file__))
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"superyangian was imported from {where}, not from {SRC}")
    for info in pkgutil.iter_modules(superyangian.__path__, "superyangian."):
        if not info.name.endswith(".__main__"):  # runs the CLI when imported
            importlib.import_module(info.name)


def run_pass(run_all, entries):
    """One pass: each suite through `run_all` with `parallelism: 1`, one
    after the other.  A config per suite, rather than one for the list,
    lets the benchmark sample the machine's speed between suites.

    Once `reference.INTERVAL_S` of suite time has passed, the kernel is
    timed: one sample, plus one per `reference.BURST_S` of that time, so
    that a long suite, whose speed changes go unseen, is at least scaled
    by a steady estimate at each end.  Only time spent inside `run_all`
    counts as pass time."""
    reports = []
    intervals = []
    before = [reference.sample() for _ in range(3)]
    span = 0.0
    for entry in entries:
        t0 = perf_counter()
        got, _ = run_all({"suites": [entry], "parallelism": 1})
        span += perf_counter() - t0
        reports += got
        if span >= reference.INTERVAL_S or entry is entries[-1]:
            after = reference.burst(span)
            intervals.append((span, before, after))
            before, span = after, 0.0
    return reports, intervals


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import_package()
    from superyangian.suites import run_all

    entries = workloads.suite_list(args.workload, args.seed)
    print("ready", flush=True)
    # machine speed right after set-up, to scale the set-up time
    setup_speed = [reference.sample() for _ in range(3)]
    if args.setup_only:
        print(json.dumps({"setup_speed": setup_speed}), flush=True)
        return 0

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()

    out = {"setup_speed": setup_speed, "passes": []}
    for phase in ("cold", "warm"):
        if tracer is not None:
            tracer.phase = phase
        reports, intervals = run_pass(run_all, entries)
        out["passes"].append({
            "phase": phase,
            "wall_s": sum(sec for sec, _, _ in intervals),
            "seconds": reference.scaled(intervals),
            "speed_samples": sum(len(a) for _, _, a in intervals) + len(intervals[0][1]),
            "reports": [{k: v for k, v in r.to_dict().items() if k != "wall_time_s"}
                        for r in reports],
        })
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = tracer.metrics({p["phase"]: p["seconds"] / p["wall_s"]
                                        for p in out["passes"]})
        out["missing"] = tracer.missing
        out["absent"] = tracer.absent
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
