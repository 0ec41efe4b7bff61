"""The benchmark script runs end to end and finds every verdict correct,
the tracer's entry points for the tensor oracle still exist, and every
other entry point it cannot resolve is a known stale name.

Only the exit code and the verdict counts are asserted, never a timing.
"""

import ast
import importlib
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


# entry points of perfbench/tracer.py that name deleted code -> why
STALE_ENTRY_POINTS = {
    "matrices.SeriesMatrix.__mul__": "MixedOp replaced SeriesMatrix; the tracer's layer "
                                     "table is to be re-pointed (ROADMAP item 1)",
    "matrices.invert_t": "invert_t is deleted: T(u)^-1 grows through matrices.grow; the "
                         "tracer's layer is to be re-pointed to t_inverse (ROADMAP item 1)",
    "series.BiSeries.__mul__": "BiSeries is deleted; no workload ever called it, so "
                               "no span is lost",
    "central.SeriesTower.__init__": "SeriesTower is deleted; the central.tower layer is to "
                                    "be re-pointed, e.g. to t_inverse (ROADMAP item 1)",
    "central.SeriesTower.z_series": "SeriesTower is deleted; the central.z_series layer is "
                                    "to be re-pointed to the module-level z_series "
                                    "(ROADMAP item 1)",
}


def tracer_layers():
    """The `LAYERS` table of `perfbench/tracer.py`, read with `ast`: the
    tracer file is only read, never imported."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    (layers,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]]
    return layers


def resolves(module, point):
    obj = importlib.import_module(f"superyangian.{module}")
    for part in point.split("."):
        obj = getattr(obj, part, None)
        if obj is None:  # else `Missing.__init__` would read None.__init__
            return False
    return callable(obj)


def test_tracer_entry_points_of_the_tensor_and_coproduct_layers_resolve():
    """A renamed entry point drops out of a traced run's per-layer spans
    (`trace.entry_points_missing`), so the `tensors.*` and
    `morphisms.coproduct` layers of `perfbench/tracer.py` must all
    resolve."""
    watched = [(layer, module, points) for layer, module, points in tracer_layers()
               if layer.startswith("tensors.") or layer == "morphisms.coproduct"]
    names = {point for _, _, points in watched for point in points}
    assert {"embed", "eval_rep", "multi_eval_rep", "EndoOperator.__mul__", "operator_rank",
            "dump_operator", "coproduct", "coproduct_at_leg"} <= names
    for layer, module, points in watched:
        for point in points:
            assert resolves(module, point), f"{layer}: {module}.{point} does not resolve"


def test_the_unresolved_tracer_entry_points_are_exactly_the_known_stale_ones():
    """Across all layers, the entry points that do not resolve are the
    named stale set: a rename or deletion that strands another one, or a
    fix that resolves one of these, shows here."""
    unresolved = {f"{module}.{point}" for _, module, points in tracer_layers()
                  for point in points if not resolves(module, point)}
    assert unresolved == set(STALE_ENTRY_POINTS)
