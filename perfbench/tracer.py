"""Per-layer spans recorded from outside the package.

Each layer is named after the module it lives in and lists the public
entry points that belong to it.  `install()` resolves every entry point
by name when the run starts and wraps it in a span:

* a method (``"Class.attr"``) is wrapped once, on its class;
* a module-level function is wrapped in every loaded ``superyangian``
  module that bound it by name (``invert_t`` lives in ``matrices`` and is
  imported into ``morphisms`` and ``central``), so calls through any of
  those names are seen.

An entry point that no longer exists is recorded as missing and its
layer, if none of its entry points exist, as absent; the package is
expected to merge and rename these types over time, and the tracer must
keep working when it does.

A span's self time is its duration minus the time of the wrapped spans
it directly contains.  Self time is kept separately for the cold and
the warm pass; call counts are summed over both passes.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

PACKAGE = "superyangian"

# (layer, module, entry points); "Class.attr" names a method.
LAYERS = [
    ("algebra.mul", "algebra", ["Element.__mul__", "Element.multiply_legs", "supercommutator"]),
    ("algebra.element", "algebra", ["Algebra.element", "Algebra.normal_order"]),
    ("algebra.randomized", "algebra", ["Algebra.normal_order_randomized"]),
    ("series.mul", "series", ["SeriesTail.__mul__", "BiSeries.__mul__"]),
    ("series.inverse", "series", ["SeriesTail.inverse"]),
    ("series.shift", "series", ["SeriesTail.shift"]),
    ("matrices.invert_t", "matrices", ["invert_t"]),
    ("matrices.mul", "matrices", ["SeriesMatrix.__mul__"]),
    ("morphisms.build", "morphisms",
     ["build_eta", "build_transpose", "build_antipode", "build_omega"]),
    # morphism_relation_check calls _apply_word directly, so it is the
    # only boundary that sees the relation check's image computations.
    ("morphisms.apply", "morphisms",
     ["MorphismTable.apply", "MorphismTable.apply_at_leg", "MorphismTable._apply_word"]),
    ("morphisms.coproduct", "morphisms", ["coproduct", "coproduct_at_leg"]),
    ("central.tower", "central", ["SeriesTower.__init__"]),
    ("central.z_series", "central", ["SeriesTower.z_series"]),
    ("central.berezinian", "central",
     ["berezinian", "berezinian_factors", "quantum_determinant_c"]),
    ("tensors.mul", "tensors", ["EndoOperator.__mul__"]),
    ("tensors.embed", "tensors", ["embed"]),
    ("tensors.rank", "tensors", ["operator_rank", "EndoOperator.rank"]),
    ("tensors.eval_rep", "tensors", ["eval_rep", "multi_eval_rep"]),
    ("tensors.dump", "tensors", ["dump_operator"]),
    ("mixed.mul", "mixed", ["MixedOp.__mul__"]),
    ("grammar.to_text", "grammar", ["element_to_text", "parse_element"]),
    ("suites.run_suite", "suites", ["run_suite"]),
]


def _invert_t_key(args, kwargs):
    t = args[0]
    return (t.alg.m, t.alg.n, t.order)


def _build_key(name):
    def key(args, kwargs):
        alg = args[0]
        order = args[1] if len(args) > 1 else kwargs.get("order")
        return (name, alg.m, alg.n, order)

    return key


# Entry points whose distinct arguments are counted: calls with a key
# already seen rebuild something the program has built before.
DISTINCT_KEYS = {
    ("matrices", "invert_t"): _invert_t_key,
    **{("morphisms", name): _build_key(name)
       for name in ("build_eta", "build_transpose", "build_antipode", "build_omega")},
}
DISTINCT_LAYERS = ("matrices.invert_t", "morphisms.build")


class Tracer:
    """Span stack and per-layer totals for one process."""

    def __init__(self):
        self.phase = "cold"
        self.calls = {layer: 0 for layer, _, _ in LAYERS}
        self.self_s = {layer: {"cold": 0.0, "warm": 0.0} for layer, _, _ in LAYERS}
        self.keys = {layer: set() for layer in DISTINCT_LAYERS}
        self.keyed_calls = {layer: 0 for layer in DISTINCT_LAYERS}
        self.missing: list[str] = []
        self.absent: list[str] = []
        # each open span: [start, time covered by its direct child spans]
        self._stack: list[list[float]] = []

    def _wrap(self, layer: str, fn, key_fn=None):
        calls = self.calls
        self_s = self.self_s[layer]
        stack = self._stack
        keys = self.keys.get(layer)
        keyed_calls = self.keyed_calls

        @functools.wraps(fn)
        def span(*args, **kwargs):
            calls[layer] += 1
            if key_fn is not None:
                try:
                    key = key_fn(args, kwargs)
                except (AttributeError, IndexError, TypeError):
                    pass  # signature changed: count the call, not its key
                else:
                    keyed_calls[layer] += 1
                    keys.add(key)
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[0]
                stack.pop()
                self_s[self.phase] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return span

    def install(self) -> None:
        """Wrap every entry point that exists in the loaded package."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        for layer, modname, entries in LAYERS:
            found = 0
            module = modules.get(f"{PACKAGE}.{modname}")
            for entry in entries:
                if module is not None and self._install_entry(layer, module, modname, entry, modules):
                    found += 1
                else:
                    self.missing.append(f"{modname}.{entry}")
            if not found:
                self.absent.append(layer)

    def _install_entry(self, layer, module, modname, entry, modules) -> bool:
        if "." in entry:
            cls_name, attr = entry.split(".", 1)
            cls = getattr(module, cls_name, None)
            fn = cls.__dict__.get(attr) if isinstance(cls, type) else None
            if not callable(fn):
                return False
            setattr(cls, attr, self._wrap(layer, fn))
            return True
        fn = getattr(module, entry, None)
        if not callable(fn):
            return False
        span = self._wrap(layer, fn, DISTINCT_KEYS.get((modname, entry)))
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, name, span)
        return True

    def metrics(self, scale: dict[str, float]) -> dict:
        """Per-layer totals; self times are multiplied by `scale[phase]`,
        the factor that brought that pass to the reference speed."""
        out = {}
        for layer, _, _ in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            for phase in ("cold", "warm"):
                out[f"{layer}.self_s.{phase}"] = self.self_s[layer][phase] * scale[phase]
            if layer in DISTINCT_LAYERS:
                n = self.keyed_calls[layer]
                # 1 when never called: nothing was rebuilt
                out[f"{layer}.distinct_frac"] = len(self.keys[layer]) / n if n else 1.0
        return out
