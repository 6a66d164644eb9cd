"""Tracing from outside the engine: spans and counters around sepkit's layers.

Patcher replaces every public function of the traced sepkit modules with a
wrapper that records a span (name, start, end, parent span, op id).  It
patches the module attribute and every other reference to the same function
object in a sepkit module: by-name imports such as sepkit.verdict.definiteness
and sepkit.report.definiteness, the package re-exports, and dispatch tables
such as sepkit.verdict.CHECKS.  The FieldElement arithmetic methods and a few
per-coefficient helpers are wrapped to count calls only, since a span per
field operation would cost more than the work it measures.  Everything is
restored on exit.

Spans are kept in memory and written out by the caller when the run ends.
Nothing under src/ is changed.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

PACKAGE = "sepkit"
TRACED_MODULES = ("dualgraph", "exactfield", "holonomy", "intersection",
                  "verdict", "report")
COUNT_ONLY = frozenset({"exactfield.parse_rational", "exactfield.format_rational",
                        "holonomy.edge_weight"})
# Whole-graph analyses; calls.reuse_ratio is distinct analyses / calls.
ANALYSES = frozenset({
    "dualgraph.validate_indices", "holonomy.cycle_basis",
    "holonomy.representation_class", "holonomy.residual_divisor",
    "intersection.intersection_matrix", "intersection.definiteness",
})
FIELD_METHODS = {"__mul__": "mul", "__rmul__": "mul", "inverse": "inverse",
                 "__pow__": "pow"}

# per-layer time metric -> the spans whose self time it sums
LAYER_TIMES = {
    "dualgraph.parse_s": ("dualgraph.parse_graph", "dualgraph.graph_from_obj"),
    "dualgraph.validate_s": ("dualgraph.validate_indices",),
    "intersection.matrix_s": ("intersection.intersection_matrix",),
    "intersection.definiteness_s": ("intersection.definiteness",),
    "holonomy.cycle_basis_s": ("holonomy.cycle_basis",),
    "holonomy.representation_s": ("holonomy.representation_class",),
    "holonomy.residual_s": ("holonomy.residual_divisor",),
    "exactfield.span_rank_s": ("exactfield.rational_span_dimension",
                               "exactfield.fraction_free_rank"),
    "exactfield.root_of_unity_s": ("exactfield.is_root_of_unity",
                                   "exactfield.unity_candidates"),
    "verdict.prune_s": ("verdict.toma_prune",),
    "verdict.count_bound_s": ("verdict.separatrix_bound",),
    "report.analyze_self_s": ("report.analyze",),
    "report.json_s": ("report.json",),
}
# verdict.chain_self_s takes every other verdict.* span: the chain and its checks.
CHAIN_PREFIX = "verdict."
# per-op call counts
LAYER_CALLS = {
    "calls.definiteness": "intersection.definiteness",
    "calls.intersection_matrix": "intersection.intersection_matrix",
    "calls.cycle_basis": "holonomy.cycle_basis",
    "calls.representation_class": "holonomy.representation_class",
}


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op]
        self.counts: Counter = Counter()
        self.ops = 0
        self.analysis_calls = 0
        self.distinct_analyses = 0
        self._stack: list[int] = []
        self._op = None
        self._keys: set = set()

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0, 0, parent, self._op])
        self._stack.append(index)
        self.spans[index][1] = perf_counter_ns()
        return index

    def _close(self, index: int):
        self.spans[index][2] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def op(self, op_id: int):
        """The root span of one operation; analyses are deduplicated per op."""
        self._op = op_id
        self._keys = set()
        try:
            with self.span("bench.op"):
                yield
        finally:
            self.ops += 1
            self.distinct_analyses += len(self._keys)
            self._op = None

    def note_analysis(self, key):
        self.analysis_calls += 1
        self._keys.add(key)


def self_times(spans) -> dict[str, int]:
    """Summed self time per span name, in ns.

    A span's self time is its duration minus the part of its interval that
    its child spans cover (overlapping children are counted once).
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(index)
    totals: dict[str, int] = defaultdict(int)
    for index, (name, start, end, _, _) in enumerate(spans):
        covered, reach = 0, start
        for child in sorted(children[index], key=lambda i: spans[i][1]):
            lo = max(spans[child][1], reach)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[name] += (end - start) - covered
    return dict(totals)


def _key(value, identity_types):
    """Analyses of the same graph or of equal matrices count as one."""
    if isinstance(value, identity_types):
        return id(value)
    try:
        hash(value)
    except TypeError:
        return id(value)
    return value


class Patcher:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo: list = []

    def _spanned(self, label: str, fn, identity_types):
        rec = self.recorder
        signature = inspect.signature(fn) if label in ANALYSES else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                rec.note_analysis((label,) + tuple(
                    _key(a, identity_types) for a in bound.arguments.values()))
            index = rec._open(label)
            try:
                return fn(*args, **kwargs)
            finally:
                rec._close(index)
        return wrapper

    def _counted(self, label: str, fn):
        counts = self.recorder.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE
                                      or name.startswith(PACKAGE + "."))]

    def __enter__(self):
        identity_types = (sys.modules[f"{PACKAGE}.dualgraph"].DualGraph,)
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    label = f"{short}.{name}"
                    wrappers[fn] = (self._counted(f"calls.{label}", fn)
                                    if label in COUNT_ONLY
                                    else self._spanned(label, fn, identity_types))
        for module in self._modules():
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, name, wrappers[value])
                    self._undo.append(functools.partial(setattr, module, name, value))
                elif isinstance(value, dict) and name != "__builtins__":
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            value[key] = wrappers[item]
                            self._undo.append(
                                functools.partial(value.__setitem__, key, item))
        element = sys.modules[f"{PACKAGE}.exactfield"].FieldElement
        for name, label in FIELD_METHODS.items():
            original = element.__dict__[name]
            setattr(element, name, self._counted(f"exactfield.{label}", original))
            self._undo.append(functools.partial(setattr, element, name, original))
        return self

    def __exit__(self, *exc):
        while self._undo:
            self._undo.pop()()
        return False


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer times (summed self time, s) and per-op call counts."""
    selfs = self_times(recorder.spans)
    ops = max(recorder.ops, 1)
    out = {}
    claimed = set()
    for metric, names in LAYER_TIMES.items():
        out[metric] = sum(selfs.get(n, 0) for n in names) / 1e9
        claimed.update(names)
    out["verdict.chain_self_s"] = sum(
        ns for name, ns in selfs.items()
        if name.startswith(CHAIN_PREFIX) and name not in claimed) / 1e9
    calls = Counter(span[0] for span in recorder.spans)
    for metric, name in LAYER_CALLS.items():
        out[metric] = calls[name] / ops
    out["calls.reuse_ratio"] = (recorder.distinct_analyses / recorder.analysis_calls
                                if recorder.analysis_calls else 0.0)
    for label in ("mul", "inverse", "pow"):
        out[f"exactfield.{label}_count"] = recorder.counts[f"exactfield.{label}"] / ops
    return out
