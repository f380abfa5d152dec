"""Per-layer spans recorded from the benchmark's own files.

The program is not edited: for the traced run the benchmark replaces
each layer's public functions with span-recording wrappers, both in
the module that defines them and wherever another core module imported
them by name, and wraps the public methods of the layer classes on the
class.  Every span is kept in memory as ``(name, start, end, parent,
run)`` -- ``run`` is the id of the root span, so the spans of one
update call share it -- and written out when the run ends.

A span's self time is its duration minus the time its child spans
cover.  Self time and call counts are also folded on the fly into
``(root layer, layer)`` totals, so shares stay exact when the in-memory
span list reaches its cap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter

#: Modules whose functions make up a layer, by layer name.
FUNCTION_LAYERS = {
    "evaluation": {"repro.core.evaluation": ("evaluate_range", "evaluate_knn")},
    "reevaluation": {
        "repro.core.reevaluation": (
            "reevaluate_range", "reevaluate_knn", "relieve_tight_safe_region",
        ),
    },
    "safe_region": {
        "repro.core.safe_region": (
            "compute_safe_region", "knn_safe_region", "range_safe_region",
            "collect_range_obstacles",
        ),
        "repro.core.batch": (
            "batch_range_safe_region", "quadrant_extents",
            "staircase_corners", "combine_components",
        ),
    },
    "irlp": {
        "repro.core.irlp": (
            "irlp_circle", "irlp_circle_complement", "irlp_ring",
            "interior_margin", "maximize_theta",
        ),
    },
}

#: Modules that import layer functions by name; each such binding is
#: patched as well as the defining module's own.
IMPORTERS = (
    "repro.core.server",
    "repro.core.safe_region",
    "repro.core.evaluation",
    "repro.core.reevaluation",
    "repro.core.batch",
    "repro.core.irlp",
)

#: Classes whose public methods make up a layer: (layer, module, class,
#: only).  ``only`` limits the wrap to the named methods; ``None`` wraps
#: all.  The planner layer is the tick-wide gather/dispatch
#: (``TickPlanner``) plus the per-report take of its verdicts
#: (``TickPlan``).
CLASS_LAYERS = (
    ("grid", "repro.index.grid", "GridIndex", None),
    ("rstar", "repro.index.rstar", "RStarTree", None),
    ("kernels", "repro.kernels.ops", "Kernels", None),
    ("planner", "repro.kernels.planner", "TickPlanner", None),
    ("planner", "repro.kernels.planner", "TickPlan", None),
    ("truth", "repro.simulation.truth", "GroundTruth", ("evaluate_at",)),
)


class SpanRecorder:
    """In-memory span store with on-the-fly self-time accounting."""

    def __init__(self, cap: int = 200_000) -> None:
        self.cap = cap
        #: ``(name, start, end, parent, run)``; parent and run are span ids.
        self.spans: list[tuple] = []
        self.dropped = 0
        #: (root layer, layer) -> self seconds / calls.
        self.self_seconds: dict[tuple[str, str], float] = {}
        self.calls: dict[tuple[str, str], int] = {}
        #: root layer -> total seconds of root spans.
        self.root_seconds: dict[str, float] = {}
        #: ``ReevaluationOutcome.case`` tag -> count (update roots only).
        self.cases: dict[str, int] = {}
        #: Perimeters of safe regions computed under update roots.
        self.perimeter_sum = 0.0
        self.perimeter_count = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._run = -1
        self._root = ""

    def wrap(self, fn, name: str, layer: str, observe=None):
        """``fn`` recording one span per call under ``layer``.

        ``observe(recorder, result)`` runs after calls made inside an
        update call.
        """
        stack = self._stack
        spans = self.spans
        self_seconds = self.self_seconds
        calls = self.calls
        root_seconds = self.root_seconds
        cap = self.cap
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = rec._next_id
            rec._next_id = span_id + 1
            if stack:
                parent = stack[-1][1]
            else:
                parent = -1
                rec._run = span_id
                rec._root = layer
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                key = (rec._root, layer)
                self_seconds[key] = (
                    self_seconds.get(key, 0.0) + elapsed - frame[0]
                )
                calls[key] = calls.get(key, 0) + 1
                if stack:
                    stack[-1][0] += elapsed
                else:
                    root_seconds[layer] = (
                        root_seconds.get(layer, 0.0) + elapsed
                    )
                if len(spans) < cap:
                    spans.append((name, start, end, parent, rec._run))
                else:
                    rec.dropped += 1
            if observe is not None and stack and rec._root == "server":
                observe(rec, result)
            return result

        return traced

    def share(self, layer: str, root: str = "server") -> float:
        """Self time of ``layer`` under ``root`` spans over their total."""
        total = self.root_seconds.get(root, 0.0)
        if not total:
            return 0.0
        return self.self_seconds.get((root, layer), 0.0) / total

    def count(self, layer: str, root: str = "server") -> int:
        return self.calls.get((root, layer), 0)

    def write(self, path) -> None:
        """Write the kept spans as tab-separated lines."""
        with open(path, "w") as out:
            out.write("name\tstart\tend\tparent\trun\n")
            for name, start, end, parent, run in self.spans:
                out.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{run}\n")


def _observe_case(rec: SpanRecorder, outcome) -> None:
    rec.cases[outcome.case] = rec.cases.get(outcome.case, 0) + 1


def _observe_region(rec: SpanRecorder, region) -> None:
    rec.perimeter_sum += 2.0 * (
        (region.max_x - region.min_x) + (region.max_y - region.min_y)
    )
    rec.perimeter_count += 1


#: Result readers for single functions: the reevaluation case tag, and
#: the perimeter of each full safe region (Theorem 5.1's cost driver).
_OBSERVERS = {
    "reevaluate_range": _observe_case,
    "reevaluate_knn": _observe_case,
    "compute_safe_region": _observe_region,
}


@contextmanager
def traced_layers(recorder: SpanRecorder):
    """Patch every layer boundary to record into ``recorder``; undo on exit."""
    undo: list[tuple[object, str, object]] = []
    try:
        for layer, modules in FUNCTION_LAYERS.items():
            for module_name, names in modules.items():
                module = importlib.import_module(module_name)
                for name in names:
                    original = getattr(module, name)
                    wrapper = recorder.wrap(
                        original, f"{layer}.{name}", layer,
                        _OBSERVERS.get(name),
                    )
                    for owner_name in IMPORTERS:
                        owner = importlib.import_module(owner_name)
                        if getattr(owner, name, None) is original:
                            undo.append((owner, name, original))
                            setattr(owner, name, wrapper)
        for layer, module_name, class_name, only in CLASS_LAYERS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for name, attr in list(vars(cls).items()):
                if name.startswith("_") or not inspect.isfunction(attr):
                    continue
                if only is not None and name not in only:
                    continue
                undo.append((cls, name, attr))
                setattr(cls, name, recorder.wrap(attr, f"{layer}.{name}", layer))
        yield recorder
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

