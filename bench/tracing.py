"""Per-layer spans around the public functions of tamef, installed from the
benchmark's side.

Each span wraps a function at every binding a caller can reach it through:
the defining module for calls inside that module, and each module that did
`from .x import y`. Classes are wrapped at the method (`PointSplit.__init__`,
`TameMapDescriptor.__call__`), which every caller goes through. A span keeps
a call count and self time, its time minus the time of spans nested in it,
and the counters its `observe` hook adds.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple


def _count_probes(tracer, args, result, exc, elapsed):
    if exc is None:
        tracer.add("probes.probes", len(result))


def _observe_solve(tracer, args, result, exc, elapsed):
    name = "implicit.solve_implicit"
    if exc is None:
        tracer.add("implicit.newton_iters", result.iterations)
        return
    tracer.add(f"{name}.failed")
    tracer.add(f"{name}.failed.{type(exc).__name__}")
    tracer.add(f"{name}.s_failed", elapsed)
    tracer.add("implicit.newton_iters", len(getattr(exc, "history", ())))


def _observe_preimage(tracer, args, result, exc, elapsed):
    if exc is not None or result is None:
        tracer.add("implicit.find_preimage.failed")


def _observe_transitions(tracer, args, result, exc, elapsed):
    if exc is None:
        tracer.add("manifold.overlap_probes",
                   sum(report.probe_count for report in result))


def _observe_write(tracer, args, result, exc, elapsed):
    if exc is None:
        tracer.add("serialize.write.bytes", os.path.getsize(args[0]))


#: (defining module, attribute or Class.method, span name, observe hook)
SPANS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("tamef.probes", "make_probes", "probes.make_probes", _count_probes),
    ("tamef.probes", "make_product_probes", "probes.make_probes",
     _count_probes),
    ("tamef.graded", "seminorm_table", "graded.seminorm_table", None),
    ("tamef.graded", "certify_grading_equivalence",
     "graded.certify_grading_equivalence", None),
    ("tamef.graded", "certify_from_tables", "graded.certify_from_tables",
     None),
    ("tamef.graded", "seminorm_l1", "graded.seminorm", None),
    ("tamef.graded", "seminorm_linf", "graded.seminorm", None),
    ("tamef.maps", "certify_tame", "maps.certify_tame", None),
    ("tamef.maps", "map_seminorm_tables", "maps.map_seminorm_tables", None),
    ("tamef.maps", "TameMapDescriptor.__call__", "maps.evaluate", None),
    ("tamef.implicit", "is_regular_point", "implicit.is_regular_point", None),
    ("tamef.implicit", "PointSplit.__init__", "implicit.PointSplit", None),
    ("tamef.implicit", "build_chart", "implicit.build_chart", None),
    ("tamef.implicit", "solve_implicit", "implicit.solve_implicit",
     _observe_solve),
    ("tamef.implicit", "find_preimage", "implicit.find_preimage",
     _observe_preimage),
    ("tamef.manifold", "make_sphere", "manifold.make_sphere", None),
    ("tamef.manifold", "make_sphere_intersection",
     "manifold.make_sphere_intersection", None),
    ("tamef.manifold", "verify_transitions", "manifold.verify_transitions",
     _observe_transitions),
    ("tamef.serialize", "write_json", "serialize.write", _observe_write),
    ("tamef.serialize", "write_csv", "serialize.write", _observe_write),
    ("tamef.cli", "run", "cli.run", None),
    ("tamef.cli", "build_parser", "cli.build_parser", None),
]

#: bindings that must record calls on the given workload; a binding nobody
#: reaches there means a call path moved and the layer numbers are wrong
EXPECTED_CALLS: Dict[str, str] = {
    "tamef.cli.make_probes": "gradings",
    "tamef.cli.make_product_probes": "maps",
    "tamef.cli.certify_grading_equivalence": "gradings",
    "tamef.graded.seminorm_table": "gradings",
    "tamef.graded.certify_from_tables": "gradings",
    "tamef.maps.certify_from_tables": "maps",
    "tamef.graded.seminorm_l1": "maps",
    "tamef.cli.certify_tame": "maps",
    "tamef.maps.map_seminorm_tables": "maps",
    "tamef.maps.TameMapDescriptor.__call__": "maps",
    "tamef.manifold.certify_tame": "atlas",
    "tamef.cli.is_regular_point": "solve",
    "tamef.implicit.is_regular_point": "atlas",
    "tamef.manifold.is_regular_point": "atlas",
    "tamef.implicit.PointSplit.__init__": "solve",
    "tamef.manifold.build_chart": "atlas",
    "tamef.cli.solve_implicit": "solve",
    "tamef.implicit.solve_implicit": "atlas",
    "tamef.manifold.find_preimage": "atlas",
    "tamef.cli.make_sphere": "atlas",
    "tamef.cli.make_sphere_intersection": "atlas",
    "tamef.cli.verify_transitions": "atlas",
    "tamef.cli.write_json": "solve",
    "tamef.cli.write_csv": "solve",
    "tamef.cli.run": "solve",
    "tamef.cli.build_parser": "solve",
}

#: per-layer metrics: (name, unit); counts and seconds are per traced job
PER_LAYER: List[Tuple[str, str]] = [
    ("probes.make_probes.calls", "count/job"),
    ("probes.make_probes.s", "s/job"),
    ("probes.probes", "count/job"),
    ("graded.seminorm_table.calls", "count/job"),
    ("graded.seminorm_table.s", "s/job"),
    ("graded.certify_grading_equivalence.s", "s/job"),
    ("graded.certify_from_tables.calls", "count/job"),
    ("graded.certify_from_tables.s", "s/job"),
    ("graded.seminorm.calls", "count/job"),
    ("graded.seminorm.s", "s/job"),
    ("maps.certify_tame.calls", "count/job"),
    ("maps.certify_tame.s", "s/job"),
    ("maps.map_seminorm_tables.calls", "count/job"),
    ("maps.map_seminorm_tables.s", "s/job"),
    ("maps.evaluate.calls", "count/job"),
    ("maps.evaluate.s", "s/job"),
    ("implicit.is_regular_point.calls", "count/job"),
    ("implicit.is_regular_point.s", "s/job"),
    ("implicit.PointSplit.calls", "count/job"),
    ("implicit.PointSplit.s", "s/job"),
    ("implicit.build_chart.calls", "count/job"),
    ("implicit.build_chart.s", "s/job"),
    ("implicit.solve_implicit.calls", "count/job"),
    ("implicit.solve_implicit.s", "s/job"),
    ("implicit.solve_implicit.s_failed", "s/job"),
    ("implicit.solve_implicit.failed", "count/job"),
    ("implicit.solve_implicit.failed.NonConvergenceError", "count/job"),
    ("implicit.solve_implicit.failed.SingularBlockError", "count/job"),
    ("implicit.solve_implicit.useful_ratio", "ratio"),
    ("implicit.newton_iters", "count/job"),
    ("implicit.find_preimage.calls", "count/job"),
    ("implicit.find_preimage.s", "s/job"),
    ("implicit.find_preimage.failed", "count/job"),
    ("manifold.make_sphere.s", "s/job"),
    ("manifold.make_sphere_intersection.s", "s/job"),
    ("manifold.verify_transitions.calls", "count/job"),
    ("manifold.verify_transitions.s", "s/job"),
    ("manifold.overlap_probes", "count/job"),
    ("serialize.write.calls", "count/job"),
    ("serialize.write.s", "s/job"),
    ("serialize.write.bytes", "B/job"),
    ("cli.run.calls", "count/job"),
    ("cli.run.s", "s/job"),
    ("cli.build_parser.s", "s/job"),
]


class Tracer:
    """Installs the spans, accumulates their totals, and restores the
    original bindings on `uninstall`."""

    def __init__(self):
        self.totals: Counter = Counter()
        self.binding_calls: Counter = Counter()
        self._child_time: List[float] = []
        self._undo: List[Tuple[object, str, object]] = []

    def add(self, name: str, value: float = 1):
        self.totals[name] += value

    def _wrap(self, fn, span: str, binding: str, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_time.append(0.0)
            result = exc = None
            done = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                elapsed = time.perf_counter() - start
                children = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += elapsed
                self.totals[f"{span}.calls"] += 1
                self.totals[f"{span}.s"] += elapsed - children
                self.binding_calls[binding] += 1
                if observe is not None and (done or exc is not None):
                    observe(self, args, result, exc, elapsed)
        return traced

    def _patch(self, owner, attr: str, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "tamef" or name.startswith("tamef.")}
        for defining, attr, span, observe in SPANS:
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(modules[defining], cls_name)
                self._patch(cls, method, self._wrap(
                    getattr(cls, method), span, f"{defining}.{attr}",
                    observe))
                continue
            original = getattr(modules[defining], attr)
            for name, mod in sorted(modules.items()):
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, self._wrap(
                        original, span, f"{name}.{attr}", observe))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def missing_calls(self, workload: str) -> List[str]:
        """Bindings this workload should reach that recorded no call."""
        return sorted(binding for binding, want in EXPECTED_CALLS.items()
                      if want == workload and not self.binding_calls[binding])

    def metrics(self, jobs: int, time_scale: float) -> Dict[str, float]:
        """Every PER_LAYER metric per job; seconds are multiplied by
        time_scale, the benchmark's speed calibration."""
        values = {}
        for name, unit in PER_LAYER:
            scale = time_scale if unit == "s/job" else 1.0
            values[name] = self.totals[name] * scale / jobs
        attempts = self.totals["implicit.solve_implicit.calls"]
        failed = self.totals["implicit.solve_implicit.failed"]
        values["implicit.solve_implicit.useful_ratio"] = \
            (attempts - failed) / attempts if attempts else 0.0
        return values
