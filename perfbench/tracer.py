"""Span tracer that wraps icop's public layer functions from outside the package.

``Tracer.install`` replaces each traced function with a wrapper on every
``icop.*`` module that holds the same function object; ``planner`` and
``cfs`` import their callees by name, so patching only the defining module
would miss those calls. ``uninstall`` puts the originals back. Spans are kept
in memory as ``(name, start, end, parent, child_time)`` tuples; a stack of
open spans gives each span the time its children covered, so a layer's self
time is its span durations minus their children's. Counts are taken from the
return values where the work happens (QP iterations, active rows and status,
witness case, SafeTrack status, collision rows).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

from icop import cfs, equality, geometry, kinematics, planner, qp, scenario

MODULES = {
    "scenario": scenario,
    "planner": planner,
    "cfs": cfs,
    "equality": equality,
    "qp": qp,
    "geometry": geometry,
    "kinematics": kinematics,
}

# (module, function): the public entry point of each timed layer. The layer
# is the defining module; ``world_capsule_segments`` lives in geometry but is
# also counted as a forward-kinematics call.
TRACED = (
    ("scenario", "load_scenario"),
    ("scenario", "mounted_scene_and_path"),
    ("planner", "plan"),
    ("planner", "safetrack"),
    ("cfs", "convexify_collision"),
    ("equality", "linearize_task"),
    ("qp", "solve"),
    ("geometry", "transform_scene"),
    ("geometry", "scene_distance"),
    ("geometry", "capsule_distance"),
    ("geometry", "segment_segment_distance"),
    ("geometry", "witness_gradient"),
    ("geometry", "world_capsule_segments"),
    ("kinematics", "forward_kinematics"),
    ("kinematics", "body_point_position"),
    ("kinematics", "body_point_jacobian"),
)


def _count_result(name: str, result, counts: Counter) -> None:
    if name == "qp.solve":
        counts["qp.solve.iterations"] += result.iterations
        counts["qp.solve.active_rows"] += len(result.active_set)
        counts["qp.solve.non_optimal"] += result.status != qp.STATUS_OPTIMAL
    elif name == "geometry.capsule_distance":
        counts["geometry.capsule_distance.tunnel"] += result.case_tag == geometry.CASE_TUNNEL
    elif name == "planner.safetrack":
        counts["planner.safetrack.inner_iterations"] += result.inner_iterations
        counts["planner.safetrack.non_converged"] += not result.converged
    elif name == "cfs.convexify_collision":
        counts["cfs.rows"] += len(result)


class Tracer:
    """In-memory span recorder for the functions in ``TRACED``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[list] = []  # open spans: [index, child_time]
        self._patches: list[tuple] = []  # (module, attribute, original)
        self._wrappers: dict[str, tuple] = {}  # name -> (original, wrapper)
        for module_name, func_name in TRACED:
            original = getattr(MODULES[module_name], func_name, None)
            name = f"{module_name}.{func_name}"
            if original is None:
                self.absent.append(name)
            else:
                self._wrappers[name] = (original, self._wrap(name, original))

    def _wrap(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[frame[0]] = (name, start, end, parent, frame[1])
            _count_result(name, result, counts)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "icop" or n.startswith("icop.")]
        for original, wrapper in self._wrappers.values():
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def function_stats(self, first_span: int = 0) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds per function from ``first_span`` on."""
        stats = {name: {"calls": 0, "total": 0.0, "self": 0.0} for name in self._wrappers}
        for name, start, end, _parent, child in self.spans[first_span:]:
            entry = stats[name]
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - child
        return stats

    def write_spans(self, path) -> None:
        """CSV of every span, microseconds from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("index,name,start_us,end_us,parent,self_us\n")
            for i, (name, start, end, parent, child) in enumerate(self.spans):
                out.write(
                    f"{i},{name},{(start - t0) * 1e6:.3f},{(end - t0) * 1e6:.3f},{parent},"
                    f"{(end - start - child) * 1e6:.3f}\n"
                )
