#!/usr/bin/env python3
"""Planner benchmark: one closed-loop client driving icop's public functions.

    python3 perfbench/run.py --workload {seam,online,mounts} --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.

Workloads (the seed sets the scenario order and the mounting sample):

* ``seam``: c1-c4 with their shipped parameters, one whole-path
  ``planner.plan`` call per scenario, as in the paper's table.
* ``online``: the same scenarios at ``xi=1e-6``, streamed one waypoint per
  ``plan`` call; the next waypoint is sent when the previous state returns.
* ``mounts``: seeded workpiece mountings (``l`` in [0, 1.5] m, ``alpha`` in
  [0, pi/4]); each runs ``mounted_scene_and_path``, ``scene_distance`` and
  ``witness_gradient`` at the scenario's stored initial configuration.

A round is every operation of the workload once. One untimed round runs first;
its outputs are checked in full and kept as the reference that every timed
operation must reproduce bit for bit. Timed rounds repeat until ``--seconds``
has passed, with the set-up repeated (and timed) before each of them. With
``--trace 1`` the rounds alternate untraced and traced, and the traced ones
record per-layer spans (see ``tracer.py``).

On a shared virtual machine the CPU speed can change by up to ~1.8x over
seconds to minutes (measured on a 2-vCPU Intel Xeon VM), which no run length
averages away. So a fixed reference kernel, independent of icop,
is timed beside the operations (at least every ``REF_EVERY`` seconds and
after every round), and the gated latency and throughput are expressed in
its duration, the unit ``ref``: ``op_ref.p50`` and ``items_per_ref``. The
plain times are printed beside them. ``setup_s`` is timed the same way, each
set-up between two kernel timings, and reported in seconds as the median
set-up in ref times the fixed ``REF_NOMINAL_S``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics without tracing, the
per-layer metrics with it. A readable table, the environment and the result
file path are printed above it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

SCENARIOS = ("c1", "c2", "c3", "c4")
SETUP_REPEATS = 5  # traced set-ups before the rounds; untraced runs set up again before every round
ONLINE_XI = 1e-6
MOUNT_SAMPLE = 200
MOUNT_L_RANGE = (0.0, 1.5)
MOUNT_ALPHA_RANGE = (0.0, 0.25 * 3.141592653589793)
FD_SHARE = 8  # one mounting in this many gets the finite-difference gradient check
FD_STEP = 1e-6
FD_TOL = 1e-6
GEOM_TOL = 1e-12
REF_EVERY = 0.2  # at most this many seconds between two timings of the reference kernel
REF_REPEATS = 2  # the kernel is timed this many times in a row and the fastest counts
REF_SEGMENTS = 64
REF_NOMINAL_S = 0.0035  # one ref in seconds, about its duration on a fast 2-vCPU Intel Xeon VM; scales setup_s only

END_TO_END = {
    "setup_s": "s",
    "op_ref.p50": "ref",
    "items_per_ref": "1/ref",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "scenario.load_scenario.ms": "ms",
    "scenario.mounted_scene_and_path.ms": "ms",
    "geometry.transform_scene.us_per_call": "us",
    "geometry.scene_distance.calls_per_iter": "calls/iter",
    "geometry.scene_distance.us_per_call": "us",
    "geometry.segment_segment_distance.calls_per_iter": "calls/iter",
    "geometry.segment_segment_distance.us_per_call": "us",
    "geometry.capsule_distance.tunnel_frac": "ratio",
    "geometry.witness_gradient.calls_per_iter": "calls/iter",
    "geometry.witness_gradient.us_per_call": "us",
    "kinematics.fk_calls_per_iter": "calls/iter",
    "kinematics.body_point_jacobian.us_per_call": "us",
    "cfs.convexify_collision.us_per_call": "us",
    "cfs.rows_per_call": "count",
    "equality.linearize_task.us_per_call": "us",
    "qp.solve.us_per_call": "us",
    "qp.solve.iters_per_call": "count",
    "qp.solve.active_rows": "count",
    "qp.solve.non_optimal_frac": "ratio",
    "planner.inner_iters_per_waypoint": "count",
    "planner.safetrack.calls_per_waypoint": "count",
    "planner.safetrack.non_converged_frac": "ratio",
    "scenario.self_share": "ratio",
    "planner.self_share": "ratio",
    "cfs.self_share": "ratio",
    "equality.self_share": "ratio",
    "qp.self_share": "ratio",
    "geometry.self_share": "ratio",
    "kinematics.self_share": "ratio",
    "trace.overhead_frac": "ratio",
}

# Per-layer metrics that are pure counts: deterministic for a given seed and
# source tree, so two traced runs must report them identically.
COUNT_METRICS = (
    "geometry.scene_distance.calls_per_iter",
    "geometry.segment_segment_distance.calls_per_iter",
    "geometry.capsule_distance.tunnel_frac",
    "geometry.witness_gradient.calls_per_iter",
    "kinematics.fk_calls_per_iter",
    "cfs.rows_per_call",
    "qp.solve.iters_per_call",
    "qp.solve.active_rows",
    "qp.solve.non_optimal_frac",
    "planner.inner_iters_per_waypoint",
    "planner.safetrack.calls_per_waypoint",
    "planner.safetrack.non_converged_frac",
)

LAYERS = ("scenario", "planner", "cfs", "equality", "qp", "geometry", "kinematics")

FK_FUNCTIONS = (
    "kinematics.forward_kinematics",
    "kinematics.body_point_position",
    "kinematics.body_point_jacobian",
    "geometry.world_capsule_segments",
)


@dataclasses.dataclass
class Case:
    """One scenario with its scene and weld path mounted into the world frame."""

    scenario: object
    scene: object
    path: object


@dataclasses.dataclass
class Op:
    """One operation: latency (None if never sent), result or exception, items done, and the
    index of the last reference-kernel timing before it."""

    latency: float | None
    result: object
    items: int
    ref: int = -1


@dataclasses.dataclass
class Tally:
    rounds: int = 0
    busy: float = 0.0  # seconds inside operations
    attempted: int = 0
    failed: int = 0
    items: int = 0
    latencies: list = dataclasses.field(default_factory=list)
    normalized: list = dataclasses.field(default_factory=list)  # latencies in reference-kernel durations
    round_normalized: list = dataclasses.field(default_factory=list)  # per round, the sum of ``normalized``


def _reference_kernel(points) -> float:
    """Closest points of random segment pairs: small-vector numpy and float work like the planner's."""
    acc = 0.0
    for a0, a1, b0, b1 in points:
        d1, d2, r = a1 - a0, b1 - b0, a0 - b0
        a, e, f, c, b = float(d1 @ d1), float(d2 @ d2), float(d2 @ r), float(d1 @ r), float(d1 @ d2)
        s = float(np.clip((b * f - c * e) / (a * e - b * b), 0.0, 1.0))
        t = (b * s + f) / e
        acc += float(np.linalg.norm(a0 + s * d1 - b0 - t * d2)) + float(np.cross(d1, d2)[0])
    return acc


class Reference:
    """Times the reference kernel beside the operations; its duration is the unit ``ref``."""

    def __init__(self) -> None:
        self.points = np.random.default_rng(0).standard_normal((REF_SEGMENTS, 4, 3))
        self.durations: list[float] = []
        self.last = -float("inf")

    def measure(self) -> None:
        best = float("inf")
        for _ in range(REF_REPEATS):
            start = time.perf_counter()
            _reference_kernel(self.points)
            best = min(best, time.perf_counter() - start)
        self.durations.append(best)
        self.last = time.perf_counter()

    def tick(self) -> int:
        """Time the kernel if it is due; returns the index of the latest timing."""
        if time.perf_counter() - self.last >= REF_EVERY:
            self.measure()
        return len(self.durations) - 1

    def normalize(self, op: Op) -> float:
        """Latency over the mean kernel duration just before and just after the operation."""
        return op.latency / (0.5 * (self.durations[op.ref] + self.durations[op.ref + 1]))

    def timed(self, fn):
        """Run ``fn`` between two kernel timings; returns its result and its duration in ref."""
        self.measure()
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        self.measure()
        return result, elapsed / (0.5 * (self.durations[-2] + self.durations[-1]))


def _fingerprint_trajectory(traj) -> bytes:
    return b"".join(
        a.tobytes() for a in (traj.states, traj.tcp_error, traj.min_distance, traj.inner_iterations)
    )


class Seam:
    """Whole-path plans of c1-c4 with their shipped parameters."""

    name = "seam"
    op_label, op_unit, op_scale = "plan_s", "s", 1.0
    item = "waypoints"
    # The four scenarios take different times, so per-plan samples form four
    # clusters whose median falls between two of them; a round is the sample.
    latency_per_round = True

    def __init__(self, cases, rng):
        self.cases = [cases[i] for i in rng.permutation(len(cases))]
        self.tcp_errors: list[float] = []

    def run_round(self, tick) -> list[Op]:
        ops = []
        for c in self.cases:
            s = c.scenario
            ref = tick()
            start = time.perf_counter()
            try:
                result = planner.plan(c.path, s.initial_config, s.chain, s.capsules, c.scene, s.params)
                items = len(c.path)
            except Exception as err:  # a failed plan is counted, not fatal
                result, items = err, 0
            ops.append(Op(time.perf_counter() - start, result, items, ref))
        return ops

    def fingerprint(self, result) -> bytes:
        return _fingerprint_trajectory(result)

    def check(self, ops: list[Op]) -> list[list[str]]:
        problems = []
        for c, op in zip(self.cases, ops):
            if isinstance(op.result, Exception):
                problems.append([repr(op.result)])
                continue
            found = planner.verify_trajectory(op.result, c.scenario.params)
            found += _tcp_problems(c, op.result.states, range(len(c.path)), c.scenario.params.xi, self.tcp_errors)
            problems.append(found)
        return problems


class Online:
    """c1-c4 at xi=1e-6, one waypoint per plan call, closed loop."""

    name = "online"
    op_label, op_unit, op_scale = "waypoint_ms", "ms", 1e3
    item = "waypoints"
    latency_per_round = False

    def __init__(self, cases, rng):
        self.cases = [cases[i] for i in rng.permutation(len(cases))]
        self.params = [dataclasses.replace(c.scenario.params, xi=ONLINE_XI) for c in self.cases]
        self.tcp_errors: list[float] = []
        self.whole_path = []
        for c, p in zip(self.cases, self.params):
            s = c.scenario
            self.whole_path.append(planner.plan(c.path, s.initial_config, s.chain, s.capsules, c.scene, p))

    def run_round(self, tick) -> list[Op]:
        ops = []
        for c, p in zip(self.cases, self.params):
            s = c.scenario
            q = s.initial_config
            for t in range(len(c.path)):
                ref = tick()
                start = time.perf_counter()
                try:
                    result = planner.plan(c.path[t : t + 1], q, s.chain, s.capsules, c.scene, p)
                except Exception as err:  # the stream ends; later waypoints are never sent
                    ops.append(Op(time.perf_counter() - start, err, 0, ref))
                    unsent = RuntimeError(f"not sent: stream {s.name} stopped at waypoint {t}")
                    ops.extend(Op(None, unsent, 0) for _ in range(t + 1, len(c.path)))
                    break
                ops.append(Op(time.perf_counter() - start, result, 1, ref))
                q = result.states[0]
        return ops

    def fingerprint(self, result) -> bytes:
        return _fingerprint_trajectory(result)

    def check(self, ops: list[Op]) -> list[list[str]]:
        problems = []
        k = 0
        for c, p, whole in zip(self.cases, self.params, self.whole_path):
            for t in range(len(c.path)):
                op = ops[k]
                k += 1
                if isinstance(op.result, Exception):
                    problems.append([repr(op.result)])
                    continue
                found = planner.verify_trajectory(op.result, p)
                found += _tcp_problems(c, op.result.states, [t], p.xi, self.tcp_errors)
                if not (op.result.states[0] == whole.states[t]).all():
                    found.append(f"{c.scenario.name} waypoint {t}: streamed state differs from the whole-path plan")
                problems.append(found)
        return problems


class Mounts:
    """Seeded workpiece mountings evaluated at each scenario's initial configuration."""

    name = "mounts"
    op_label, op_unit, op_scale = "mount_ms", "ms", 1e3
    item = "mountings"
    latency_per_round = False

    def __init__(self, cases, rng):
        order = rng.permutation(len(cases))
        ls = rng.uniform(*MOUNT_L_RANGE, size=MOUNT_SAMPLE)
        alphas = rng.uniform(*MOUNT_ALPHA_RANGE, size=MOUNT_SAMPLE)
        self.sample = [
            dataclasses.replace(
                cases[order[k % len(order)]].scenario, mounting_l=float(ls[k]), mounting_alpha=float(alphas[k])
            )
            for k in range(MOUNT_SAMPLE)
        ]
        self.fd_checked = set(int(k) for k in rng.choice(MOUNT_SAMPLE, MOUNT_SAMPLE // FD_SHARE, replace=False))
        self.tcp_errors: list[float] = []

    def run_round(self, tick) -> list[Op]:
        ops = []
        for s in self.sample:
            ref = tick()
            start = time.perf_counter()
            try:
                scene, _path = scenario.mounted_scene_and_path(s)
                witness = geometry.scene_distance(s.initial_config, s.chain, s.capsules, scene)
                grad = geometry.witness_gradient(s.initial_config, s.chain, s.capsules, scene, witness)
                result, items = (scene, witness, grad), 1
            except Exception as err:  # a failed mounting is counted, not fatal
                result, items = err, 0
            ops.append(Op(time.perf_counter() - start, result, items, ref))
        return ops

    def fingerprint(self, result) -> bytes:
        _scene, w, grad = result
        head = f"{w.value!r}|{w.capsule_index}|{w.case_tag}|{w.plane_index}|{w.clip_plane_index}|"
        return head.encode() + grad.tobytes()

    def check(self, ops: list[Op]) -> list[list[str]]:
        problems = []
        for k, (s, op) in enumerate(zip(self.sample, ops)):
            if isinstance(op.result, Exception):
                problems.append([repr(op.result)])
                continue
            scene, w, grad = op.result
            found = _witness_problems(s, scene, w, grad)
            if not found and k in self.fd_checked:
                found = _gradient_problems(s, scene, w, grad)
            problems.append([f"mounting {k} (l={s.mounting_l:.4f}, alpha={s.mounting_alpha:.4f}): {p}" for p in found])
        return problems


WORKLOADS = {w.name: w for w in (Seam, Online, Mounts)}


def _tcp_problems(case, states, steps, xi, sink) -> list[str]:
    """Recompute the tool error with forward_kinematics, independent of the planner's own value."""
    found = []
    for q, t in zip(states, steps):
        tool = kinematics.forward_kinematics(q, case.scenario.chain)[-1][:3, 3]
        err = float(np.linalg.norm(case.path[t] - tool))
        sink.append(err)
        if not err <= xi:
            found.append(f"{case.scenario.name} step {t}: recomputed tcp error {err:.3e} > xi {xi:.3e}")
    return found


def _capsule_piece(s, scene, index, q):
    segs = geometry.world_capsule_segments(q, s.chain, s.capsules)
    return geometry.capsule_distance(segs[index, 0], segs[index, 1], s.capsules[index].radius, scene, index)


def _witness_problems(s, scene, w, grad) -> list[str]:
    """The witness is the minimum over capsules and its points match its value."""
    q = s.initial_config
    segs = geometry.world_capsule_segments(q, s.chain, s.capsules)
    values = [
        geometry.capsule_distance(segs[i, 0], segs[i, 1], cap.radius, scene, i).value
        for i, cap in enumerate(s.capsules)
    ]
    found = []
    if values[w.capsule_index] != w.value:
        found.append(f"witness value {w.value!r} differs from its capsule's distance {values[w.capsule_index]!r}")
    if min(values) < w.value:
        found.append(f"witness value {w.value!r} is not the minimum {min(values)!r}")
    a, b = segs[w.capsule_index]
    if np.linalg.norm(a + w.axis_param * (b - a) - w.point_on_robot) > GEOM_TOL:
        found.append("point_on_robot is not on the capsule axis at axis_param")
    gap = np.linalg.norm(w.point_on_robot - w.point_on_obstacle)
    if abs(gap - abs(w.value + s.capsules[w.capsule_index].radius)) > GEOM_TOL:
        found.append(f"witness points are {gap:.6e} apart, value + radius is {w.value + s.capsules[w.capsule_index].radius:.6e}")
    if grad.shape != (6,) or not np.all(np.isfinite(grad)):
        found.append(f"gradient is not a finite 6-vector: {grad!r}")
    return found


def _gradient_problems(s, scene, w, grad) -> list[str]:
    """Compare witness_gradient with finite differences of the witness capsule's distance.

    Where the minimizing piece (case, plane, clip) is the same one step either
    side, the central difference must match. Otherwise the distance has a kink
    there (common at symmetric configurations) and no derivative exists; the
    chosen piece's gradient must still bound each one-sided derivative from
    above, which holds for a minimum of smooth pieces. The one-sided derivative
    is extrapolated from steps h and h/10 to remove the curvature term, which
    is large where the axis nearly touches a fringe segment.
    """
    q = s.initial_config
    piece = (w.case_tag, w.plane_index, w.clip_plane_index)
    found = []
    for j in range(q.shape[0]):
        step = np.zeros_like(q)
        step[j] = FD_STEP
        up = _capsule_piece(s, scene, w.capsule_index, q + step)
        down = _capsule_piece(s, scene, w.capsule_index, q - step)
        if all((o.case_tag, o.plane_index, o.clip_plane_index) == piece for o in (up, down)):
            central = (up.value - down.value) / (2 * FD_STEP)
            if abs(central - grad[j]) > FD_TOL:
                found.append(f"joint {j}: gradient {grad[j]:.9f} vs central difference {central:.9f}")
            continue
        for sign, far in ((1.0, up), (-1.0, down)):
            near = _capsule_piece(s, scene, w.capsule_index, q + 0.1 * sign * step)
            slope = (10.0 * (near.value - w.value) / (0.1 * FD_STEP) - (far.value - w.value) / FD_STEP) / 9.0
            if slope > sign * grad[j] + FD_TOL:
                found.append(f"joint {j}: one-sided derivative {slope:.9f} above the witness slope {sign * grad[j]:.9f}")
    return found


def load_inputs() -> list[Case]:
    cases = []
    for name in SCENARIOS:
        s = scenario.load_scenario(scenario.bundled_scenario_path(name))
        scene, path = scenario.mounted_scene_and_path(s)
        cases.append(Case(s, scene, path))
    return cases


def measure(workload, seconds: float, ref: Reference, tracer, between=None):
    """Run timed rounds against the checked reference round.

    Returns the untraced and traced tallies, the failure messages and the
    median reference-kernel duration in milliseconds.

    ``between`` runs before every round, outside the round's timing; the
    untraced benchmark repeats its set-up there so that set-up time is sampled
    across the whole run rather than only at its start.
    """
    reference = workload.run_round(ref.tick)
    ref_problems = workload.check(reference)
    ref_prints = [None if isinstance(op.result, Exception) else workload.fingerprint(op.result) for op in reference]
    failures = [p for found in ref_problems for p in found]
    untraced, traced = Tally(), Tally()
    start = time.perf_counter()
    k = 0
    while k < 2 or time.perf_counter() - start < seconds:
        tally = traced if tracer is not None and k % 2 == 1 else untraced
        if between is not None:
            between()
        if tally is traced:
            tracer.install()
        try:
            ops = workload.run_round(ref.tick)
        finally:
            if tally is traced:
                tracer.uninstall()
        ref.measure()  # every operation has a kernel timing after it
        tally.rounds += 1
        round_normalized = 0.0
        for i, op in enumerate(ops):
            tally.attempted += 1
            tally.items += op.items
            if op.latency is not None:
                tally.busy += op.latency
                tally.latencies.append(op.latency)
                tally.normalized.append(ref.normalize(op))
                round_normalized += tally.normalized[-1]
            ok = (
                not isinstance(op.result, Exception)
                and not ref_problems[i]
                and workload.fingerprint(op.result) == ref_prints[i]
            )
            if not ok:
                tally.failed += 1
                if not ref_problems[i]:
                    failures.append(f"round {k} op {i}: output differs from the reference round: {op.result!r}"[:300])
        tally.round_normalized.append(round_normalized)
        k += 1
    return untraced, traced, failures, statistics.median(ref.durations) * 1e3


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def end_to_end(workload, setup_refs, tally: Tally, ref_ms: float) -> tuple[dict, list[str]]:
    samples = tally.round_normalized if workload.latency_per_round else tally.normalized
    metrics = {
        "setup_s": statistics.median(setup_refs) * REF_NOMINAL_S,
        "op_ref.p50": statistics.median(samples),
        "items_per_ref": tally.items / sum(tally.normalized),
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n = len(tally.latencies)
    label, unit, scale = workload.op_label, workload.op_unit, workload.op_scale
    quantiles = (50, 99) if n >= 1000 else (50,)  # a p99 needs at least ten samples beyond it
    rows = [("setup_s", metrics["setup_s"], "s", f"median of {len(setup_refs)} set-ups, in ref x {REF_NOMINAL_S} s")]
    for q in quantiles:
        rows.append((f"{label}.p{q}", percentile(tally.latencies, q) * scale, unit, f"n={n}"))
    for q in quantiles:
        rows.append((f"{label}.p{q}_ref", percentile(tally.normalized, q), "ref", f"n={n}"))
    rounds_note = f"median of {len(samples)} rounds of {n // len(samples)}" if workload.latency_per_round else f"n={n}"
    rows.append(("op_ref.p50", metrics["op_ref.p50"], "ref", rounds_note))
    rows += [
        (f"{workload.item}_per_s", tally.items / tally.busy, "1/s", f"{tally.items} in {tally.busy:.2f} s"),
        (f"{workload.item}_per_ref", metrics["items_per_ref"], "1/ref", ""),
        ("ref_ms", ref_ms, "ms", "median duration of the reference kernel"),
        ("fail_frac", tally.failed / tally.attempted, "ratio", f"{tally.failed} of {tally.attempted}"),
    ]
    if workload.tcp_errors:
        rows.append(("tcp_error_m.mean", float(np.mean(workload.tcp_errors)), "m", "recomputed with forward_kinematics"))
    rows.append(("peak_rss_mb", metrics["peak_rss_mb"], "MB", ""))
    lines = [f"{name:24s} {value:14.6g} {unit:6s} {note}".rstrip() for name, value, unit, note in rows]
    return metrics, lines


def per_layer(workload, tracer, first_round_span: int, untraced: Tally, traced: Tally) -> tuple[dict, list[str]]:
    everything = tracer.function_stats()
    rounds = tracer.function_stats(first_round_span)
    counts = tracer.counts
    if workload.name == "mounts":  # per mounting: no planner loop runs
        iters = waypoints = traced.attempted
    else:
        iters = counts["planner.safetrack.inner_iterations"]
        waypoints = traced.items

    def stat(table, name):
        if name in tracer.absent:
            raise LookupError(name)
        return table[name]

    def per(a, b):
        return a / b if b else 0.0

    def mean(table, name, kind="total"):
        s = stat(table, name)
        return per(s[kind], s["calls"])

    def per_iter(name):
        return per(stat(rounds, name)["calls"], iters)

    def share(layer):
        names = [n for n in rounds if n.startswith(layer + ".")]
        if not names:
            raise LookupError(layer)
        return per(sum(rounds[n]["self"] for n in names), traced.busy)

    formulas = {
        "scenario.load_scenario.ms": lambda: mean(everything, "scenario.load_scenario") * 1e3,
        "scenario.mounted_scene_and_path.ms": lambda: mean(everything, "scenario.mounted_scene_and_path") * 1e3,
        "geometry.transform_scene.us_per_call": lambda: mean(everything, "geometry.transform_scene") * 1e6,
        "geometry.scene_distance.calls_per_iter": lambda: per_iter("geometry.scene_distance"),
        "geometry.scene_distance.us_per_call": lambda: mean(rounds, "geometry.scene_distance") * 1e6,
        "geometry.segment_segment_distance.calls_per_iter": lambda: per_iter("geometry.segment_segment_distance"),
        "geometry.segment_segment_distance.us_per_call": lambda: mean(rounds, "geometry.segment_segment_distance") * 1e6,
        "geometry.capsule_distance.tunnel_frac": lambda: per(
            counts["geometry.capsule_distance.tunnel"], stat(rounds, "geometry.capsule_distance")["calls"]
        ),
        "geometry.witness_gradient.calls_per_iter": lambda: per_iter("geometry.witness_gradient"),
        "geometry.witness_gradient.us_per_call": lambda: mean(rounds, "geometry.witness_gradient") * 1e6,
        "kinematics.fk_calls_per_iter": lambda: per(sum(stat(rounds, n)["calls"] for n in FK_FUNCTIONS), iters),
        "kinematics.body_point_jacobian.us_per_call": lambda: mean(rounds, "kinematics.body_point_jacobian") * 1e6,
        "cfs.convexify_collision.us_per_call": lambda: mean(rounds, "cfs.convexify_collision", "self") * 1e6,
        "cfs.rows_per_call": lambda: per(counts["cfs.rows"], stat(rounds, "cfs.convexify_collision")["calls"]),
        "equality.linearize_task.us_per_call": lambda: mean(rounds, "equality.linearize_task") * 1e6,
        "qp.solve.us_per_call": lambda: mean(rounds, "qp.solve") * 1e6,
        "qp.solve.iters_per_call": lambda: per(counts["qp.solve.iterations"], stat(rounds, "qp.solve")["calls"]),
        "qp.solve.active_rows": lambda: per(counts["qp.solve.active_rows"], stat(rounds, "qp.solve")["calls"]),
        "qp.solve.non_optimal_frac": lambda: per(counts["qp.solve.non_optimal"], stat(rounds, "qp.solve")["calls"]),
        "planner.inner_iters_per_waypoint": lambda: per(counts["planner.safetrack.inner_iterations"], waypoints),
        "planner.safetrack.calls_per_waypoint": lambda: per(stat(rounds, "planner.safetrack")["calls"], waypoints),
        "planner.safetrack.non_converged_frac": lambda: per(
            counts["planner.safetrack.non_converged"], stat(rounds, "planner.safetrack")["calls"]
        ),
        **{f"{layer}.self_share": (lambda layer=layer: share(layer)) for layer in LAYERS},
        "trace.overhead_frac": lambda: 1.0 - per(traced.items / traced.busy, untraced.items / untraced.busy),
    }
    metrics, lines = {}, []
    for name, unit in PER_LAYER.items():
        try:
            metrics[name] = float(formulas[name]())
            lines.append(f"{name:50s} {metrics[name]:14.6f} {unit}")
        except LookupError:
            lines.append(f"{name:50s} {'absent':>14s}")
    lines.append(
        f"(traced: {traced.rounds} rounds, {traced.busy:.3f} s in operations, {iters} iterations, {waypoints} "
        f"{workload.item}; untraced: {untraced.rounds} rounds; per iter and per waypoint mean per mounting on mounts)"
    )
    return metrics, lines


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyyaml": yaml.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    rng = np.random.default_rng(args.seed)
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            for _ in range(SETUP_REPEATS):
                cases = load_inputs()
        finally:
            tracer.uninstall()
        first_round_span = len(tracer.spans)
        workload = WORKLOADS[args.workload](cases, rng)
        untraced, traced, failures, _ref_ms = measure(workload, args.seconds, Reference(), tracer)
        metrics, lines = per_layer(workload, tracer, first_round_span, untraced, traced)
        units = PER_LAYER
    else:
        tracer = None
        ref = Reference()
        setup_refs = []

        def timed_setup():
            cases, duration = ref.timed(load_inputs)
            setup_refs.append(duration)
            return cases

        workload = WORKLOADS[args.workload](timed_setup(), rng)
        untraced, traced, failures, ref_ms = measure(workload, args.seconds, ref, None, between=timed_setup)
        metrics, lines = end_to_end(workload, setup_refs, untraced, ref_ms)
        units = END_TO_END
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed

    env = environment(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "absent": tracer.absent if tracer is not None else [],
        "failures": failures[:50],
    }
    out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}.csv")

    for line in failures[:20]:
        print(f"FAILED: {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env))
    for line in lines:
        print(line)
    print(f"result file {out_path.relative_to(BENCH_DIR.parent)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "icop" / "__init__.py").is_file():
        print(f"icop sources not found under {SRC}; run from a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    try:
        import numpy as np
        import yaml

        from icop import geometry, kinematics, planner, scenario
        from tracer import Tracer
    except ImportError:
        traceback.print_exc()
        sys.exit(2)
    sys.exit(main())
