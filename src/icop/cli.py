"""Command-line entry point: plan a scenario, sweep horizons, sweep the threshold.

Exit codes: 0 success, 2 scenario parse failure, 3 planner non-convergence or
acceptance-invariant violation, 4 I/O failure. Table outputs are byte-stable
across runs except for the timing columns.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import sys
import time
from pathlib import Path

from . import planner, scenario as scn

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NON_CONVERGED = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icop",
        description="Plan a collision-free contact-tracking trajectory for a scenario file.",
    )
    parser.add_argument("--scenario", required=True, help="path to a .scenario file")
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    parser.add_argument("--xi", type=float, default=None, help="override the equality threshold (m)")
    parser.add_argument("--horizon", type=int, default=None, help="resample the weld path to this many waypoints")
    parser.add_argument("--per-capsule-rows", action="store_true", help="one collision row per capsule")
    parser.add_argument("--sweep-horizon", default=None, help="comma-separated horizons, e.g. 14,21,43,82,164")
    parser.add_argument("--sweep-xi", default=None, help="comma-separated thresholds, e.g. 1e-2,1e-3,1e-4")
    return parser


def _override_params(params: planner.PlannerParams, args) -> planner.PlannerParams:
    changes = {}
    if args.xi is not None:
        changes["xi"] = args.xi
    if args.per_capsule_rows:
        changes["per_capsule_rows"] = True
    return dataclasses.replace(params, **changes) if changes else params


def _apply_horizon(scenario: scn.Scenario, horizon: int | None) -> scn.Scenario:
    if horizon is None:
        return scenario
    resampled = scn.resample_path(scenario.weld_path, horizon)
    return dataclasses.replace(scenario, weld_path=resampled)


def _host_comment() -> str:
    return f"# host: {platform.processor() or platform.machine()} / python {platform.python_version()}"


def cmd_plan(scenario: scn.Scenario, params: planner.PlannerParams, out_dir: Path) -> int:
    try:
        traj, metrics = scn.plan_scenario(scenario, params)
    except planner.NonConvergedError as err:
        print(json.dumps({
            "status": "non_converged",
            "scenario": scenario.name,
            "waypoint": err.waypoint_index,
            "tcp_error": err.tcp_error,
            "min_distance": err.min_distance,
        }))
        return EXIT_NON_CONVERGED
    try:
        scn.export_trajectory(traj, out_dir / f"{scenario.name}_trajectory.csv", scenario=scenario)
        scn.write_metrics(metrics, out_dir / f"{scenario.name}_metrics.txt")
    except OSError as err:
        print(f"I/O failure: {err}", file=sys.stderr)
        return EXIT_IO
    violations = planner.verify_trajectory(traj, params)
    if violations:
        print(json.dumps({"status": "invariant_violated", "scenario": scenario.name, "violations": violations}))
        return EXIT_NON_CONVERGED
    print(
        f"{scenario.name}: horizon={metrics.horizon} mean_tcp_error={metrics.mean_tcp_error:.3e} m "
        f"mean_safe_distance={metrics.mean_safe_distance:.4f} m time={metrics.total_time:.2f} s"
    )
    return EXIT_OK


def _sweep(scenario, params, values, kind, out_dir: Path) -> int:
    rows = []
    for value in values:
        if kind == "horizon":
            s = _apply_horizon(scenario, int(value))
            p = params
            label = str(int(value))
        else:
            s = scenario
            p = dataclasses.replace(params, xi=float(value))
            label = f"{float(value):.1e}"
        start = time.perf_counter()
        try:
            traj, metrics = scn.plan_scenario(s, p)
            elapsed = time.perf_counter() - start
            rows.append((label, f"{elapsed:.4f}", str(metrics.total_inner_iters), "ok"))
        except planner.NonConvergedError as err:
            elapsed = time.perf_counter() - start
            rows.append((label, f"{elapsed:.4f}", "-", f"non_converged@{err.waypoint_index}"))
    header = {"horizon": "horizon", "xi": "xi"}[kind]
    lines = [_host_comment(), f"{header:>12} {'time_s':>10} {'total_inner_iters':>18} {'status':>14}"]
    for row in rows:
        lines.append(f"{row[0]:>12} {row[1]:>10} {row[2]:>18} {row[3]:>14}")
    out_path = out_dir / f"{scenario.name}_{kind}_sweep.txt"
    try:
        out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as err:
        print(f"I/O failure: {err}", file=sys.stderr)
        return EXIT_IO
    print("\n".join(lines))
    return EXIT_OK if all(r[3] == "ok" for r in rows) else EXIT_NON_CONVERGED


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = scn.load_scenario(args.scenario)
    except scn.ScenarioError as err:
        print(f"scenario error: {err}", file=sys.stderr)
        return EXIT_PARSE

    try:
        scenario = _apply_horizon(scenario, args.horizon)
        params = _override_params(scenario.params, args)
    except ValueError as err:
        print(f"invalid override: {err}", file=sys.stderr)
        return EXIT_PARSE

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"I/O failure: {err}", file=sys.stderr)
        return EXIT_IO

    if args.sweep_horizon:
        values = [int(v) for v in args.sweep_horizon.split(",") if v.strip()]
        return _sweep(scenario, params, values, "horizon", out_dir)
    if args.sweep_xi:
        values = [float(v) for v in args.sweep_xi.split(",") if v.strip()]
        return _sweep(scenario, params, values, "xi", out_dir)
    return cmd_plan(scenario, params, out_dir)


if __name__ == "__main__":
    sys.exit(main())
