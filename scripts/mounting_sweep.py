"""Plan the workpiece at many mountings and check each plan against the material.

For each mounting (l, alpha) of a fixed grid plus a seeded random draw, the
workpiece is mounted as ``generate_scenarios.mounted_scenario`` mounts it,
with the initial configuration its IK seeds find, and the seam is planned
with the bundled parameters. One row per mounting says:

- whether an initial configuration was found;
- whether the plan converged, or at which waypoint ``NonConvergedError``
  was raised;
- the planner's own minimum clearance (its distance model) over the planned
  states, and the material minimum that ``tests/oracles.py``'s
  ``sampled_material_clearance`` measures against the tunnel's wall quads;
- how many planned states have a capsule axis crossing a wall quad;
- the inner iterations and the plan time.

The states checked against the material are the initial configuration and
every planned state. A failed plan is re-planned up to the waypoint it failed
at, which gives the states it accepted before failing, and its model minimum
includes the failed iterate's. The script is a report: it asserts nothing
and changes nothing.

Run from the repository root:  python3 scripts/mounting_sweep.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts"), str(ROOT / "tests")]

from generate_scenarios import mounted_scenario  # noqa: E402
from oracles import sampled_material_clearance  # noqa: E402

from icop.geometry import world_capsule_segments  # noqa: E402
from icop.planner import NonConvergedError, plan  # noqa: E402
from icop.scenario import mounted_scene_and_path  # noqa: E402

GRID_L = (0.0, 0.1, 0.15, 0.2, 0.3)  # m
GRID_ALPHA = (0.0, 0.05, 0.1, 0.2)  # rad
# The random draw covers the range the benchmark's mounts workload samples.
DRAWS, DRAW_SEED = 8, 0
DRAW_L, DRAW_ALPHA = (0.0, 1.5), (0.0, np.pi / 4)


def mountings() -> list[tuple[float, float]]:
    rng = np.random.default_rng(DRAW_SEED)
    drawn = zip(rng.uniform(*DRAW_L, DRAWS).tolist(), rng.uniform(*DRAW_ALPHA, DRAWS).tolist())
    return [(l, alpha) for l in GRID_L for alpha in GRID_ALPHA] + list(drawn)


def material(states, scenario, scene) -> tuple[float, int]:
    """The smallest sampled material clearance over the states' capsules, and how many states cross a wall."""
    radii = [cap.radius for cap in scenario.capsules]
    least, crossing = np.inf, 0
    for q in states:
        measured = [
            sampled_material_clearance(a, b, r, scene)
            for (a, b), r in zip(world_capsule_segments(q, scenario.chain, scenario.capsules), radii)
        ]
        least = min(least, *(m.clearance for m in measured))
        crossing += any(m.crosses_wall for m in measured)
    return least, crossing


def sweep_row(l: float, alpha: float) -> dict:
    row = {"l": l, "alpha": alpha}
    try:
        s = mounted_scenario("sweep", l, alpha)
    except RuntimeError:
        return row | {"outcome": "no initial configuration"}
    scene, path = mounted_scene_and_path(s)
    args = (s.initial_config, s.chain, s.capsules, scene, s.params)
    start = time.perf_counter()
    try:
        traj = plan(path, *args)
        row["plan_ms"] = (time.perf_counter() - start) * 1e3
        row["outcome"], model = "planned", float(traj.min_distance.min())
    except NonConvergedError as err:
        row["plan_ms"] = (time.perf_counter() - start) * 1e3
        row["outcome"], model = f"NonConvergedError at waypoint {err.waypoint_index}", err.min_distance
        traj = plan(path[: err.waypoint_index], *args) if err.waypoint_index else None
    states = [s.initial_config]
    if traj is not None:
        model = min(model, float(traj.min_distance.min()))
        row["iterations"] = int(traj.inner_iterations.sum())
        states += list(traj.states)
    row["material"], row["crossing"] = material(states, s, scene)
    row["model"], row["states"] = model, len(states)
    return row


def main() -> None:
    print("| l (m) | alpha (rad) | outcome | model min (m) | material min (m) | crossing states | inner iterations | plan (ms) |")
    print("|---|---|---|---|---|---|---|---|")
    for l, alpha in mountings():
        r = sweep_row(l, alpha)
        if "model" not in r:
            print(f"| {l:.3f} | {alpha:.3f} | {r['outcome']} | | | | | |")
            continue
        print(
            f"| {l:.3f} | {alpha:.3f} | {r['outcome']} | {r['model']:.3e} | {r['material']:.4f} "
            f"| {r['crossing']}/{r['states']} | {r.get('iterations', '')} | {r['plan_ms']:.1f} |"
        )


if __name__ == "__main__":
    main()
