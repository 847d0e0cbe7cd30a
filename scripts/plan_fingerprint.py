"""Print one sha256 over the plans of the bundled c1..c4 scenarios.

Each scenario is planned under four parameter sets: its bundled params,
``xi`` 1e-6, ``step_max`` 0.004 (long steps are split) and ``max_inner`` 2
with ``xi`` 1e-7 (failed waypoints are bisected). The hash covers the raw
bytes of the states, ``tcp_error``, ``min_distance`` and
``inner_iterations`` of every plan; a plan that raises ``NonConvergedError``
contributes its waypoint index, TCP error and clearance instead. Two
checkouts that print the same hash plan bit-identical trajectories.

When two checkouts are meant to agree only to rounding, save the plans of one
and compare the other against them:

    python3 scripts/plan_fingerprint.py --save plans.npz      # first checkout
    python3 scripts/plan_fingerprint.py --compare plans.npz   # second checkout

``--compare`` prints, per scenario and parameter set, the largest change in
any planned joint value and in any recorded ``min_distance``, and whether the
inner-iteration counts and the non-convergence reports match; it exits 1 if
the counts or the reports do not, or if any joint value moved by more than
``MAX_JOINT_CHANGE``.

The hash does not depend on the BLAS kernel: every product that reaches a
plan is summed in a fixed order, on Python floats or numpy's elementwise
operations, and every QP of these plans ends at the float projection. The
QP's active-set path (SVD and QR), which none of them reaches, still rounds
its last bits in the kernel; a plan that reaches it is compared under one
``OPENBLAS_CORETYPE``.

Run from the repository root:  python3 scripts/plan_fingerprint.py
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from icop.planner import NonConvergedError, Trajectory, plan
from icop.scenario import load_bundled, mounted_scene_and_path

SCENARIOS = ("c1", "c2", "c3", "c4")

# Largest joint change (rad) by which two checkouts' plans may differ and still count as the same plans.
MAX_JOINT_CHANGE = 1e-12

PARAM_SETS = (
    ("default", {}),
    ("xi=1e-6", {"xi": 1e-6}),
    ("step_max=0.004", {"step_max": 0.004}),
    ("max_inner=2,xi=1e-7", {"max_inner": 2, "xi": 1e-7}),
)


def run_plans() -> dict[str, Trajectory | NonConvergedError]:
    """Plan every scenario under every parameter set, keyed ``"<scenario>/<label>"``."""
    results = {}
    for name in SCENARIOS:
        s = load_bundled(name)
        scene, path = mounted_scene_and_path(s)
        for label, changes in PARAM_SETS:
            params = dataclasses.replace(s.params, **changes)
            try:
                results[f"{name}/{label}"] = plan(path, s.initial_config, s.chain, s.capsules, scene, params)
            except NonConvergedError as err:
                results[f"{name}/{label}"] = err
    return results


def fingerprint(results: dict[str, Trajectory | NonConvergedError] | None = None) -> str:
    results = run_plans() if results is None else results
    digest = hashlib.sha256()
    for key, result in results.items():
        digest.update(f"{key}:".encode())
        if isinstance(result, NonConvergedError):
            digest.update(b"non-converged")
            digest.update(np.array([result.waypoint_index], dtype=np.int64).tobytes())
            digest.update(np.array([result.tcp_error, result.min_distance], dtype=np.float64).tobytes())
            continue
        for arr in (result.states, result.tcp_error, result.min_distance):
            digest.update(arr.tobytes())
        digest.update(result.inner_iterations.astype(np.int64).tobytes())
    return digest.hexdigest()


def _arrays(results) -> dict[str, np.ndarray]:
    """Per plan: ``states``, ``min_distance`` and ``inner_iterations``, or the ``non_converged`` report."""
    out = {}
    for key, result in results.items():
        if isinstance(result, NonConvergedError):
            out[f"{key}/non_converged"] = np.array([result.waypoint_index, result.tcp_error, result.min_distance])
        else:
            out[f"{key}/states"] = result.states
            out[f"{key}/min_distance"] = result.min_distance
            out[f"{key}/inner_iterations"] = result.inner_iterations.astype(np.int64)
    return out


def save(path, results) -> None:
    with open(path, "wb") as fh:
        np.savez(fh, **_arrays(results))


def compare(path, results) -> list[tuple[str, float | None, bool, bool, float | None]]:
    """Per plan, against the plans saved at ``path``: (key, largest joint change, counts match, reports match,
    largest ``min_distance`` change).

    A change is None when either plan did not converge, or when ``path`` does not hold that array.
    """
    with np.load(path) as saved:
        saved = dict(saved)
    current = _arrays(results)

    def same(name):
        old, new = saved.get(name), current.get(name)
        return (old is None) == (new is None) and (old is None or np.array_equal(old, new))

    def largest_change(name):
        old, new = saved.get(name), current.get(name)
        if old is None or new is None or old.shape != new.shape:
            return None
        return float(np.max(np.abs(new - old), initial=0.0))

    return [
        (
            key,
            largest_change(f"{key}/states"),
            same(f"{key}/inner_iterations"),
            same(f"{key}/non_converged"),
            largest_change(f"{key}/min_distance"),
        )
        for key in results
    ]


def _format(change: float | None) -> str:
    return "n/a" if change is None else f"{change:.3e}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", metavar="PATH", help="write the plans to PATH (.npz)")
    parser.add_argument("--compare", metavar="PATH", help="compare the plans with those saved at PATH")
    args = parser.parse_args(argv)
    results = run_plans()
    print(fingerprint(results))
    if args.save:
        save(args.save, results)
    if args.compare:
        rows = compare(args.compare, results)
        for key, change, iters_match, reports_match, distance_change in rows:
            print(
                f"{key:<26} max|dq|={_format(change):<10} max|dmin|={_format(distance_change):<10} "
                f"inner_iterations {'match' if iters_match else 'DIFFER'}, "
                f"non-converged reports {'match' if reports_match else 'DIFFER'}"
            )
        same = all(iters and reports and (dq or 0.0) <= MAX_JOINT_CHANGE for _, dq, iters, reports, _ in rows)
        return 0 if same else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
