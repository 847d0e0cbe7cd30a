"""Print one sha256 over the plans of the bundled c1..c4 scenarios.

Each scenario is planned under five parameter sets: its bundled params,
``xi`` 1e-6, ``step_max`` 0.004 (long steps are split), ``max_inner`` 2
with ``xi`` 1e-7 (failed waypoints are bisected) and ``per_capsule_rows``
(one collision row per capsule instead of the worst one). The hash covers the raw
bytes of the states, ``tcp_error``, ``min_distance`` and
``inner_iterations`` of every plan; a plan that raises ``NonConvergedError``
contributes its waypoint index, TCP error and clearance instead. Two
checkouts that print the same hash plan bit-identical trajectories.

Run from the repository root:  python3 scripts/plan_fingerprint.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from icop.planner import NonConvergedError, plan
from icop.scenario import load_bundled, mounted_scene_and_path

SCENARIOS = ("c1", "c2", "c3", "c4")

PARAM_SETS = (
    ("default", {}),
    ("xi=1e-6", {"xi": 1e-6}),
    ("step_max=0.004", {"step_max": 0.004}),
    ("max_inner=2,xi=1e-7", {"max_inner": 2, "xi": 1e-7}),
    ("per_capsule_rows", {"per_capsule_rows": True}),
)


def fingerprint() -> str:
    digest = hashlib.sha256()
    for name in SCENARIOS:
        s = load_bundled(name)
        scene, path = mounted_scene_and_path(s)
        for label, changes in PARAM_SETS:
            params = dataclasses.replace(s.params, **changes)
            digest.update(f"{name}/{label}:".encode())
            try:
                traj = plan(path, s.initial_config, s.chain, s.capsules, scene, params)
            except NonConvergedError as err:
                digest.update(b"non-converged")
                digest.update(np.array([err.waypoint_index], dtype=np.int64).tobytes())
                digest.update(np.array([err.tcp_error, err.min_distance], dtype=np.float64).tobytes())
                continue
            for arr in (traj.states, traj.tcp_error, traj.min_distance):
                digest.update(arr.tobytes())
            digest.update(traj.inner_iterations.astype(np.int64).tobytes())
    return digest.hexdigest()


if __name__ == "__main__":
    print(fingerprint())
