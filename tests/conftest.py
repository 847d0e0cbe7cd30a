import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from icop.geometry import Scene, world_state
from icop.kinematics import JointParams, RobotChain
from icop.scenario import load_bundled, mounted_scene_and_path, scenario_to_dict
from icop.transforms import homogeneous, rot_y

from oracles import prism_faces


# The OpenBLAS kernel that the bundled scenarios' initial configurations were computed under: their IK runs
# ``np.linalg.solve`` and ``pinv``, which other kernels round in other last bits. Every x86-64 host with AVX2 runs
# this one, whatever kernel it would pick itself. The plans themselves do not depend on the kernel.
PINNED_KERNEL = "Haswell"


def run_under_pinned_kernel(*args: str, kernel: str = PINNED_KERNEL) -> str:
    """The stdout of ``python *args`` run under the OpenBLAS ``kernel``; the calling test fails on a non-zero exit."""
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture(scope="session")
def straight_chain() -> RobotChain:
    """Six 1 m links along a common axis, no twists or offsets."""
    joints = tuple(JointParams(a=1.0, alpha=0.0, d=0.0) for _ in range(6))
    return RobotChain(joints=joints, tool_offset=np.eye(4))


@pytest.fixture(scope="session")
def c4():
    return load_bundled("c4")


@pytest.fixture(scope="session")
def pierced_start_path(c4, tmp_path_factory):
    """A scenario file that is c4 but for a start within the joint limits whose capsules reach 5 mm or more into a wall."""
    scene, _ = mounted_scene_and_path(c4)
    rng = np.random.default_rng(32)
    for _ in range(300):
        q = np.clip(c4.initial_config + rng.uniform(-0.5, 0.5, 6), c4.params.joint_lower, c4.params.joint_upper)
        if world_state(q, c4.chain, c4.capsules, scene).witness.value < -0.005:
            break
    else:
        pytest.fail("never sampled a start inside a wall")
    data = scenario_to_dict(c4)
    data["initial_config"] = q.tolist()
    path = tmp_path_factory.mktemp("pierced") / "pierced.scenario"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def gp50_chain(c4):
    return c4.chain


@pytest.fixture(scope="session")
def gp50_capsules(c4):
    return c4.capsules


@pytest.fixture(scope="session")
def square_tunnel():
    """Unit-square prism tunnel (half-width 0.5, depth 2) at the origin."""
    section = np.array([[0.5, -0.5], [0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5]])
    return Scene(section, depth=2.0)


def rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def fringe_segments(scene) -> np.ndarray:
    """The rim of ``oracles.prism_faces`` as (m, 2, 3) segments: rim segment i runs from rim vertex i to vertex i + 1."""
    rim = prism_faces(scene).entrance[::-1]
    return np.stack([rim, np.roll(rim, -1, axis=0)], axis=1)


def random_tunnel(rng: np.random.Generator):
    """A jittered convex polygon prism placed with a random rigid pose."""
    k = int(rng.integers(3, 8))
    angles = np.sort(rng.uniform(0.0, 2 * np.pi, k))
    while np.min(np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))) < 0.3:
        angles = np.sort(rng.uniform(0.0, 2 * np.pi, k))
    radius = rng.uniform(0.3, 0.8)
    section = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    depth = float(rng.uniform(0.5, 2.0))
    return Scene(section, depth, homogeneous(rot_y(rng.uniform(-np.pi, np.pi)), rng.uniform(-1.0, 1.0, 3)))
