"""Regenerate the bundled c1..c4 scenario assets.

The workpiece is a synthetic reconstruction: a hexagonal prism tunnel (a
hexagonal section, a depth, and a pose that places the prism) with a straight
interior weld seam along the tunnel floor line. The chain uses publicly
documented Motoman GP50 dimensions; the four mounting placements (l, alpha)
are the scenario family labels with l interpreted in centimeters.

Each initial configuration is the one, among the IK seeds on both wrist
branches, with the largest clearance. Run from the repository root, under
the OpenBLAS kernel the bundled assets were written under (the IK rounds its
last bits in the kernel):

    OPENBLAS_CORETYPE=Haswell python3 scripts/generate_scenarios.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from icop.geometry import Capsule, CapsuleSet, Scene, transform_scene
from icop.kinematics import (
    JointParams,
    RobotChain,
    body_point_jacobian,
    body_point_position,
    tool_tip,
)
from icop.planner import PlannerParams
from icop.scenario import Scenario, mounted_scene_and_path, mounting_transform, serialize_scenario
from icop.transforms import homogeneous

ASSET_DIR = Path(__file__).resolve().parent.parent / "src" / "icop" / "assets"

TOOL_LENGTH = 0.55  # flange to grinding tip, m

# Mounting placements (l in meters, alpha in radians); family labels quote l in cm.
MOUNTINGS = {
    "c1": (0.01, 0.2 * np.pi),
    "c2": (1.35, 0.2 * np.pi),
    "c3": (0.15, 0.0),
    "c4": (0.18, 0.125 * np.pi),
}

JOINT_LOWER = np.array([-np.pi, -1.83, -1.50, -3.49, -2.36, -6.28])
JOINT_UPPER = np.array([np.pi, 2.70, 2.79, 3.49, 2.36, 6.28])


def gp50_like_chain() -> RobotChain:
    joints = (
        JointParams(a=0.145, alpha=-np.pi / 2, d=0.540, theta_offset=0.0),
        JointParams(a=0.870, alpha=0.0, d=0.0, theta_offset=-np.pi / 2),
        JointParams(a=0.210, alpha=-np.pi / 2, d=0.0, theta_offset=0.0),
        JointParams(a=0.0, alpha=np.pi / 2, d=1.025, theta_offset=0.0),
        JointParams(a=0.0, alpha=-np.pi / 2, d=0.0, theta_offset=0.0),
        JointParams(a=0.0, alpha=0.0, d=0.175, theta_offset=0.0),
    )
    return RobotChain(joints=joints, tool_offset=homogeneous(translation=[0.0, 0.0, TOOL_LENGTH]))


def link_matrix_at_zero(joint: JointParams) -> np.ndarray:
    """The joint's link transform T_i(0) = Rz(theta_offset) @ Tz(d) @ Tx(a) @ Rx(alpha), in closed form (4, 4)."""
    ct, st = np.cos(joint.theta_offset), np.sin(joint.theta_offset)
    ca, sa = np.cos(joint.alpha), np.sin(joint.alpha)
    return np.array(
        [
            [ct, -st * ca, st * sa, joint.a * ct],
            [st, ct * ca, -ct * sa, joint.a * st],
            [0.0, sa, ca, joint.d],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def gp50_like_capsules(chain: RobotChain) -> CapsuleSet:
    def prev_origin_local(i: int) -> np.ndarray:
        A = link_matrix_at_zero(chain.joints[i - 1])
        p = -A[:3, :3].T @ A[:3, 3]
        p[np.abs(p) < 1e-12] = 0.0
        return p

    radii = {1: 0.16, 2: 0.14, 3: 0.12, 4: 0.095}
    caps = [
        Capsule(link_index=i, endpoint_a=prev_origin_local(i), endpoint_b=np.zeros(3), radius=radii[i])
        for i in (1, 2, 3, 4)
    ]
    # Wrist block around the frame-5 origin, along the joint-6 axis.
    caps.append(Capsule(link_index=5, endpoint_a=[0.0, 0.0, -0.06], endpoint_b=[0.0, 0.0, 0.10], radius=0.09))
    # Tool shank: flange back toward the wrist up to just short of the tip,
    # so the contact tip itself carries no collision constraint.
    caps.append(
        Capsule(
            link_index=6,
            endpoint_a=[0.0, 0.0, -0.12],
            endpoint_b=[0.0, 0.0, round(TOOL_LENGTH - 0.08, 6)],
            radius=0.035,
        )
    )
    return CapsuleSet(caps)


def hexagon_section(half_width: float, half_height: float) -> np.ndarray:
    """Flat-top hexagon in (y, z), CCW viewed from +x."""
    w, h = half_width, half_height
    return np.array(
        [
            [w, -0.5 * h],
            [w, 0.5 * h],
            [0.0, h],
            [-w, 0.5 * h],
            [-w, -0.5 * h],
            [0.0, -h],
        ]
    )


TUNNEL_HALF_WIDTH = 0.24
TUNNEL_HALF_HEIGHT = 0.22
TUNNEL_DEPTH = 0.50
SEAM_Z = -0.10  # below the axis, above the floor line
SEAM_X0 = 0.08
SEAM_X1 = 0.38
HORIZON = 43
APPROACH_BACKOFF = 0.10  # initial tip standoff behind the seam start, along the axis

# Workpiece pose in the pre-mounting frame (tunnel axis along +x); chosen so
# the wrist-center window stays inside the reach annulus for all 4 mountings.
BASE_POSITION = np.array([0.10, 0.0, 1.28])


def workpiece_scene() -> Scene:
    section = hexagon_section(TUNNEL_HALF_WIDTH, TUNNEL_HALF_HEIGHT)
    return Scene(section, TUNNEL_DEPTH, homogeneous(translation=BASE_POSITION))


def weld_seam() -> np.ndarray:
    xs = np.linspace(SEAM_X0, SEAM_X1, HORIZON)
    pts = np.column_stack([xs, np.zeros(HORIZON), np.full(HORIZON, SEAM_Z)])
    return pts + BASE_POSITION


def default_params() -> PlannerParams:
    return PlannerParams(
        q_diag=np.ones(6),
        joint_lower=JOINT_LOWER,
        joint_upper=JOINT_UPPER,
        xi=1e-4,
        max_inner=50,
        step_max=0.05,
    )


def solve_posture(chain: RobotChain, tip_target, aim_axis, q_seed, iters=400):
    """Damped least-squares fit of tip position + tool direction (dev-time only)."""
    from icop.kinematics import BodyPoint

    tool = tool_tip(chain)
    wrist = BodyPoint(6, np.zeros(3))
    back_target = np.asarray(tip_target) - (TOOL_LENGTH + 0.175) * np.asarray(aim_axis)
    q = np.array(q_seed, dtype=float)
    for _ in range(iters):
        tip = body_point_position(q, chain, tool)
        back = body_point_position(q, chain, wrist)
        r = np.concatenate([np.asarray(tip_target) - tip, back_target - back])
        J = np.vstack([body_point_jacobian(q, chain, tool), body_point_jacobian(q, chain, wrist)])
        step = np.linalg.solve(J.T @ J + 1e-6 * np.eye(6), J.T @ r)
        q = np.clip(q + np.clip(step, -0.2, 0.2), JOINT_LOWER + 0.05, JOINT_UPPER - 0.05)
        if np.linalg.norm(r) < 1e-10:
            break
    return q


def refine_tip(chain: RobotChain, q, tip_target, iters=200):
    """Polish the tip residual with clipped minimum-norm steps."""
    tool = tool_tip(chain)
    q = np.array(q, dtype=float)
    for _ in range(iters):
        err = np.asarray(tip_target) - body_point_position(q, chain, tool)
        if np.linalg.norm(err) < 1e-12:
            break
        J = body_point_jacobian(q, chain, tool)
        q = np.clip(q + np.linalg.pinv(J) @ err, JOINT_LOWER + 0.02, JOINT_UPPER - 0.02)
    return q


IK_SEEDS = (
    np.array([0.0, 0.6, -0.3, 0.0, -0.9, 0.0]),
    np.array([0.0, 0.2, 0.3, 0.0, -1.2, 0.0]),
    np.array([0.0, -0.4, 0.8, 0.0, -1.5, 0.0]),
    np.array([0.0, 1.0, -0.8, 0.0, -0.5, 0.0]),
)
IK_SEEDS += tuple(seed * [1.0, 1.0, 1.0, 1.0, -1.0, 1.0] for seed in IK_SEEDS)  # the other wrist branch: joint 5 negated


def solve_initial_config(chain, capsules, scene_mounted, approach, axis):
    """Best collision-free initial configuration across the seed postures."""
    from icop.geometry import world_state

    tool = tool_tip(chain)
    candidates = []
    for seed in IK_SEEDS:
        q_seed = seed.copy()
        q_seed[0] = np.arctan2(approach[1], approach[0])
        q = solve_posture(chain, approach, axis, q_seed)
        q = refine_tip(chain, q, approach)
        tip_err = np.linalg.norm(body_point_position(q, chain, tool) - approach)
        if tip_err > 1e-9:
            continue
        if np.any(q < JOINT_LOWER) or np.any(q > JOINT_UPPER):
            continue
        d = world_state(q, chain, capsules, scene_mounted).witness.value
        if d <= 0.01:
            continue
        candidates.append((d, q))
    if not candidates:
        raise RuntimeError("no feasible initial configuration found")
    return max(candidates, key=lambda c: c[0])[1]


def build_scenario(name: str) -> Scenario:
    return mounted_scenario(name, *MOUNTINGS[name])


def mounted_scenario(name: str, l: float, alpha: float) -> Scenario:
    """The workpiece mounted at (l, alpha), with the best initial configuration the IK seeds find.

    Raises RuntimeError when no seed gives a collision-free one.
    """
    chain = gp50_like_chain()
    capsules = gp50_like_capsules(chain)
    scene = workpiece_scene()
    params = default_params()

    # Initial config: tip backed off along the mounted tunnel axis from the
    # seam start, tool aimed down the axis.
    T = mounting_transform(l, alpha)
    R = T[:3, :3]
    axis = R @ np.array([1.0, 0.0, 0.0])
    seam_start = R @ (BASE_POSITION + [SEAM_X0, 0.0, SEAM_Z]) + T[:3, 3]
    approach = seam_start - APPROACH_BACKOFF * axis

    scene_mounted = transform_scene(scene, T)
    q_init = solve_initial_config(chain, capsules, scene_mounted, approach, axis)

    return Scenario(
        name=name,
        chain=chain,
        capsules=capsules,
        scene=scene,
        weld_path=weld_seam(),
        mounting_l=l,
        mounting_alpha=alpha,
        params=params,
        initial_config=q_init,
        description=(
            f"Synthetic weld-grinding reconstruction: hexagonal prism tunnel, straight interior seam, "
            f"GP50-like chain. Mounting {name}: l={l * 100:.0f}cm, alpha={alpha / np.pi:.3f}*pi."
        ),
    )


def check_scenario(s: Scenario) -> dict:
    """Run the planner on a candidate and report feasibility numbers."""
    from icop.geometry import scene_distance
    from icop.planner import NonConvergedError, plan

    scene, path = mounted_scene_and_path(s)
    tool = tool_tip(s.chain)
    tip0 = body_point_position(s.initial_config, s.chain, tool)
    d0 = scene_distance(s.initial_config, s.chain, s.capsules, scene).value
    info = {
        "tip_err0": float(np.linalg.norm(tip0 - (path[0] - 0.0))),
        "d0": d0,
    }
    try:
        traj = plan(path, s.initial_config, s.chain, s.capsules, scene, s.params)
        info.update(
            ok=True,
            max_tcp=float(np.max(traj.tcp_error)),
            min_dist=float(np.min(traj.min_distance)),
            mean_dist=float(np.mean(traj.min_distance)),
            total_iters=int(np.sum(traj.inner_iterations)),
            max_iters=int(np.max(traj.inner_iterations)),
        )
    except NonConvergedError as err:
        info.update(ok=False, fail_at=err.waypoint_index, tcp=err.tcp_error, dist=err.min_distance)
    return info


def main() -> None:
    ASSET_DIR.mkdir(parents=True, exist_ok=True)
    for name in MOUNTINGS:
        s = build_scenario(name)
        report = check_scenario(s)
        print(name, report)
        if report.get("ok"):
            serialize_scenario(s, ASSET_DIR / f"{name}.scenario")
            print(f"  wrote {ASSET_DIR / (name + '.scenario')}")


if __name__ == "__main__":
    main()
