"""Forward kinematics and body-point Jacobians for a 6-DOF revolute serial chain.

Joint geometry uses the classic four-parameter convention (link length ``a``,
link twist ``alpha``, link offset ``d``, joint angle offset) with the joint
variable rotating about the local z axis:

    T_i(q_i) = Rz(q_i + theta_offset_i) @ Tz(d_i) @ Tx(a_i) @ Rx(alpha_i)

so the z axis of frame ``i-1`` is the rotation axis of joint ``i`` (frame 0 is
the base). A body point is addressed by the frame it is rigidly attached to
(0 = base, 1..6 = frame after that joint) plus local coordinates; the tool tip
is just a body point on frame 6, not a special case.

All functions here are pure; ``RobotChain`` is immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transforms import cross, is_rigid

NUM_JOINTS = 6


@dataclass(frozen=True)
class JointParams:
    """Four-parameter description of one revolute joint (meters / radians)."""

    a: float
    alpha: float
    d: float
    theta_offset: float = 0.0

    def __post_init__(self) -> None:
        for name in ("a", "alpha", "d", "theta_offset"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"joint parameter {name!r} must be finite")
        for name in ("alpha", "theta_offset"):
            value = getattr(self, name)
            if not (-np.pi < value <= np.pi):
                raise ValueError(f"joint angle parameter {name!r}={value} outside (-pi, pi]")


@dataclass(frozen=True)
class RobotChain:
    """Immutable kinematic description of a 6-joint revolute arm plus tool tip offset."""

    joints: tuple[JointParams, ...]
    tool_offset: np.ndarray  # 4x4 rigid transform, frame 6 -> tool tip frame

    def __post_init__(self) -> None:
        if len(self.joints) != NUM_JOINTS:
            raise ValueError(f"chain must have exactly {NUM_JOINTS} joints, got {len(self.joints)}")
        tool = np.array(self.tool_offset, dtype=float)
        if not is_rigid(tool):
            raise ValueError("tool_offset must be a proper 4x4 rigid transform")
        tool.flags.writeable = False
        object.__setattr__(self, "tool_offset", tool)

    @property
    def num_joints(self) -> int:
        return len(self.joints)


@dataclass(frozen=True)
class BodyPoint:
    """A point rigidly attached to one frame of the chain."""

    link_index: int  # 0 = base, 1..6 = frame after that joint
    local_position: np.ndarray  # 3-vector in that frame, meters

    def __post_init__(self) -> None:
        if not 0 <= self.link_index <= NUM_JOINTS:
            raise ValueError(f"link_index {self.link_index} outside 0..{NUM_JOINTS}")
        local = np.array(self.local_position, dtype=float)
        if local.shape != (3,) or not np.all(np.isfinite(local)):
            raise ValueError("local_position must be a finite 3-vector")
        local.flags.writeable = False
        object.__setattr__(self, "local_position", local)


def joint_config(q) -> np.ndarray:
    """Validate and return a joint configuration as a float (6,) array."""
    arr = np.asarray(q, dtype=float).reshape(-1)
    if arr.shape != (NUM_JOINTS,):
        raise ValueError(f"joint configuration must have {NUM_JOINTS} entries, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("joint configuration must be finite")
    return arr.copy()


def _dh_matrix(jp: JointParams, q: float) -> np.ndarray:
    theta = q + jp.theta_offset
    ct, st = np.cos(theta), np.sin(theta)
    ca, sa = np.cos(jp.alpha), np.sin(jp.alpha)
    return np.array(
        [
            [ct, -st * ca, st * sa, jp.a * ct],
            [st, ct * ca, -ct * sa, jp.a * st],
            [0.0, sa, ca, jp.d],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def _frames_with_base(q: np.ndarray, chain: RobotChain) -> np.ndarray:
    """Prefix products: (7, 4, 4) array of base->frame_k transforms for k = 0..6."""
    frames = np.empty((NUM_JOINTS + 1, 4, 4))
    frames[0] = np.eye(4)
    for i, jp in enumerate(chain.joints):
        frames[i + 1] = frames[i] @ _dh_matrix(jp, q[i])
    return frames


def forward_kinematics(q, chain: RobotChain) -> np.ndarray:
    """Base->frame transforms after each joint, plus the tool frame: (7, 4, 4).

    Entry ``i`` (0..5) is the frame after joint ``i+1`` and depends only on
    q[0..i]; entry 6 is the tool tip frame.
    """
    qv = joint_config(q)
    frames = _frames_with_base(qv, chain)
    out = np.empty((NUM_JOINTS + 1, 4, 4))
    out[:NUM_JOINTS] = frames[1:]
    out[NUM_JOINTS] = frames[NUM_JOINTS] @ chain.tool_offset
    return out


def body_point_position(q, chain: RobotChain, point: BodyPoint) -> np.ndarray:
    """World position (3,) of a body point at configuration q."""
    return _to_world(_frames_with_base(joint_config(q), chain)[point.link_index], point.local_position)


def body_point_jacobian(q, chain: RobotChain, point: BodyPoint) -> np.ndarray:
    """3x6 positional Jacobian of a body point; columns beyond its link are zero."""
    frames = _frames_with_base(joint_config(q), chain)
    k = point.link_index
    return point_jacobian(frames, k, _to_world(frames[k], point.local_position))


def _to_world(frame: np.ndarray, local: np.ndarray) -> np.ndarray:
    return frame[:3, :3] @ local + frame[:3, 3]


def tool_point(frames: np.ndarray, chain: RobotChain) -> np.ndarray:
    """World position (3,) of the tool tip, read from already built frames."""
    return _to_world(frames[NUM_JOINTS], chain.tool_offset[:3, 3])


def point_jacobian(frames: np.ndarray, link_index: int, position: np.ndarray) -> np.ndarray:
    """3x6 positional Jacobian of the world point ``position`` rigidly attached to frame ``link_index``.

    Reads already built frames; columns beyond the link are zero.
    """
    J = np.zeros((3, NUM_JOINTS))
    # joint i+1 rotates about z of frame i: column i is axis_i x (p - origin_i)
    J[:, :link_index] = cross(frames[:link_index, :3, 2], position - frames[:link_index, :3, 3]).T
    return J


def tool_tip(chain: RobotChain) -> BodyPoint:
    """The tool tip as a body point on frame 6."""
    return BodyPoint(link_index=NUM_JOINTS, local_position=chain.tool_offset[:3, 3])
