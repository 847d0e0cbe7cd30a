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
It turns its joint constants (``_dh``: angle offset, ``a``, ``d``, cos and sin
of ``alpha``) and its tool tip into Python floats once. ``frames``, the one
forward-kinematics pass, runs on floats, as numpy's per-call cost outweighs
4x4 arithmetic; every function here and ``geometry.world_state`` read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .transforms import is_rigid

NUM_JOINTS = 6

_BASE = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0))  # frame 0, the base


@dataclass(frozen=True)
class JointParams:
    """Four-parameter description of one revolute joint (meters / radians)."""

    a: float
    alpha: float
    d: float
    theta_offset: float = 0.0

    def __post_init__(self) -> None:
        for name in ("a", "alpha", "d", "theta_offset"):
            value = getattr(self, name)
            if isinstance(value, bool) or not np.isfinite(value):  # a bool is an int to numpy
                raise ValueError(f"joint parameter {name!r} must be a finite number")
        for name in ("alpha", "theta_offset"):
            value = getattr(self, name)
            if not (-np.pi < value <= np.pi):
                raise ValueError(f"joint angle parameter {name!r}={value} outside (-pi, pi]")


@dataclass(frozen=True, eq=False)
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
        dh = [(jp.theta_offset, jp.a, jp.d, math.cos(jp.alpha), math.sin(jp.alpha)) for jp in self.joints]
        object.__setattr__(self, "_dh", tuple(tuple(map(float, joint)) for joint in dh))
        object.__setattr__(self, "_tool_point", tuple(tool[:3, 3].tolist()))  # in frame 6


def is_link_index(value) -> bool:
    """Whether value is an integer (a Python or numpy one, not a bool) naming frame 0..NUM_JOINTS."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and 0 <= value <= NUM_JOINTS


@dataclass(frozen=True, eq=False)
class BodyPoint:
    """A point rigidly attached to one frame of the chain."""

    link_index: int  # 0 = base, 1..6 = frame after that joint
    local_position: np.ndarray  # 3-vector in that frame, meters

    def __post_init__(self) -> None:
        if not is_link_index(self.link_index):
            raise ValueError(f"link_index {self.link_index!r} is not an integer in 0..{NUM_JOINTS}")
        local = np.array(self.local_position, dtype=float)
        if local.shape != (3,) or not np.all(np.isfinite(local)):
            raise ValueError("local_position must be a finite 3-vector")
        local.flags.writeable = False
        object.__setattr__(self, "local_position", local)


def joint_config(q) -> np.ndarray:
    """Validate and return a joint configuration as a float (6,) array."""
    arr = np.array(q, dtype=float).reshape(-1)  # a copy
    if arr.shape != (NUM_JOINTS,):
        raise ValueError(f"joint configuration must have {NUM_JOINTS} entries, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("joint configuration must be finite")
    return arr


def frames(q, chain: RobotChain) -> list:
    """Base->frame_k transforms for k = 0..6 from q's Python floats, each as its top three rows of four floats.

    Row r of frame i + 1 is row r of frame i times joint i's link matrix,
    summed left to right; a link matrix's zero entries add no terms.
    """
    rows = _BASE
    out = [rows]
    for qi, (offset, a, d, ca, sa) in zip(q, chain._dh):
        theta = qi + offset
        ct, st = math.cos(theta), math.sin(theta)
        m01, m02, m03, m11, m12, m13 = -st * ca, st * sa, a * ct, ct * ca, -ct * sa, a * st
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = rows
        rows = (
            (a0 * ct + a1 * st, a0 * m01 + a1 * m11 + a2 * sa, a0 * m02 + a1 * m12 + a2 * ca, a0 * m03 + a1 * m13 + a2 * d + a3),
            (b0 * ct + b1 * st, b0 * m01 + b1 * m11 + b2 * sa, b0 * m02 + b1 * m12 + b2 * ca, b0 * m03 + b1 * m13 + b2 * d + b3),
            (c0 * ct + c1 * st, c0 * m01 + c1 * m11 + c2 * sa, c0 * m02 + c1 * m12 + c2 * ca, c0 * m03 + c1 * m13 + c2 * d + c3),
        )
        out.append(rows)
    return out


def to_world(frame, local) -> tuple:
    """The point ``local`` (x, y, z) placed by ``frame`` (three rows of four floats): rotation times point, plus translation."""
    x, y, z = local
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = frame
    return (a0 * x + a1 * y + a2 * z + a3, b0 * x + b1 * y + b2 * z + b3, c0 * x + c1 * y + c2 * z + c3)


def forward_kinematics(q, chain: RobotChain) -> np.ndarray:
    """Base->frame transforms after each joint, plus the tool frame: (7, 4, 4).

    Entry ``i`` (0..5) is the frame after joint ``i+1`` and depends only on
    q[0..i]; entry 6 is the tool tip frame.
    """
    rows = frames(joint_config(q).tolist(), chain)
    columns = chain.tool_offset.T.tolist()
    tool = [tuple(r0 * c0 + r1 * c1 + r2 * c2 + r3 * c3 for c0, c1, c2, c3 in columns) for r0, r1, r2, r3 in rows[-1]]
    return np.array([[*frame, (0.0, 0.0, 0.0, 1.0)] for frame in (*rows[1:], tool)])


def body_point_position(q, chain: RobotChain, point: BodyPoint) -> np.ndarray:
    """World position (3,) of a body point at configuration q."""
    return np.array(to_world(frames(joint_config(q).tolist(), chain)[point.link_index], point.local_position.tolist()))


def body_point_jacobian(q, chain: RobotChain, point: BodyPoint) -> np.ndarray:
    """3x6 positional Jacobian of a body point; columns beyond its link are zero."""
    rows = frames(joint_config(q).tolist(), chain)
    k = point.link_index
    return np.array(list(zip(*point_jacobian_columns(rows, k, to_world(rows[k], point.local_position.tolist())))))


def point_jacobian_columns(rows: list, link_index: int, position) -> list:
    """The six columns of the positional Jacobian of the world point ``position`` (x, y, z) rigidly attached to
    frame ``link_index``, each (x, y, z) in Python floats.

    Reads the frame rows of ``frames``; columns beyond the link are zero. Joint
    i + 1 rotates about z of frame i, so column i is the elementwise cross
    product axis_i x (p - origin_i).
    """
    x, y, z = position
    columns = [(0.0, 0.0, 0.0)] * NUM_JOINTS
    for i, ((_, _, zx, ox), (_, _, zy, oy), (_, _, zz, oz)) in enumerate(rows[:link_index]):
        dx, dy, dz = x - ox, y - oy, z - oz
        columns[i] = (zy * dz - zz * dy, zz * dx - zx * dz, zx * dy - zy * dx)
    return columns


def tool_tip(chain: RobotChain) -> BodyPoint:
    """The tool tip as a body point on frame 6."""
    return BodyPoint(link_index=NUM_JOINTS, local_position=chain.tool_offset[:3, 3])
