"""Signed distance between the robot's link capsules and a bounded-plane tunnel.

The obstacle is a workpiece tunnel built from convex bounded planes: one
entrance face whose boundary polygon is the tunnel opening, optionally an
exit face parallel to it, and the tunnel walls in between. The fringe
segments are the rim edges where wall planes meet the entrance surface.

A capsule whose axis does not cross the entrance opening keeps its distance
to the fringe segments (FRINGE case). A capsule whose axis crosses the
opening is a working segment (TUNNEL case): its score is the worst signed
half-space clearance of the in-tunnel portion of the axis against the wall
planes. Both cases subtract the capsule radius, so a positive value always
means surface clearance. Wall clearance is affine along the axis and the
minimum of affine functions is concave, so the in-tunnel minimum is attained
at an interval endpoint; the evaluation is exact, no sampling.

Every returned distance carries a witness (capsule, axis parameter, closest
points, clipping plane if any) so the configuration-space gradient can be
assembled from body-point Jacobians, including the chain-rule term for
witnesses pinned to the entrance crossing.

All capsules of a configuration are scored together: one array pass tests
which axes cross the entrance opening and one (capsules x fringe segments)
closest-point pass scores the FRINGE case, so ``scene_distance``,
``capsule_witnesses`` and ``capsule_distance`` share the same arithmetic and
agree bit for bit. The scalar ``segment_segment_distance`` and
``classify_segment`` stay as the reference they are tested against.

A planner iterate is evaluated once: ``world_state`` builds the joint frames,
the world capsule axes, the tool position and every capsule's witness from
one forward-kinematics pass, and the collision rows, the contact rows, the
distance gradients and the recorded clearance all read that state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .kinematics import NUM_JOINTS, RobotChain, _frames_with_base, joint_config, point_jacobian, tool_point
from .transforms import apply_transform, cross, is_rigid

CASE_FRINGE = "FRINGE"
CASE_TUNNEL = "TUNNEL"

# Planes whose normals are this close to (anti)parallel with the entrance
# normal are treated as opening faces, not walls.
_PARALLEL_TOL = 1e-9

# Squared segment length below which segment_segment_distance treats a
# segment as a point.
_SEGMENT_EPS = 1e-14

# How far outside an entrance edge a crossing point may lie and still count
# as inside the opening.
_OPENING_TOL = 1e-9


@dataclass(frozen=True)
class Capsule:
    """A swept sphere wrapping one link: segment endpoints in link frame + radius."""

    link_index: int
    endpoint_a: np.ndarray
    endpoint_b: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        if not 0 <= self.link_index <= NUM_JOINTS:
            raise ValueError(f"capsule link_index {self.link_index} outside 0..{NUM_JOINTS}")
        if not self.radius > 0.0:
            raise ValueError(f"capsule radius must be > 0, got {self.radius}")
        a = np.array(self.endpoint_a, dtype=float)
        b = np.array(self.endpoint_b, dtype=float)
        if a.shape != (3,) or b.shape != (3,):
            raise ValueError("capsule endpoints must be 3-vectors")
        if np.linalg.norm(b - a) < 1e-12:
            raise ValueError("capsule endpoints must be distinct")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "endpoint_a", a)
        object.__setattr__(self, "endpoint_b", b)


CapsuleSet = tuple[Capsule, ...]


def capsule_set(capsules) -> CapsuleSet:
    """Validate an iterable of capsules into an immutable capsule set."""
    caps = tuple(capsules)
    if not caps:
        raise ValueError("capsule set must not be empty")
    for c in caps:
        if not isinstance(c, Capsule):
            raise TypeError(f"expected Capsule, got {type(c).__name__}")
    return caps


def _next_rows(rows: np.ndarray) -> np.ndarray:
    """Row i + 1 in place of row i, cyclically: ``np.roll(rows, -1, axis=0)`` at a fraction of its cost."""
    return np.concatenate([rows[1:], rows[:1]])


def _polygon_edges(vertices: np.ndarray) -> np.ndarray:
    """Edge vectors of a closed polygon: row i runs from vertex i to vertex i + 1."""
    return _next_rows(vertices) - vertices


@dataclass(frozen=True)
class BoundedPlane:
    """A plane {p : normal . p = offset} restricted to a convex polygon.

    Boundary vertices are coplanar with the plane and ordered counter-clockwise
    about the normal.
    """

    normal: np.ndarray
    offset: float
    vertices: np.ndarray  # (k, 3), k >= 3

    def __post_init__(self) -> None:
        n = np.array(self.normal, dtype=float)
        v = np.array(self.vertices, dtype=float)
        if n.shape != (3,):
            raise ValueError("plane normal must be a 3-vector")
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValueError(f"plane normal must be unit length, |n| = {np.linalg.norm(n)!r}")
        if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 3:
            raise ValueError("plane boundary needs at least 3 vertices of dimension 3")
        residual = np.max(np.abs(v @ n - self.offset))
        if residual > 1e-9:
            raise ValueError(f"boundary vertices off the plane by {residual:.3e}")
        edges = _polygon_edges(v)
        if np.any(np.linalg.norm(edges, axis=1) < 1e-12):
            raise ValueError("degenerate boundary edge")
        turns = cross(edges, _next_rows(edges)) @ n
        if np.any(turns < -1e-12):
            raise ValueError("boundary polygon must be convex and counter-clockwise about the normal")
        n.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "vertices", v)


@dataclass(frozen=True)
class Scene:
    """Obstacle world: bounded planes, fringe segments, entrance face, mounting.

    ``mounting`` records the rigid transform already applied to the geometry
    (identity for a scene in its construction frame). Derived orientation data
    (which planes are walls, inward wall normals, outward opening normals, the
    inward normals of the opening's edges) is computed once here so the
    distance queries stay branch-free.
    """

    planes: tuple[BoundedPlane, ...]
    fringe_segments: np.ndarray  # (m, 2, 3)
    entrance_plane_index: int
    mounting: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self) -> None:
        planes = tuple(self.planes)
        if not planes:
            raise ValueError("scene needs at least one bounded plane")
        if not 0 <= self.entrance_plane_index < len(planes):
            raise ValueError(f"entrance_plane_index {self.entrance_plane_index} out of range")
        fringe = np.array(self.fringe_segments, dtype=float)
        if fringe.size == 0:
            fringe = fringe.reshape(0, 2, 3)
        if fringe.ndim != 3 or fringe.shape[1:] != (2, 3):
            raise ValueError("fringe_segments must have shape (m, 2, 3)")
        mounting = np.array(self.mounting, dtype=float)
        if not is_rigid(mounting):
            raise ValueError("mounting must be a proper rigid transform")

        entrance = planes[self.entrance_plane_index]
        normals = np.array([plane.normal for plane in planes])
        offsets = np.array([plane.offset for plane in planes])
        # off_plane[s, p]: how far fringe segment s strays from plane p at its worse end
        off_plane = np.max(np.abs(fringe @ normals.T - offsets), axis=1)
        errors = []
        for si in range(fringe.shape[0]):
            gap = off_plane[si, self.entrance_plane_index]
            if gap > 1e-9:
                errors.append(f"fringe segment {si} off the entrance surface by {gap:.3e}")
            if np.count_nonzero(off_plane[si] <= 1e-9) < 2:
                errors.append(f"fringe segment {si} does not lie on the intersection of two scene planes")
        if errors:
            raise ValueError("; ".join(errors))

        # Opening faces are (anti)parallel to the entrance; the rest are walls.
        n_e = entrance.normal
        opening_idx, wall_idx = [], []
        for i, plane in enumerate(planes):
            if abs(abs(np.dot(plane.normal, n_e)) - 1.0) <= _PARALLEL_TOL:
                opening_idx.append(i)
            else:
                wall_idx.append(i)
        if wall_idx:
            interior = np.mean([planes[i].vertices.mean(axis=0) for i in wall_idx], axis=0)
        else:
            interior = entrance.vertices.mean(axis=0)

        wall_normals = np.zeros((len(wall_idx), 3))
        wall_offsets = np.zeros(len(wall_idx))
        for row, i in enumerate(wall_idx):
            n, off = planes[i].normal, planes[i].offset
            if np.dot(n, interior) - off < 0.0:  # orient inward: interior on positive side
                n, off = -n, -off
            wall_normals[row] = n
            wall_offsets[row] = off

        opening_normals = np.zeros((len(opening_idx), 3))
        opening_offsets = np.zeros(len(opening_idx))
        for row, i in enumerate(opening_idx):
            n, off = planes[i].normal, planes[i].offset
            if np.dot(n, interior) - off > 0.0:  # orient outward: interior on negative side
                n, off = -n, -off
            opening_normals[row] = n
            opening_offsets[row] = off

        entrance_row = opening_idx.index(self.entrance_plane_index)
        entrance_normal = opening_normals[entrance_row]
        entrance_offset = float(opening_offsets[entrance_row])
        # Inward normals of the opening's edges: a point p on the entrance plane
        # is inside the opening when edge_normals[i] . (p - vertices[i]) >= 0.
        edge_normals = cross(entrance.normal, _polygon_edges(entrance.vertices))

        for arr in (
            fringe, mounting, wall_normals, wall_offsets, opening_normals, opening_offsets, interior, edge_normals
        ):
            arr.flags.writeable = False
        object.__setattr__(self, "planes", planes)
        object.__setattr__(self, "fringe_segments", fringe)
        object.__setattr__(self, "mounting", mounting)
        object.__setattr__(self, "_interior_point", interior)
        object.__setattr__(self, "_wall_indices", tuple(wall_idx))
        object.__setattr__(self, "_wall_normals", wall_normals)
        object.__setattr__(self, "_wall_offsets", wall_offsets)
        object.__setattr__(self, "_opening_indices", tuple(opening_idx))
        object.__setattr__(self, "_opening_normals", opening_normals)
        object.__setattr__(self, "_opening_offsets", opening_offsets)
        object.__setattr__(self, "_entrance_normal", entrance_normal)
        object.__setattr__(self, "_entrance_offset", entrance_offset)
        object.__setattr__(self, "_entrance_edge_normals", edge_normals)

    @property
    def entrance_plane(self) -> BoundedPlane:
        return self.planes[self.entrance_plane_index]

    @property
    def entrance_outward_normal(self) -> np.ndarray:
        """Unit normal of the entrance surface pointing away from the tunnel interior."""
        return self._entrance_normal

    @property
    def entrance_outward_offset(self) -> float:
        return self._entrance_offset


@dataclass(frozen=True)
class DistanceWitness:
    """Where the minimum distance is attained and how it was measured.

    ``value`` is the signed clearance (axis distance minus radius for FRINGE,
    worst in-tunnel wall clearance minus radius for TUNNEL). ``axis_param``
    locates the witness point on the capsule axis; ``clip_plane_index`` is set
    when that point is pinned to an opening-plane crossing instead of a
    material endpoint, which the gradient has to account for.
    """

    value: float
    capsule_index: int
    point_on_robot: np.ndarray
    point_on_obstacle: np.ndarray
    case_tag: str
    axis_param: float
    plane_index: int  # wall plane index (TUNNEL) or fringe segment index (FRINGE)
    clip_plane_index: int | None = None


class SegmentClosest(NamedTuple):
    """Closest approach of two segments with the realizing points and parameters."""

    distance: float
    point_on_1: np.ndarray
    point_on_2: np.ndarray
    param_1: float
    param_2: float


def segment_segment_distance(a0, a1, b0, b1) -> SegmentClosest:
    """Closest distance between segments [a0, a1] and [b0, b1] with witness points."""
    a0 = np.asarray(a0, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    b0 = np.asarray(b0, dtype=float)
    b1 = np.asarray(b1, dtype=float)
    d1 = a1 - a0
    d2 = b1 - b0
    r = a0 - b0
    a = float(d1 @ d1)
    e = float(d2 @ d2)
    f = float(d2 @ r)
    eps = _SEGMENT_EPS
    if a <= eps and e <= eps:
        s = t = 0.0
    elif a <= eps:
        s = 0.0
        t = np.clip(f / e, 0.0, 1.0)
    else:
        c = float(d1 @ r)
        if e <= eps:
            t = 0.0
            s = np.clip(-c / a, 0.0, 1.0)
        else:
            b = float(d1 @ d2)
            denom = a * e - b * b
            s = np.clip((b * f - c * e) / denom, 0.0, 1.0) if denom > eps else 0.0
            t = (b * s + f) / e
            if t < 0.0:
                t = 0.0
                s = np.clip(-c / a, 0.0, 1.0)
            elif t > 1.0:
                t = 1.0
                s = np.clip((b - c) / a, 0.0, 1.0)
    p1 = a0 + s * d1
    p2 = b0 + t * d2
    return SegmentClosest(float(np.linalg.norm(p1 - p2)), p1, p2, float(s), float(t))


def point_in_polygon(point, plane: BoundedPlane, tol: float = 1e-12) -> bool:
    """Membership test for a point assumed to lie on the plane of a convex polygon."""
    p = np.asarray(point, dtype=float)
    v = plane.vertices
    k = v.shape[0]
    for i in range(k):
        edge = v[(i + 1) % k] - v[i]
        if np.dot(np.cross(edge, p - v[i]), plane.normal) < -tol:
            return False
    return True


def classify_segment(a, b, scene: Scene) -> str:
    """FRINGE or TUNNEL: does segment [a, b] cross the entrance opening?"""
    n = scene.entrance_outward_normal
    off = scene.entrance_outward_offset
    sa = float(np.dot(n, a) - off)
    sb = float(np.dot(n, b) - off)
    if sa * sb >= 0.0:
        return CASE_FRINGE
    t = sa / (sa - sb)
    crossing = np.asarray(a, dtype=float) + t * (np.asarray(b, dtype=float) - np.asarray(a, dtype=float))
    if point_in_polygon(crossing, scene.entrance_plane, tol=_OPENING_TOL):
        return CASE_TUNNEL
    return CASE_FRINGE


def _in_tunnel_interval(a, b, scene: Scene):
    """Clip segment parameters [0, 1] to the region behind every opening face.

    Returns (t_lo, t_hi, clip_lo, clip_hi) where the clip entries name the
    opening plane that pinned that end, or None for a material endpoint.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    t_lo, t_hi = 0.0, 1.0
    clip_lo: int | None = None
    clip_hi: int | None = None
    for row, plane_idx in enumerate(scene._opening_indices):
        n = scene._opening_normals[row]
        off = scene._opening_offsets[row]
        # inside the tunnel slab: n . p - off <= 0 (outward-oriented normals)
        fa = float(np.dot(n, a) - off)
        slope = float(np.dot(n, d))
        if abs(slope) < 1e-14:
            if fa > 0.0:
                return None  # segment parallel to and outside this opening face
            continue
        t_cross = -fa / slope
        if slope > 0.0:  # leaving through this face as t grows
            if t_cross < t_hi:
                t_hi, clip_hi = t_cross, plane_idx
        else:  # entering through this face as t grows
            if t_cross > t_lo:
                t_lo, clip_lo = t_cross, plane_idx
    if t_lo > t_hi:
        return None
    return t_lo, t_hi, clip_lo, clip_hi


def segment_bounded_planes_distance(a, b, scene: Scene) -> float:
    """Signed clearance of a working segment against the tunnel wall half-spaces.

    Positive when the in-tunnel portion of [a, b] keeps clearance from every
    wall plane; negative with magnitude equal to the deepest violation.
    """
    value, *_ = _tunnel_clearance(a, b, scene)
    return value


def _tunnel_clearance(a, b, scene: Scene):
    """Worst wall clearance over the in-tunnel interval, with witness bookkeeping."""
    if scene._wall_normals.shape[0] == 0:
        raise ValueError("scene has no wall planes for the TUNNEL distance case")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    interval = _in_tunnel_interval(a, b, scene)
    if interval is None:
        # Degenerate: the crossing sliver vanished; fall back to the entrance crossing point.
        n = scene.entrance_outward_normal
        off = scene.entrance_outward_offset
        sa = float(np.dot(n, a) - off)
        sb = float(np.dot(n, b) - off)
        t_c = sa / (sa - sb)
        interval = (t_c, t_c, scene.entrance_plane_index, scene.entrance_plane_index)
    t_lo, t_hi, clip_lo, clip_hi = interval
    ends = ((t_lo, clip_lo), (t_hi, clip_hi))
    best_value = np.inf
    best = None
    for t, clip in ends:
        p = a + t * (b - a)
        clear = scene._wall_normals @ p - scene._wall_offsets
        w = int(np.argmin(clear))
        if clear[w] < best_value:
            best_value = float(clear[w])
            best = (t, clip, w, p)
    t_star, clip_star, wall_row, p_star = best
    wall_plane_index = scene._wall_indices[wall_row]
    n_w = scene._wall_normals[wall_row]
    foot = p_star - best_value * n_w
    return best_value, t_star, clip_star, wall_plane_index, p_star, foot


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot product over the last axis of (..., 3) arrays, summed in a fixed order.

    Every entry comes from the same three products and two sums whatever the
    batch shape, so one capsule scored alone and the same capsule scored in a
    batch give the same bits.
    """
    return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]


def _crosses_opening(axes: np.ndarray, scene: Scene) -> np.ndarray:
    """Per axis (n, 2, 3): does it cross the entrance opening? The TUNNEL test of ``classify_segment``."""
    a, b = axes[:, 0], axes[:, 1]
    sa = _dot(a, scene._entrance_normal) - scene._entrance_offset
    sb = _dot(b, scene._entrance_normal) - scene._entrance_offset
    # Axes that do not cross the entrance plane get a meaningless crossing point; the sign test drops them.
    with np.errstate(divide="ignore", invalid="ignore"):
        crossing = a + (sa / (sa - sb))[:, None] * (b - a)
        inside = _dot(crossing[:, None, :] - scene.entrance_plane.vertices, scene._entrance_edge_normals)
    return (sa * sb < 0.0) & np.all(inside >= -_OPENING_TOL, axis=1)


def _closest_fringe(axes: np.ndarray, fringe: np.ndarray):
    """Closest approach of every axis (n, 2, 3) to its nearest fringe segment (m, 2, 3).

    The arithmetic of ``segment_segment_distance`` over the whole
    (axes x fringe segments) grid at once, branches replaced by selections;
    a distance tie keeps the lowest fringe index. Returns, per axis, the
    distance, the axis parameter, both closest points and the fringe index.
    """
    a0 = axes[:, None, 0]
    d1 = axes[:, None, 1] - a0
    b0 = fringe[None, :, 0]
    d2 = fringe[None, :, 1] - b0
    r = a0 - b0
    a = _dot(d1, d1)
    e = _dot(d2, d2)
    b = _dot(d1, d2)
    c = _dot(d1, r)
    f = _dot(d2, r)
    axis_ok, fringe_ok = a > _SEGMENT_EPS, e > _SEGMENT_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = a * e - b * b
        s = np.where(denom > _SEGMENT_EPS, np.clip((b * f - c * e) / denom, 0.0, 1.0), 0.0)
        t = (b * s + f) / e
        s_start = np.clip(-c / a, 0.0, 1.0)  # closest axis point to the fringe start
        s = np.where(t < 0.0, s_start, np.where(t > 1.0, np.clip((b - c) / a, 0.0, 1.0), s))
        t = np.clip(t, 0.0, 1.0)
        # A zero-length fringe segment is a point; a zero-length axis is a point too.
        s = np.where(axis_ok, np.where(fringe_ok, s, s_start), 0.0)
        t = np.where(fringe_ok, np.where(axis_ok, t, np.clip(f / e, 0.0, 1.0)), 0.0)
    on_axis = a0 + s[..., None] * d1
    on_fringe = b0 + t[..., None] * d2
    gap = on_axis - on_fringe
    dist = np.sqrt(_dot(gap, gap))
    nearest = np.argmin(dist, axis=1)
    rows = np.arange(axes.shape[0])
    return dist[rows, nearest], s[rows, nearest], on_axis[rows, nearest], on_fringe[rows, nearest], nearest


def _score_axes(axes: np.ndarray, radii, scene: Scene, capsule_indices) -> list[DistanceWitness]:
    """Witnesses of capsules with world-frame axes (n, 2, 3) and the given radii."""
    tunnel = _crosses_opening(axes, scene)
    if not tunnel.all():
        if scene.fringe_segments.shape[0] == 0:
            raise ValueError("scene has no fringe segments for the FRINGE distance case")
        dist, s, on_axis, on_fringe, nearest = _closest_fringe(axes, scene.fringe_segments)
    witnesses = []
    for i, (radius, capsule_index) in enumerate(zip(radii, capsule_indices)):
        if tunnel[i]:
            gap, t, clip, plane, on_robot, on_obstacle = _tunnel_clearance(axes[i, 0], axes[i, 1], scene)
            case = CASE_TUNNEL
        else:
            gap, t, clip, plane = float(dist[i]), s[i], None, int(nearest[i])
            on_robot, on_obstacle, case = on_axis[i], on_fringe[i], CASE_FRINGE
        witnesses.append(DistanceWitness(gap - radius, capsule_index, on_robot, on_obstacle, case, float(t), plane, clip))
    return witnesses


def capsule_distance(world_a, world_b, radius: float, scene: Scene, capsule_index: int = -1) -> DistanceWitness:
    """Signed distance of one capsule (world-frame axis endpoints) to the scene."""
    axes = np.array([[world_a, world_b]], dtype=float)
    return _score_axes(axes, (radius,), scene, (capsule_index,))[0]


def _world_segments(frames: np.ndarray, capsules: CapsuleSet) -> np.ndarray:
    T = frames[[cap.link_index for cap in capsules], None]  # (n, 1, 4, 4)
    ends = np.array([[cap.endpoint_a, cap.endpoint_b] for cap in capsules])  # (n, 2, 3)
    return (T[..., :3, :3] @ ends[..., None])[..., 0] + T[..., :3, 3]


def world_capsule_segments(q, chain: RobotChain, capsules: CapsuleSet) -> np.ndarray:
    """World-frame axis endpoints for every capsule: (n, 2, 3)."""
    return _world_segments(_frames_with_base(joint_config(q), chain), capsules)


def _capsule_witnesses(segments: np.ndarray, capsules: CapsuleSet, scene: Scene) -> list[DistanceWitness]:
    return _score_axes(segments, [cap.radius for cap in capsules], scene, range(len(capsules)))


def capsule_witnesses(q, chain: RobotChain, capsules: CapsuleSet, scene: Scene) -> list[DistanceWitness]:
    """Per-capsule distance witnesses at configuration q."""
    return _capsule_witnesses(world_capsule_segments(q, chain, capsules), capsules, scene)


def scene_distance(q, chain: RobotChain, capsules: CapsuleSet, scene: Scene) -> DistanceWitness:
    """Minimum signed distance over all capsules, with its witness."""
    witnesses = capsule_witnesses(q, chain, capsules, scene)
    return min(witnesses, key=lambda w: w.value)


@dataclass(frozen=True)
class WorldState:
    """One configuration placed in the scene, evaluated once for every consumer.

    Holds the joint frames of one forward-kinematics pass, the capsule axes,
    the tool position and each capsule's witness, with the capsules and scene
    they were scored against. ``witness`` is the minimizing one (first capsule
    on a tie, as in ``scene_distance``).
    """

    q: np.ndarray
    frames: np.ndarray  # (7, 4, 4) base->frame_k, k = 0..6
    segments: np.ndarray  # (n, 2, 3) world-frame capsule axes
    tool_position: np.ndarray  # (3,)
    witnesses: tuple[DistanceWitness, ...]
    witness: DistanceWitness
    capsules: CapsuleSet
    scene: Scene

    def tool_jacobian(self) -> np.ndarray:
        """3x6 positional Jacobian of the tool tip at this configuration."""
        return point_jacobian(self.frames, NUM_JOINTS, self.tool_position)

    def gradient(self, witness: DistanceWitness) -> np.ndarray:
        """Configuration-space gradient (6,) of one of this state's witnesses."""
        return _witness_gradient(self.frames, self.segments, self.capsules, self.scene, witness)


def world_state(q, chain: RobotChain, capsules: CapsuleSet, scene: Scene) -> WorldState:
    """Evaluate configuration q once: frames, capsule axes, tool position, witnesses."""
    qv = joint_config(q)
    frames = _frames_with_base(qv, chain)
    segments = _world_segments(frames, capsules)
    witnesses = tuple(_capsule_witnesses(segments, capsules, scene))
    return WorldState(
        q=qv,
        frames=frames,
        segments=segments,
        tool_position=tool_point(frames, chain),
        witnesses=witnesses,
        witness=min(witnesses, key=lambda w: w.value),
        capsules=capsules,
        scene=scene,
    )


def _witness_gradient(
    frames: np.ndarray, segments: np.ndarray, capsules: CapsuleSet, scene: Scene, witness: DistanceWitness
) -> np.ndarray:
    J_point = point_jacobian(frames, capsules[witness.capsule_index].link_index, witness.point_on_robot)

    if witness.case_tag == CASE_FRINGE:
        diff = witness.point_on_robot - witness.point_on_obstacle
        dist = np.linalg.norm(diff)
        if dist < 1e-12:
            # Touching witness: any unit direction is a valid sub-gradient choice.
            seg = scene.fringe_segments[witness.plane_index]
            axis = seg[1] - seg[0]
            n = cross(axis, np.array([1.0, 0.0, 0.0]))
            if np.linalg.norm(n) < 1e-9:
                n = cross(axis, np.array([0.0, 1.0, 0.0]))
            n = n / np.linalg.norm(n)
        else:
            n = diff / dist
        return n @ J_point

    wall_row = scene._wall_indices.index(witness.plane_index)
    n_w = scene._wall_normals[wall_row]
    grad = n_w @ J_point
    if witness.clip_plane_index is not None:
        # Witness point pinned to an opening-plane crossing: t* moves with q.
        a, b = segments[witness.capsule_index]
        d = b - a
        clip_row = scene._opening_indices.index(witness.clip_plane_index)
        n_c = scene._opening_normals[clip_row]
        slope = float(np.dot(n_c, d))
        if abs(slope) > 1e-12:
            dt_dq = -(n_c @ J_point) / slope
            grad = grad + float(np.dot(n_w, d)) * dt_dq
    return grad


def witness_gradient(q, chain: RobotChain, capsules: CapsuleSet, scene: Scene, witness: DistanceWitness) -> np.ndarray:
    """Configuration-space gradient (6,) of one capsule's signed distance.

    FRINGE: the witness axis point is a material point (minimizing parameters
    are stationary or clamped), so the gradient is the witness direction dotted
    with that point's Jacobian. TUNNEL: same, plus a chain-rule correction when
    the witness sits on an opening-plane crossing, whose location shifts as the
    capsule moves.
    """
    frames = _frames_with_base(joint_config(q), chain)
    return _witness_gradient(frames, _world_segments(frames, capsules), capsules, scene, witness)


def transform_scene(scene: Scene, T: np.ndarray) -> Scene:
    """Rigidly transform every plane, boundary vertex and fringe segment."""
    T = np.asarray(T, dtype=float)
    R, t = T[:3, :3], T[:3, 3]
    planes = []
    for plane in scene.planes:
        n = R @ plane.normal
        planes.append(
            BoundedPlane(
                normal=n,
                offset=plane.offset + float(n @ t),
                vertices=apply_transform(T, plane.vertices),
            )
        )
    fringe = apply_transform(T, scene.fringe_segments.reshape(-1, 3)).reshape(-1, 2, 3)
    return Scene(
        planes=tuple(planes),
        fringe_segments=fringe,
        entrance_plane_index=scene.entrance_plane_index,
        mounting=T @ scene.mounting,
    )


def build_prism_tunnel(section: np.ndarray, depth: float) -> Scene:
    """Construct a prism tunnel scene in its local frame.

    ``section`` is a convex (k, 2) polygon in the (y, z) plane, ordered
    counter-clockwise when viewed from +x. The entrance face sits at x = 0
    with the tunnel running to x = depth; plane 0 is the entrance, plane 1
    the exit, planes 2..k+1 the walls. Fringe segments are the entrance rim.
    """
    sec = np.asarray(section, dtype=float)
    if sec.ndim != 2 or sec.shape[0] < 3 or sec.shape[1] != 2:
        raise ValueError("section must be a (k, 2) polygon with k >= 3")
    if not depth > 0.0:
        raise ValueError("depth must be positive")
    k = sec.shape[0]
    rim = np.column_stack([np.zeros(k), sec[:, 0], sec[:, 1]])
    back = rim + np.array([depth, 0.0, 0.0])

    # Entrance: outward normal -x; CCW about it means the (y, z)-CCW ring reversed.
    entrance = BoundedPlane(normal=np.array([-1.0, 0.0, 0.0]), offset=0.0, vertices=rim[::-1])
    exit_face = BoundedPlane(normal=np.array([1.0, 0.0, 0.0]), offset=depth, vertices=back)

    walls = []
    centroid = np.array([depth / 2.0, sec[:, 0].mean(), sec[:, 1].mean()])
    for i in range(k):
        v0, v1 = rim[i], rim[(i + 1) % k]
        quad = np.array([v0, v1, v1 + [depth, 0.0, 0.0], v0 + [depth, 0.0, 0.0]])
        n = cross(v1 - v0, np.array([1.0, 0.0, 0.0]))
        n = n / np.linalg.norm(n)
        if np.dot(n, centroid - v0) < 0.0:
            n = -n
        off = float(n @ v0)
        verts = quad if _is_ccw_about(quad, n) else quad[::-1]
        walls.append(BoundedPlane(normal=n, offset=off, vertices=verts))

    fringe = np.stack([np.stack([rim[i], rim[(i + 1) % k]]) for i in range(k)])
    return Scene(
        planes=tuple([entrance, exit_face] + walls),
        fringe_segments=fringe,
        entrance_plane_index=0,
    )


def _is_ccw_about(vertices: np.ndarray, normal: np.ndarray) -> bool:
    total = cross(vertices, _next_rows(vertices)).sum(axis=0)
    return bool(np.dot(total, normal) > 0.0)


def point_tunnel_clearance(point, scene: Scene) -> float:
    """Wall clearance of a single point if inside the tunnel slab, else -inf.

    Convenience used to validate that weld points sit inside the tunnel.
    """
    p = np.asarray(point, dtype=float)
    behind = scene._opening_normals @ p - scene._opening_offsets
    if np.any(behind > 0.0):
        return -np.inf
    clear = scene._wall_normals @ p - scene._wall_offsets
    return float(np.min(clear))
