"""Signed distance between the robot's link capsules and a prism tunnel.

The obstacle is the workpiece tunnel, a convex prism: a ``Scene`` stores its
cross-section, its depth and its pose, and nothing else. The entrance face is
the tunnel opening, the exit face is parallel to it, and the walls run
between them. The fringe segments are the rim, the opening polygon's edge
ring.

The constructor checks the section, the depth and the pose once, and derives
the tables the distance queries read from the section alone, in the prism's
own frame: there the entrance is x = 0, the exit x = depth, and every wall a
line in (y, z). ``transform_scene`` composes a rigid motion into the pose,
which keeps every invariant, so it checks nothing again and shares the
tables: the pose is the only world-frame fact a scene holds.

The tunnel's material is its k wall quads, section edge i -> i + 1 swept
over 0 <= x <= depth. The distance from a point to the quads separates along
x: in front of the entrance the nearest quad point lies on the rim, beyond
the exit on the exit ring (the rim at x = depth), and inside the slab only
(y, z) matters. So each capsule axis is scored piece by piece, exactly:

- an axis with a part in front of the entrance, as a whole against the rim:
  a rim point is never nearer than the quads, and in front they agree;
- an axis with a part beyond the exit, as a whole against the exit ring;
- its piece clipped to the slab. When the piece's (y, z) projection meets
  the section, the score is the worst wall half-space clearance at the
  piece's two ends (TUNNEL case): it is affine along the piece, so inside
  the section the minimum lies at an end. An end outside the section makes
  it negative: the axis pierces a wall quad, and the score is a depth.
  Otherwise it is the rim pass on the projection, whose edges are then the
  section edges (FRINGE, as the rim and the exit ring).

Every score is a distance minus the capsule radius, so a positive value
means surface clearance. Unsigned, it is the exact distance from the axis to
the quads, which moves no faster than the axis ends do; only an axis that
meets a wall quad has a negative one. The minimum carries a witness (capsule, axis parameter, closest
points, cut plane if any) so the configuration-space gradient can be
assembled from body-point Jacobians, with the chain-rule term for a witness
pinned where the axis crosses x = 0 or x = depth.

Each capsule is scored in the prism frame, on Python floats: its world axis
ends p are mapped there when it is scored, as (p - t) @ R summed left to
right, with R and t read from the pose's float rows, which the scene keeps;
on arrays this small numpy's per-call cost outweighs its arithmetic. The rim pass is the
closest-point arithmetic of ``segment_segment_distance`` against each edge,
branching on a point-like edge or axis, with the zero x terms of the rim
left out. A capsule scored alone and in a batch gets the same bits. Only the
worst capsule (the first on a tie) gets a witness, whose points go back to
the world through the pose. The gradient and ``transform_scene`` also sum
in a fixed order, so no BLAS kernel decides a bit here. The references in ``tests/oracles.py`` are
``quad_distance``, exact quad by quad in the world frame, the sampled
``sampled_material_clearance``, and, for the rim pass bit for bit, the numpy
(capsules x rim edges) grid ``grid_closest_fringe``.

A planner iterate is evaluated once: ``world_state`` places the capsule axes
in the world from the frame rows of one ``kinematics.frames`` pass and scores
them; the tool position, the tool Jacobian and the gradient read the same
rows, as Python floats; the public functions return arrays. Every public path
here runs the same arithmetic and gets the same bits.
``world_state`` is also the one place that decides what an evaluation
reuses: a previous state of the same chain, capsules and scene whose ``q``
has q's bits is handed back itself, with no forward pass, and any other
previous state of those objects lends the scoring pass its floors (below).

Every evaluation is one scoring pass, one loop over the capsules that fills
one score record each: the previous witness capsule first, then the rest in
index order. The pass may skip the scoring of a capsule that cannot bind
(conservative advancement used for culling). Given the state an iterate came
from, every capsule keeps a floor from it: its exact clearance there, or the
bound it carried. That floor minus the larger displacement of the axis's two
ends and ``_CULL_SLACK`` bounds the capsule's clearance now as long as the
bound stays above minus its radius: the axis then cannot have reached a wall
quad, and the unsigned distance moves no faster than the axis. A capsule
whose bound lies above that and above the smallest clearance found so far is
culled; its bound is kept as its clearance entry and is its floor at the next
state. A culled capsule is strictly above the minimum, so the witness has the
bits of an exact evaluation. Without a previous state of the same chain,
capsules and scene no capsule has a floor, and the same pass scores every
capsule, starting at capsule 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .kinematics import NUM_JOINTS, RobotChain, frames, is_link_index, joint_config, point_jacobian_columns, to_world
from .transforms import is_rigid

CASE_FRINGE = "FRINGE"
CASE_TUNNEL = "TUNNEL"

# Squared segment length below which segment_segment_distance treats a
# segment as a point.
_SEGMENT_EPS = 1e-14

# What a culled capsule's clearance bound gives up for rounding (m); a bound is kept only above the minimum.
_CULL_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class Capsule:
    """A swept sphere wrapping one link: segment endpoints in link frame + radius."""

    link_index: int
    endpoint_a: np.ndarray
    endpoint_b: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        if not is_link_index(self.link_index):
            raise ValueError(f"capsule link_index {self.link_index!r} is not an integer in 0..{NUM_JOINTS}")
        real = isinstance(self.radius, numbers.Real) and not isinstance(self.radius, bool)
        if not (real and 0.0 < self.radius < np.inf):  # a NaN fails too
            raise ValueError(f"capsule radius must be > 0 and finite, got {self.radius!r}")
        a = np.array(self.endpoint_a, dtype=float)
        b = np.array(self.endpoint_b, dtype=float)
        if a.shape != (3,) or b.shape != (3,) or not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("capsule endpoints must be finite 3-vectors")
        if np.linalg.norm(b - a) < 1e-12:
            raise ValueError("capsule endpoints must be distinct")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "endpoint_a", a)
        object.__setattr__(self, "endpoint_b", b)
        object.__setattr__(self, "radius", float(self.radius))


class CapsuleSet(tuple):
    """A non-empty tuple of ``Capsule``s with, as Python numbers, each one's (link index, local axis ends) and radius.

    The tuples are built once, here. ``world_state``, ``world_capsule_segments``
    and ``witness_gradient`` convert any other sequence of capsules once per call.
    """

    def __new__(cls, capsules):
        self = super().__new__(cls, capsules)
        if not self or not all(isinstance(cap, Capsule) for cap in self):
            raise ValueError("a capsule set needs at least one capsule, and only Capsule members")
        self._axes = tuple((int(cap.link_index), cap.endpoint_a.tolist(), cap.endpoint_b.tolist()) for cap in self)
        self._radii = tuple(cap.radius for cap in self)
        return self


def _capsule_set(capsules) -> CapsuleSet:
    """``capsules`` itself when it is a ``CapsuleSet``, else one built from it."""
    return capsules if isinstance(capsules, CapsuleSet) else CapsuleSet(capsules)


def _next_rows(rows: np.ndarray) -> np.ndarray:
    """Row i + 1 in place of row i, cyclically: ``np.roll(rows, -1, axis=0)`` at a fraction of its cost."""
    return np.concatenate([rows[1:], rows[:1]])


@dataclass(frozen=True, eq=False)
class Scene:
    """The workpiece tunnel: a convex prism given by its section, its depth and its pose.

    In the prism's own frame ``section`` (k, 2) is the tunnel's cross-section
    in the (y, z) plane, strictly convex and counter-clockwise seen from +x;
    the entrance face is x = 0, the exit face x = ``depth``, and wall i joins
    section vertices i and i + 1. ``pose`` (4, 4) is the rigid motion that
    places that frame in the world. Plane 0 is the entrance, plane 1 the exit
    and plane 2 + i wall i; a witness's ``plane_index`` and
    ``clip_plane_index`` count the same way.

    The constructor checks the three fields once and derives, from
    ``section`` alone, the prism-frame tables the distance queries read, each
    one tuple of Python floats per section edge: the walls ``_walls``,
    ``(ny, nz, offset)``, the inward unit normal in (y, z) and its offset, so
    that wall row i's clearance of a point is ``ny * y + nz * z - offset``;
    and the rim ``_rim``, ``(y, z, ey, ez, length², ok)``: the edge's start
    and direction in (y, z) (its x is 0), its squared length, and whether it
    is long enough to be scored as a segment and not a point. Rim edge i runs
    along the entrance edge of wall i. ``_pose_rows`` is the pose's top three
    rows as floats; ``transform_scene`` replaces only it and the pose.
    """

    section: np.ndarray  # (k, 2), k >= 3
    depth: float
    pose: np.ndarray = field(default_factory=lambda: np.eye(4))  # (4, 4), prism frame -> world

    def __post_init__(self) -> None:
        section = np.array(self.section, dtype=float)
        pose = np.array(self.pose, dtype=float)
        failures = []
        if section.ndim != 2 or section.shape[0] < 3 or section.shape[1] != 2:
            failures.append(f"section must be a (k, 2) polygon with k >= 3, got shape {section.shape}")
        elif not np.isfinite(section).all():
            failures.append("section must be finite")
        elif (section[:, None] == section).all(axis=2).sum() > len(section):  # a vertex equal to another
            failures.append("section repeats a vertex")
        else:
            # Every vertex off an edge lies strictly on its left: convex, counter-clockwise, no collinear vertex.
            edges = _next_rows(section) - section
            rel = section[None] - section[:, None]  # [i, j]: vertex j seen from vertex i
            left = edges[:, None, 0] * rel[..., 1] - edges[:, None, 1] * rel[..., 0]
            own = np.eye(len(section), dtype=bool)
            on_edge = own | _next_rows(own)  # edge i starts at vertex i and ends at vertex i + 1
            if not (left[~on_edge] > 0.0).all():
                failures.append("section must be strictly convex and counter-clockwise seen from +x")
        real = isinstance(self.depth, numbers.Real) and not isinstance(self.depth, bool)
        if not (real and 0.0 < self.depth < np.inf):  # a NaN fails too
            failures.append(f"depth must be > 0 and finite, got {self.depth!r}")
        if not is_rigid(pose):
            failures.append("pose must be a proper rigid transform")
        if failures:
            raise ValueError("; ".join(failures))
        (ey, ez), (y, z) = edges.T, section.T
        length2 = ey * ey + ez * ez
        ny, nz = -ez / np.sqrt(length2), ey / np.sqrt(length2)  # each edge's left, where the tunnel is
        walls, rim = (ny, nz, ny * y + nz * z), (y, z, ey, ez, length2, length2 > _SEGMENT_EPS)
        values = {
            "section": section,
            "depth": float(self.depth),
            "pose": pose,
            "_pose_rows": tuple(map(tuple, pose[:3].tolist())),
            "_walls": tuple(zip(*(column.tolist() for column in walls))),
            "_rim": tuple(zip(*(column.tolist() for column in rim))),
        }
        for name, value in values.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class DistanceWitness:
    """Where the minimum distance is attained and how it was measured.

    ``value`` is the signed clearance minus the radius: the axis's distance
    to an edge (FRINGE), or the worst wall half-space clearance at an end of
    its piece in the slab (TUNNEL), negative where the axis pierces a wall.
    ``axis_param`` locates the witness point on the whole capsule axis;
    ``clip_plane_index`` is set when that point is pinned where the axis
    crosses the entrance (0) or exit (1) plane instead of a material
    endpoint, which the gradient has to account for. ``plane_index`` is the
    wall plane 2 + i (TUNNEL), or the edge (FRINGE): rim edge j is j, the
    exit ring's edge j is k + j, and section edge j seen from the slab is
    2k + j. The three name one smooth piece of the distance.
    """

    value: float
    capsule_index: int
    point_on_robot: np.ndarray
    point_on_obstacle: np.ndarray
    case_tag: str
    axis_param: float
    plane_index: int  # wall plane 2 + i (TUNNEL), or an edge of the rim, exit ring or slab (FRINGE)
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


def _closest_fringe(axis, rim: tuple) -> tuple:
    """Closest approach of one prism-frame axis ((ax, ay, az), (bx, by, bz)) to its nearest edge of ``rim`` (``Scene._rim``).

    The arithmetic of ``segment_segment_distance`` on Python floats, edge by
    edge; the first edge wins a distance tie. Every rim edge lies on x = 0, so
    the terms its zero x components would add are left out: they could change
    only the sign of a zero, and each such zero is clipped or squared before
    it reaches a result. Each division runs behind the test that keeps its
    divisor away from zero, and a clipped parameter is never -0.0. Returns
    (distance, axis parameter, rim index, point on the axis, point on the
    rim), the points in the prism frame.
    """
    (ax, ay, az), (bx, by, bz) = axis
    dx, dy, dz = bx - ax, by - ay, bz - az
    a = dx * dx + dy * dy + dz * dz
    axis_ok = a > _SEGMENT_EPS
    cx = dx * ax  # the first term of every edge's c
    best, best_sq = None, math.inf
    for j, (y, z, ey, ez, e, edge_ok) in enumerate(rim):
        ry, rz = ay - y, az - z
        f = ey * ry + ez * rz
        if not axis_ok:  # the axis is a point
            s = 0.0
            t = f / e if edge_ok else 0.0
            t = 0.0 if t <= 0.0 else t if t < 1.0 else 1.0
        else:
            c = cx + dy * ry + dz * rz
            if not edge_ok:  # the edge is a point: the axis point closest to its start
                s, t = -c / a, 0.0
            else:
                b = dy * ey + dz * ez
                denom = a * e - b * b
                s = (b * f - c * e) / denom if denom > _SEGMENT_EPS else 0.0
                s = 0.0 if s <= 0.0 else s if s < 1.0 else 1.0
                t = (b * s + f) / e
                if t < 0.0:
                    s, t = -c / a, 0.0
                elif t > 1.0:
                    s, t = (b - c) / a, 1.0
                else:
                    t += 0.0  # -0.0 becomes 0.0
            s = 0.0 if s <= 0.0 else s if s < 1.0 else 1.0
        px, py, pz = ax + s * dx, ay + s * dy, az + s * dz
        qy, qz = y + t * ey, z + t * ez
        gy, gz = py - qy, pz - qz
        dist_sq = px * px + gy * gy + gz * gz
        # the square root is monotone, so only a square no larger than the best one can give a smaller distance
        if not dist_sq > best_sq:
            dist = math.sqrt(dist_sq)
            if best is None or dist < best[0]:
                best, best_sq = (dist, s, j, (px, py, pz), (0.0, qy, qz)), dist_sq
    return best


def _slab_score(axis, scene: Scene) -> tuple | None:
    """Score record of the piece of a prism-frame axis in the slab 0 <= x <= depth, or None when it has none.

    The piece's ends are pinned where the axis crosses x = 0 (plane 0) or
    x = depth (plane 1), or are its material ends. One pass over the walls
    scores both ends and clips the piece's (y, z) projection against each
    wall's half-plane (Cyrus-Beck). Where it meets the section the lower end,
    then the lower wall row, wins a tie; otherwise the projection goes
    through ``_closest_fringe``, whose rim edges are the section edges.
    """
    (ax, ay, az), (bx, by, bz) = axis
    dx, dy, dz = bx - ax, by - ay, bz - az
    (t0, clip0), (t1, clip1) = lo, hi = (0.0, None), (1.0, None)  # (axis parameter, cut plane that pins it)
    if dx != 0.0:
        enter, leave = ((-ax / dx, 0), ((scene.depth - ax) / dx, 1))[:: 1 if dx > 0.0 else -1]
        (t0, clip0), (t1, clip1) = enter if enter[0] > 0.0 else lo, leave if leave[0] < 1.0 else hi
        if t0 > t1:
            return None
    elif not 0.0 <= ax <= scene.depth:
        return None
    y0, z0, y1, z1 = ay + t0 * dy, az + t0 * dz, ay + t1 * dy, az + t1 * dz
    # the projection is inside every wall's half-plane from inside_from to inside_to; nowhere if a wall has both ends out
    inside_from, inside_to, c0, c1, row0, row1 = 0.0, 1.0, math.inf, math.inf, 0, 0
    for row, (ny, nz, off) in enumerate(scene._walls):
        ca, cb = ny * y0 + nz * z0 - off, ny * y1 + nz * z1 - off
        if ca < c0:
            c0, row0 = ca, row
        if cb < c1:
            c1, row1 = cb, row
        if ca < 0.0:
            inside_from = max(inside_from, ca / (ca - cb)) if cb >= 0.0 else math.inf
        elif cb < 0.0:
            inside_to = min(inside_to, ca / (ca - cb))
    if inside_from <= inside_to:
        clearance, row, t, clip, y, z = (c1, row1, t1, clip1, y1, z1) if c1 < c0 else (c0, row0, t0, clip0, y0, z0)
        ny, nz, _off = scene._walls[row]
        x = ax + t * dx
        return (clearance, t, clip, CASE_TUNNEL, 2 + row, (x, y, z), (x, y - clearance * ny, z - clearance * nz))
    dist, s, j, (_, py, pz), (_, qy, qz) = _closest_fringe(((0.0, y0, z0), (0.0, y1, z1)), scene._rim)
    t = t0 + s * (t1 - t0)
    x = ax + t * dx
    clip = clip0 if s == 0.0 else clip1 if s == 1.0 else None
    return (dist, t, clip, CASE_FRINGE, 2 * len(scene._walls) + j, (x, py, pz), (x, qy, qz))


def _score_axis(axis, scene: Scene) -> tuple:
    """Score record of one prism-frame axis: its rim pass, its slab piece and its exit-ring pass, the first smallest.

    Returns (distance, axis parameter, cut plane or None, case, plane index,
    point on the axis, point on the obstacle), the points in the prism frame.
    """
    (ax, ay, az), (bx, by, bz) = axis
    rim, depth = scene._rim, scene.depth
    scores = []
    if ax < 0.0 or bx < 0.0:
        dist, s, j, on_axis, on_rim = _closest_fringe(axis, rim)
        scores.append((dist, s, None, CASE_FRINGE, j, on_axis, on_rim))
    scores.append(_slab_score(axis, scene))
    if ax > depth or bx > depth:
        dist, s, j, (px, py, pz), (_, qy, qz) = _closest_fringe(((ax - depth, ay, az), (bx - depth, by, bz)), rim)
        scores.append((dist, s, None, CASE_FRINGE, len(rim) + j, (px + depth, py, pz), (depth, qy, qz)))
    return min(filter(None, scores), key=itemgetter(0))


def _score_axes(axes: list, radii, scene: Scene, capsule_indices, previous: WorldState | None = None) -> tuple:
    """Signed clearances of world-frame axes ((ax, ay, az), (bx, by, bz)) with radii, scored in the prism frame, and the witness of the first smallest.

    One loop scores every axis: ``previous``'s witness capsule first, then
    the rest in index order. Each capsule has a floor at ``previous`` (a
    state of the same capsules and scene), its ``clearances`` entry. When
    that floor, minus the larger world displacement of its axis ends and
    ``_CULL_SLACK``, lies above minus its radius and above the smallest
    clearance found so far, the capsule is not scored and the bound is kept
    as its clearance. Without ``previous`` no capsule has a floor and the
    loop starts at capsule 0. Returns (clearances, witness, how many axes
    were scored exactly).
    """
    (r00, r01, r02, tx), (r10, r11, r12, ty), (r20, r21, r22, tz) = pose = scene._pose_rows
    n = len(axes)
    first, floors = (0, None) if previous is None else (previous.witness.capsule_index, previous.clearance_floats)
    scores, clearances, best, culled = [None] * n, [None] * n, math.inf, 0
    for i in (first, *range(first), *range(first + 1, n)):
        if floors is not None:
            ((pax, pay, paz), (pbx, pby, pbz)), ((ax, ay, az), (bx, by, bz)) = previous.segments[i], axes[i]
            move_a = (ax - pax) ** 2 + (ay - pay) ** 2 + (az - paz) ** 2
            move_b = (bx - pbx) ** 2 + (by - pby) ** 2 + (bz - pbz) ** 2
            bound = floors[i] - math.sqrt(max(move_a, move_b)) - _CULL_SLACK
            if bound > best and bound > -radii[i]:
                clearances[i] = bound
                culled += 1
                continue
        local = []
        for x, y, z in axes[i]:  # (p - t) @ R, each end summed left to right
            x, y, z = x - tx, y - ty, z - tz
            local.append((x * r00 + y * r10 + z * r20, x * r01 + y * r11 + z * r21, x * r02 + y * r12 + z * r22))
        score = scores[i] = _score_axis(local, scene)
        clearance = clearances[i] = score[0] - radii[i]
        if clearance < best:
            best = clearance
    k = min(range(n), key=clearances.__getitem__)  # the first on a tie
    _gap, t, clip, case, plane, on_robot, on_obstacle = scores[k]
    on_robot, on_obstacle = np.array([to_world(pose, on_robot), to_world(pose, on_obstacle)])
    witness = DistanceWitness(clearances[k], capsule_indices[k], on_robot, on_obstacle, case, t, plane, clip)
    return clearances, witness, n - culled


def capsule_distance(world_a, world_b, radius: float, scene: Scene, capsule_index: int = -1) -> DistanceWitness:
    """Signed distance of one capsule (world-frame axis endpoints) to the scene."""
    axes = [np.array([world_a, world_b], dtype=float).tolist()]
    return _score_axes(axes, (float(radius),), scene, (capsule_index,))[1]


def _world_axes(rows: list, local_axes) -> list:
    """World-frame axis ends ((ax, ay, az), (bx, by, bz)) of each (link index, local ends) of ``CapsuleSet._axes``."""
    return [(to_world(rows[k], a), to_world(rows[k], b)) for k, a, b in local_axes]


def world_capsule_segments(q, chain: RobotChain, capsules) -> np.ndarray:
    """World-frame axis endpoints for every capsule: (n, 2, 3)."""
    return np.array(_world_axes(frames(joint_config(q).tolist(), chain), _capsule_set(capsules)._axes))


def scene_distance(q, chain: RobotChain, capsules, scene: Scene) -> DistanceWitness:
    """Minimum signed distance over all capsules, with its witness."""
    return world_state(q, chain, capsules, scene).witness


@dataclass(frozen=True, eq=False)
class WorldState:
    """One configuration placed in the scene, evaluated once for every consumer.

    Holds the frame rows of one forward-kinematics pass, the world capsule
    axes and the tool position as Python floats, q and each capsule's signed
    clearance as arrays and as floats, and the chain, capsules and scene they
    were evaluated with. Only the minimizing capsule (the first on a tie) has a ``witness``.

    The scoring pass may cull a capsule that has a floor at the state it was
    evaluated from: a culled ``clearances`` entry holds a lower bound of that
    capsule's clearance, strictly above the witness's value, and not the
    clearance itself. ``scored`` counts the capsules scored exactly (all of
    them when there was no floor).
    """

    q: np.ndarray
    q_floats: list  # q's six floats
    frames: list  # base->frame_k, k = 0..6, each three rows of four floats
    segments: list  # per capsule, its world-frame axis ((ax, ay, az), (bx, by, bz))
    tool_position: tuple  # (x, y, z)
    clearances: np.ndarray  # (n,) signed clearance of each capsule; a culled entry holds a lower bound
    clearance_floats: list  # the clearances' floats
    witness: DistanceWitness
    chain: RobotChain
    capsules: CapsuleSet
    scene: Scene
    scored: int  # capsules scored exactly: all of them unless some were culled

    def tool_jacobian(self) -> list:
        """Positional Jacobian of the tool tip at this configuration: three rows of six floats."""
        return list(zip(*point_jacobian_columns(self.frames, NUM_JOINTS, self.tool_position)))

    def gradient(self) -> list:
        """Configuration-space gradient of the minimum distance, from ``witness``: six floats."""
        return _witness_gradient(self.frames, self.segments[self.witness.capsule_index], self.capsules, self.scene, self.witness)


def world_state(q, chain: RobotChain, capsules, scene: Scene, previous: WorldState | None = None) -> WorldState:
    """Evaluate configuration q once: frames, capsule axes, tool position, clearances, worst witness.

    This is the one rule for what an evaluation reuses. ``previous``, a state
    that holds these very ``chain``, ``capsules`` and ``scene`` objects, is
    handed back itself when q has the bits of its ``q``: the state is a pure
    function of those four, so it is the one a fresh evaluation would give.
    At any other q it gives the scoring pass of ``_score_axes`` its floors,
    so a capsule that cannot bind is not scored: the witness and
    every exact clearance keep their bits, and a culled clearance is a lower
    bound. Any other ``previous`` is ignored, and the same pass then scores
    every capsule. Capsules given as a tuple or list are converted here into
    a new ``CapsuleSet``, so they never match ``previous``.
    """
    qv = np.array(q, dtype=float).reshape(-1)  # a copy
    if len(qf := qv.tolist()) != NUM_JOINTS or not math.isfinite(sum(qf)):  # a finite sum has only finite terms
        qv = joint_config(q)  # names what is wrong
    capsules = _capsule_set(capsules)
    if previous is not None and not (previous.chain is chain and previous.capsules is capsules and previous.scene is scene):
        previous = None
    elif previous is not None and qf == previous.q_floats and qv.tobytes() == previous.q.tobytes():  # bits: 0.0 == -0.0
        return previous
    rows = frames(qf, chain)
    segments = _world_axes(rows, capsules._axes)
    clearances, witness, scored = _score_axes(segments, capsules._radii, scene, range(len(capsules)), previous)
    # Every field is built here, so the frozen dataclass's __init__, one object.__setattr__ per field, is skipped.
    state = object.__new__(WorldState)
    state.__dict__.update(
        q=qv,
        q_floats=qf,
        frames=rows,
        segments=segments,
        tool_position=to_world(rows[NUM_JOINTS], chain._tool_point),
        clearances=np.array(clearances),
        clearance_floats=clearances,
        witness=witness,
        chain=chain,
        capsules=capsules,
        scene=scene,
        scored=scored,
    )
    return state


def _witness_gradient(rows: list, segment, capsules: CapsuleSet, scene: Scene, witness: DistanceWitness) -> list:
    on_robot, on_obstacle = witness.point_on_robot.tolist(), witness.point_on_obstacle.tolist()
    columns = point_jacobian_columns(rows, capsules[witness.capsule_index].link_index, on_robot)
    (r00, r01, r02, _), (r10, r11, r12, _), (r20, r21, r22, _) = scene._pose_rows
    dist = math.dist(on_robot, on_obstacle)
    if witness.case_tag == CASE_TUNNEL or dist < 1e-12:
        # The wall's normal: the half-space clearance's gradient, or for a touching witness a unit direction
        # across the touched edge, a valid sub-gradient choice. Plane 2 + i is wall row i, edge j of ring r is j + rk.
        edge = witness.plane_index - 2 if witness.case_tag == CASE_TUNNEL else witness.plane_index % len(scene._rim)
        wy, wz, _off = scene._walls[edge]
        nx, ny, nz = r01 * wy + r02 * wz, r11 * wy + r12 * wz, r21 * wy + r22 * wz
    else:
        nx, ny, nz = ((p - o) / dist for p, o in zip(on_robot, on_obstacle))
    if witness.clip_plane_index is not None:
        # Witness point pinned where the axis crosses x = 0 or x = depth: t* moves with q, dt/dq = -(n_c . J) / (n_c . d)
        # for the plane normal n_c = +-R[:, 0], whose sign cancels. The term (n . d) dt/dq folds into n as n - k n_c.
        (ax, ay, az), (bx, by, bz) = segment
        dx, dy, dz = bx - ax, by - ay, bz - az
        slope = r00 * dx + r10 * dy + r20 * dz
        if abs(slope) > 1e-12:
            k = (nx * dx + ny * dy + nz * dz) / slope
            nx, ny, nz = nx - k * r00, ny - k * r10, nz - k * r20
    return [nx * jx + ny * jy + nz * jz for jx, jy, jz in columns]


def witness_gradient(q, chain: RobotChain, capsules, scene: Scene, witness: DistanceWitness) -> np.ndarray:
    """Configuration-space gradient (6,) of one capsule's signed distance, as an array.

    The unit direction of the witness, the wall normal (TUNNEL) or the line
    from the obstacle point to the axis point (FRINGE), dotted with the axis
    point's Jacobian: the minimizing parameters are stationary or clamped at
    a material end. A witness pinned where the axis crosses x = 0 or
    x = depth adds the chain-rule term of that crossing, which shifts as the
    capsule moves.
    """
    capsules = _capsule_set(capsules)
    rows = frames(joint_config(q).tolist(), chain)
    (segment,) = _world_axes(rows, capsules._axes[witness.capsule_index : witness.capsule_index + 1])
    return np.array(_witness_gradient(rows, segment, capsules, scene, witness))


def transform_scene(scene: Scene, T: np.ndarray) -> Scene:
    """The scene moved by the rigid motion ``T``: its pose becomes ``T @ scene.pose``; only ``T`` is checked, and the tables are shared."""
    T = np.asarray(T, dtype=float)
    if not is_rigid(T):
        raise ValueError("scene transform must be a proper rigid transform")
    products = T[:, :, None] * scene.pose  # [i, k, j] = T[i, k] * pose[k, j], summed over k left to right
    pose = products[:, 0] + products[:, 1] + products[:, 2] + products[:, 3]
    pose.flags.writeable = False
    moved = object.__new__(Scene)
    moved.__dict__.update(vars(scene), pose=pose, _pose_rows=tuple(map(tuple, pose[:3].tolist())))
    return moved


def point_tunnel_clearance(points, scene: Scene) -> np.ndarray:
    """Wall clearance of each of ``points`` (..., 3) inside the tunnel slab, -inf for one outside it.

    Used to check that the weld points sit inside the tunnel.
    """
    R, d = scene.pose[:3, :3], np.asarray(points, dtype=float) - scene.pose[:3, 3]
    local = d[..., :1] * R[0] + d[..., 1:2] * R[1] + d[..., 2:3] * R[2]  # (p - t) @ R, summed left to right
    ny, nz, offset = np.array(scene._walls).T
    clear = (local[..., 1, None] * ny + local[..., 2, None] * nz - offset).min(axis=-1)
    return np.where((local[..., 0] < 0.0) | (local[..., 0] > scene.depth), -np.inf, clear)
