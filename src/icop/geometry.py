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

A capsule whose axis does not cross the entrance opening keeps its distance
to the fringe segments (FRINGE case). A capsule whose axis crosses the
opening is a working segment (TUNNEL case): its score is the worst signed
half-space clearance of the in-tunnel portion of the axis against the wall
planes. Both cases subtract the capsule radius, so a positive value always
means surface clearance. Wall clearance is affine along the axis and the
minimum of affine functions is concave, so the in-tunnel minimum is attained
at an interval endpoint; the evaluation is exact, no sampling.

The minimum distance carries a witness (capsule, axis parameter, closest
points, clipping plane if any) so the configuration-space gradient can be
assembled from body-point Jacobians, including the chain-rule term for
witnesses pinned to the entrance crossing.

All capsules of a configuration are scored in the prism frame, on Python
floats: each world axis end p is mapped there once, as (p - t) @ R summed
left to right, with the rotation R and translation t read from the pose on
every call, and every pass reads those floats, one capsule at a time. On
arrays this small numpy's per-call cost outweighs its arithmetic. Only the
axes whose ends lie strictly on both sides of x = 0 (usually one or none) get
a crossing point and the inside test against the rim edges; the same pass
clips each axis that crosses the opening to the slab 0 <= x <= depth and
measures the walls at both ends of that interval. Every other axis gets the
FRINGE pass: the closest-point arithmetic of ``segment_segment_distance``
against each rim edge, branching on a point-like edge or axis, with the zero
x terms of the rim left out. A capsule scored alone and in a batch takes the
same operations, so it gets the same bits. Only the worst capsule (the first
on a tie) gets a witness, whose points go back to the world through the pose.
The references are the world-frame scalar ``segment_segment_distance`` with
``classify_segment`` and ``point_in_polygon`` of ``tests/oracles.py``, the
numpy TUNNEL clearance there, and, for the FRINGE pass bit for bit, the numpy
(capsules x rim edges) grid ``grid_closest_fringe``.

A planner iterate is evaluated once: ``world_state`` places the capsule axes
in the world from the frame rows of one ``kinematics.frames`` pass and scores
them; the tool position, the tool Jacobian and the gradient read the same
rows. Every public path here runs the same arithmetic and gets the same bits.
``world_state`` is also the one place that decides what an evaluation
reuses: a previous state of the same chain, capsules and scene whose ``q``
has q's bits is handed back itself, with no forward pass, and any other
previous state of those objects lends the scoring pass its floors (below).

Every evaluation is one scoring pass, one loop over the capsules in which
both cases fill one score record: every TUNNEL score first, then the previous
witness capsule, then the rest in index order. The pass may skip the FRINGE
scoring of a capsule that cannot bind (conservative advancement used for
culling). A FRINGE distance is a distance to the rim, so it falls by at most
the larger displacement of the axis's two ends. Given the state an iterate
came from, a capsule that was not TUNNEL-scored there keeps a floor from it:
its exact clearance there, or the floor it carried. That floor minus the
displacement and ``_CULL_SLACK`` bounds the capsule's clearance now, and a
capsule whose bound lies above the smallest clearance found so far is
culled; its bound is kept as its clearance entry and is its floor at the
next state. A TUNNEL score is no floor, so the jump between the two cases at
the entrance cannot break a bound. A culled capsule is strictly above the
minimum, so the witness has the bits of an exact evaluation. Without a
previous state of the same chain, capsules and scene no capsule has a floor,
and the same pass scores every capsule, starting at capsule 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .kinematics import NUM_JOINTS, RobotChain, frames, is_link_index, joint_config, point_jacobian, to_world
from .transforms import is_rigid

CASE_FRINGE = "FRINGE"
CASE_TUNNEL = "TUNNEL"

# Squared segment length below which segment_segment_distance treats a
# segment as a point.
_SEGMENT_EPS = 1e-14

# How far outside an entrance edge a crossing point may lie and still count
# as inside the opening.
_OPENING_TOL = 1e-9

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
    ``section`` alone, the prism-frame tables the distance queries read: the
    inward unit wall normals ``_walls`` (k, 2) in (y, z) and their offsets
    ``_wall_offsets`` (k,), so that wall row i's clearance of a point is
    ``_walls[i] . (y, z) - _wall_offsets[i]``; and the rim ``_rim``, one
    tuple of Python floats per edge, ``(y, z, ey, ez, length², ok)``: the
    edge's start and direction in (y, z) (its x is 0), its squared length,
    and whether it is long enough to be scored as a segment and not a point.
    Rim edge i runs along the entrance edge of wall i.
    ``transform_scene`` changes only the pose and shares the tables.
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
        walls = np.column_stack([-ez, ey]) / np.sqrt(length2)[:, None]  # each edge's left, where the tunnel is
        rim = (y, z, ey, ez, length2, length2 > _SEGMENT_EPS)
        values = {
            "section": section,
            "depth": float(self.depth),
            "pose": pose,
            "_walls": walls,
            "_wall_offsets": walls[:, 0] * y + walls[:, 1] * z,
            "_rim": tuple(zip(*(column.tolist() for column in rim))),
        }
        for name, value in values.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
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


def _tunnel_scores(axes: list, scene: Scene) -> dict[int, tuple]:
    """TUNNEL score of every prism-frame axis ((ax, ay, az), (bx, by, bz)) of ``axes`` that crosses the entrance opening (the test of ``classify_segment``).

    The entrance is the plane x = 0 and the tunnel the slab 0 <= x <= depth.
    Only an axis whose ends lie strictly on opposite sides of x = 0 gets a
    crossing point and the inside test against each rim edge, the edge cross
    product of ``point_in_polygon``. A crossing axis is clipped to the slab
    and scored at both ends of that interval against every wall; the lower
    end, then the lower wall row, wins a tie. When the interval is empty the
    crossing itself is scored, pinned to the entrance at both ends. All of it
    runs on Python floats. Returns {axis: (clearance, axis parameter, clip
    plane or None, wall plane, point on the axis, its foot on the wall plane)},
    the two points in the prism frame.
    """
    straddle = [i for i, ((xa, _, _), (xb, _, _)) in enumerate(axes) if xa * xb < 0.0]
    if not straddle:
        return {}
    walls = list(zip(scene._walls.tolist(), scene._wall_offsets.tolist()))
    depth = scene.depth
    scores = {}
    for i in straddle:
        (ax, ay, az), (bx, by, bz) = axes[i]
        dx, dy, dz = bx - ax, by - ay, bz - az
        t = ax / (ax - bx)
        y, z = ay + t * dy, az + t * dz
        # inside the opening: on the left of every rim edge, seen from +x
        if not all(ey * (z - sz) - ez * (y - sy) >= -_OPENING_TOL for sy, sz, ey, ez, _e, _ok in scene._rim):
            continue
        # (axis parameter, opening plane that pinned it): the entrance x = 0 is plane 0, the exit x = depth plane 1
        lo, hi = (0.0, None), (1.0, None)
        if abs(dx) < 1e-14:
            if not 0.0 <= ax <= depth:  # parallel to the opening faces and outside the slab: the interval is empty
                lo = (math.inf, None)
        else:
            enter, leave = ((-ax / dx, 0), ((depth - ax) / dx, 1))[:: 1 if dx > 0.0 else -1]
            lo, hi = enter if enter[0] > 0.0 else lo, leave if leave[0] < 1.0 else hi
        if lo[0] > hi[0]:  # the crossing sliver vanished: score the entrance crossing
            lo = hi = (t, 0)
        best = None
        for t_end, clip in (lo, hi):
            p = (ax + t_end * dx, ay + t_end * dy, az + t_end * dz)
            for row, ((ny, nz), off) in enumerate(walls):
                clearance = ny * p[1] + nz * p[2] - off
                if best is None or clearance < best[0]:
                    best = (clearance, t_end, clip, row, p)
        clearance, t_end, clip, row, p = best
        (ny, nz), _off = walls[row]
        foot = (p[0], p[1] - clearance * ny, p[2] - clearance * nz)
        scores[i] = (clearance, t_end, clip, 2 + row, p, foot)  # wall row i is plane 2 + i
    return scores


def _closest_fringe(axis, rim: tuple) -> tuple:
    """Closest approach of one prism-frame axis ((ax, ay, az), (bx, by, bz)) to its nearest edge of ``rim`` (``Scene._rim``).

    The arithmetic of ``segment_segment_distance`` on Python floats, edge by
    edge; the first edge wins a distance tie. Every rim edge lies on x = 0, so
    the terms its zero x components would add are left out: they could change
    only the sign of a zero, and each such zero is clipped or squared before
    it reaches a result. Each division runs behind the test that keeps its
    divisor away from zero, and a clipped parameter is never -0.0. Returns
    the record of ``_tunnel_scores``: (distance, axis parameter, None, rim
    index, point on the axis, point on the rim), the points in the prism
    frame.
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
                best, best_sq = (dist, s, None, j, (px, py, pz), (0.0, qy, qz)), dist_sq
    return best


def _score_axes(axes: list, radii, scene: Scene, capsule_indices, previous: WorldState | None = None) -> tuple:
    """Signed clearances of world-frame axes ((ax, ay, az), (bx, by, bz)) with radii, scored in the prism frame, and the witness of the first smallest.

    One loop scores every axis: the TUNNEL-scored ones first, then
    ``previous``'s witness capsule, then the rest in index order. A capsule
    that ``_tunnel_scores`` does not claim now and that was not TUNNEL-scored
    at ``previous`` (a state of the same capsules and scene) has a floor there,
    its ``clearances`` entry. When that floor, minus the larger world
    displacement of its axis ends and ``_CULL_SLACK``, lies above the smallest
    clearance found so far, the rim pass is skipped and the bound is kept as
    its clearance. Without ``previous`` no capsule has a floor and the loop
    starts at capsule 0. Returns (clearances, witness, indices of the
    TUNNEL-scored axes, how many axes were scored exactly).
    """
    pose = scene.pose[:3].tolist()
    (r00, r01, r02, tx), (r10, r11, r12, ty), (r20, r21, r22, tz) = pose
    local = []
    for ends in axes:  # (p - t) @ R, each end summed left to right
        mapped = []
        for x, y, z in ends:
            x, y, z = x - tx, y - ty, z - tz
            mapped.append((x * r00 + y * r10 + z * r20, x * r01 + y * r11 + z * r21, x * r02 + y * r12 + z * r22))
        local.append(mapped)
    tunnel, rim = _tunnel_scores(local, scene), scene._rim
    n = len(local)
    if previous is None:
        first, floorless = 0, range(n)  # no capsule has a floor
    else:
        first, floorless, floors = previous.witness.capsule_index, previous.tunnel, previous.clearances.tolist()
    scores, clearances, best, culled = [None] * n, [None] * n, math.inf, 0
    for i in (*tunnel, first, *range(first), *range(first + 1, n)):
        if scores[i] is not None:  # TUNNEL-scored already
            continue
        if i not in floorless and i not in tunnel:
            ((pax, pay, paz), (pbx, pby, pbz)), ((ax, ay, az), (bx, by, bz)) = previous.segments[i], axes[i]
            move_a = (ax - pax) ** 2 + (ay - pay) ** 2 + (az - paz) ** 2
            move_b = (bx - pbx) ** 2 + (by - pby) ** 2 + (bz - pbz) ** 2
            bound = floors[i] - math.sqrt(max(move_a, move_b)) - _CULL_SLACK
            if bound > best:
                clearances[i] = bound
                culled += 1
                continue
        score = scores[i] = tunnel.get(i) or _closest_fringe(local[i], rim)
        clearance = clearances[i] = score[0] - radii[i]
        if clearance < best:
            best = clearance
    k = min(range(n), key=clearances.__getitem__)  # the first on a tie
    _gap, t, clip, plane, on_robot, on_obstacle = scores[k]
    on_robot, on_obstacle = np.array([to_world(pose, on_robot), to_world(pose, on_obstacle)])
    case = CASE_TUNNEL if k in tunnel else CASE_FRINGE
    witness = DistanceWitness(clearances[k], capsule_indices[k], on_robot, on_obstacle, case, t, plane, clip)
    return clearances, witness, tuple(tunnel), n - culled


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

    Holds the frame rows of one forward-kinematics pass and the world capsule
    axes, as Python floats, the tool position and each capsule's signed
    clearance, with the chain, capsules and scene they were evaluated with.
    Only the minimizing capsule (the first on a tie) has a ``witness``.

    The scoring pass may cull a capsule that has a floor at the state it was
    evaluated from: a culled ``clearances`` entry holds a lower bound of that
    capsule's clearance, strictly above the witness's value, and not the
    clearance itself. ``scored`` counts the capsules scored exactly (all of
    them when there was no floor), and ``tunnel`` names the TUNNEL-scored
    ones, which leave the next state no floor.
    """

    q: np.ndarray
    frames: list  # base->frame_k, k = 0..6, each three rows of four floats
    segments: list  # per capsule, its world-frame axis ((ax, ay, az), (bx, by, bz))
    tool_position: np.ndarray  # (3,)
    clearances: np.ndarray  # (n,) signed clearance of each capsule; a culled entry holds a lower bound
    witness: DistanceWitness
    chain: RobotChain
    capsules: CapsuleSet
    scene: Scene
    scored: int  # capsules scored exactly: all of them unless some were culled
    tunnel: tuple  # indices of the TUNNEL-scored capsules

    def tool_jacobian(self) -> np.ndarray:
        """3x6 positional Jacobian of the tool tip at this configuration."""
        return point_jacobian(self.frames, NUM_JOINTS, self.tool_position.tolist())

    def gradient(self) -> np.ndarray:
        """Configuration-space gradient (6,) of the minimum distance, from ``witness``."""
        return _witness_gradient(self.frames, self.segments[self.witness.capsule_index], self.capsules, self.scene, self.witness)


def world_state(q, chain: RobotChain, capsules, scene: Scene, previous: WorldState | None = None) -> WorldState:
    """Evaluate configuration q once: frames, capsule axes, tool position, clearances, worst witness.

    This is the one rule for what an evaluation reuses. ``previous``, a state
    that holds these very ``chain``, ``capsules`` and ``scene`` objects, is
    handed back itself when q has the bits of its ``q``: the state is a pure
    function of those four, so it is the one a fresh evaluation would give.
    At any other q it gives the scoring pass of ``_score_axes`` its floors,
    so the rim pass of a capsule that cannot bind is skipped: the witness and
    every exact clearance keep their bits, and a culled clearance is a lower
    bound. Any other ``previous`` is ignored, and the same pass then scores
    every capsule. Capsules given as a tuple or list are converted here into
    a new ``CapsuleSet``, so they never match ``previous``.
    """
    qv = joint_config(q)
    capsules = _capsule_set(capsules)
    if previous is not None and not (previous.chain is chain and previous.capsules is capsules and previous.scene is scene):
        previous = None
    elif previous is not None and qv.tobytes() == previous.q.tobytes():
        return previous
    rows = frames(qv.tolist(), chain)
    segments = _world_axes(rows, capsules._axes)
    clearances, witness, tunnel, scored = _score_axes(segments, capsules._radii, scene, range(len(capsules)), previous)
    # Every field is built here, so the frozen dataclass's __init__, one object.__setattr__ per field, is skipped.
    state = object.__new__(WorldState)
    state.__dict__.update(
        q=qv,
        frames=rows,
        segments=segments,
        tool_position=np.array(to_world(rows[NUM_JOINTS], chain._tool_point)),
        clearances=np.array(clearances),
        witness=witness,
        chain=chain,
        capsules=capsules,
        scene=scene,
        scored=scored,
        tunnel=tunnel,
    )
    return state


def _witness_gradient(rows: list, segment, capsules: CapsuleSet, scene: Scene, witness: DistanceWitness) -> np.ndarray:
    J_point = point_jacobian(rows, capsules[witness.capsule_index].link_index, witness.point_on_robot.tolist())

    R = scene.pose[:3, :3]
    if witness.case_tag == CASE_FRINGE:
        diff = witness.point_on_robot - witness.point_on_obstacle
        dist = math.sqrt(diff @ diff)
        if dist < 1e-12:
            # Touching witness: any unit direction is a valid sub-gradient choice.
            _y, _z, ey, ez, _length2, _ok = scene._rim[witness.plane_index]
            axis = R @ np.array([0.0, ey, ez])
            n = np.cross(axis, np.array([1.0, 0.0, 0.0]))
            if np.linalg.norm(n) < 1e-9:
                n = np.cross(axis, np.array([0.0, 1.0, 0.0]))
            n = n / np.linalg.norm(n)
        else:
            n = diff / dist
        return n @ J_point

    n_w = R[:, 1:] @ scene._walls[witness.plane_index - 2]  # plane 2 + i is wall row i, a (y, z) normal
    grad = n_w @ J_point
    if witness.clip_plane_index is not None:
        # Witness point pinned to an opening-plane crossing: t* moves with q. Both opening planes are
        # x = const in the prism frame, and the sign of their normal +-R[:, 0] cancels in dt/dq.
        a, b = segment
        d = np.subtract(b, a)
        n_c = R[:, 0]
        slope = float(np.dot(n_c, d))
        if abs(slope) > 1e-12:
            dt_dq = -(n_c @ J_point) / slope
            grad = grad + float(np.dot(n_w, d)) * dt_dq
    return grad


def witness_gradient(q, chain: RobotChain, capsules, scene: Scene, witness: DistanceWitness) -> np.ndarray:
    """Configuration-space gradient (6,) of one capsule's signed distance.

    FRINGE: the witness axis point is a material point (minimizing parameters
    are stationary or clamped), so the gradient is the witness direction dotted
    with that point's Jacobian. TUNNEL: same, plus a chain-rule correction when
    the witness sits on an opening-plane crossing, whose location shifts as the
    capsule moves.
    """
    capsules = _capsule_set(capsules)
    rows = frames(joint_config(q).tolist(), chain)
    (segment,) = _world_axes(rows, capsules._axes[witness.capsule_index : witness.capsule_index + 1])
    return _witness_gradient(rows, segment, capsules, scene, witness)


def transform_scene(scene: Scene, T: np.ndarray) -> Scene:
    """The scene moved by the rigid motion ``T``: its pose becomes ``T @ scene.pose``; only ``T`` is checked, and the tables are shared."""
    T = np.asarray(T, dtype=float)
    if not is_rigid(T):
        raise ValueError("scene transform must be a proper rigid transform")
    pose = T @ scene.pose
    pose.flags.writeable = False
    moved = object.__new__(Scene)
    moved.__dict__.update(vars(scene), pose=pose)
    return moved


def point_tunnel_clearance(points, scene: Scene) -> np.ndarray:
    """Wall clearance of each of ``points`` (..., 3) inside the tunnel slab, -inf for one outside it.

    Used to check that the weld points sit inside the tunnel.
    """
    R, origin = scene.pose[:3, :3], scene.pose[:3, 3]
    local = (np.asarray(points, dtype=float) - origin) @ R
    clear = (local[..., 1:] @ scene._walls.T - scene._wall_offsets).min(axis=-1)
    return np.where((local[..., 0] < 0.0) | (local[..., 0] > scene.depth), -np.inf, clear)
