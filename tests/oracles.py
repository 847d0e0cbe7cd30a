"""Independent reference computations the implementation is checked against.

Each oracle takes a deliberately different route from the code under test:
forward kinematics multiplies explicit elementary transform matrices instead
of the closed-form link matrix, Jacobians come from central differences (and,
bit for bit on equal frames, from the numpy cross product of stacked frames),
segment distances from dense parameter grids, tunnel clearances from point
sampling, and QP optima from exhaustive active-set enumeration.
``sampled_tunnel_clearance`` samples the worst wall half-space clearance of
the part of an axis in the slab, the kernel's TUNNEL score. The tunnel's
material is its wall quads. ``quad_distance`` measures a segment against
them exactly, quad by quad in the world frame, where the kernel splits the
axis along the prism's x; ``sampled_material_clearance`` measures a capsule
against them by sampling the axis and flags an axis that passes through a
wall. They are the independent check of what "collision-free" means, not of
the kernel's model. The numpy ``grid_closest_fringe`` scores every (axis,
rim edge) pair at once as one array grid, with selections for branches, and
is the bit-for-bit reference for ``geometry._closest_fringe``, which scores
one axis at a time on Python floats. The tunnel oracles read a scene's
``section``, ``depth`` and ``pose`` only: ``prism_faces`` builds the
entrance polygon and the face planes from them, never from the tables the
kernel derives.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

import numpy as np

from icop.geometry import _SEGMENT_EPS, Scene, segment_segment_distance
from icop.kinematics import BodyPoint, JointParams, RobotChain, body_point_position


def _rz(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    T = np.eye(4)
    T[0, 0], T[0, 1], T[1, 0], T[1, 1] = c, -s, s, c
    return T


def _rx(alpha: float) -> np.ndarray:
    c, s = np.cos(alpha), np.sin(alpha)
    T = np.eye(4)
    T[1, 1], T[1, 2], T[2, 1], T[2, 2] = c, -s, s, c
    return T


def _tz(d: float) -> np.ndarray:
    T = np.eye(4)
    T[2, 3] = d
    return T


def _tx(a: float) -> np.ndarray:
    T = np.eye(4)
    T[0, 3] = a
    return T


def fk_oracle(q, chain: RobotChain) -> np.ndarray:
    """Brute-force frame chain from elementary transforms: (7, 4, 4)."""
    T = np.eye(4)
    out = []
    for i, jp in enumerate(chain.joints):
        T = T @ _rz(q[i] + jp.theta_offset) @ _tz(jp.d) @ _tx(jp.a) @ _rx(jp.alpha)
        out.append(T.copy())
    out.append(T @ chain.tool_offset)
    return np.array(out)


def _dh_matrix(jp: JointParams, q: float) -> np.ndarray:
    """One joint's closed-form link matrix from Python scalars."""
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


def frames_reference(q, chain: RobotChain) -> np.ndarray:
    """Base->frame_k transforms (7, 4, 4), k = 0..6, one scalar-built link matrix per joint.

    Each product entry is the sum of all four of its terms, left to right on
    Python floats, as a generic 4x4 matrix product.
    """
    frames = [np.eye(4).tolist()]
    for i, jp in enumerate(chain.joints):
        F, A = frames[-1], _dh_matrix(jp, q[i]).tolist()
        frames.append([[F[r][0] * A[0][c] + F[r][1] * A[1][c] + F[r][2] * A[2][c] + F[r][3] * A[3][c]
                        for c in range(4)] for r in range(4)])
    return np.array(frames)


def point_jacobian_reference(frames: np.ndarray, link_index: int, position) -> np.ndarray:
    """3x6 positional Jacobian from stacked frames (7, >=3, 4): column i is the numpy cross product z_i x (p - o_i)."""
    J = np.zeros((3, len(frames) - 1))
    J[:, :link_index] = np.cross(frames[:link_index, :3, 2], np.asarray(position) - frames[:link_index, :3, 3]).T
    return J


def fd_jacobian(q, chain: RobotChain, point: BodyPoint, h: float = 1e-6) -> np.ndarray:
    """Central-difference positional Jacobian."""
    q = np.asarray(q, dtype=float)
    J = np.zeros((3, 6))
    for i in range(6):
        dq = np.zeros(6)
        dq[i] = h
        J[:, i] = (body_point_position(q + dq, chain, point) - body_point_position(q - dq, chain, point)) / (2 * h)
    return J


def grid_segment_distance(a0, a1, b0, b1, resolution: float = 1e-3) -> float:
    """Dense grid search over both segment parameters."""
    n = int(round(1.0 / resolution)) + 1
    u = np.linspace(0.0, 1.0, n)
    p = np.asarray(a0) + u[:, None] * (np.asarray(a1) - np.asarray(a0))
    qq = np.asarray(b0) + u[:, None] * (np.asarray(b1) - np.asarray(b0))
    dx, dy, dz = (p[:, None, i] - qq[None, :, i] for i in range(3))
    d2 = dx * dx + dy * dy + dz * dz  # summed left to right, as np.sum sums three terms
    return float(np.sqrt(d2.min()))


class PrismFaces(NamedTuple):
    """A prism scene's faces in the world frame; plane 0 is the entrance, 1 the exit, 2 + i wall i."""

    entrance: np.ndarray  # (k, 3) opening polygon, counter-clockwise about the entrance's outward normal
    opening_normals: np.ndarray  # (2, 3) outward, entrance then exit
    opening_offsets: np.ndarray  # (2,)
    wall_normals: np.ndarray  # (k, 3) inward, wall i along section edge i -> i + 1
    wall_offsets: np.ndarray  # (k,)


def prism_faces(scene: Scene) -> PrismFaces:
    """The faces of ``scene`` built from its ``section``, ``depth`` and ``pose`` alone."""
    R, t = scene.pose[:3, :3], scene.pose[:3, 3]
    axis = R[:, 0]  # the prism's +x, from the entrance into the tunnel
    y, z = scene.section.T
    rim = t + y[:, None] * R[:, 1] + z[:, None] * R[:, 2]  # the section placed on the entrance plane
    inward = np.cross(axis, np.roll(rim, -1, axis=0) - rim)  # each edge's left, where the tunnel is
    walls = inward / np.linalg.norm(inward, axis=1)[:, None]
    return PrismFaces(
        entrance=rim[::-1],
        opening_normals=np.array([-axis, axis]),
        opening_offsets=np.array([-np.dot(axis, t), np.dot(axis, t) + scene.depth]),
        wall_normals=walls,
        wall_offsets=np.einsum("ij,ij->i", walls, rim),
    )


def sampled_tunnel_clearance(a, b, scene: Scene, samples: int = 10_000) -> float:
    """Point-sampled worst wall clearance of the in-tunnel portion of [a, b]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    t = np.linspace(0.0, 1.0, samples)
    pts = a + t[:, None] * (b - a)
    faces = prism_faces(scene)
    behind = pts @ faces.opening_normals.T - faces.opening_offsets
    inside = np.all(behind <= 1e-12, axis=1)
    if not np.any(inside):
        return np.inf
    clear = pts[inside] @ faces.wall_normals.T - faces.wall_offsets
    return float(clear.min())


class MaterialClearance(NamedTuple):
    """One capsule against the tunnel's material, its k wall quads."""

    clearance: float  # the smallest distance from a sampled axis point to a wall quad, minus the radius
    crosses_wall: bool  # the axis passes through a wall quad


def sampled_material_clearance(a, b, radius: float, scene: Scene, samples: int = 400) -> MaterialClearance:
    """Clearance of the capsule with axis [a, b] and ``radius`` from the tunnel's material, from ``prism_faces`` alone.

    Wall quad i is section edge i -> i + 1 swept along the prism's x over
    [0, depth]; the entrance and the exit are open. The edge is perpendicular
    to the sweep, so a quad is a rectangle, and the closest point of quad i
    to a point p clamps p's two rectangle coordinates. ``samples`` evenly
    spaced axis points, both ends included, are measured exactly against
    every quad. The axis crosses a wall quad when its ends lie strictly on
    opposite sides of the quad's plane and the crossing point lies in the quad.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    faces = prism_faces(scene)
    corners = faces.entrance[::-1]  # section vertex i on the entrance plane
    edges = np.roll(corners, -1, axis=0) - corners
    sweep = -faces.opening_normals[0]  # the prism's +x, into the tunnel
    length2 = np.einsum("ij,ij->i", edges, edges)

    def quad_coordinates(points):  # (m, 3) -> the (m, k) edge parameters and depths, unclamped
        rel = points[:, None] - corners
        return np.einsum("mkj,kj->mk", rel, edges) / length2, rel @ sweep

    points = a + np.linspace(0.0, 1.0, samples)[:, None] * (b - a)
    u, v = quad_coordinates(points)
    u, v = np.clip(u, 0.0, 1.0), np.clip(v, 0.0, scene.depth)
    feet = corners + u[..., None] * edges + v[..., None] * sweep
    distance = np.linalg.norm(points[:, None] - feet, axis=-1).min()
    side_a, side_b = (faces.wall_normals @ end - faces.wall_offsets for end in (a, b))
    crosses = False
    for i in np.flatnonzero(side_a * side_b < 0.0):
        (u,), (v,) = quad_coordinates((a + side_a[i] / (side_a[i] - side_b[i]) * (b - a))[None])
        crosses |= bool(0.0 <= u[i] <= 1.0 and 0.0 <= v[i] <= scene.depth)
    return MaterialClearance(float(distance) - radius, crosses)


def quad_distance(a, b, scene: Scene) -> float:
    """Exact distance from the segment [a, b] to the tunnel's wall quads, from ``prism_faces`` alone; 0 where it meets one.

    Wall quad i is the rectangle corner_i + u edge_i + v sweep, u in [0, 1],
    v in [0, depth], in the world frame. A segment that does not meet a
    rectangle has its closest points at a segment end and that end's foot
    inside the rectangle, or on the segment and one of the rectangle's four
    sides (Ericson, Real-Time Collision Detection, 5.1).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    faces = prism_faces(scene)
    corners = faces.entrance[::-1]  # section vertex i on the entrance plane
    edges = np.roll(corners, -1, axis=0) - corners
    sweep = -faces.opening_normals[0] * scene.depth  # the prism's +x over the depth

    best = np.inf
    for corner, edge, normal, offset in zip(corners, edges, faces.wall_normals, faces.wall_offsets):

        def on_quad(p):
            u, v = (p - corner) @ edge / (edge @ edge), (p - corner) @ sweep / (sweep @ sweep)
            return 0.0 <= u <= 1.0 and 0.0 <= v <= 1.0

        side_a, side_b = float(normal @ a - offset), float(normal @ b - offset)
        if side_a * side_b <= 0.0 and side_a != side_b and on_quad(a + side_a / (side_a - side_b) * (b - a)):
            return 0.0
        for end, side in ((a, side_a), (b, side_b)):
            if on_quad(end - side * normal):
                best = min(best, abs(side))
        for start, along in ((corner, edge), (corner, sweep), (corner + edge, sweep), (corner + sweep, edge)):
            best = min(best, segment_segment_distance(a, b, start, start + along).distance)
    return float(best)


def grid_closest_fringe(ends: np.ndarray, scene: Scene):
    """Closest approach of every prism-frame axis of ``ends`` (3, 2, n) to its nearest rim segment, as one numpy grid.

    The arithmetic of ``segment_segment_distance`` over the whole
    (axes x rim segments) grid at once, branches replaced by selections; a
    distance tie keeps the lowest rim index. This is the reference, bit for
    bit, for the scalar pass ``geometry._closest_fringe``: it builds its
    component-major rim table (7, k) from ``scene.section`` (segment starts
    and directions as x, y, z rows, the x rows zero, then squared lengths)
    and sums every dot product in x, y, z order, zero x terms included.
    Returns, per axis, the distance and the rim index, and over the grid the
    axis parameter (n, m) and both closest points (3, n, m).
    """
    section = scene.section
    edges = np.concatenate([section[1:], section[:1]]) - section
    (ey, ez), (y, z) = edges.T, section.T
    length2 = ey * ey + ez * ez
    zeros = np.zeros(len(section))
    rim = np.array([zeros, y, z, zeros, ey, ez, length2])
    fringe_ok = length2 > _SEGMENT_EPS

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    def unit_clip(x):
        return np.minimum(np.maximum(x, 0.0), 1.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        a0 = ends[:, 0, :, None]
        d1 = ends[:, 1, :, None] - a0
        b0, d2, e = rim[:3, None], rim[3:6, None], rim[6]
        r = a0 - b0
        a = dot(d1, d1)
        b = dot(d1, d2)
        c = dot(d1, r)
        f = dot(d2, r)
        axis_ok = a > _SEGMENT_EPS
        denom = a * e - b * b
        s = np.where(denom > _SEGMENT_EPS, unit_clip((b * f - c * e) / denom), 0.0)
        t = (b * s + f) / e
        s_start = unit_clip(-c / a)  # closest axis point to the rim segment's start
        s = np.where(t < 0.0, s_start, np.where(t > 1.0, unit_clip((b - c) / a), s))
        t = unit_clip(t)
        # A zero-length rim segment is a point; a zero-length axis is a point too. Without either, both are identities.
        if not fringe_ok.all() or not axis_ok.all():
            s = np.where(axis_ok, np.where(fringe_ok, s, s_start), 0.0)
            t = np.where(fringe_ok, np.where(axis_ok, t, unit_clip(f / e)), 0.0)
    on_axis = a0 + s * d1
    on_fringe = b0 + t * d2
    gap = on_axis - on_fringe
    dist = np.sqrt(dot(gap, gap))
    nearest = np.argmin(dist, axis=1)
    return dist[np.arange(len(nearest)), nearest], nearest, s, on_axis, on_fringe


def fd_scene_gradient(q, chain, capsules, scene, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of the scene distance."""
    from icop.geometry import scene_distance

    q = np.asarray(q, dtype=float)
    g = np.zeros(6)
    for i in range(6):
        dq = np.zeros(6)
        dq[i] = h
        dp = scene_distance(q + dq, chain, capsules, scene).value
        dm = scene_distance(q - dq, chain, capsules, scene).value
        g[i] = (dp - dm) / (2 * h)
    return g


def qp_objective(problem, x_ref, x) -> float:
    """The weighted squared distance sum_i w_i (x_i - x_ref_i)^2 that every ``qp.solve`` call minimizes."""
    return float(problem.weights @ (np.asarray(x, dtype=float) - np.asarray(x_ref, dtype=float)) ** 2)


def qp_enumeration_oracle(problem, x_ref, A=(), b=(), G=(), h=(), tol: float = 1e-9):
    """Try every candidate active subset; return (objective, x) of the feasible best.

    Takes the arguments of ``qp.solve``. The objective is expanded into the
    dense form 0.5 x'Hx + f'x with H = diag(2 w) and f = -2 w x_ref, and
    each candidate solves its full KKT system. Bounds at +-inf are skipped;
    candidate subsets go up to the free dimension after equality rows, since
    a strictly convex optimum cannot have more independent active rows than
    that.
    """
    n = problem.weights.shape[0]
    x_ref = np.asarray(x_ref, dtype=float)
    H = np.diag(2.0 * problem.weights)
    f = -2.0 * problem.weights * x_ref
    rows, rhs = list(np.asarray(G, dtype=float).reshape(-1, n)), list(np.asarray(h, dtype=float).reshape(-1))
    eye = np.eye(n)
    for i in range(n):
        if np.isfinite(problem.lower[i]):
            rows.append(eye[i])
            rhs.append(problem.lower[i])
    for i in range(n):
        if np.isfinite(problem.upper[i]):
            rows.append(-eye[i])
            rhs.append(-problem.upper[i])
    G = np.array(rows) if rows else np.zeros((0, n))
    h = np.array(rhs) if rhs else np.zeros(0)

    A_eq = np.asarray(A, dtype=float).reshape(-1, n)
    b_eq = np.asarray(b, dtype=float).reshape(-1)
    free_dim = n - np.linalg.matrix_rank(A_eq) if A_eq.shape[0] else n

    best = None
    m = G.shape[0]
    for k in range(0, min(free_dim, m) + 1):
        for subset in combinations(range(m), k):
            idx = list(subset)
            A_act = np.vstack([A_eq, G[idx]]) if idx else A_eq
            b_act = np.concatenate([b_eq, h[idx]]) if idx else b_eq
            ma = A_act.shape[0]
            K = np.zeros((n + ma, n + ma))
            K[:n, :n] = H
            K[:n, n:] = A_act.T
            K[n:, :n] = A_act
            rhs_k = np.concatenate([-f, b_act])
            sol, *_ = np.linalg.lstsq(K, rhs_k, rcond=None)
            x = sol[:n]
            if ma and np.max(np.abs(A_act @ x - b_act)) > 1e-8:
                continue
            if m and float(np.min(G @ x - h)) < -tol:
                continue
            obj = qp_objective(problem, x_ref, x)
            if best is None or obj < best[0]:
                best = (obj, x)
    return best
