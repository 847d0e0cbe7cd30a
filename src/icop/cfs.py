"""Convex feasible set construction for the collision constraint.

The non-convex constraint d(x) >= 0 is replaced around a reference
configuration by the half-space

    grad_d(x_ref) . x >= grad_d(x_ref) . x_ref - d(x_ref)

one row for the worst capsule, whose witness is the minimum of the signed
distance over all capsules. The row comes back on floats as ``(G, h)`` for
``G x >= h``, the format the QP layer takes, with no row when the distance is
locally flat. Joint limit boxes are already convex and pass through the QP
unchanged. The half-space is a first-order model and may admit infeasible
points; the planner re-verifies the true distance on every accepted iterate.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np

from .geometry import CapsuleSet, Scene, WorldState, world_state
from .kinematics import NUM_JOINTS, RobotChain

_ZERO_GRADIENT_TOL = 1e-14


def convexify_collision(q_ref, chain: RobotChain, capsules: CapsuleSet, scene: Scene) -> tuple[np.ndarray, np.ndarray]:
    """Linearized collision row (G, h) at q_ref as arrays (k, 6) and (k,); the row satisfies g . q_ref - h = d(q_ref)."""
    G, h = collision_rows(world_state(q_ref, chain, capsules, scene))
    return np.array(G, dtype=float).reshape(-1, NUM_JOINTS), np.array(h, dtype=float)


def collision_rows(state: WorldState) -> tuple[tuple, tuple]:
    """The worst capsule's row of an evaluated state: G, k rows of six floats, and h = (fsum(g * q) - d,), k <= 1."""
    g = state.gradient()
    if all(abs(gi) < _ZERO_GRADIENT_TOL for gi in g):
        return (), ()  # locally flat distance: no usable half-space
    return (g,), (math.fsum(map(mul, g, state.q_floats)) - state.witness.value,)
