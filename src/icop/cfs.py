"""Convex feasible set construction for the collision constraint.

The non-convex constraint d(x) >= 0 is replaced around a reference
configuration by the half-space

    grad_d(x_ref) . x >= grad_d(x_ref) . x_ref - d(x_ref)

one row for the worst capsule by default, or one row per capsule when
requested. The rows come back as arrays ``(G, h)`` for ``G x >= h``, the
format the QP layer takes. Joint limit boxes are already convex and pass
through the QP unchanged. The half-space is a first-order model and may admit
infeasible points; the planner re-verifies the true distance on every
accepted iterate.
"""

from __future__ import annotations

import numpy as np

from .geometry import CapsuleSet, Scene, WorldState, world_state
from .kinematics import RobotChain

_ZERO_GRADIENT_TOL = 1e-14


def convexify_collision(
    q_ref,
    chain: RobotChain,
    capsules: CapsuleSet,
    scene: Scene,
    per_capsule_rows: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Linearized collision rows (G, h) at q_ref; each row satisfies g . q_ref - h = d(q_ref)."""
    return collision_rows(world_state(q_ref, chain, capsules, scene), per_capsule_rows)


def collision_rows(state: WorldState, per_capsule_rows: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Linearized collision rows G (k, 6) and h (k,) read from an evaluated state's witnesses."""
    witnesses = state.witnesses if per_capsule_rows else (state.witness,)
    G, h = [], []
    for w in witnesses:
        g = state.gradient(w)
        if np.max(np.abs(g)) < _ZERO_GRADIENT_TOL:
            continue  # locally flat distance: no usable half-space
        G.append(g)
        h.append(float(g @ state.q) - w.value)
    return np.reshape(G, (len(h), state.q.shape[0])), np.array(h)
