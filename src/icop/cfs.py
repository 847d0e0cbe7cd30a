"""Convex feasible set construction for the collision constraint.

The non-convex constraint d(x) >= 0 is replaced around a reference
configuration by the half-space

    grad_d(x_ref) . x >= grad_d(x_ref) . x_ref - d(x_ref)

one row for the worst capsule by default, or one row per capsule when
requested. Joint limit boxes are already convex and pass through the QP
unchanged. The half-space is a first-order model and may admit infeasible
points; the planner re-verifies the true distance on every accepted iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CapsuleSet, Scene, WorldState, world_state
from .kinematics import RobotChain

_ZERO_GRADIENT_TOL = 1e-14


@dataclass(frozen=True)
class LinearInequality:
    """Half-space {x : a . x >= b}."""

    a: np.ndarray
    b: float

    def __post_init__(self) -> None:
        a = np.array(self.a, dtype=float).reshape(-1)
        if not np.all(np.isfinite(a)) or not np.isfinite(self.b):
            raise ValueError("inequality coefficients must be finite")
        a.flags.writeable = False
        object.__setattr__(self, "a", a)

    def residual(self, x: np.ndarray) -> float:
        """Signed slack a . x - b (feasible when >= 0)."""
        return float(self.a @ np.asarray(x, dtype=float) - self.b)


def convexify_collision(
    q_ref,
    chain: RobotChain,
    capsules: CapsuleSet,
    scene: Scene,
    per_capsule_rows: bool = False,
    margin: float = 0.0,
) -> list[LinearInequality]:
    """Linearized collision rows at q_ref; each row satisfies a.q_ref - b = d(q_ref) - margin."""
    return collision_rows(world_state(q_ref, chain, capsules, scene), per_capsule_rows, margin)


def collision_rows(state: WorldState, per_capsule_rows: bool = False, margin: float = 0.0) -> list[LinearInequality]:
    """Linearized collision rows at an evaluated configuration, read from its witnesses."""
    witnesses = state.witnesses if per_capsule_rows else (state.witness,)
    rows = []
    for w in witnesses:
        g = state.gradient(w)
        if np.max(np.abs(g)) < _ZERO_GRADIENT_TOL:
            continue  # locally flat distance: no usable half-space
        rows.append(LinearInequality(a=g, b=float(g @ state.q) - w.value + margin))
    return rows
