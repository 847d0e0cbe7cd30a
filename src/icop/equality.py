"""Linearization of the contact task constraint around a reference configuration.

The tool point must reach a Cartesian target c_next. First-order expansion of
the body-point map at q_ref gives the linear rows

    J(q_ref) . x = J(q_ref) . q_ref + c_next - c_ref

whose remainder shrinks quadratically with the step, so re-linearizing inside
the tracking loop drives the true residual below any tolerance. Kinematic
singularities are flagged, not raised; the QP layer projects rank-deficient
rows and the tracking loop's residual test remains the arbiter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinematics import BodyPoint, RobotChain, body_point_jacobian

_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class LinearEquality:
    """Stacked linear rows A . x = b with rank diagnostics."""

    A: np.ndarray
    b: np.ndarray
    rank: int
    singular: bool  # rank below row count (kinematic singularity when built from a Jacobian)

    def __post_init__(self) -> None:
        A = np.array(self.A, dtype=float)
        b = np.array(self.b, dtype=float).reshape(-1)
        if A.ndim != 2 or A.shape[0] != b.shape[0]:
            raise ValueError(f"inconsistent equality shapes {A.shape} vs {b.shape}")
        A.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    def residual(self, x: np.ndarray) -> np.ndarray:
        return self.A @ np.asarray(x, dtype=float) - self.b


def _matrix_rank(A: np.ndarray) -> int:
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > s[0] * _RANK_RTOL))


def linearize_task(q_ref, c_ref, c_next, chain: RobotChain, tool: BodyPoint) -> LinearEquality:
    """Linearized contact rows at q_ref for one constrained body point.

    The caller maintains c_ref as the body point's current position, so the
    rows are exact at the reference: A . q_ref - b = c_ref - c_next.
    """
    q_ref = np.asarray(q_ref, dtype=float)
    return task_rows(body_point_jacobian(q_ref, chain, tool), q_ref, c_ref, c_next)


def task_rows(A: np.ndarray, q_ref, c_ref, c_next) -> LinearEquality:
    """Linearized contact rows from the body point's Jacobian A already taken at q_ref."""
    q_ref = np.asarray(q_ref, dtype=float)
    c_ref = np.asarray(c_ref, dtype=float)
    c_next = np.asarray(c_next, dtype=float)
    b = A @ q_ref + (c_next - c_ref)
    rank = _matrix_rank(A)
    return LinearEquality(A=A, b=b, rank=rank, singular=rank < A.shape[0])


def stack_tasks(
    q_ref,
    targets: list[tuple[BodyPoint, np.ndarray, np.ndarray]],
    chain: RobotChain,
) -> LinearEquality:
    """Stack rows for several (body point, current position, target) triples.

    Only the single-point case is exercised by the planner; the stacked form
    exists for multi-contact tasks.
    """
    rows = [linearize_task(q_ref, c_ref, c_next, chain, point) for point, c_ref, c_next in targets]
    A = np.vstack([r.A for r in rows])
    b = np.concatenate([r.b for r in rows])
    rank = _matrix_rank(A)
    return LinearEquality(A=A, b=b, rank=rank, singular=rank < A.shape[0])
