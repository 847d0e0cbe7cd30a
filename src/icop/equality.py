"""Linearization of the contact task constraint around a reference configuration.

The tool point must reach a Cartesian target c_next. First-order expansion of
the body-point map at q_ref gives the linear rows

    J(q_ref) . x = J(q_ref) . q_ref + c_next - c_ref

whose remainder shrinks quadratically with the step, so re-linearizing inside
the tracking loop drives the true residual below any tolerance. Kinematic
singularities are not raised here: the QP layer projects rank-deficient rows
onto their consistent part and flags them in ``QpSolution.eq_projected``, and
the tracking loop's residual test remains the arbiter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinematics import BodyPoint, RobotChain, body_point_jacobian


@dataclass(frozen=True)
class LinearEquality:
    """Linear rows A . x = b."""

    A: np.ndarray
    b: np.ndarray

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
    return LinearEquality(A=A, b=A @ q_ref + (c_next - c_ref))

