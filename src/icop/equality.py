"""Linearization of the contact task constraint around a reference configuration.

The tool point must reach a Cartesian target c_next. First-order expansion of
the body-point map at q_ref gives the linear rows

    J(q_ref) . x = J(q_ref) . q_ref + c_next - c_ref

returned as arrays ``(A, b)``, the format the QP layer takes. Their
remainder shrinks quadratically with the step, so re-linearizing inside
the tracking loop drives the true residual below any tolerance. Kinematic
singularities are not raised here: the QP layer projects rank-deficient rows
onto their consistent part and flags them in ``QpSolution.eq_projected``, and
the tracking loop's residual test remains the arbiter.
"""

from __future__ import annotations

import math

import numpy as np

from .kinematics import BodyPoint, RobotChain, body_point_jacobian


def linearize_task(q_ref, c_ref, c_next, chain: RobotChain, tool: BodyPoint) -> tuple[np.ndarray, np.ndarray]:
    """Linearized contact rows (A, b) at q_ref for one constrained body point.

    The caller maintains c_ref as the body point's current position, so the
    rows are exact at the reference: A . q_ref - b = c_ref - c_next.
    """
    return task_rows(body_point_jacobian(q_ref, chain, tool), q_ref, c_ref, c_next)


def task_rows(A: np.ndarray, q_ref, c_ref, c_next) -> tuple[np.ndarray, np.ndarray]:
    """Linearized contact rows from the body point's Jacobian A already taken at q_ref."""
    b = np.array([math.fsum(row) for row in (A * np.asarray(q_ref, dtype=float)).tolist()])  # A @ q_ref, rounded once per row
    return A, b + (np.asarray(c_next, dtype=float) - np.asarray(c_ref, dtype=float))

