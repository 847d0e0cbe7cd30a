"""Linearization of the contact task constraint around a reference configuration.

The tool point must reach a Cartesian target c_next. First-order expansion of
the body-point map at q_ref gives the linear rows

    J(q_ref) . x = J(q_ref) . q_ref + c_next - c_ref

returned on floats as ``(A, b)``, the format the QP layer takes. Their
remainder shrinks quadratically with the step, so re-linearizing inside
the tracking loop drives the true residual below any tolerance. Kinematic
singularities are not raised here: the QP layer projects rank-deficient rows
onto their consistent part and flags them in ``QpSolution.eq_projected``, and
the tracking loop's residual test remains the arbiter.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np

from .kinematics import BodyPoint, RobotChain, body_point_jacobian


def linearize_task(q_ref, c_ref, c_next, chain: RobotChain, tool: BodyPoint) -> tuple[np.ndarray, np.ndarray]:
    """Linearized contact rows (A, b) at q_ref for one constrained body point, as (3, 6) and (3,) arrays.

    The caller maintains c_ref as the body point's current position, so the
    rows are exact at the reference: A . q_ref - b = c_ref - c_next.
    """
    A = body_point_jacobian(q_ref, chain, tool)
    _, b = task_rows(A.tolist(), *(np.asarray(v, dtype=float).ravel().tolist() for v in (q_ref, c_ref, c_next)))
    return A, np.array(b)


def task_rows(A, q_ref, c_ref, c_next) -> tuple:
    """Linearized contact rows from the body point's Jacobian rows A already taken at q_ref, on floats.

    b_r = fsum(A_r * q_ref) + (c_next_r - c_ref_r): the products are summed exactly and rounded once.
    """
    return A, [math.fsum(map(mul, row, q_ref)) + (cn - cr) for row, cn, cr in zip(A, c_next, c_ref)]
