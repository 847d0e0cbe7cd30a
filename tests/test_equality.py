import math

import numpy as np
import pytest

from icop.equality import linearize_task, task_rows
from icop.geometry import world_state
from icop.kinematics import body_point_jacobian, body_point_position, tool_tip
from icop.qp import QpProblem, solve


def test_stationary_target_satisfied_exactly(gp50_chain):
    tool = tool_tip(gp50_chain)
    q_ref = np.array([0.2, 0.1, -0.4, 0.5, -0.3, 0.7])
    c_ref = body_point_position(q_ref, gp50_chain, tool)
    A, b = linearize_task(q_ref, c_ref, c_ref, gp50_chain, tool)
    assert np.max(np.abs(A @ q_ref - b)) < 1e-14


def test_exactness_identity_at_reference(gp50_chain):
    rng = np.random.default_rng(41)
    tool = tool_tip(gp50_chain)
    for _ in range(50):
        q_ref = rng.uniform(-1.5, 1.5, 6)
        c_ref = body_point_position(q_ref, gp50_chain, tool)
        c_next = c_ref + rng.uniform(-0.01, 0.01, 3)
        A, b = linearize_task(q_ref, c_ref, c_next, gp50_chain, tool)
        # A q_ref - b + (c_next - c_ref) = 0 identically
        assert np.max(np.abs(A @ q_ref - b + (c_next - c_ref))) < 1e-15


def test_small_step_pseudoinverse_correction(gp50_chain):
    rng = np.random.default_rng(42)
    tool = tool_tip(gp50_chain)
    for _ in range(20):
        q_ref = rng.uniform(-1.2, 1.2, 6)
        c_ref = body_point_position(q_ref, gp50_chain, tool)
        delta = rng.normal(size=3)
        delta *= 1e-5 / np.linalg.norm(delta)
        c_next = c_ref + delta
        A, b = linearize_task(q_ref, c_ref, c_next, gp50_chain, tool)
        if np.linalg.matrix_rank(A) < 3:
            continue
        dq = np.linalg.pinv(A) @ delta
        q1 = q_ref + dq
        assert np.max(np.abs(A @ q1 - b)) < 1e-12
        assert np.linalg.norm(body_point_position(q1, gp50_chain, tool) - c_next) <= 1e-8


def test_residual_shrinks_quadratically_in_step(gp50_chain):
    rng = np.random.default_rng(43)
    tool = tool_tip(gp50_chain)
    slopes = []
    for _ in range(15):
        q_ref = rng.uniform(-1.2, 1.2, 6)
        c_ref = body_point_position(q_ref, gp50_chain, tool)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        steps = np.array([1e-3, 2e-3, 4e-3])
        residuals = []
        for s in steps:
            c_next = c_ref + s * direction
            A, _ = linearize_task(q_ref, c_ref, c_next, gp50_chain, tool)
            q1 = q_ref + np.linalg.pinv(A) @ (s * direction)
            residuals.append(np.linalg.norm(body_point_position(q1, gp50_chain, tool) - c_next))
        residuals = np.array(residuals)
        if np.any(residuals < 1e-14):
            continue
        slope = np.polyfit(np.log(steps), np.log(residuals), 1)[0]
        slopes.append(slope)
    assert np.median(slopes) == pytest.approx(2.0, abs=0.35)


def test_newton_iteration_contracts_by_factor_ten(gp50_chain):
    rng = np.random.default_rng(44)
    tool = tool_tip(gp50_chain)
    done = 0
    for _ in range(40):
        q = rng.uniform(-1.2, 1.2, 6)
        c_ref = body_point_position(q, gp50_chain, tool)
        target = c_ref + rng.uniform(-1e-2, 1e-2, 3)
        A0, _ = linearize_task(q, c_ref, target, gp50_chain, tool)
        if np.linalg.matrix_rank(A0) < 3 or np.linalg.cond(A0 @ A0.T) > 1e4:
            continue
        residual = np.linalg.norm(target - c_ref)
        for _ in range(10):
            if residual < 1e-9:
                break
            A, _ = linearize_task(q, body_point_position(q, gp50_chain, tool), target, gp50_chain, tool)
            q = q + np.linalg.pinv(A) @ (target - body_point_position(q, gp50_chain, tool))
            new_residual = np.linalg.norm(target - body_point_position(q, gp50_chain, tool))
            assert new_residual <= 0.1 * residual
            residual = new_residual
        assert residual < 1e-9
        done += 1
    assert done >= 20


def test_singularity_flag(straight_chain, gp50_chain):
    # every joint axis of the straight chain is parallel (world z), so its tool
    # Jacobian has rank <= 2 at any pose; the generic gp50 pose has full rank 3
    rng = np.random.default_rng(45)
    for chain, singular in ((straight_chain, True), (gp50_chain, False)):
        tool = tool_tip(chain)
        q = rng.uniform(0.3, 0.9, 6)
        c_ref = body_point_position(q, chain, tool)
        A, b = linearize_task(q, c_ref, c_ref + [1e-3, -1e-3, 0.0], chain, tool)
        assert (np.linalg.matrix_rank(A) < 3) == singular
        problem = QpProblem(np.ones(6), np.full(6, -np.inf), np.full(6, np.inf))
        assert solve(problem, q, A=A, b=b).eq_projected == singular


def test_the_float_rows_keep_their_bits(c4):
    # the planner's rows on floats from an evaluated state: A is the tool Jacobian, b = fsum(A_r * q) + c_next - c_ref;
    # the public wrapper returns the same bits as arrays
    from icop.scenario import mounted_scene_and_path

    scene, _ = mounted_scene_and_path(c4)
    tool = tool_tip(c4.chain)
    rng = np.random.default_rng(47)
    for _ in range(30):
        q = c4.initial_config + rng.uniform(-0.4, 0.4, 6)
        state = world_state(q, c4.chain, c4.capsules, scene)
        c_ref = body_point_position(q, c4.chain, tool)
        c_next = c_ref + rng.uniform(-0.01, 0.01, 3)
        J = body_point_jacobian(q, c4.chain, tool)
        expected = np.array([math.fsum((J[r] * q).tolist()) + (c_next[r] - c_ref[r]) for r in range(3)])
        A, b = task_rows(state.tool_jacobian(), state.q_floats, state.tool_position, c_next.tolist())
        assert len(A) == len(b) == 3 and all(type(v) is float for v in (*b, *(v for row in A for v in row)))
        assert np.array(state.tool_position).tobytes() == c_ref.tobytes()
        assert np.array(A).tobytes() == J.tobytes() and np.array(b).tobytes() == expected.tobytes()
        A, b = linearize_task(q, c_ref, c_next, c4.chain, tool)
        assert A.shape == (3, 6) and b.shape == (3,)
        assert A.tobytes() == J.tobytes() and b.tobytes() == expected.tobytes()
