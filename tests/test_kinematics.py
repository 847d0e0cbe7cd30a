import numpy as np
import pytest

from icop.kinematics import (
    BodyPoint,
    JointParams,
    RobotChain,
    body_point_jacobian,
    body_point_position,
    forward_kinematics,
    joint_config,
    tool_tip,
)

from oracles import fd_jacobian, fk_oracle


def test_zero_angle_straight_chain_is_cumulative_length(straight_chain):
    fk = forward_kinematics(np.zeros(6), straight_chain)
    assert np.allclose(fk[-1][:3, 3], [6.0, 0.0, 0.0], atol=1e-15)
    for i in range(6):
        assert np.allclose(fk[i][:3, 3], [i + 1.0, 0.0, 0.0], atol=1e-15)


def test_joint1_pi_reflects_through_its_axis(gp50_chain):
    tool = tool_tip(gp50_chain)
    base = body_point_position(np.zeros(6), gp50_chain, tool)
    rotated = body_point_position([np.pi, 0, 0, 0, 0, 0], gp50_chain, tool)
    assert np.allclose(rotated, [-base[0], -base[1], base[2]], atol=1e-12)


def test_fk_matches_matrix_chain_oracle(gp50_chain):
    rng = np.random.default_rng(7)
    for _ in range(200):
        q = rng.uniform(-np.pi, np.pi, 6)
        assert np.max(np.abs(forward_kinematics(q, gp50_chain) - fk_oracle(q, gp50_chain))) < 1e-12


def test_fk_rotations_are_proper(gp50_chain):
    rng = np.random.default_rng(8)
    for _ in range(100):
        q = rng.uniform(-np.pi, np.pi, 6)
        for T in forward_kinematics(q, gp50_chain):
            R = T[:3, :3]
            assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-12
            assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_fk_prefix_dependence(gp50_chain):
    rng = np.random.default_rng(9)
    q = rng.uniform(-1, 1, 6)
    q_tail = q.copy()
    q_tail[3:] = rng.uniform(-1, 1, 3)
    fk_a = forward_kinematics(q, gp50_chain)
    fk_b = forward_kinematics(q_tail, gp50_chain)
    assert np.allclose(fk_a[:3], fk_b[:3])  # frames 1..3 depend only on q1..q3


def test_body_point_at_frame_origin(gp50_chain):
    q = np.array([0.3, -0.2, 0.4, 0.1, -0.5, 0.2])
    fk = forward_kinematics(q, gp50_chain)
    for link in range(1, 7):
        p = body_point_position(q, gp50_chain, BodyPoint(link, np.zeros(3)))
        assert np.allclose(p, fk[link - 1][:3, 3], atol=1e-14)


def test_tool_tip_body_point_equals_tool_frame(gp50_chain):
    q = np.zeros(6)
    tip = body_point_position(q, gp50_chain, tool_tip(gp50_chain))
    assert np.allclose(tip, forward_kinematics(q, gp50_chain)[-1][:3, 3], atol=1e-14)


def test_random_body_point_matches_oracle(gp50_chain):
    rng = np.random.default_rng(10)
    for _ in range(100):
        q = rng.uniform(-np.pi, np.pi, 6)
        link = int(rng.integers(0, 7))
        local = rng.uniform(-0.5, 0.5, 3)
        p = body_point_position(q, gp50_chain, BodyPoint(link, local))
        frames = fk_oracle(q, gp50_chain)
        frame = np.eye(4) if link == 0 else frames[link - 1]
        expected = frame[:3, :3] @ local + frame[:3, 3]
        assert np.max(np.abs(p - expected)) < 1e-12


def test_jacobian_columns_beyond_link_are_zero(gp50_chain):
    q = np.array([0.2, 0.5, -0.4, 0.9, 0.3, -0.7])
    for link in range(0, 7):
        J = body_point_jacobian(q, gp50_chain, BodyPoint(link, [0.1, -0.2, 0.05]))
        assert np.all(J[:, link:] == 0.0)


def test_point_on_joint1_axis_has_zero_first_column(gp50_chain):
    # base z axis is the joint-1 axis; a base-frame point on it cannot move
    p = BodyPoint(1, np.zeros(3))
    q = np.zeros(6)
    world = body_point_position(q, gp50_chain, p)
    # place a frame-1 point back onto the joint-1 axis (x=y=0 in world at q=0)
    frames = forward_kinematics(q, gp50_chain)
    local = np.linalg.inv(frames[0]) @ np.append([0.0, 0.0, world[2]], 1.0)
    J = body_point_jacobian(q, gp50_chain, BodyPoint(1, local[:3]))
    assert np.max(np.abs(J[:, 0])) < 1e-12


def test_jacobian_matches_finite_differences(gp50_chain):
    rng = np.random.default_rng(11)
    for _ in range(200):
        q = rng.uniform(-np.pi, np.pi, 6)
        link = int(rng.integers(1, 7))
        point = BodyPoint(link, rng.uniform(-0.4, 0.4, 3))
        J = body_point_jacobian(q, gp50_chain, point)
        assert np.max(np.abs(J - fd_jacobian(q, gp50_chain, point))) < 1e-6


def test_first_order_consistency_quadratic_remainder(gp50_chain):
    rng = np.random.default_rng(12)
    tool = tool_tip(gp50_chain)
    for _ in range(20):
        q = rng.uniform(-1.5, 1.5, 6)
        delta = rng.normal(size=6)
        delta /= np.linalg.norm(delta)
        J = body_point_jacobian(q, gp50_chain, tool)
        cs = []
        for h in (1e-3, 1e-4):
            r = body_point_position(q + h * delta, gp50_chain, tool) - body_point_position(q, gp50_chain, tool)
            cs.append(np.linalg.norm(r - h * (J @ delta)) / h**2)
        assert cs[0] < 10.0 and cs[1] < 10.0
        # the fitted quadratic coefficient stays bounded across step sizes
        assert cs[1] < 4.0 * cs[0] + 1e-6


def test_chain_validation():
    with pytest.raises(ValueError):
        RobotChain(joints=tuple(JointParams(a=1.0, alpha=0.0, d=0.0) for _ in range(5)), tool_offset=np.eye(4))
    with pytest.raises(ValueError):
        JointParams(a=np.inf, alpha=0.0, d=0.0)
    with pytest.raises(ValueError):
        JointParams(a=1.0, alpha=4.0, d=0.0)  # twist outside (-pi, pi]
    bad_tool = np.eye(4)
    bad_tool[0, 0] = 2.0
    with pytest.raises(ValueError):
        RobotChain(joints=tuple(JointParams(a=1.0, alpha=0.0, d=0.0) for _ in range(6)), tool_offset=bad_tool)


def test_joint_config_validation():
    with pytest.raises(ValueError):
        joint_config([0.0, 1.0])
    with pytest.raises(ValueError):
        joint_config([np.nan, 0, 0, 0, 0, 0])
    q = joint_config([1, 2, 3, 4, 5, 6])
    assert q.dtype == float and q.shape == (6,)
