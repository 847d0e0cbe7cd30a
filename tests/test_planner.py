import dataclasses

import numpy as np
import pytest

from icop.geometry import scene_distance
from icop.kinematics import BodyPoint, body_point_position, tool_tip
from icop.planner import (
    NonConvergedError,
    PlannerParams,
    plan,
    safetrack,
    verify_trajectory,
)
from icop.scenario import mounted_scene_and_path


@pytest.fixture(scope="module")
def world(c4):
    scene, path = mounted_scene_and_path(c4)
    return c4, scene, path


def test_already_satisfied_target_needs_zero_qp_solves(world):
    c4, scene, _ = world
    q = c4.initial_config
    target = body_point_position(q, c4.chain, tool_tip(c4.chain))
    res = safetrack(q, target, c4.chain, c4.capsules, scene, c4.params)
    assert res.converged
    assert res.inner_iterations == 0
    assert np.array_equal(res.q, q)


def test_small_free_space_step_converges_fast(world):
    c4, scene, _ = world
    rng = np.random.default_rng(61)
    q = c4.initial_config
    tool = tool_tip(c4.chain)
    for _ in range(10):
        target = body_point_position(q, c4.chain, tool) + rng.uniform(-1e-3, 1e-3, 3)
        res = safetrack(q, target, c4.chain, c4.capsules, scene, c4.params)
        assert res.converged
        assert res.inner_iterations <= 3
        assert res.tcp_error <= c4.params.xi
        assert res.min_distance >= 0.0


def test_safetrack_result_satisfies_contract(world):
    c4, scene, path = world
    res = safetrack(c4.initial_config, path[0], c4.chain, c4.capsules, scene, c4.params)
    assert res.converged
    tip = body_point_position(res.q, c4.chain, tool_tip(c4.chain))
    assert np.linalg.norm(tip - path[0]) <= c4.params.xi
    assert scene_distance(res.q, c4.chain, c4.capsules, scene).value >= 0.0
    assert np.all(res.q >= c4.params.joint_lower) and np.all(res.q <= c4.params.joint_upper)


def test_degenerate_single_waypoint_plan(world):
    c4, scene, _ = world
    q = c4.initial_config
    target = body_point_position(q, c4.chain, tool_tip(c4.chain))
    traj = plan(target[None, :], q, c4.chain, c4.capsules, scene, c4.params)
    assert len(traj) == 1
    assert np.array_equal(traj.states[0], q)
    assert traj.inner_iterations[0] == 0


def test_plan_tracks_every_waypoint(world):
    c4, scene, path = world
    traj = plan(path, c4.initial_config, c4.chain, c4.capsules, scene, c4.params)
    assert len(traj) == len(path)
    tool = tool_tip(c4.chain)
    for t in range(len(traj)):
        tip = body_point_position(traj.states[t], c4.chain, tool)
        assert np.linalg.norm(tip - path[t]) <= c4.params.xi
        assert traj.min_distance[t] > 0.0
    # consecutive weld waypoints resolve in a handful of inner iterations
    assert np.all(traj.inner_iterations[1:] >= 1)
    assert np.all(traj.inner_iterations[1:] <= 10)
    assert verify_trajectory(traj, c4.params) == []


def test_plan_smoothness_under_objective_pressure(world):
    c4, scene, path = world
    traj = plan(path, c4.initial_config, c4.chain, c4.capsules, scene, c4.params)
    step = np.diff(traj.states[1:], axis=0)  # skip the approach move
    assert np.max(np.abs(step)) < 0.12  # joint moves stay commensurate with 8 mm tip steps


def test_plan_determinism_bit_for_bit(world):
    c4, scene, path = world
    t1 = plan(path, c4.initial_config, c4.chain, c4.capsules, scene, c4.params)
    t2 = plan(path, c4.initial_config, c4.chain, c4.capsules, scene, c4.params)
    assert t1.states.tobytes() == t2.states.tobytes()
    assert np.array_equal(t1.inner_iterations, t2.inner_iterations)


def test_long_step_interpolation_is_transparent(world):
    c4, scene, path = world
    # a single waypoint 0.3 m away still lands within xi
    far = path[0] + np.array([0.0, 0.0, 0.0])
    params = dataclasses.replace(c4.params, step_max=0.02)
    traj = plan(far[None, :], c4.initial_config, c4.chain, c4.capsules, scene, params)
    assert traj.tcp_error[0] <= params.xi
    # more substeps means more recorded inner iterations at that waypoint
    traj_coarse = plan(far[None, :], c4.initial_config, c4.chain, c4.capsules, scene, c4.params)
    assert traj.inner_iterations[0] > traj_coarse.inner_iterations[0]


def test_unreachable_waypoint_raises_with_index(world):
    c4, scene, path = world
    bad = path.copy()
    bad[5] = np.array([10.0, 0.0, 0.0])  # far outside the reachable workspace
    params = dataclasses.replace(c4.params, max_inner=10, bisect_depth=1, step_max=20.0)
    with pytest.raises(NonConvergedError) as err:
        plan(bad, c4.initial_config, c4.chain, c4.capsules, scene, params)
    assert err.value.waypoint_index == 5


def test_collision_blocking_straight_line(world):
    # a target behind the entrance face material forces the planner to give up
    c4, scene, path = world
    outside = path[0] + 2.5 * scene.entrance_outward_normal + np.array([0.0, 1.5, 0.0])
    params = dataclasses.replace(c4.params, max_inner=8, bisect_depth=1, step_max=20.0)
    try:
        traj = plan(outside[None, :], c4.initial_config, c4.chain, c4.capsules, scene, params)
        # if it does find a way, the contract still holds
        assert verify_trajectory(traj, params) == []
    except NonConvergedError as err:
        assert err.waypoint_index == 0


def test_inner_loop_constructs_no_body_point(world, monkeypatch):
    # validation belongs at the boundary: the iterates read frames, not validated body points
    c4, scene, path = world
    validate = BodyPoint.__post_init__
    built = []

    def counted(self):
        built.append(self.link_index)
        validate(self)

    monkeypatch.setattr(BodyPoint, "__post_init__", counted)
    res = safetrack(c4.initial_config, path[0], c4.chain, c4.capsules, scene, c4.params)
    assert res.converged and res.inner_iterations >= 2
    assert built == []


def test_per_capsule_rows_variant_plans(world):
    c4, scene, path = world
    params = dataclasses.replace(c4.params, per_capsule_rows=True)
    traj = plan(path, c4.initial_config, c4.chain, c4.capsules, scene, params)
    assert verify_trajectory(traj, params) == []


def test_params_validation():
    with pytest.raises(ValueError):
        PlannerParams(q_diag=np.zeros(6), joint_lower=-np.ones(6), joint_upper=np.ones(6))
    with pytest.raises(ValueError):
        PlannerParams(q_diag=np.ones(6), joint_lower=np.ones(6), joint_upper=-np.ones(6))
    with pytest.raises(ValueError):
        PlannerParams(q_diag=np.ones(6), joint_lower=-np.ones(6), joint_upper=np.ones(6), xi=0.0)


def test_plan_rejects_invalid_inputs(world):
    c4, scene, path = world
    with pytest.raises(ValueError):
        plan(np.zeros((0, 3)), c4.initial_config, c4.chain, c4.capsules, scene, c4.params)
    q_bad = c4.params.joint_upper + 1.0
    with pytest.raises(ValueError):
        plan(path, q_bad, c4.chain, c4.capsules, scene, c4.params)


def test_one_scene_evaluation_per_accepted_iterate(monkeypatch):
    from icop import planner
    from icop.scenario import load_bundled

    c1 = load_bundled("c1")
    scene, path = mounted_scene_and_path(c1)
    evaluate, track = planner.world_state, planner.safetrack
    evaluations = []
    per_call = []  # (evaluations during the call, SafeTrack result)

    def counted_evaluate(*args):
        evaluations.append(args[0])
        return evaluate(*args)

    def counted_track(*args):
        before = len(evaluations)
        result = track(*args)
        per_call.append((len(evaluations) - before, result))
        return result

    monkeypatch.setattr(planner, "world_state", counted_evaluate)
    monkeypatch.setattr(planner, "safetrack", counted_track)
    whole = plan(path, c1.initial_config, c1.chain, c1.capsules, scene, c1.params)

    # one evaluation of the starting state, then one per accepted QP step;
    # nothing else in plan evaluates the scene
    assert all(result.converged for _, result in per_call)
    assert [n for n, _ in per_call] == [1 + result.inner_iterations for _, result in per_call]
    assert len(evaluations) == len(per_call) + int(whole.inner_iterations.sum())

    # no state survives a plan call: streaming one waypoint per call reproduces the whole path
    q = c1.initial_config
    for t in range(5):
        step = plan(path[t : t + 1], q, c1.chain, c1.capsules, scene, c1.params)
        assert step.states[0].tobytes() == whole.states[t].tobytes()
        assert step.min_distance[0] == whole.min_distance[t]
        assert step.tcp_error[0] == whole.tcp_error[t]
        q = step.states[0]
