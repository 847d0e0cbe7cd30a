import dataclasses

import numpy as np
import pytest

from icop import planner
from icop.geometry import CapsuleSet, scene_distance, world_state
from icop.kinematics import BodyPoint, RobotChain, body_point_position, tool_tip
from icop.planner import (
    NonConvergedError,
    PlannerParams,
    SafeTrackResult,
    plan,
    safetrack,
    verify_trajectory,
)
from icop.qp import STATUS_INFEASIBLE, STATUS_OPTIMAL, QpProblem, QpSolution
from icop.scenario import load_bundled, mounted_scene_and_path


@pytest.fixture(scope="module")
def world(c4):
    scene, path = mounted_scene_and_path(c4)
    return c4, scene, path


def test_already_satisfied_target_needs_zero_qp_solves(world):
    c4, scene, _ = world
    q = c4.initial_config
    target = body_point_position(q, c4.chain, tool_tip(c4.chain))
    res = safetrack(world_state(q, c4.chain, c4.capsules, scene), target, c4.params)
    assert res.converged
    assert res.inner_iterations == 0
    assert np.array_equal(res.state.q, q)


def test_small_free_space_step_converges_fast(world):
    c4, scene, _ = world
    rng = np.random.default_rng(61)
    q = c4.initial_config
    tool = tool_tip(c4.chain)
    for _ in range(10):
        target = body_point_position(q, c4.chain, tool) + rng.uniform(-1e-3, 1e-3, 3)
        res = safetrack(world_state(q, c4.chain, c4.capsules, scene), target, c4.params)
        assert res.converged
        assert res.inner_iterations <= 3
        assert res.tcp_error <= c4.params.xi
        assert res.state.witness.value > 0.0


def test_safetrack_result_satisfies_contract(world):
    c4, scene, path = world
    start = world_state(c4.initial_config, c4.chain, c4.capsules, scene)
    res = safetrack(start, path[0], c4.params)
    assert res.converged
    q = res.state.q
    tip = body_point_position(q, c4.chain, tool_tip(c4.chain))
    assert np.linalg.norm(tip - path[0]) <= c4.params.xi
    assert scene_distance(q, c4.chain, c4.capsules, scene).value > 0.0
    assert np.all(q >= c4.params.joint_lower) and np.all(q <= c4.params.joint_upper)


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


@pytest.mark.parametrize("joint, side", [(1, "upper"), (2, "upper"), (4, "lower")])
@pytest.mark.parametrize("inset", [2e-11, 5e-11, 8e-11])
def test_a_limit_just_inside_the_plan_keeps_every_state_in_the_box(world, joint, side, inset):
    # the QP accepts a point up to 1e-10 outside a bound; the plan it returns must still pass the 1e-12 check
    c4, scene, path = world
    free = plan(path, c4.initial_config, c4.chain, c4.capsules, scene, c4.params).states[:, joint]
    lower, upper = c4.params.joint_lower.copy(), c4.params.joint_upper.copy()
    if side == "upper":
        upper[joint] = free.max() - inset
    else:
        lower[joint] = free.min() + inset
    params = dataclasses.replace(c4.params, joint_lower=lower, joint_upper=upper)
    traj = plan(path, c4.initial_config, c4.chain, c4.capsules, scene, params)
    assert verify_trajectory(traj, params) == []
    assert (traj.states >= lower).all() and (traj.states <= upper).all()


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


def test_unreachable_waypoint_raises_with_index(world, monkeypatch):
    c4, scene, path = world
    monkeypatch.setattr(planner, "_BISECT_DEPTH", 1)
    bad = path.copy()
    bad[5] = np.array([10.0, 0.0, 0.0])  # far outside the reachable workspace
    params = dataclasses.replace(c4.params, max_inner=10, step_max=20.0)
    with pytest.raises(NonConvergedError) as err:
        plan(bad, c4.initial_config, c4.chain, c4.capsules, scene, params)
    assert err.value.waypoint_index == 5


def test_collision_blocking_straight_line(world, monkeypatch):
    # a target behind the entrance face material forces the planner to give up
    c4, scene, path = world
    monkeypatch.setattr(planner, "_BISECT_DEPTH", 1)
    outside = path[0] - 2.5 * scene.pose[:3, 0] + np.array([0.0, 1.5, 0.0])  # out of the entrance, along -x of the prism
    params = dataclasses.replace(c4.params, max_inner=8, step_max=20.0)
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
    start = world_state(c4.initial_config, c4.chain, c4.capsules, scene)
    res = safetrack(start, path[0], c4.params)
    assert res.converged and res.inner_iterations >= 2
    assert built == []


def test_plan_constructs_no_qp_problem(world, monkeypatch):
    # the weights and the joint box are checked once, when the params are built
    c4, scene, path = world
    validate = QpProblem.__post_init__
    built = []

    def counted(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(QpProblem, "__post_init__", counted)
    traj = plan(path, c4.initial_config, c4.chain, c4.capsules, scene, c4.params)
    assert traj.inner_iterations.sum() > 0
    assert built == []


def test_plan_stacks_capsules_once_and_derives_no_chain_constants(world, monkeypatch):
    # the capsule arrays are stacked when the CapsuleSet is built, the joint constants once per chain
    c4, scene, path = world
    built, derived = [], []
    new = CapsuleSet.__new__
    monkeypatch.setattr(CapsuleSet, "__new__", lambda cls, capsules: built.append(capsules) or new(cls, capsules))
    monkeypatch.setattr(RobotChain, "__post_init__", lambda chain: derived.append(chain))
    assert isinstance(c4.capsules, CapsuleSet)
    traj = plan(path, c4.initial_config, c4.chain, c4.capsules, scene, c4.params)
    assert traj.inner_iterations.sum() > 0
    assert planner._resume.capsules is c4.capsules
    assert built == [] and derived == []


def test_a_capsule_list_plans_the_capsule_set_bits(world):
    # a list is converted once per call, so the plan is cold but the same
    c4, scene, path = world
    with_set = plan(path[:5], c4.initial_config, c4.chain, c4.capsules, scene, c4.params)
    with_list = plan(path[:5], c4.initial_config, c4.chain, list(c4.capsules), scene, c4.params)
    for name in ("states", "tcp_error", "min_distance", "inner_iterations"):
        assert getattr(with_list, name).tobytes() == getattr(with_set, name).tobytes(), name


def _safetrack_with_solve(world, monkeypatch, solution):
    """safetrack from c4's initial state towards path[0] while every QP solve returns solution(x_ref)."""
    c4, scene, path = world
    calls = []

    def fake_solve(problem, x_ref, **rows):
        calls.append(x_ref)
        return solution(x_ref)

    monkeypatch.setattr(planner, "solve", fake_solve)
    start = world_state(c4.initial_config, c4.chain, c4.capsules, scene)
    return start, safetrack(start, path[0], c4.params), calls


def test_non_optimal_qp_stops_safetrack_at_the_start(world, monkeypatch):
    def infeasible(x_ref):
        return QpSolution(np.add(x_ref, 0.1), STATUS_INFEASIBLE, kkt_residual=0.0, eq_residual=0.0)

    start, res, calls = _safetrack_with_solve(world, monkeypatch, infeasible)
    assert len(calls) == 1 and res.inner_iterations == 1
    assert not res.converged and res.state is start


def test_stalled_qp_stops_safetrack_at_the_start(world, monkeypatch):
    def stalled(x_ref):
        return QpSolution(x_ref.copy(), STATUS_OPTIMAL, kkt_residual=0.0, eq_residual=0.0)

    start, res, calls = _safetrack_with_solve(world, monkeypatch, stalled)
    assert len(calls) == 1 and res.inner_iterations == 1
    assert not res.converged and res.state is start


def test_safetrack_returns_the_iterate_it_stopped_on(world, monkeypatch):
    # the first QP approaches the target, the second steps away and stays
    # clear, the third fails: SafeTrack stops on the second iterate, not the closer first
    c4, scene, path = world
    real_solve, calls = planner.solve, []

    def approach_retreat_fail(problem, x_ref, **rows):
        calls.append(x_ref)
        if len(calls) == 1:
            return real_solve(problem, x_ref, **rows)
        if len(calls) == 2:
            return QpSolution(np.add(x_ref, 0.01), STATUS_OPTIMAL, kkt_residual=0.0, eq_residual=0.0)
        return QpSolution(x_ref, STATUS_INFEASIBLE, kkt_residual=0.0, eq_residual=0.0)

    monkeypatch.setattr(planner, "solve", approach_retreat_fail)
    start = world_state(c4.initial_config, c4.chain, c4.capsules, scene)
    res = safetrack(start, path[0], c4.params)
    assert len(calls) == 3 and res.inner_iterations == 3 and not res.converged
    first = world_state(calls[1], c4.chain, c4.capsules, scene)
    first_error = float(np.linalg.norm(path[0] - first.tool_position))
    assert first_error < float(np.linalg.norm(path[0] - start.tool_position))
    assert res.state.q.tobytes() == np.array(calls[2]).tobytes()
    assert res.state.witness.value > 0.0
    assert res.tcp_error == float(np.linalg.norm(path[0] - res.state.tool_position)) > first_error


def test_zero_clearance_is_not_converged(world):
    # a state that touches the scene is not collision-free, even at its target;
    # with zero residual and a zero-offset collision row the QP returns its reference
    c4, scene, _ = world
    start = world_state(c4.initial_config, c4.chain, c4.capsules, scene)
    touching = dataclasses.replace(start, witness=dataclasses.replace(start.witness, value=0.0))
    res = safetrack(touching, touching.tool_position, c4.params)
    assert not res.converged and res.inner_iterations == 1 and res.state is touching


def _fail_solves_after(monkeypatch, n):
    """Solve the first n QPs, then report every one INFEASIBLE; returns the list of QP references."""
    real_solve, calls = planner.solve, []

    def failing(problem, x_ref, **rows):
        calls.append(x_ref)
        if len(calls) <= n:
            return real_solve(problem, x_ref, **rows)
        return QpSolution(x_ref, STATUS_INFEASIBLE, kkt_residual=0.0, eq_residual=0.0)

    monkeypatch.setattr(planner, "solve", failing)
    return calls


def test_bisection_exhaustion_raises_at_the_failing_waypoint(world, monkeypatch):
    c4, scene, path = world
    traj = plan(path, c4.initial_config, c4.chain, c4.capsules, scene, c4.params)
    k = 5
    assert traj.inner_iterations[k] >= 1  # waypoint k needs a QP solve
    solved_before_k = int(np.sum(traj.inner_iterations[:k]))
    calls = _fail_solves_after(monkeypatch, solved_before_k)
    monkeypatch.setattr(planner, "_BISECT_DEPTH", 2)
    with pytest.raises(NonConvergedError) as err:
        plan(path, c4.initial_config, c4.chain, c4.capsules, scene, c4.params)
    assert err.value.waypoint_index == k
    # the failed step and its first half at depths 1 and 2, one failed solve each
    assert len(calls) == solved_before_k + 3


def test_params_validation():
    with pytest.raises(ValueError):
        PlannerParams(q_diag=np.zeros(6), joint_lower=-np.ones(6), joint_upper=np.ones(6))
    with pytest.raises(ValueError):
        PlannerParams(q_diag=np.ones(6), joint_lower=np.ones(6), joint_upper=-np.ones(6))
    with pytest.raises(ValueError):
        PlannerParams(q_diag=np.ones(6), joint_lower=-np.ones(6), joint_upper=np.ones(6), xi=0.0)
    # NaN compares false both ways, so each check must be written to fail on it
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            PlannerParams(q_diag=[1.0, 1.0, bad, 1.0, 1.0, 1.0], joint_lower=-np.ones(6), joint_upper=np.ones(6))
        for field in ("xi", "step_max", "max_inner"):
            with pytest.raises(ValueError):
                PlannerParams(q_diag=np.ones(6), joint_lower=-np.ones(6), joint_upper=np.ones(6), **{field: bad})
    with pytest.raises(ValueError):
        PlannerParams(q_diag=np.ones(6), joint_lower=-np.ones(6), joint_upper=np.ones(6), max_inner=2.5)
    # a bool is an int to Python; each field rejects it, as Capsule's radius does
    for field in ("xi", "step_max", "max_inner"):
        with pytest.raises(ValueError):
            PlannerParams(q_diag=np.ones(6), joint_lower=-np.ones(6), joint_upper=np.ones(6), **{field: True})
    with pytest.raises(ValueError):
        PlannerParams(q_diag=np.ones(6), joint_lower=[-1.0, -1.0, np.nan, -1.0, -1.0, -1.0], joint_upper=np.ones(6))
    with pytest.raises(ValueError):
        PlannerParams(q_diag=np.ones(6), joint_lower=-np.ones(6), joint_upper=[1.0, np.nan, 1.0, 1.0, 1.0, 1.0])


def test_params_problem_and_scene_compare_and_hash_by_identity(world):
    # Their array fields have no single truth value, so they are compared by identity.
    c4, scene, _ = world
    for value, copy in (
        (c4.params, dataclasses.replace(c4.params)),
        (c4.params.qp, dataclasses.replace(c4.params.qp)),
        (scene, dataclasses.replace(scene)),
        (c4.chain, dataclasses.replace(c4.chain)),
        (c4.capsules[0], dataclasses.replace(c4.capsules[0])),
        (c4, dataclasses.replace(c4)),
    ):
        assert value == value
        assert (value == copy) is False
        assert value != copy
        assert len({value, copy, value}) == 2


def test_plan_rejects_invalid_inputs(world):
    c4, scene, path = world
    with pytest.raises(ValueError):
        plan(np.zeros((0, 3)), c4.initial_config, c4.chain, c4.capsules, scene, c4.params)
    q_bad = c4.params.joint_upper + 1.0
    with pytest.raises(ValueError):
        plan(path, q_bad, c4.chain, c4.capsules, scene, c4.params)
    for bad in (np.inf, np.nan):
        bad_path = path.copy()
        bad_path[3, 0] = bad
        with pytest.raises(ValueError):
            plan(bad_path, c4.initial_config, c4.chain, c4.capsules, scene, c4.params)


@pytest.mark.parametrize("xi", [0.04, 0.049, 0.1, 1.0])
def test_threshold_near_the_step_length_plans(xi):
    # c1's step_max is 0.05; a split piece may start up to xi short of its target and is not split again
    c1 = load_bundled("c1")
    scene, path = mounted_scene_and_path(c1)
    params = dataclasses.replace(c1.params, xi=xi)
    traj = plan(path, c1.initial_config, c1.chain, c1.capsules, scene, params)
    assert verify_trajectory(traj, params) == []


def test_safetrack_calls_per_waypoint_reach_the_bound(world, monkeypatch):
    # every target farther than 6 mm fails, so each piece of c4's first step
    # bisects to full depth and only the deepest targets converge
    c4, scene, path = world
    real_track, calls = planner.safetrack, []

    def short_steps_only(start, target, *args):
        calls.append(target)
        gap = float(np.linalg.norm(np.subtract(target, start.tool_position)))
        if gap > 0.006:
            return SafeTrackResult(start, False, 0, gap)
        return real_track(start, target, *args)

    monkeypatch.setattr(planner, "safetrack", short_steps_only)
    start = world_state(c4.initial_config, c4.chain, c4.capsules, scene)
    gap = float(np.linalg.norm(path[0] - start.tool_position))
    pieces = int(np.ceil(gap / c4.params.step_max))
    assert pieces > 1
    traj = plan(path[:1], c4.initial_config, c4.chain, c4.capsules, scene, c4.params)
    assert len(calls) == pieces * (2 ** (planner._BISECT_DEPTH + 1) - 1)
    assert traj.tcp_error[0] <= c4.params.xi


def _count_evaluations(monkeypatch):
    """Record every state that ``plan`` and SafeTrack evaluate; returns the list they are appended to.

    A state that ``world_state`` hands back as it was given is no evaluation.
    """
    evaluate, evaluations = planner.world_state, []

    def counted(q, chain, capsules, scene, previous=None):
        state = evaluate(q, chain, capsules, scene, previous)
        if state is not previous:
            evaluations.append(state)
        return state

    monkeypatch.setattr(planner, "world_state", counted)
    return evaluations


def test_one_scene_evaluation_per_accepted_iterate(monkeypatch):
    c1 = load_bundled("c1")
    scene, path = mounted_scene_and_path(c1)
    track = planner.safetrack
    evaluations = _count_evaluations(monkeypatch)
    per_call = []  # (start, evaluations during the call, SafeTrack result)

    def counted_track(start, *args):
        before = len(evaluations)
        result = track(start, *args)
        per_call.append((start, len(evaluations) - before, result))
        return result

    monkeypatch.setattr(planner, "safetrack", counted_track)

    # plan evaluates q_init once; each SafeTrack call evaluates only the QP
    # iterates it accepts and starts from the state the previous call accepted
    calls = []
    for params in (c1.params, dataclasses.replace(c1.params, step_max=0.004)):
        evaluations.clear()
        per_call.clear()
        whole = plan(path, c1.initial_config, c1.chain, c1.capsules, scene, params)
        calls.append(len(per_call))
        assert all(result.converged for _, _, result in per_call)
        assert [n for _, n, _ in per_call] == [result.inner_iterations for _, _, result in per_call]
        assert len(evaluations) == 1 + int(whole.inner_iterations.sum())
        accepted = [evaluations[0]] + [result.state for _, _, result in per_call[:-1]]
        assert all(start is prev for (start, _, _), prev in zip(per_call, accepted))
    assert calls[1] > calls[0]  # step_max 0.004 splits more steps

    # a plan resumes from the state the last plan returned on: streamed one
    # waypoint per call, only the first call evaluates its start, every later
    # one only its accepted iterates, and the plan equals the whole path's
    whole = plan(path, c1.initial_config, c1.chain, c1.capsules, scene, c1.params)
    q = c1.initial_config
    for t in range(5):
        evaluations.clear()
        step = plan(path[t : t + 1], q, c1.chain, c1.capsules, scene, c1.params)
        assert len(evaluations) == int(t == 0) + int(step.inner_iterations[0])
        assert step.inner_iterations[0] == whole.inner_iterations[t]
        assert step.states[0].tobytes() == whole.states[t].tobytes()
        assert step.min_distance[0] == whole.min_distance[t]
        assert step.tcp_error[0] == whole.tcp_error[t]
        q = step.states[0]


@pytest.mark.parametrize("name", ["c1", "c2", "c3", "c4"])
def test_a_stream_of_one_waypoint_plans_is_the_whole_path_plan(name):
    # each waypoint planned in its own call from the state the last call returned, at the bundled xi and at
    # xi = 1e-6: every field equals the whole-path plan's, bit for bit, dtype and shape
    s = load_bundled(name)
    scene, path = mounted_scene_and_path(s)
    T = len(path)
    for params in (s.params, dataclasses.replace(s.params, xi=1e-6)):
        whole = plan(path, s.initial_config, s.chain, s.capsules, scene, params)
        assert whole.states.dtype == np.float64 and whole.states.shape == (T, 6)
        assert whole.tcp_error.dtype == whole.min_distance.dtype == np.float64
        assert whole.inner_iterations.dtype == np.dtype(int)
        q, steps = s.initial_config, []
        for t in range(T):
            steps.append(plan(path[t : t + 1], q, s.chain, s.capsules, scene, params))
            q = steps[-1].states[0]
        for field in ("states", "tcp_error", "min_distance", "inner_iterations"):
            streamed = np.concatenate([getattr(step, field) for step in steps])
            assert streamed.dtype == getattr(whole, field).dtype and streamed.shape == getattr(whole, field).shape
            assert streamed.tobytes() == getattr(whole, field).tobytes(), (params.xi, field)


@pytest.mark.parametrize("change", [None, "scene", "capsules", "chain", "one ulp", "negative zero"])
def test_a_start_unlike_the_resume_point_is_evaluated(change, monkeypatch):
    # the resume point is c1's initial configuration with its last joint at 0.0,
    # left by a plan to the tool position it already has
    c1 = load_bundled("c1")
    scene, path = mounted_scene_and_path(c1)
    q = c1.initial_config.copy()
    q[5] = 0.0
    target = body_point_position(q, c1.chain, tool_tip(c1.chain))
    assert plan(target[None, :], q, c1.chain, c1.capsules, scene, c1.params).inner_iterations[0] == 0

    chain, capsules, start = c1.chain, c1.capsules, q.copy()
    if change == "scene":
        scene, path = mounted_scene_and_path(c1)  # equal values, new objects
    elif change == "capsules":
        capsules = tuple(list(c1.capsules))
    elif change == "chain":
        chain = dataclasses.replace(c1.chain)
    elif change == "one ulp":
        start[1] = np.nextafter(start[1], np.inf)
    elif change == "negative zero":
        start[5] = -0.0
    evaluations = _count_evaluations(monkeypatch)
    first = plan(path[:1], start, chain, capsules, scene, c1.params)
    assert first.inner_iterations[0] >= 1  # it ends away from start, so the next call is cold
    assert len(evaluations) == int(change is not None) + int(first.inner_iterations[0])
    evaluations.clear()
    cold = plan(path[:1], start, chain, capsules, scene, c1.params)
    assert len(evaluations) == 1 + int(cold.inner_iterations[0])
    for name in ("states", "tcp_error", "min_distance", "inner_iterations"):
        assert getattr(first, name).tobytes() == getattr(cold, name).tobytes()


def test_a_plan_that_raises_leaves_the_resume_point(monkeypatch):
    c1 = load_bundled("c1")
    scene, path = mounted_scene_and_path(c1)
    whole = plan(path[:3], c1.initial_config, c1.chain, c1.capsules, scene, c1.params)
    assert whole.inner_iterations[2] >= 1  # waypoint 2 needs a QP solve
    q1 = plan(path[:1], c1.initial_config, c1.chain, c1.capsules, scene, c1.params).states[0]
    # resumed from q1, waypoint 1 is solved and accepted, then waypoint 2 fails
    _fail_solves_after(monkeypatch, int(whole.inner_iterations[1]))
    monkeypatch.setattr(planner, "_BISECT_DEPTH", 1)
    with pytest.raises(NonConvergedError) as err:
        plan(path[1:3], q1, c1.chain, c1.capsules, scene, c1.params)
    assert err.value.waypoint_index == 1
    monkeypatch.undo()
    evaluations = _count_evaluations(monkeypatch)
    step = plan(path[1:2], q1, c1.chain, c1.capsules, scene, c1.params)
    assert len(evaluations) == int(step.inner_iterations[0])  # resumed from q1's state
    assert step.states[0].tobytes() == whole.states[1].tobytes()


def test_each_iterate_keeps_the_full_witness(monkeypatch):
    # every SafeTrack iterate of c1..c4 under the fingerprint's four parameter sets: a culled evaluation keeps
    # the witness bits of each capsule scored alone, and each culled clearance lies below the exact one
    import importlib.util
    from pathlib import Path

    from test_geometry import _assert_culled_like_full

    spec = importlib.util.spec_from_file_location(
        "plan_fingerprint", Path(__file__).resolve().parent.parent / "scripts" / "plan_fingerprint.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    evaluations = _count_evaluations(monkeypatch)
    script.run_plans()
    assert len({state.capsules for state in evaluations}) == 4
    for state in evaluations:
        _assert_culled_like_full(state)
    assert sum(state.scored for state in evaluations) < 0.3 * sum(len(state.capsules) for state in evaluations)


def test_one_round_scores_219_of_1164_capsules(monkeypatch):
    # one c1..c4 round at the bundled parameters makes 194 evaluations, and in each the tool's capsule is the
    # witness and is scored; 25 of them (c1 6, c2 0, c3 12, c4 7) also score one capsule whose ball bound lies
    # below the clearance found before it: 194 + 25 = 219
    evaluations = _count_evaluations(monkeypatch)
    for name in ("c1", "c2", "c3", "c4"):
        s = load_bundled(name)
        scene, path = mounted_scene_and_path(s)
        plan(path, s.initial_config, s.chain, s.capsules, scene, s.params)
    assert len(evaluations) == 194
    assert sum(len(state.capsules) for state in evaluations) == 1164
    assert sum(state.scored for state in evaluations) == 219
