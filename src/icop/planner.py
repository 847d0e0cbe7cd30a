"""Incremental waypoint planner: outer loop over the Cartesian path, inner
tracking loop per waypoint.

Each waypoint is reached by the SafeTrack loop: while the tool-point residual
exceeds the equality threshold or the configuration is in collision, build
the collision half-space at the current reference, linearize the contact
equality there, solve the QP that stays closest (in the weighted norm) to the
current reference, and move the reference to its solution. The QP objective
is anchored at the current reference rather than the previous waypoint;
anchoring at the previous waypoint can pin the iterate against the
constraint set and stall the loop.

Each iterate is evaluated once (``geometry.world_state``): the residual,
the feasibility test, the collision and contact rows, and the clearance that
``plan`` records all read that one evaluation.

Cartesian steps larger than ``step_max`` are split into intermediate targets
before tracking, and a waypoint whose inner loop fails to converge is retried
through recursive bisection of the step (bounded depth) before the planner
gives up loudly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .cfs import collision_rows
from .equality import task_rows
from .geometry import CapsuleSet, Scene, WorldState, world_state
from .kinematics import NUM_JOINTS, RobotChain, body_point_position, joint_config, tool_tip
from .qp import STATUS_OPTIMAL, QpProblem, solve

STATUS_CONVERGED = "CONVERGED"
STATUS_NON_CONVERGED = "NON_CONVERGED"


@dataclass(frozen=True)
class PlannerParams:
    """Weights, thresholds and limits consumed by the tracking loops."""

    q_diag: np.ndarray
    joint_lower: np.ndarray
    joint_upper: np.ndarray
    xi: float = 1e-4
    max_inner: int = 50
    step_max: float = 0.05
    per_capsule_rows: bool = False
    bisect_depth: int = 3

    def __post_init__(self) -> None:
        q_diag = np.array(self.q_diag, dtype=float).reshape(-1)
        lower = np.array(self.joint_lower, dtype=float).reshape(-1)
        upper = np.array(self.joint_upper, dtype=float).reshape(-1)
        if q_diag.shape != (NUM_JOINTS,) or np.any(q_diag <= 0):
            raise ValueError("q_diag must be 6 positive weights")
        if lower.shape != (NUM_JOINTS,) or upper.shape != (NUM_JOINTS,):
            raise ValueError("joint limits must be 6-vectors")
        if np.any(lower > upper):
            raise ValueError("joint_lower exceeds joint_upper")
        if not self.xi > 0:
            raise ValueError("xi must be positive")
        if self.max_inner < 1:
            raise ValueError("max_inner must be >= 1")
        if not self.step_max > 0:
            raise ValueError("step_max must be positive")
        if self.bisect_depth < 0:
            raise ValueError("bisect_depth must be >= 0")
        for arr in (q_diag, lower, upper):
            arr.flags.writeable = False
        object.__setattr__(self, "q_diag", q_diag)
        object.__setattr__(self, "joint_lower", lower)
        object.__setattr__(self, "joint_upper", upper)


@dataclass(frozen=True)
class SafeTrackResult:
    """The iterate SafeTrack returns, with the evaluation it was judged on."""

    state: WorldState
    status: str
    inner_iterations: int
    tcp_error: float

    @property
    def q(self) -> np.ndarray:
        return self.state.q

    @property
    def min_distance(self) -> float:
        return self.state.witness.value

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED


@dataclass(frozen=True)
class Trajectory:
    """Planned joint states with per-step diagnostics."""

    states: np.ndarray  # (T, 6)
    tcp_error: np.ndarray  # (T,)
    min_distance: np.ndarray  # (T,)
    inner_iterations: np.ndarray  # (T,) int
    solve_time: np.ndarray  # (T,) seconds

    def __post_init__(self) -> None:
        T = self.states.shape[0]
        for name in ("tcp_error", "min_distance", "inner_iterations", "solve_time"):
            if getattr(self, name).shape != (T,):
                raise ValueError(f"diagnostic {name} length mismatch")

    def __len__(self) -> int:
        return self.states.shape[0]


class NonConvergedError(RuntimeError):
    """Raised when a waypoint cannot be reached after bisection retries."""

    def __init__(self, waypoint_index: int, tcp_error: float, min_distance: float):
        self.waypoint_index = waypoint_index
        self.tcp_error = tcp_error
        self.min_distance = min_distance
        super().__init__(
            f"waypoint {waypoint_index} did not converge "
            f"(tcp_error={tcp_error:.3e}, min_distance={min_distance:.3e})"
        )


def safetrack(
    q_pre,
    c_next,
    chain: RobotChain,
    capsules: CapsuleSet,
    scene: Scene,
    params: PlannerParams,
) -> SafeTrackResult:
    """Track one Cartesian target from q_pre; returns the best iterate found.

    Convergence means the tool-point residual is at or below xi and the scene
    distance is non-negative. Zero QP solves happen when q_pre already
    satisfies both.
    """
    c_next = np.asarray(c_next, dtype=float)
    state = world_state(q_pre, chain, capsules, scene)
    residual = float(np.linalg.norm(c_next - state.tool_position))
    best = (state, residual)

    iterations = 0
    while (residual > params.xi or state.witness.value < 0.0) and iterations < params.max_inner:
        rows = collision_rows(state, per_capsule_rows=params.per_capsule_rows)
        eq = task_rows(state.tool_jacobian(), state.q, state.tool_position, c_next)
        problem = QpProblem.from_reference(
            params.q_diag, state.q, eq=eq, ineq=tuple(rows),
            lower=params.joint_lower, upper=params.joint_upper,
        )
        sol = solve(problem)
        iterations += 1
        if sol.status != STATUS_OPTIMAL:
            break
        if float(np.max(np.abs(sol.x - state.q))) < 1e-15:
            break  # stalled: QP returned the reference itself
        state = world_state(sol.x, chain, capsules, scene)
        residual = float(np.linalg.norm(c_next - state.tool_position))
        distance, best_distance = state.witness.value, best[0].witness.value
        better_feasible = distance >= 0.0 and (best_distance < 0.0 or residual < best[1])
        rescued = distance > best_distance and best_distance < 0.0
        if better_feasible or rescued:
            best = (state, residual)

    if residual <= params.xi and state.witness.value >= 0.0:
        return SafeTrackResult(state, STATUS_CONVERGED, iterations, residual)
    best_state, res_best = best
    return SafeTrackResult(best_state, STATUS_NON_CONVERGED, iterations, res_best)


def _advance(
    q_from: np.ndarray,
    c_from: np.ndarray,
    target: np.ndarray,
    chain: RobotChain,
    capsules: CapsuleSet,
    scene: Scene,
    params: PlannerParams,
    depth: int,
):
    """Reach target from q_from (tool at c_from), splitting long steps and bisecting on failure.

    Returns the converged SafeTrack result of the last piece and the inner
    iterations spent over all pieces.
    """
    gap = float(np.linalg.norm(target - c_from))
    if gap > params.step_max:
        pieces = math.ceil(gap / params.step_max)
        q, c, total = q_from, c_from, 0
        for i in range(1, pieces + 1):
            sub_target = c_from + (i / pieces) * (target - c_from)
            result, iters = _advance(q, c, sub_target, chain, capsules, scene, params, depth)
            q, c, total = result.q, result.state.tool_position, total + iters
        return result, total

    result = safetrack(q_from, target, chain, capsules, scene, params)
    if result.converged:
        return result, result.inner_iterations
    if depth < params.bisect_depth:
        mid = 0.5 * (c_from + target)
        half, it1 = _advance(q_from, c_from, mid, chain, capsules, scene, params, depth + 1)
        end, it2 = _advance(half.q, half.state.tool_position, target, chain, capsules, scene, params, depth + 1)
        return end, result.inner_iterations + it1 + it2
    raise NonConvergedError(-1, result.tcp_error, result.min_distance)


def plan(
    weld_path,
    q_init,
    chain: RobotChain,
    capsules: CapsuleSet,
    scene: Scene,
    params: PlannerParams,
) -> Trajectory:
    """Plan the full trajectory over the Cartesian waypoint sequence.

    States chain from waypoint to waypoint; every emitted state satisfies the
    tracking threshold, a positive scene distance and the joint limits. The
    recorded TCP error and clearance are read from the evaluation of the
    state that SafeTrack accepted.
    """
    path = np.asarray(weld_path, dtype=float)
    if path.ndim != 2 or path.shape[1] != 3 or path.shape[0] == 0:
        raise ValueError("weld_path must be a non-empty (T, 3) array")
    q0 = joint_config(q_init)
    if np.any(q0 < params.joint_lower - 1e-12) or np.any(q0 > params.joint_upper + 1e-12):
        raise ValueError("q_init violates the joint limits")

    T = path.shape[0]
    states = np.zeros((T, NUM_JOINTS))
    tcp_error = np.zeros(T)
    min_distance = np.zeros(T)
    inner_iterations = np.zeros(T, dtype=int)
    solve_time = np.zeros(T)

    q, c = q0, body_point_position(q0, chain, tool_tip(chain))
    for t in range(T):
        start = time.perf_counter()
        try:
            result, iters = _advance(q, c, path[t], chain, capsules, scene, params, depth=0)
        except NonConvergedError as err:
            raise NonConvergedError(t, err.tcp_error, err.min_distance) from None
        solve_time[t] = time.perf_counter() - start
        q, c = result.q, result.state.tool_position
        states[t] = q
        tcp_error[t] = float(np.linalg.norm(path[t] - c))
        min_distance[t] = result.min_distance
        inner_iterations[t] = iters

    return Trajectory(
        states=states,
        tcp_error=tcp_error,
        min_distance=min_distance,
        inner_iterations=inner_iterations,
        solve_time=solve_time,
    )


def verify_trajectory(traj: Trajectory, params: PlannerParams) -> list[str]:
    """Per-step check of the acceptance invariant; returns violation messages."""
    problems = []
    for t in range(len(traj)):
        if traj.tcp_error[t] > params.xi:
            problems.append(f"step {t}: tcp_error {traj.tcp_error[t]:.3e} > xi {params.xi:.3e}")
        if not traj.min_distance[t] > 0.0:
            problems.append(f"step {t}: min_distance {traj.min_distance[t]:.3e} not positive")
        state = traj.states[t]
        if np.any(state < params.joint_lower - 1e-12) or np.any(state > params.joint_upper + 1e-12):
            problems.append(f"step {t}: joint limits violated")
    return problems
