"""Incremental waypoint planner: outer loop over the Cartesian path, inner
tracking loop per waypoint.

Each waypoint is reached by the SafeTrack loop: until the tool-point residual
is within the equality threshold and the clearance is positive, build the
collision half-space at the current reference, linearize the contact
equality there, solve the QP that stays closest (in the weighted norm) to the
current reference, and move the reference to its solution. SafeTrack returns
the iterate it stopped on, converged or not; ``plan`` keeps only a converged
one and reads a failed one only for the numbers of ``NonConvergedError``.
The QP objective is anchored at the current reference rather than the
previous waypoint; anchoring at the previous waypoint can pin the iterate
against the constraint set and stall the loop. The weights and the joint box
are the same for every QP, so ``PlannerParams`` checks them once into its
``QpProblem``; an iterate hands ``qp.solve`` only its reference and its rows.
The rows, the residual and the stall test read the state's Python floats.

Each configuration is evaluated once per plan (``geometry.world_state``):
``plan`` evaluates the initial configuration, SafeTrack evaluates each QP
iterate it accepts, and the accepted state is the start of the next
SafeTrack call; SafeTrack reads the chain, capsules and scene from that
start. The residual, the feasibility test, the collision and contact rows,
and the clearance that ``plan`` records all read that one evaluation.
SafeTrack hands ``world_state`` the state each iterate came from, so only
the capsules that can bind are scored exactly; the others keep a lower bound
from that state in their ``clearances`` entry. The planner reads no clearance
but the witness's, which keeps the bits of a full evaluation. ``plan`` hands
``world_state`` the state the last plan that returned ended on, and
``world_state``'s one reuse rule decides whether that state is the start; so
a plan streamed one waypoint per call evaluates each accepted state once in
all.

A waypoint farther than ``step_max`` from the accepted tool position is split
once into ``ceil(gap / step_max)`` evenly spaced pieces, measured from that
position; a piece is never split again. The pieces seed one stack of
targets, the first piece on top. A target whose SafeTrack call fails is
bisected: the midpoint between the current tool position and the target is
tracked first, then the target, each one level deeper, down to
``_BISECT_DEPTH`` levels, after which the planner raises
``NonConvergedError``. So a waypoint costs at most
``pieces * (2 ** (_BISECT_DEPTH + 1) - 1)`` SafeTrack calls, and any finite
positive ``xi`` and ``step_max`` give a plan that terminates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import sub

import numpy as np

from .cfs import collision_rows
from .equality import task_rows
from .geometry import Scene, WorldState, world_state
from .kinematics import NUM_JOINTS, RobotChain
from .qp import STATUS_OPTIMAL, QpProblem, solve

# How many times a step whose inner loop fails to converge is halved before the planner gives up.
_BISECT_DEPTH = 3

# The state the last plan that returned ended on, which the next plan hands ``world_state`` as its
# previous state. It is read and replaced whole, so a plan in another thread sees one state or the other.
_resume: WorldState | None = None


@dataclass(frozen=True, eq=False)
class PlannerParams:
    """Weights, thresholds and limits; ``q_diag`` and the joint limits are the frozen arrays of ``qp``."""

    q_diag: np.ndarray
    joint_lower: np.ndarray
    joint_upper: np.ndarray
    xi: float = 1e-4
    max_inner: int = 50
    step_max: float = 0.05
    qp: QpProblem = field(init=False, repr=False)

    def __post_init__(self) -> None:
        qp = QpProblem(self.q_diag, self.joint_lower, self.joint_upper)
        if qp.weights.shape != (NUM_JOINTS,):
            raise ValueError("q_diag and the joint limits must be 6-vectors")
        # A bool is an int to Python, so each check names it.
        if isinstance(self.xi, bool) or not 0 < self.xi < math.inf:  # a NaN fails too
            raise ValueError("xi must be a positive finite number")
        if isinstance(self.max_inner, bool) or not isinstance(self.max_inner, (int, np.integer)) or self.max_inner < 1:
            raise ValueError("max_inner must be an integer >= 1")
        if isinstance(self.step_max, bool) or not 0 < self.step_max < math.inf:
            raise ValueError("step_max must be a positive finite number")
        for name, value in (("qp", qp), ("q_diag", qp.weights), ("joint_lower", qp.lower), ("joint_upper", qp.upper)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SafeTrackResult:
    """The iterate SafeTrack stopped on, with the evaluation it was judged on."""

    state: WorldState
    converged: bool
    inner_iterations: int
    tcp_error: float


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Planned joint states with per-step diagnostics."""

    states: np.ndarray  # (T, 6)
    tcp_error: np.ndarray  # (T,)
    min_distance: np.ndarray  # (T,)
    inner_iterations: np.ndarray  # (T,) int

    def __post_init__(self) -> None:
        T = self.states.shape[0]
        for name in ("tcp_error", "min_distance", "inner_iterations"):
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


def safetrack(start: WorldState, c_next, params: PlannerParams) -> SafeTrackResult:
    """Track one Cartesian target from start; returns the iterate it stopped on.

    start is the state the previous step accepted, and it is not evaluated
    again. The loop stops when the iterate converges (the tool-point
    residual is at or below xi and the scene distance is positive), when a
    QP is not optimal or returns its own reference, or after max_inner QP
    solves. Zero QP solves happen when start already converges; each QP
    iterate accepted is evaluated once, with start's chain, capsules and scene
    and from the state before it.
    """
    target, state, iterations = np.asarray(c_next, dtype=float).tolist(), start, 0
    while True:
        residual = math.dist(target, state.tool_position)
        converged = residual <= params.xi and state.witness.value > 0.0
        if converged or iterations >= params.max_inner:
            break
        G, h = collision_rows(state)
        A, b = task_rows(state.tool_jacobian(), state.q_floats, state.tool_position, target)
        sol = solve(params.qp, state.q, A=A, b=b, G=G, h=h)
        iterations += 1
        if sol.status != STATUS_OPTIMAL or max(map(abs, map(sub, sol.x.tolist(), state.q_floats))) < 1e-15:
            break  # no solution, or stalled: the QP returned the reference itself
        state = world_state(sol.x, start.chain, start.capsules, start.scene, state)
    return SafeTrackResult(state, converged, iterations, residual)


def plan(weld_path, q_init, chain: RobotChain, capsules, scene: Scene, params: PlannerParams) -> Trajectory:
    """Plan the full trajectory over the Cartesian waypoint sequence.

    States chain from waypoint to waypoint; every emitted state satisfies the
    tracking threshold, a positive scene distance and the joint limits. The
    initial configuration is evaluated once here, unless ``world_state``
    hands back the state the last plan that returned ended on. Each waypoint
    starts from the state the previous one accepted. The recorded TCP error
    and clearance are read from the evaluation of the state that SafeTrack
    accepted.
    """
    global _resume
    path = np.asarray(weld_path, dtype=float)
    if path.ndim != 2 or path.shape[1] != 3 or path.shape[0] == 0:
        raise ValueError("weld_path must be a non-empty (T, 3) array")
    if not np.isfinite(path).all():
        raise ValueError("weld_path must be finite")
    state = world_state(q_init, chain, capsules, scene, _resume)
    if np.any(state.q < params.joint_lower - 1e-12) or np.any(state.q > params.joint_upper + 1e-12):
        raise ValueError("q_init violates the joint limits")

    T = path.shape[0]
    states = np.zeros((T, NUM_JOINTS))
    tcp_error = np.zeros(T)
    min_distance = np.zeros(T)
    inner_iterations = np.zeros(T, dtype=int)

    for t in range(T):
        c_from = np.array(state.tool_position)
        gap = math.dist(path[t].tolist(), state.tool_position)
        stack = [(path[t], 0)]
        if gap > params.step_max:
            pieces, step = math.ceil(gap / params.step_max), path[t] - c_from
            stack = [(c_from + (i / pieces) * step, 0) for i in range(pieces, 0, -1)]
        iters = 0
        while stack:
            target, depth = stack.pop()
            result = safetrack(state, target, params)
            iters += result.inner_iterations
            if result.converged:
                state = result.state
            elif depth < _BISECT_DEPTH:
                stack += [(target, depth + 1), (0.5 * (target + state.tool_position), depth + 1)]
            else:
                raise NonConvergedError(t, result.tcp_error, result.state.witness.value)
        states[t] = state.q
        tcp_error[t] = math.dist(path[t].tolist(), state.tool_position)
        min_distance[t] = state.witness.value
        inner_iterations[t] = iters

    _resume = state
    return Trajectory(
        states=states,
        tcp_error=tcp_error,
        min_distance=min_distance,
        inner_iterations=inner_iterations,
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
