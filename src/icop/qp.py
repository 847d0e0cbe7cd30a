"""Dense active-set solver for the per-step quadratic program.

Problems are tiny (six variables, a handful of rows), so everything is dense
and refactorized from scratch each iteration: minimize

    0.5 x' H x + f' x   s.t.   A x = b,  a_i . x >= b_i,  lower <= x <= upper

with H symmetric positive definite. Equality rows are eliminated first
through a nullspace parameterization (rank-deficient rows are projected onto
their consistent part and flagged). The reduced problem starts from its
unconstrained minimum and repeatedly adds the most violated inequality as an
active row, dropping rows whose multipliers go negative; ties break on the
lowest constraint index so results are deterministic. A full KKT check runs
before OPTIMAL is ever reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cfs import LinearInequality
from .equality import LinearEquality

STATUS_OPTIMAL = "OPTIMAL"
STATUS_INFEASIBLE = "INFEASIBLE"
STATUS_MAX_ITER = "MAX_ITER"

_SVD_RANK_RTOL = 1e-12
_TOL_FEAS = 1e-9
_TOL_KKT = 1e-8
_MAX_ITER = 200


@dataclass(frozen=True)
class QpProblem:
    """Strictly convex QP data; bounds may be +-inf to disable a side."""

    H: np.ndarray
    f: np.ndarray
    eq: LinearEquality | None
    ineq: tuple[LinearInequality, ...]
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        H = np.array(self.H, dtype=float)
        f = np.array(self.f, dtype=float).reshape(-1)
        n = f.shape[0]
        if H.shape != (n, n):
            raise ValueError(f"H must be ({n}, {n}), got {H.shape}")
        if np.max(np.abs(H - H.T)) > 1e-12:
            raise ValueError("H must be symmetric to 1e-12")
        if np.min(np.linalg.eigvalsh(H)) <= 0.0:
            raise ValueError("H must be positive definite")
        lower = np.array(self.lower, dtype=float).reshape(-1)
        upper = np.array(self.upper, dtype=float).reshape(-1)
        if lower.shape != (n,) or upper.shape != (n,):
            raise ValueError("bounds must match the variable dimension")
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        if self.eq is not None and self.eq.A.shape[1] != n:
            raise ValueError("equality column count must match the variable dimension")
        for row in self.ineq:
            if row.a.shape != (n,):
                raise ValueError("inequality row dimension mismatch")
        for arr in (H, f, lower, upper):
            arr.flags.writeable = False
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "ineq", tuple(self.ineq))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.f.shape[0]

    @classmethod
    def from_reference(
        cls,
        weights: np.ndarray,
        x_ref: np.ndarray,
        eq: LinearEquality | None = None,
        ineq: tuple[LinearInequality, ...] = (),
        lower: np.ndarray | None = None,
        upper: np.ndarray | None = None,
    ) -> "QpProblem":
        """Problem minimizing the weighted squared distance to a reference point."""
        x_ref = np.asarray(x_ref, dtype=float).reshape(-1)
        w = np.asarray(weights, dtype=float)
        H = np.diag(2.0 * w) if w.ndim == 1 else 2.0 * w
        n = x_ref.shape[0]
        if lower is None:
            lower = np.full(n, -np.inf)
        if upper is None:
            upper = np.full(n, np.inf)
        return cls(H=H, f=-H @ x_ref, eq=eq, ineq=tuple(ineq), lower=lower, upper=upper)

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.H @ x + self.f @ x)


@dataclass(frozen=True)
class QpSolution:
    x: np.ndarray
    status: str
    kkt_residual: float
    eq_residual: float
    iterations: int = 0
    eq_projected: bool = False
    multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))
    active_set: tuple[int, ...] = ()


def _inequality_rows(problem: QpProblem) -> tuple[np.ndarray, np.ndarray]:
    """All one-sided rows g . x >= h: explicit inequalities first, then finite bounds."""
    n = problem.dim
    rows = [r.a for r in problem.ineq]
    rhs = [r.b for r in problem.ineq]
    eye = np.eye(n)
    for i in range(n):
        if np.isfinite(problem.lower[i]):
            rows.append(eye[i])
            rhs.append(problem.lower[i])
    for i in range(n):
        if np.isfinite(problem.upper[i]):
            rows.append(-eye[i])
            rhs.append(-problem.upper[i])
    if rows:
        return np.array(rows), np.array(rhs)
    return np.zeros((0, n)), np.zeros(0)


def _eliminate_equalities(problem: QpProblem):
    """Parameterize x = x_p + Z y on the (projected) equality manifold."""
    n = problem.dim
    if problem.eq is None or problem.eq.A.shape[0] == 0:
        return np.zeros(n), np.eye(n), False
    A, b = problem.eq.A, problem.eq.b
    U, s, Vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(s > (s[0] * _SVD_RANK_RTOL if s.size and s[0] > 0 else np.inf)))
    projected = rank < A.shape[0]
    if rank == 0:
        return np.zeros(n), np.eye(n), projected
    x_p = Vt[:rank].T @ ((U[:, :rank].T @ b) / s[:rank])
    Z = Vt[rank:].T
    return x_p, Z, projected


def _eqp(B: np.ndarray, g: np.ndarray, M: np.ndarray, v: np.ndarray):
    """Equality-constrained step: min 0.5 y'By + g'y s.t. M y = v.

    Returns (y, lam, consistent); lam are multipliers of the active rows.
    """
    nz = g.shape[0]
    m = M.shape[0]
    if m == 0:
        return np.linalg.solve(B, -g), np.zeros(0), True
    K = np.zeros((nz + m, nz + m))
    K[:nz, :nz] = B
    K[:nz, nz:] = -M.T
    K[nz:, :nz] = M
    rhs = np.concatenate([-g, v])
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    y = sol[:nz]
    lam = sol[nz:]
    consistent = float(np.max(np.abs(M @ y - v), initial=0.0)) <= 1e-8
    return y, lam, consistent


def solve(problem: QpProblem) -> QpSolution:
    """Solve the QP; deterministic for fixed inputs."""
    x_p, Z, projected = _eliminate_equalities(problem)
    G, h = _inequality_rows(problem)
    nz = Z.shape[1]

    def finish(x, status, kkt, iters, lam, active):
        eq_res = 0.0
        if problem.eq is not None and problem.eq.A.shape[0] > 0:
            eq_res = float(np.max(np.abs(problem.eq.residual(x))))
        return QpSolution(
            x=x,
            status=status,
            kkt_residual=kkt,
            eq_residual=eq_res,
            iterations=iters,
            eq_projected=projected,
            multipliers=lam,
            active_set=tuple(active),
        )

    if nz == 0:
        x = x_p
        feas = float(np.max(h - G @ x, initial=0.0))
        status = STATUS_OPTIMAL if feas <= _TOL_FEAS else STATUS_INFEASIBLE
        return finish(x, status, 0.0, 0, np.zeros(0), ())

    B = Z.T @ problem.H @ Z
    g = Z.T @ (problem.H @ x_p + problem.f)
    M = G @ Z
    v = h - G @ x_p

    working: list[int] = []
    y, lam, _ = _eqp(B, g, np.zeros((0, nz)), np.zeros(0))
    iters = 0
    status = STATUS_MAX_ITER
    while iters < _MAX_ITER:
        iters += 1
        slack = M @ y - v if M.shape[0] else np.zeros(0)
        if working:  # active rows are enforced exactly; ignore their numerical dust
            slack = slack.copy()
            slack[working] = 0.0
        if slack.size == 0 or float(np.min(slack)) >= -_TOL_FEAS * 0.1:
            status = STATUS_OPTIMAL
            break
        worst = int(np.argmin(slack))  # ties: lowest index via argmin
        working.append(worst)
        y_new, lam_new, consistent = _eqp(B, g, M[working], v[working])
        if not consistent:
            # The new row is dependent on the working set with conflicting
            # rhs; pivot out the first old row whose removal restores a
            # consistent active system. No candidate means a genuine conflict.
            for k in range(len(working) - 1):
                trial = working[:k] + working[k + 1 :]
                y_t, lam_t, ok = _eqp(B, g, M[trial], v[trial])
                if ok:
                    working = trial
                    y_new, lam_new, consistent = y_t, lam_t, True
                    break
            if not consistent:
                working.pop()
                status = STATUS_INFEASIBLE
                break
        # Drop rows whose multipliers went negative, most negative first.
        drops = 0
        while lam_new.size and float(np.min(lam_new)) < -_TOL_KKT and drops < _MAX_ITER:
            drop_pos = int(np.argmin(lam_new))
            working.pop(drop_pos)
            y_new, lam_new, consistent = _eqp(B, g, M[working], v[working])
            if not consistent:
                return finish(x_p + Z @ y_new, STATUS_INFEASIBLE, np.inf, iters, lam_new, working)
            drops += 1
        y, lam = y_new, lam_new

    x = x_p + Z @ y
    if status != STATUS_OPTIMAL:
        return finish(x, status, np.inf, iters, lam, working)

    # KKT verification in the reduced space before reporting OPTIMAL.
    stationarity = B @ y + g
    if working:
        stationarity = stationarity - M[working].T @ lam
    kkt = float(np.max(np.abs(stationarity), initial=0.0))
    if lam.size:
        kkt = max(kkt, float(max(0.0, -np.min(lam))))
        comp = np.abs(lam * (M[working] @ y - v[working]))
        kkt = max(kkt, float(np.max(comp, initial=0.0)))
    feas = float(np.max(v - M @ y, initial=0.0)) if M.shape[0] else 0.0
    if kkt > _TOL_KKT or feas > _TOL_FEAS:
        status = STATUS_MAX_ITER
    return finish(x, status, kkt, iters, lam, working)
