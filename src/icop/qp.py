"""Active-set solver for the per-step quadratic program.

Each problem asks for the point closest to a reference in a diagonal
weighted norm:

    minimize  sum_i w_i (x_i - x_ref_i)^2   s.t.   A x = b,  G x >= h,  lower <= x <= upper

with every weight w_i > 0. The weights and the bounds stay fixed across a
caller's QPs, so a ``QpProblem`` holds only them: it checks and freezes them
once. Each ``solve`` call passes x_ref and the rows, and checks only those.
The rows are sequences of floats or arrays, and this module owns their
format: the collision and contact layers hand over ``(G, h)`` and ``(A, b)``
on floats and nothing here imports from the layers above.

In the scaled variable y = sqrt(w) (x - x_ref) the objective is ||y||^2, so
the problem is a least-distance problem. The equality rows are eliminated
through an SVD of A / sqrt(w) (rank-deficient rows are projected onto their
consistent part and flagged), leaving min ||z||^2 s.t. M z >= v over the
null-space coordinates z. Its unconstrained minimum z = 0 is the weighted
projection x0 of x_ref onto the equality rows; when that point meets every
inequality and bound it is returned as it is.

Three equality rows, the contact rows every planner QP has, are checked and
projected first on Python floats, with no SVD: x0 = x_ref + W^-1 A^T y, where y solves
K y = b - A x_ref with K = A W^-1 A^T, through an unrolled LDL^T. That
needs every pivot d_k above ``_PIVOT_RTOL`` K_kk, so the rows are far from
dependent and the Gram solve stays at rounding error, and the shortest row
long enough that the SVD's rank test would find the rows independent. When
that x0 also meets every inequality and bound it is returned at once, and
only x is an array; most planner QPs end there. Otherwise the SVD runs: after the float projection it
supplies only the null space and x0 is kept, and rows that failed the pivot
test, or come in other numbers, take the SVD's x0 and its rank test.

When x0 leaves a row or bound violated, the dual active-set
method of Goldfarb and Idnani (Math. Programming 27, 1983) starts from z = 0
and repeatedly adds the most violated row, ties breaking on the lowest
constraint index so results are deterministic. Where the step towards that
row would make an active multiplier negative, it stops at the multiplier's
zero, drops that row and continues, so it never returns to a working set.
The row is split against the active rows through a QR factorization of
them, so nearly opposite rows are found dependent and end in INFEASIBLE
rather than in a singular system. A full KKT check runs before OPTIMAL is
ever reported; stationarity and complementarity are held to it relative to
the multipliers times the rows, so an ill-conditioned but solved problem,
whose large multipliers leave rounding above an absolute tolerance, is not
reported MAX_ITER. ``kkt_residual`` is the unscaled residual.

An OPTIMAL point may lie up to the feasibility tolerance outside a row or
bound, so its ``x`` is clipped onto the box before it is returned: the
caller's bounds then hold exactly, as a joint-limit check with a tighter
tolerance than the solver's expects. A point that is not OPTIMAL is returned
as the solver left it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul, sub

import numpy as np

STATUS_OPTIMAL = "OPTIMAL"
STATUS_INFEASIBLE = "INFEASIBLE"
STATUS_MAX_ITER = "MAX_ITER"

_SVD_RANK_RTOL = 1e-12
# ``_project_three`` takes rows only when every LDL^T pivot d_k of K = A W^-1 A^T exceeds this
# share of K_kk; d_k / K_kk is the squared sine of the angle between scaled row k and the rows
# before it. Scaled to a unit diagonal, K then has det > _PIVOT_RTOL^2 and trace 3, so its
# condition number is below 27 / _PIVOT_RTOL^2 = 2.7e3, and the Gram solve, whose error grows
# with it, keeps to rounding error: on the seeded rows of test_qp.py's fast-exit test its x0 meets
# the SVD's to 1e-14 relative. At 1e-6 seeded rows near the threshold erred by up to 1e-3. The
# rows of the bundled plans clear it by far: their smallest ratio is 0.56.
_PIVOT_RTOL = 0.1
# With those pivots, s_min^2 >= _PIVOT_RTOL^2 / 9 * min_k K_kk and s_max^2 <= trace K, so rows whose
# shortest K_kk is above this share of the trace have s_min > 2 _SVD_RANK_RTOL s_max: the SVD's
# rank test would find them independent, and the fast exit never takes rows the SVD would project.
_SHORTEST_ROW = (6.0 * _SVD_RANK_RTOL / _PIVOT_RTOL) ** 2
_TOL_FEAS = 1e-9
_TOL_KKT = 1e-8
_MAX_ITER = 200


@dataclass(frozen=True, eq=False)
class QpProblem:
    """The weights and the bounds (+-inf disables a side) shared by a family of QPs.

    Checked once and frozen, with what ``solve`` derives from them alone:
    ``scale`` = 1 / sqrt(w) and ``box``, the bound rows in the scaled variable,
    and for the three-row fast exit 1 / w and the bounds as tuples of floats.
    """

    weights: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    scale: np.ndarray = field(init=False, repr=False)
    box: np.ndarray = field(init=False, repr=False)
    inverse_weights: tuple[float, ...] = field(init=False, repr=False)
    lower_floats: tuple[float, ...] = field(init=False, repr=False)
    upper_floats: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=float).reshape(-1)
        n = weights.shape[0]
        lower = np.array(self.lower, dtype=float).reshape(-1)
        upper = np.array(self.upper, dtype=float).reshape(-1)
        if lower.shape != (n,) or upper.shape != (n,):
            raise ValueError(f"bounds must be ({n},) like the weights, got {lower.shape} and {upper.shape}")
        if not (lower <= upper).all():  # a NaN bound fails too
            raise ValueError("lower bound exceeds upper bound")
        # A diagonal Hessian diag(2 w) is positive definite exactly when every weight is > 0.
        if not (np.isfinite(weights) & (weights > 0.0)).all():
            raise ValueError("weights must be finite and positive")
        scale = weights**-0.5
        bounds = np.diag(scale)
        frozen = {"weights": weights, "lower": lower, "upper": upper, "scale": scale,
                  "box": np.concatenate((bounds, -bounds))}
        for name, arr in frozen.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for name, arr in (("inverse_weights", 1.0 / weights), ("lower_floats", lower), ("upper_floats", upper)):
            object.__setattr__(self, name, tuple(arr.tolist()))


@dataclass(frozen=True, eq=False)
class QpSolution:
    x: np.ndarray
    status: str
    kkt_residual: float
    eq_residual: float
    iterations: int = 0
    eq_projected: bool = False
    multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))
    active_set: tuple[int, ...] = ()


def _three_rows(n: int, x_ref, A, b, G, h):
    """x_ref, A, b, G and h, arrays as lists, when x_ref has n entries, A three rows of n, b three, each row of G n
    and h one per row, and every entry is a finite number (a finite sum has only finite terms); else None."""
    try:
        x_ref, A, b, G, h = [v.tolist() if isinstance(v, np.ndarray) else v for v in (x_ref, A, b, G, h)]
        if len(x_ref) == n and len(A) == len(b) == 3 and len(G) == len(h) and all(len(r) == n for r in (*A, *G)):
            if math.isfinite(sum(x_ref) + sum(b) + sum(h) + sum(map(sum, A)) + sum(map(sum, G))):
                return x_ref, A, b, G, h
    except (TypeError, OverflowError):  # an entry that is no number, or a row that is no sequence
        pass
    return None


def _rows(M, v, n: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The constraint rows M (k, n) and right-hand sides v (k,) as float arrays, shape-checked."""
    M = np.asarray(M, dtype=float)
    v = np.asarray(v, dtype=float).reshape(-1)
    if M.shape == (0,):
        M = M.reshape(0, n)
    if M.ndim != 2 or M.shape[1] != n:
        raise ValueError(f"{kind} rows must be (k, {n}), got {M.shape}")
    if M.shape[0] != v.shape[0]:
        raise ValueError(f"{kind} rows {M.shape} and right-hand side {v.shape} disagree")
    return M, v


def _project_three(inverse_weights, x_ref, A, b):
    """The weighted projection x_ref + W^-1 A^T y of x_ref onto three rows A x = b, on floats.

    y solves K y = b - A x_ref with K = A W^-1 A^T, through an unrolled
    LDL^T. Returns None, so the caller takes the SVD, when a pivot d_k is
    not above ``_PIVOT_RTOL`` K_kk or the shortest row not above
    ``_SHORTEST_ROW`` of the trace: the rows are then near-dependent, or
    could be rank-deficient in the SVD's test.
    """
    a0, a1, a2 = A
    w0, w1, w2 = (list(map(mul, a, inverse_weights)) for a in A)
    k00, k01, k02 = sum(map(mul, w0, a0)), sum(map(mul, w0, a1)), sum(map(mul, w0, a2))
    k11, k12, k22 = sum(map(mul, w1, a1)), sum(map(mul, w1, a2)), sum(map(mul, w2, a2))
    if not min(k00, k11, k22) > _SHORTEST_ROW * (k00 + k11 + k22):
        return None
    l10, l20 = k01 / k00, k02 / k00
    d1 = k11 - l10 * k01
    if not d1 > _PIVOT_RTOL * k11:
        return None
    e21 = k12 - l20 * k01
    l21 = e21 / d1
    d2 = k22 - l20 * k02 - l21 * e21
    if not d2 > _PIVOT_RTOL * k22:
        return None
    r0, r1, r2 = (bi - sum(map(mul, a, x_ref)) for a, bi in zip(A, b))
    r1 -= l10 * r0
    r2 -= l20 * r0 + l21 * r1
    y2 = r2 / d2
    y1 = r1 / d1 - l21 * y2
    y0 = r0 / k00 - l10 * y1 - l20 * y2
    return [x + u * y0 + v * y1 + t * y2 for x, u, v, t in zip(x_ref, w0, w1, w2)]


def _eliminate_equalities(x_ref: np.ndarray, A: np.ndarray, b: np.ndarray, scale: np.ndarray, x0=None):
    """Parameterize x = x0 + scale * (null.T @ z) on the (projected) equality manifold.

    ``scale`` is 1 / sqrt(w). x0 is the weighted projection of x_ref onto the
    manifold, and the rows of ``null`` are an orthonormal basis of the null
    space in the scaled variable, so the objective is its value at x0 plus
    ||z||^2. A given ``x0`` is ``_project_three``'s, whose rows the SVD's
    rank test finds independent, and only ``null`` is read from the SVD.
    """
    if A.shape[0] == 0:
        return x_ref.copy(), np.eye(scale.shape[0]), False
    U, s, Vt = np.linalg.svd(A * scale, full_matrices=True)
    if x0 is not None:
        return x0, Vt[A.shape[0]:], False
    rank = np.count_nonzero(s > (s[0] * _SVD_RANK_RTOL if s[0] > 0 else np.inf))
    y_p = ((b - A @ x_ref) @ U[:, :rank] / s[:rank]) @ Vt[:rank]
    return x_ref + scale * y_p, Vt[rank:], rank < A.shape[0]


def _least_distance(M: np.ndarray, v: np.ndarray, Y: np.ndarray):
    """Minimize 0.5 ||z||^2 s.t. M z >= v from z = 0 (Goldfarb-Idnani).

    ``Y`` holds the same rows in the scaled variable, before the equality
    elimination; a row whose part left free by the active rows is shorter
    than ``_SVD_RANK_RTOL`` times its row of ``Y`` counts as dependent on
    them. Returns (z, working rows, their multipliers, iterations, status).
    """
    z = np.zeros(M.shape[1])
    working: list[int] = []
    mu = np.zeros(0)
    for iters in range(1, _MAX_ITER + 1):
        slack = M @ z - v
        slack[working] = 0.0  # active rows are enforced exactly; ignore their numerical dust
        p = int(slack.argmin())  # ties: lowest index via argmin
        if slack[p] >= -_TOL_FEAS * 0.1:
            return z, working, mu, iters, STATUS_OPTIMAL
        row, mu_p = M[p], 0.0
        while True:
            # Raising row p's multiplier by t moves z by t d, the part of row p
            # the active rows leave free, and lowers their multipliers by t r;
            # the first of them to reach zero blocks the step at ``partial``.
            # r and d come from a QR factorization of the active rows: the
            # normal equations N N^T would square its condition number.
            r, d, partial = np.zeros(0), row, np.inf
            if working:
                Q, R = np.linalg.qr(M[working].T)
                c = Q.T @ row
                r = np.linalg.solve(R, c)
                d = row - Q @ c
                blocking = np.flatnonzero(r > 0.0)
                ratios = np.maximum(mu[blocking], 0.0) / r[blocking]
                partial = float(ratios.min(initial=np.inf))
            dd = float(d @ d)
            full = (v[p] - row @ z) / dd if dd > _SVD_RANK_RTOL**2 * (Y[p] @ Y[p]) else np.inf
            if full == np.inf and partial == np.inf:
                return z, working, mu, iters, STATUS_INFEASIBLE
            t = min(full, partial)
            z = z + t * d
            mu = mu - t * r
            mu_p += t
            if full <= partial:
                working.append(p)
                mu = np.concatenate((mu, [mu_p]))
                break
            drop = int(blocking[ratios.argmin()])
            working.pop(drop)
            mu = np.delete(mu, drop)
    return z, working, mu, _MAX_ITER, STATUS_MAX_ITER


def _scaled_kkt(z, lam, active, v, stationarity, gap) -> float:
    """The KKT residual with stationarity and complementarity relative to the size of their terms.

    Each residual is a difference of terms as large as the multipliers times
    the rows, so on an ill-conditioned problem with large multipliers its
    rounding alone can exceed an absolute tolerance. Stationarity component j
    is divided by the largest of 1, |2 z_j| and the |lam_i a_ij|; row i's
    complementarity by the larger of 1 and |lam_i| (|a_i| . |z| + |v_i|). A
    negative multiplier counts unscaled. Never larger than the unscaled
    residual.
    """
    terms = np.abs(lam[:, None] * active).max(axis=0, initial=0.0)
    scaled = float((np.abs(stationarity) / np.maximum(1.0, np.maximum(np.abs(2.0 * z), terms))).max())
    if lam.size:
        magnitude = np.abs(lam) * (np.abs(active) @ np.abs(z) + np.abs(v))
        scaled = max(scaled, -float(lam.min()), float((np.abs(gap) / np.maximum(1.0, magnitude)).max()))
    return scaled


def solve(problem: QpProblem, x_ref, A=(), b=(), G=(), h=()) -> QpSolution:
    """Minimize sum_i w_i (x_i - x_ref_i)^2 s.t. A x = b, G x >= h and the problem's bounds.

    An empty sequence means no rows of that kind. Only the arguments of this
    call are checked: their shapes against ``problem`` and their finiteness.
    Deterministic for fixed inputs, floats or arrays alike. Three finite rows
    of n in A whose LDL^T pivots clear ``_PIVOT_RTOL`` are projected on floats,
    and when their projection meets every row and bound it is returned with no
    SVD; every other call reaches the SVD (module docstring). An OPTIMAL ``x``
    lies in the box.
    """
    n = len(problem.inverse_weights)
    floats = _three_rows(n, x_ref, A, b, G, h)
    x0 = None if floats is None else _project_three(problem.inverse_weights, *floats[:3])
    if x0 is not None:
        # The fast exit: where x0 meets every row and bound it is the optimum, and no SVD runs.
        # Three variables leave no null space, and then no pass is counted, as below.
        _, rows, rhs, g_rows, g_rhs = floats
        worst = min(min(map(sub, x0, problem.lower_floats)), min(map(sub, problem.upper_floats, x0)),
                    *(sum(map(mul, g, x0)) - hi for g, hi in zip(g_rows, g_rhs)))
        if worst >= -_TOL_FEAS * 0.1:
            if worst < 0.0:  # within the tolerance outside a row or bound: onto the box, as below
                x0 = list(map(min, map(max, x0, problem.lower_floats), problem.upper_floats))
            eq_res = max(abs(sum(map(mul, a, x0)) - bi) for a, bi in zip(rows, rhs))
            return QpSolution(np.array(x0), STATUS_OPTIMAL, 0.0, eq_res, 1 if n > 3 else 0, False, np.zeros(0), ())
        x0 = np.array(x0)
    x_ref = np.asarray(x_ref, dtype=float).reshape(-1)
    if x_ref.shape != (n,):
        raise ValueError(f"x_ref must be ({n},), got {x_ref.shape}")
    A, b = _rows(A, b, n, "equality")
    G, h = _rows(G, h, n, "inequality")
    # One finiteness pass over every coefficient; the per-array pass only names the culprits.
    if not np.isfinite(np.concatenate((x_ref, A.ravel(), b, G.ravel(), h))).all():
        named = {"x_ref": x_ref, "A": A, "b": b, "G": G, "h": h}
        raise ValueError(f"{', '.join(k for k, arr in named.items() if not np.isfinite(arr).all())} must be finite")
    scale = problem.scale
    x0, null, projected = _eliminate_equalities(x_ref, A, b, scale, x0)

    def finish(x, status, kkt, iters, lam, active):
        if status == STATUS_OPTIMAL:
            x = np.clip(x, problem.lower, problem.upper)
        eq_res = float(np.abs(A @ x - b).max(initial=0.0))
        return QpSolution(x, status, kkt, eq_res, iters, projected, lam, tuple(active))

    # Every one-sided row g . x >= h at x0: explicit inequalities first, then
    # the lower and the upper bounds, whose slack is infinite where they are.
    slack = np.concatenate((G @ x0 - h, x0 - problem.lower, problem.upper - x0))
    worst = float(slack.min())
    if null.shape[0] == 0:
        return finish(x0, STATUS_OPTIMAL if worst >= -_TOL_FEAS else STATUS_INFEASIBLE, 0.0, 0, np.zeros(0), ())
    if worst >= -_TOL_FEAS * 0.1:
        return finish(x0, STATUS_OPTIMAL, 0.0, 1, np.zeros(0), ())

    # The same rows in the scaled variable (Y) and over z (M); infinite bounds are left out.
    finite = np.isfinite(slack)
    Y = np.concatenate((G * scale, problem.box))[finite]
    M = Y @ null.T
    v = -slack[finite]
    z, working, mu, iters, status = _least_distance(M, v, Y)
    x = x0 + scale * (z @ null)
    lam = 2.0 * mu  # multipliers of sum_i w_i (x_i - x_ref_i)^2, whose gradient in z is 2 z
    if status != STATUS_OPTIMAL:
        return finish(x, status, np.inf, iters, lam, working)

    # KKT verification in the reduced space before reporting OPTIMAL.
    active = M[working]
    stationarity = 2.0 * z - lam @ active
    kkt = float(np.abs(stationarity).max())
    gap = lam * (active @ z - v[working])
    if lam.size:
        kkt = max(kkt, -float(lam.min()), float(np.abs(gap).max()))
    feas = float((v - M @ z).max())
    if (kkt > _TOL_KKT and _scaled_kkt(z, lam, active, v[working], stationarity, gap) > _TOL_KKT) or feas > _TOL_FEAS:
        status = STATUS_MAX_ITER
    return finish(x, status, kkt, iters, lam, working)
