import numpy as np
import pytest

from icop import planner
from icop.planner import plan
from icop.qp import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    QpProblem,
    solve,
)
from icop.scenario import load_bundled, mounted_scene_and_path

from oracles import qp_enumeration_oracle, qp_objective

UNBOUNDED = (np.full(6, -np.inf), np.full(6, np.inf))


def _random_feasible_problem(rng, n=None, with_bounds=True):
    n = int(rng.integers(2, 7)) if n is None else n
    weights = rng.uniform(0.1, 10.0, n)
    x0 = rng.uniform(-1.0, 1.0, n)
    m = int(rng.integers(2, 6))
    G = rng.normal(size=(m, n))
    h = G @ x0 - rng.uniform(0.1, 1.0, m)
    A, b = (), ()
    if rng.random() < 0.5:
        me = int(rng.integers(1, min(3, n)))
        A = rng.normal(size=(me, n))
        b = A @ x0
    if with_bounds and n <= 4 and rng.random() < 0.7:
        lower = x0 - rng.uniform(0.5, 2.0, n)
        upper = x0 + rng.uniform(0.5, 2.0, n)
    else:
        lower = np.full(n, -np.inf)
        upper = np.full(n, np.inf)
    x_ref = rng.uniform(-2.0, 2.0, n)
    return QpProblem(weights, x_ref, lower, upper, A=A, b=b, G=G, h=h)


def test_unconstrained_minimum_is_reference():
    r = np.array([1.0, -2.0, 3.0, 0.5, -0.25, 2.0])
    p = QpProblem(np.ones(6), r, *UNBOUNDED)
    s = solve(p)
    assert s.status == STATUS_OPTIMAL
    assert np.max(np.abs(s.x - r)) < 1e-14


def test_single_active_constraint_projection():
    p = QpProblem(np.ones(6), np.zeros(6), *UNBOUNDED, G=np.eye(6)[:1], h=[1.0])
    s = solve(p)
    assert s.status == STATUS_OPTIMAL
    assert np.allclose(s.x, [1, 0, 0, 0, 0, 0], atol=1e-14)


def test_matches_enumeration_oracle():
    rng = np.random.default_rng(51)
    for _ in range(150):
        p = _random_feasible_problem(rng)
        s = solve(p)
        assert s.status == STATUS_OPTIMAL, f"unexpected status {s.status}"
        ref = qp_enumeration_oracle(p)
        assert ref is not None
        assert qp_objective(p, s.x) - ref[0] <= 1e-7
        assert s.kkt_residual <= 1e-8


def test_kkt_certificate_on_optimal():
    rng = np.random.default_rng(52)
    for _ in range(100):
        p = _random_feasible_problem(rng)
        s = solve(p)
        assert s.status == STATUS_OPTIMAL
        assert s.kkt_residual <= 1e-8
        assert s.eq_residual <= 1e-9
        assert np.all(p.G @ s.x - p.h >= -1e-9)
        assert np.all(s.x >= p.lower - 1e-9) and np.all(s.x <= p.upper + 1e-9)
        assert np.all(s.multipliers >= -1e-8)


def test_monotone_restriction():
    rng = np.random.default_rng(53)
    for _ in range(50):
        p = _random_feasible_problem(rng, with_bounds=False)
        s0 = solve(p)
        g, c = rng.normal(size=p.x_ref.shape[0]), float(rng.normal())
        p2 = QpProblem(p.weights, p.x_ref, p.lower, p.upper, A=p.A, b=p.b,
                       G=np.vstack([p.G, g]), h=np.append(p.h, c))
        s2 = solve(p2)
        if s2.status != STATUS_OPTIMAL:
            continue  # the extra row may make it infeasible
        assert qp_objective(p, s2.x) >= qp_objective(p, s0.x) - 1e-9


def test_scaling_invariance():
    rng = np.random.default_rng(54)
    for _ in range(30):
        n = 6
        w = rng.uniform(0.5, 3.0, n)
        x_ref = rng.uniform(-1, 1, n)
        m = 4
        G = rng.normal(size=(m, n))
        x0 = rng.uniform(-1, 1, n)
        h = G @ x0 - 0.2
        p1 = QpProblem(w, x_ref, *UNBOUNDED, G=G, h=h)
        p2 = QpProblem(7.5 * w, x_ref, *UNBOUNDED, G=G, h=h)
        s1, s2 = solve(p1), solve(p2)
        assert s1.status == STATUS_OPTIMAL and s2.status == STATUS_OPTIMAL
        assert np.max(np.abs(s1.x - s2.x)) < 1e-9


def test_infeasible_equality_vs_box():
    A = np.zeros((1, 6))
    A[0, 0] = 1.0
    p = QpProblem(np.ones(6), np.zeros(6), -np.ones(6), np.ones(6), A=A, b=[5.0])
    s = solve(p)
    assert s.status == STATUS_INFEASIBLE


def test_rank_deficient_equalities_are_projected():
    A = np.vstack([np.eye(6)[0], np.eye(6)[0]])  # duplicated row
    p = QpProblem(np.ones(6), np.zeros(6), *UNBOUNDED, A=A, b=[0.5, 0.7])  # rank 1, inconsistent rhs
    s = solve(p)
    assert s.eq_projected
    assert s.status == STATUS_OPTIMAL
    # least-squares consistent projection: x0 lands on the average target
    assert s.x[0] == pytest.approx(0.6, abs=1e-12)
    assert s.eq_residual == pytest.approx(0.1, abs=1e-12)


def test_determinism():
    rng = np.random.default_rng(55)
    p = _random_feasible_problem(rng)
    s1 = solve(p)
    s2 = solve(p)
    assert s1.x.tobytes() == s2.x.tobytes()
    assert s1.active_set == s2.active_set


def test_problem_validation():
    with pytest.raises(ValueError):
        QpProblem(-np.ones(6), np.zeros(6), np.zeros(6), np.ones(6))
    with pytest.raises(ValueError):
        QpProblem(np.ones(5), np.zeros(6), np.zeros(6), np.ones(6))  # weights of another dimension
    with pytest.raises(ValueError):
        QpProblem(np.ones(6), np.zeros(6), np.ones(6), np.zeros(6))
    with pytest.raises(ValueError):
        QpProblem(np.ones(6), [0.0, 0.0, np.nan, 0.0, 0.0, 0.0], np.zeros(6), np.ones(6))
    nan_bound = [0.0, 0.0, np.nan, 0.0, 0.0, 0.0]
    for bounds in ((nan_bound, np.ones(6)), (-np.ones(6), nan_bound), (np.full(6, np.inf), np.ones(6))):
        with pytest.raises(ValueError):
            QpProblem(np.ones(6), np.zeros(6), *bounds)
    with pytest.raises(ValueError):
        QpProblem([1.0, 1.0, np.inf, 1.0, 1.0, 1.0], np.zeros(6), -np.ones(6), np.ones(6))
    QpProblem(np.ones(6), np.zeros(6), np.full(6, -np.inf), np.full(6, np.inf))  # an infinite bound disables a side
    nan_row = np.eye(6)[:1].copy()
    nan_row[0, 2] = np.nan
    rejected_rows = (
        {"G": nan_row, "h": [0.0]},
        {"G": np.eye(6)[:1], "h": [np.inf]},
        {"A": np.eye(6)[:2], "b": [0.0, 0.0, 0.0]},
        {"G": np.ones((1, 5)), "h": [0.0]},
    )
    for rows in rejected_rows:
        with pytest.raises(ValueError):
            QpProblem(np.ones(6), np.zeros(6), -np.ones(6), np.ones(6), **rows)


def test_hessian_must_be_finite_and_positive_definite():
    """The Hessian is diag(2 w): finite and positive definite exactly when every weight is finite and > 0."""

    def problem(w):
        return QpProblem(w, np.zeros(6), -np.ones(6), np.ones(6))

    rng = np.random.default_rng(58)
    for _ in range(20):
        w = rng.uniform(1e-3, 10.0, 6)
        problem(w)
        for bad in (0.0, -float(rng.uniform(1e-3, 10.0)), np.nan, np.inf, -np.inf):
            w_bad = w.copy()
            w_bad[rng.integers(6)] = bad
            with pytest.raises(ValueError):
                problem(w_bad)


def test_no_cycling_on_diagonal_weight_problems():
    """Every seeded problem terminates at a verified optimum.

    Jumping straight to each working set's equality-QP solution and dropping
    negative multipliers afterwards can revisit working sets; 2 of these
    5000 problems ran into the iteration limit that way.
    """
    rng = np.random.default_rng(7)
    for _ in range(5000):
        s = solve(_random_feasible_problem(rng))
        assert s.status == STATUS_OPTIMAL
        assert s.kkt_residual <= 1e-8


def test_cycling_reproducer_matches_oracle():
    """A problem the jump-and-drop loop cycled on; it now reaches the enumerated optimum."""
    p = QpProblem(
        weights=[0.6714160865514534, 1.4802481757290906],
        x_ref=[-0.17499444555045152, -1.947215636978957],
        lower=[-1.049959036768366, 0.3325748096099974],
        upper=[1.410173119390202, 2.6781138427227082],
        G=[[0.9469925882176367, 0.21956617888458488],
           [0.3333909489032885, 0.6418219935354756],
           [-0.30837617659720395, -1.5298288931534236]],
        h=[0.801571767262735, 0.659978982206232, -1.7480720698113408],
    )
    s = solve(p)
    assert s.status == STATUS_OPTIMAL
    assert s.kkt_residual <= 1e-8
    ref = qp_enumeration_oracle(p)
    assert np.max(np.abs(s.x - ref[1])) <= 1e-9


def test_planner_problems_match_oracle(monkeypatch):
    """Every QP a c4 plan poses: six joints, the contact rows, one collision row and both joint limits."""
    posed = []

    def recording_solve(problem):
        posed.append((problem, solve(problem)))
        return posed[-1][1]

    monkeypatch.setattr(planner, "solve", recording_solve)
    s = load_bundled("c4")
    scene, path = mounted_scene_and_path(s)
    plan(path, s.initial_config, s.chain, s.capsules, scene, s.params)
    assert posed
    for p, sol in posed:
        assert p.A.shape == (3, 6) and p.G.shape == (1, 6)
        assert np.isfinite(p.lower).all() and np.isfinite(p.upper).all()
        assert sol.status == STATUS_OPTIMAL
        assert sol.iterations == 1 + len(sol.active_set)  # one pass per row added, none dropped
        ref = qp_enumeration_oracle(p)
        assert np.max(np.abs(sol.x - ref[1])) <= 1e-9
