import numpy as np
import pytest

from icop.cfs import LinearInequality
from icop.equality import LinearEquality
from icop.qp import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    QpProblem,
    solve,
)

from oracles import qp_enumeration_oracle


def _random_feasible_problem(rng, n=None, with_bounds=True):
    n = int(rng.integers(2, 7)) if n is None else n
    L = rng.normal(size=(n, n))
    H = L @ L.T + n * np.eye(n)
    x0 = rng.uniform(-1.0, 1.0, n)
    m = int(rng.integers(2, 6))
    G = rng.normal(size=(m, n))
    h = G @ x0 - rng.uniform(0.1, 1.0, m)
    ineq = tuple(LinearInequality(G[i], h[i]) for i in range(m))
    eq = None
    if rng.random() < 0.5:
        me = int(rng.integers(1, min(3, n)))
        A = rng.normal(size=(me, n))
        eq = LinearEquality(A=A, b=A @ x0)
    if with_bounds and n <= 4 and rng.random() < 0.7:
        lower = x0 - rng.uniform(0.5, 2.0, n)
        upper = x0 + rng.uniform(0.5, 2.0, n)
    else:
        lower = np.full(n, -np.inf)
        upper = np.full(n, np.inf)
    f = -H @ rng.uniform(-2.0, 2.0, n)
    return QpProblem(H=H, f=f, eq=eq, ineq=ineq, lower=lower, upper=upper)


def test_unconstrained_minimum_is_reference():
    r = np.array([1.0, -2.0, 3.0, 0.5, -0.25, 2.0])
    p = QpProblem.from_reference(np.ones(6), r)
    s = solve(p)
    assert s.status == STATUS_OPTIMAL
    assert np.max(np.abs(s.x - r)) < 1e-14


def test_single_active_constraint_projection():
    p = QpProblem.from_reference(np.ones(6), np.zeros(6), ineq=(LinearInequality(np.eye(6)[0], 1.0),))
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
        assert p.objective(s.x) - ref[0] <= 1e-7
        assert s.kkt_residual <= 1e-8


def test_kkt_certificate_on_optimal():
    rng = np.random.default_rng(52)
    for _ in range(100):
        p = _random_feasible_problem(rng)
        s = solve(p)
        assert s.status == STATUS_OPTIMAL
        assert s.kkt_residual <= 1e-8
        if p.eq is not None:
            assert s.eq_residual <= 1e-9
        for row in p.ineq:
            assert row.residual(s.x) >= -1e-9
        assert np.all(s.x >= p.lower - 1e-9) and np.all(s.x <= p.upper + 1e-9)
        assert np.all(s.multipliers >= -1e-8)


def test_monotone_restriction():
    rng = np.random.default_rng(53)
    for _ in range(50):
        p = _random_feasible_problem(rng, with_bounds=False)
        s0 = solve(p)
        extra = LinearInequality(rng.normal(size=p.dim), float(rng.normal()))
        p2 = QpProblem(H=p.H, f=p.f, eq=p.eq, ineq=p.ineq + (extra,), lower=p.lower, upper=p.upper)
        s2 = solve(p2)
        if s2.status != STATUS_OPTIMAL:
            continue  # the extra row may make it infeasible
        assert p.objective(s2.x) >= p.objective(s0.x) - 1e-9


def test_scaling_invariance():
    rng = np.random.default_rng(54)
    for _ in range(30):
        n = 6
        w = rng.uniform(0.5, 3.0, n)
        x_ref = rng.uniform(-1, 1, n)
        m = 4
        G = rng.normal(size=(m, n))
        x0 = rng.uniform(-1, 1, n)
        ineq = tuple(LinearInequality(G[i], float(G[i] @ x0 - 0.2)) for i in range(m))
        p1 = QpProblem.from_reference(w, x_ref, ineq=ineq)
        p2 = QpProblem.from_reference(7.5 * w, x_ref, ineq=ineq)
        s1, s2 = solve(p1), solve(p2)
        assert s1.status == STATUS_OPTIMAL and s2.status == STATUS_OPTIMAL
        assert np.max(np.abs(s1.x - s2.x)) < 1e-9


def test_infeasible_equality_vs_box():
    A = np.zeros((1, 6))
    A[0, 0] = 1.0
    eq = LinearEquality(A=A, b=np.array([5.0]))
    p = QpProblem.from_reference(np.ones(6), np.zeros(6), eq=eq, lower=-np.ones(6), upper=np.ones(6))
    s = solve(p)
    assert s.status == STATUS_INFEASIBLE


def test_rank_deficient_equalities_are_projected():
    A = np.vstack([np.eye(6)[0], np.eye(6)[0]])  # duplicated row
    eq = LinearEquality(A=A, b=np.array([0.5, 0.7]))  # rank 1, inconsistent rhs
    p = QpProblem.from_reference(np.ones(6), np.zeros(6), eq=eq)
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
        QpProblem(H=np.eye(6) * -1.0, f=np.zeros(6), eq=None, ineq=(), lower=np.zeros(6), upper=np.ones(6))
    H = np.eye(6)
    H[0, 1] = 1e-6  # asymmetric
    with pytest.raises(ValueError):
        QpProblem(H=H, f=np.zeros(6), eq=None, ineq=(), lower=np.zeros(6), upper=np.ones(6))
    with pytest.raises(ValueError):
        QpProblem(H=np.eye(6), f=np.zeros(6), eq=None, ineq=(), lower=np.ones(6), upper=np.zeros(6))
