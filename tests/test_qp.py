import warnings

import numpy as np
import pytest

from icop import planner, qp
from icop.planner import plan
from icop.qp import (
    _PIVOT_RTOL,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    QpProblem,
    _dot,
    _eliminate_equalities,
    _project_three,
    solve,
)
from icop.scenario import load_bundled, mounted_scene_and_path

from oracles import qp_enumeration_oracle, qp_objective

UNBOUNDED = (np.full(6, -np.inf), np.full(6, np.inf))


def _random_feasible_problem(rng, n=None, with_bounds=True):
    """A feasible ``QpProblem`` and the keyword arguments of one ``solve`` call on it."""
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
    return QpProblem(weights, lower, upper), {"x_ref": x_ref, "A": A, "b": b, "G": G, "h": h}


def test_unconstrained_minimum_is_reference():
    r = np.array([1.0, -2.0, 3.0, 0.5, -0.25, 2.0])
    s = solve(QpProblem(np.ones(6), *UNBOUNDED), r)
    assert s.status == STATUS_OPTIMAL
    assert np.max(np.abs(s.x - r)) < 1e-14


def test_single_active_constraint_projection():
    s = solve(QpProblem(np.ones(6), *UNBOUNDED), np.zeros(6), G=np.eye(6)[:1], h=[1.0])
    assert s.status == STATUS_OPTIMAL
    assert np.allclose(s.x, [1, 0, 0, 0, 0, 0], atol=1e-14)


def test_matches_enumeration_oracle():
    rng = np.random.default_rng(51)
    for _ in range(150):
        p, call = _random_feasible_problem(rng)
        s = solve(p, **call)
        assert s.status == STATUS_OPTIMAL, f"unexpected status {s.status}"
        ref = qp_enumeration_oracle(p, **call)
        assert ref is not None
        assert qp_objective(p, call["x_ref"], s.x) - ref[0] <= 1e-7
        assert s.kkt_residual <= 1e-8


def test_kkt_certificate_on_optimal():
    rng = np.random.default_rng(52)
    for _ in range(100):
        p, call = _random_feasible_problem(rng)
        s = solve(p, **call)
        assert s.status == STATUS_OPTIMAL
        assert s.kkt_residual <= 1e-8
        assert s.eq_residual <= 1e-9
        assert np.all(call["G"] @ s.x - call["h"] >= -1e-9)
        assert np.all(s.x >= p.lower - 1e-9) and np.all(s.x <= p.upper + 1e-9)
        assert np.all(s.multipliers >= -1e-8)


def test_monotone_restriction():
    rng = np.random.default_rng(53)
    for _ in range(50):
        p, call = _random_feasible_problem(rng, with_bounds=False)
        s0 = solve(p, **call)
        g, c = rng.normal(size=p.weights.shape[0]), float(rng.normal())
        s2 = solve(p, **{**call, "G": np.vstack([call["G"], g]), "h": np.append(call["h"], c)})
        if s2.status != STATUS_OPTIMAL:
            continue  # the extra row may make it infeasible
        x_ref = call["x_ref"]
        assert qp_objective(p, x_ref, s2.x) >= qp_objective(p, x_ref, s0.x) - 1e-9


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
        s1 = solve(QpProblem(w, *UNBOUNDED), x_ref, G=G, h=h)
        s2 = solve(QpProblem(7.5 * w, *UNBOUNDED), x_ref, G=G, h=h)
        assert s1.status == STATUS_OPTIMAL and s2.status == STATUS_OPTIMAL
        assert np.max(np.abs(s1.x - s2.x)) < 1e-9


def test_infeasible_equality_vs_box():
    A = np.zeros((1, 6))
    A[0, 0] = 1.0
    s = solve(QpProblem(np.ones(6), -np.ones(6), np.ones(6)), np.zeros(6), A=A, b=[5.0])
    assert s.status == STATUS_INFEASIBLE


@pytest.mark.parametrize("rows", [0, 3], ids=["general path", "three-row fast exit"])
def test_an_optimum_within_the_tolerance_outside_a_bound_is_returned_on_it(rows):
    # x_ref is 5e-11 above upper[3], inside the feasibility tolerance; rows of e_0..e_2 leave x_3 free
    problem = QpProblem(np.ones(6), -np.ones(6), np.ones(6))
    x_ref = np.array([0.2, -0.1, 0.3, 1.0 + 5e-11, 0.0, 0.5])
    sol = solve(problem, x_ref, A=np.eye(6)[:rows], b=np.zeros(rows))
    assert sol.status == STATUS_OPTIMAL
    assert sol.x[3] == 1.0
    assert sol.x[4:].tolist() == x_ref[4:].tolist()


def test_rank_deficient_equalities_are_projected():
    A = np.vstack([np.eye(6)[0], np.eye(6)[0]])  # duplicated row
    s = solve(QpProblem(np.ones(6), *UNBOUNDED), np.zeros(6), A=A, b=[0.5, 0.7])  # rank 1, inconsistent rhs
    assert s.eq_projected
    assert s.status == STATUS_OPTIMAL
    # least-squares consistent projection: x0 lands on the average target
    assert s.x[0] == pytest.approx(0.6, abs=1e-12)
    assert s.eq_residual == pytest.approx(0.1, abs=1e-12)


def test_determinism():
    rng = np.random.default_rng(55)
    p, call = _random_feasible_problem(rng)
    s1 = solve(p, **call)
    s2 = solve(p, **call)
    assert s1.x.tobytes() == s2.x.tobytes()
    assert s1.active_set == s2.active_set


def test_problem_validation():
    with pytest.raises(ValueError):
        QpProblem(-np.ones(6), np.zeros(6), np.ones(6))
    with pytest.raises(ValueError):
        QpProblem(np.ones(5), np.zeros(6), np.ones(6))  # weights of another dimension
    with pytest.raises(ValueError):
        QpProblem(np.ones(6), np.ones(6), np.zeros(6))
    box = QpProblem(np.ones(6), -np.ones(6), np.ones(6))
    for x_ref in ([0.0, 0.0, np.nan, 0.0, 0.0, 0.0], np.zeros(5)):
        with pytest.raises(ValueError):
            solve(box, x_ref)
    nan_bound = [0.0, 0.0, np.nan, 0.0, 0.0, 0.0]
    for bounds in ((nan_bound, np.ones(6)), (-np.ones(6), nan_bound), (np.full(6, np.inf), np.ones(6))):
        with pytest.raises(ValueError):
            QpProblem(np.ones(6), *bounds)
    with pytest.raises(ValueError):
        QpProblem([1.0, 1.0, np.inf, 1.0, 1.0, 1.0], -np.ones(6), np.ones(6))
    QpProblem(np.ones(6), np.full(6, -np.inf), np.full(6, np.inf))  # an infinite bound disables a side
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
            solve(box, np.zeros(6), **rows)


def test_hessian_must_be_finite_and_positive_definite():
    """The Hessian is diag(2 w): finite and positive definite exactly when every weight is finite and > 0."""

    def problem(w):
        return QpProblem(w, -np.ones(6), np.ones(6))

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
        p, call = _random_feasible_problem(rng)
        s = solve(p, **call)
        assert s.status == STATUS_OPTIMAL
        assert s.kkt_residual <= 1e-8


def test_cycling_reproducer_matches_oracle():
    """A problem the jump-and-drop loop cycled on; it now reaches the enumerated optimum."""
    p = QpProblem(
        weights=[0.6714160865514534, 1.4802481757290906],
        lower=[-1.049959036768366, 0.3325748096099974],
        upper=[1.410173119390202, 2.6781138427227082],
    )
    call = {
        "x_ref": [-0.17499444555045152, -1.947215636978957],
        "G": [[0.9469925882176367, 0.21956617888458488],
              [0.3333909489032885, 0.6418219935354756],
              [-0.30837617659720395, -1.5298288931534236]],
        "h": [0.801571767262735, 0.659978982206232, -1.7480720698113408],
    }
    s = solve(p, **call)
    assert s.status == STATUS_OPTIMAL
    assert s.kkt_residual <= 1e-8
    ref = qp_enumeration_oracle(p, **call)
    assert np.max(np.abs(s.x - ref[1])) <= 1e-9


def test_nearly_opposite_rows_reproducer_is_infeasible():
    """A problem whose last row is the first one negated plus 1e-7 noise, infeasible within the box.

    Projecting each violated row off the active ones through the normal
    equations N N^T squared their condition number: nearly opposite rows
    both entered the working set, it outgrew the dimension, and the solve
    raised ``LinAlgError: Singular matrix``.
    """
    p = QpProblem(
        weights=[0.1312615371357216, 0.1386456454462088, 0.045764819315154213,
                 0.4617494626451793, 0.01790333236899272, 0.012680083726296535],
        lower=np.full(6, -3.0),
        upper=np.full(6, 3.0),
    )
    call = {
        "x_ref": [-0.6693730427858617, 1.965688326153931, 0.9082247662346918,
                  -0.2890774534500711, -1.2024615360943072, -1.51380342611564],
        "G": [[0.3768451073305704, 1.0501313269503614, 1.0790155135012853,
               -0.7839513663149491, -0.7932353410041735, 1.2673009187104822],
              [-1.0923877024313569, 1.0902313512146344, -0.2268879272034576,
               0.7664035884711488, 0.7061647137637838, 0.7766524810610778],
              [-0.3768450252879007, -1.0501314258894594, -1.0790154837491746,
               0.7839513677131902, 0.7932353718449764, -1.2673007953856428]],
        "h": [0.08220261575574161, -0.7506903864132981, 0.503461051573072],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = solve(p, **call)
    assert s.status == STATUS_INFEASIBLE
    assert qp_enumeration_oracle(p, **call) is None


def test_large_multipliers_do_not_fail_the_kkt_check():
    """Problems 61 and 323 of a degenerate recipe: a row nearly opposite another, with noise 1e-3.

    Their multipliers reach 5e4 and 8e4, and the rounding of the stationarity
    and complementarity sums leaves KKT residuals of 4.1e-7 and 3.7e-8. Held
    to the absolute 1e-8 they were reported MAX_ITER, though x is the
    oracle's optimum.
    """
    rng = np.random.default_rng(3)
    solved = {}
    for index in range(324):
        weights, x_ref = 10 ** rng.uniform(-2, 2, 6), rng.uniform(-2, 2, 6)
        m = int(rng.integers(2, 6))
        G = rng.normal(size=(m, 6))
        j = int(rng.integers(0, m))
        G = np.vstack([G, -G[j] + 1e-3 * rng.normal(size=6)])
        h = np.concatenate([rng.uniform(-1, 1, m), [0.5 - rng.uniform(-1, 1)]])
        if index in (61, 323):
            p, call = QpProblem(weights, np.full(6, -3.0), np.full(6, 3.0)), {"x_ref": x_ref, "G": G, "h": h}
            solved[index] = (p, call, solve(p, **call))
    for index, (p, call, s) in solved.items():
        assert s.status == STATUS_OPTIMAL, index
        assert s.kkt_residual > 1e-8 and np.abs(s.multipliers).max() > 5e4, index  # the residual is reported unscaled
        ref = qp_enumeration_oracle(p, **call)
        assert np.max(np.abs(s.x - ref[1])) <= 1e-8, index


def test_planner_problems_match_oracle(monkeypatch):
    """Every QP a c4 plan poses: six joints, the contact rows, one collision row and both joint limits."""
    posed = []

    def recording_solve(problem, x_ref, **rows):
        posed.append((problem, {"x_ref": x_ref, **rows}, solve(problem, x_ref, **rows)))
        return posed[-1][2]

    monkeypatch.setattr(planner, "solve", recording_solve)
    s = load_bundled("c4")
    scene, path = mounted_scene_and_path(s)
    plan(path, s.initial_config, s.chain, s.capsules, scene, s.params)
    assert posed
    for p, call, sol in posed:
        assert p is s.params.qp
        assert np.shape(call["A"]) == (3, 6) and np.shape(call["G"]) == (1, 6)
        assert np.isfinite(p.lower).all() and np.isfinite(p.upper).all()
        assert sol.status == STATUS_OPTIMAL
        assert sol.iterations == 1 + len(sol.active_set)  # one pass per row added, none dropped
        ref = qp_enumeration_oracle(p, **call)
        assert np.max(np.abs(sol.x - ref[1])) <= 1e-9


def _three_row_problem(rng, ratio: float, kind: str):
    """Three equality rows in n = 3..6 variables, the third at LDL^T pivot ratio ``ratio`` to the first two.

    In the scaled variable a row is a_k / sqrt(w), and the third pivot d_2 / K_22
    of K = A W^-1 A^T is the squared sine of its angle to the span of the
    first two; ratio 0 puts it in that span. ``kind`` places the rows' weighted
    projection x0 of x_ref: strictly inside every row and bound ("inside"),
    exactly on a G row or a bound ("on"), or outside a G row or a bound
    ("outside"). Bounds are finite or infinite at random.
    """
    n = int(rng.integers(3, 7))
    weights = rng.uniform(0.1, 10.0, n)
    first = rng.normal(size=(2, n))
    span = np.linalg.qr(first.T)[0]
    along = span @ rng.normal(size=2)
    across = rng.normal(size=n)
    across -= span @ (span.T @ across)
    third = np.sqrt(1.0 - ratio) * along / np.linalg.norm(along) + np.sqrt(ratio) * across / np.linalg.norm(across)
    A = np.vstack([first, rng.uniform(0.5, 2.0) * third]) * np.sqrt(weights)
    x_ref = rng.uniform(-2.0, 2.0, n)
    b = A @ rng.uniform(-1.0, 1.0, n)
    x0 = _eliminate_equalities(x_ref, A, b, weights**-0.5)[0]
    G = rng.normal(size=(int(rng.integers(0, 3)), n))
    h = G @ x0 - rng.uniform(0.1, 1.0, G.shape[0])
    lower, upper = np.full(n, -np.inf), np.full(n, np.inf)
    if rng.random() < 0.5:
        lower, upper = x0 - rng.uniform(0.5, 2.0, n), x0 + rng.uniform(0.5, 2.0, n)
    i = int(rng.integers(n))
    if kind != "inside" and (G.shape[0] == 0 or rng.random() < 0.5):
        if kind == "on":
            lower[i] = x0[i]
        else:
            upper[i] = x0[i] - rng.uniform(0.01, 0.3)
            lower[i] = min(lower[i], upper[i])
    elif kind != "inside":
        h[0] = G[0] @ x0 + (0.0 if kind == "on" else rng.uniform(0.01, 0.3))
    return QpProblem(weights, lower, upper), {"x_ref": x_ref, "A": A, "b": b, "G": G, "h": h}


def _pivot_ratios(problem: QpProblem, A: np.ndarray) -> np.ndarray:
    """The LDL^T pivots of K = A W^-1 A^T over its diagonal, from the leading principal minors."""
    K = (A / problem.weights) @ A.T
    minors = [1.0] + [np.linalg.det(K[:k, :k]) for k in (1, 2, 3)]
    return np.array([minors[k + 1] / minors[k] / K[k, k] for k in range(3)])


def _seeded_three_row_problems():
    """400 seeded (index, kind, problem, call) of ``_three_row_problem``; every tenth third row lies in the span of the first two."""
    rng = np.random.default_rng(28)
    for index in range(400):
        ratio = 0.0 if index % 10 == 0 else min(1.0, _PIVOT_RTOL * 10 ** rng.uniform(-1.0, 1.0))
        kind = ("inside", "on", "outside")[index % 3]
        yield (index, kind, *_three_row_problem(rng, ratio, kind))


def test_three_row_fast_exit_matches_the_svd_and_the_oracle():
    """Three contact rows: the float projection where every pivot clears, the SVD where one does not.

    Whichever path ``solve`` takes, it meets the enumeration oracle and the
    SVD elimination's x0 to 1e-12 relative, and flags exactly the rows the
    SVD's rank test finds dependent.
    """
    seen = {"fast": 0, "svd": 0, "on": 0, "active": 0, "projected": 0}
    for index, kind, p, call in _seeded_three_row_problems():
        A, b, x_ref = call["A"], call["b"], call["x_ref"]
        x0, _, projected = _eliminate_equalities(x_ref, A, b, p.scale)
        fast = _project_three(p.inverse_weights, x_ref.tolist(), A.tolist(), b.tolist())
        least = _pivot_ratios(p, A).min()
        if abs(least - _PIVOT_RTOL) > 1e-9:
            assert (fast is not None) == (least > _PIVOT_RTOL), (index, least)
        seen["fast" if fast is not None else "svd"] += 1
        close = 1e-12 * max(1.0, np.abs(x0).max())
        if fast is not None:
            assert np.abs(np.array(fast) - x0).max() <= close, index

        s = solve(p, **call)
        assert s.eq_projected == projected, index
        seen["projected"] += projected
        if not s.active_set:
            assert np.abs(s.x - x0).max() <= close, index
        if kind == "on" and fast is not None:
            assert s.status == STATUS_OPTIMAL and s.active_set == () and s.iterations == (1 if x0.size > 3 else 0)
            seen["on"] += 1
        ref = qp_enumeration_oracle(p, **call)
        if ref is None:
            assert s.status == STATUS_INFEASIBLE, index
            continue
        assert s.status == STATUS_OPTIMAL, index
        # with rows active, the oracle's own KKT solve carries their conditioning (multipliers reach 7e2)
        rtol = 1e-10 if s.active_set else 1e-12
        assert np.abs(s.x - ref[1]).max() <= rtol * max(1.0, np.abs(ref[1]).max()), index
        seen["active"] += bool(s.active_set) and fast is not None
    assert min(seen.values()) >= 20, seen


def test_float_rows_and_array_rows_give_the_same_bits(monkeypatch):
    """The planner hands ``solve`` tuples and lists of floats; on the seeded three-row problems they give the arrays' bits."""
    eliminations = []

    def counting_elimination(*args):
        eliminations.append(args)
        return _eliminate_equalities(*args)

    monkeypatch.setattr(qp, "_eliminate_equalities", counting_elimination)
    reached = {"fast exit": 0, "svd": 0}
    for index, _kind, p, call in _seeded_three_row_problems():
        floats = {name: value.tolist() for name, value in call.items()}
        floats["A"] = [tuple(row) for row in floats["A"]]
        before = len(eliminations)
        arrays = solve(p, **call)
        svd = len(eliminations) - before
        listed = solve(p, **floats)
        assert len(eliminations) - before == 2 * svd, index  # the floats take the arrays' path
        reached["svd" if svd else "fast exit"] += 1
        assert listed.x.tobytes() == arrays.x.tobytes(), index
        assert (listed.status, listed.eq_residual, listed.iterations) == (arrays.status, arrays.eq_residual, arrays.iterations)
        assert (listed.eq_projected, listed.active_set) == (arrays.eq_projected, arrays.active_set), index
    assert min(reached.values()) >= 50, reached


def test_float_rows_are_checked_like_arrays():
    # a list with a non-finite entry or of the wrong length raises the ValueError that names it
    box = QpProblem(np.ones(6), -np.ones(6), np.ones(6))
    rows = [tuple(row) for row in np.eye(6)[:3].tolist()]
    good = {"x_ref": [0.0] * 6, "A": rows, "b": [0.0] * 3, "G": [(1.0,) + (0.0,) * 5], "h": [-1.0]}
    assert solve(box, **good).status == STATUS_OPTIMAL
    bad = [
        ("x_ref", [0.0, 0.0, np.nan, 0.0, 0.0, 0.0], "x_ref must be finite"),
        ("A", [*rows[:2], (0.0, np.inf, 0.0, 0.0, 0.0, 0.0)], "A must be finite"),
        ("b", [0.0, 0.0, np.nan], "b must be finite"),
        ("G", [(np.nan,) + (0.0,) * 5], "G must be finite"),
        ("h", [-np.inf], "h must be finite"),
        ("x_ref", [0.0] * 5, r"x_ref must be \(6,\)"),
        ("A", [row[:5] for row in rows], r"equality rows must be \(k, 6\)"),
        ("b", [0.0] * 2, "equality rows .* and right-hand side .* disagree"),
        ("G", [(1.0,) * 5], r"inequality rows must be \(k, 6\)"),
        ("h", [-1.0, -1.0], "inequality rows .* and right-hand side .* disagree"),
    ]
    for name, value, message in bad:
        with pytest.raises(ValueError, match=message):
            solve(box, **{**good, name: value})


def test_a_non_finite_entry_is_named_wherever_it_sits(monkeypatch):
    # NaN, +inf and -inf in each entry of x_ref, A, b, G and h, all passed as lists or all as arrays, on problems
    # whose projection meets every row and bound: each raises the ValueError that names the argument, and no SVD
    # runs. The first problem's zero coefficients meet a non-finite entry as 0 * inf = NaN; each has two G rows,
    # so a NaN slack in either cannot hide behind the other in a min.
    eliminations = []
    monkeypatch.setattr(qp, "_eliminate_equalities", lambda *args: eliminations.append(args) or _eliminate_equalities(*args))
    rng = np.random.default_rng(34)
    weights, A = rng.uniform(0.5, 2.0, 6), rng.normal(size=(3, 6))
    x_ref, b = rng.uniform(-1.0, 1.0, 6), A @ rng.uniform(-0.1, 0.1, 6)
    x0 = _eliminate_equalities(x_ref, A, b, weights**-0.5)[0]
    G = rng.normal(size=(2, 6))
    lower, upper = x0 - 1.0, x0 + 1.0
    lower[0], upper[1] = -np.inf, np.inf
    bases = [
        (QpProblem(np.ones(6), -np.ones(6), np.ones(6)),
         {"x_ref": np.zeros(6), "A": np.eye(6)[:3], "b": np.zeros(3), "G": np.eye(6)[3:5], "h": np.array([-1.0, -0.5])}),
        (QpProblem(weights, lower, upper), {"x_ref": x_ref, "A": A, "b": b, "G": G, "h": G @ x0 - 0.5}),
    ]
    raised = 0
    for p, arrays in bases:
        lists = {name: value.tolist() for name, value in arrays.items()}
        for call in (lists, arrays):
            assert solve(p, **call).status == STATUS_OPTIMAL and eliminations == []  # the fast exit
            for name, clean in arrays.items():
                for index in np.ndindex(clean.shape):
                    for bad in (np.nan, np.inf, -np.inf):
                        value = clean.copy()
                        value[index] = bad
                        with pytest.raises(ValueError, match=rf"^{name} must be finite$"):
                            solve(p, **{**call, name: value if call is arrays else value.tolist()})
                        raised += 1
    assert raised == 2 * 2 * 3 * (6 + 18 + 3 + 12 + 2) and eliminations == []


def test_the_float_dot_adds_left_to_right_from_zero():
    # a compensated sum, the builtin sum since Python 3.12, reads 1.0 here; left to right, 1e16 + 1.0 rounds to 1e16
    assert _dot((1e16, 1.0, -1e16), (1.0, 1.0, 1.0)) == 0.0
    assert _dot((1e16, 1.0, -1e16, 0.0, 0.0, 0.0), (1.0,) * 6) == 0.0  # the six-entry form
    assert str(_dot((-0.0,) * 6, (1.0,) * 6)) == str(_dot((-0.0,) * 3, (1.0,) * 3)) == "0.0"  # as sum gives it
    rng = np.random.default_rng(44)
    for _ in range(1000):
        u, v = rng.normal(size=(2, 6)) * 10.0 ** rng.integers(-8, 9, size=(2, 6))
        total = 0.0
        for p in (u * v).tolist():
            total += p
        assert _dot(u.tolist(), v.tolist()) == total == _dot([*u.tolist(), 0.0], [*v.tolist(), 1.0])


def test_a_row_too_short_for_the_svd_rank_test_takes_the_svd():
    # every pivot ratio is 1, but s_min / s_max = 1e-13 is under the SVD's rank tolerance: projected, not solved
    A = np.diag([1.0, 1.0, 1e-13, 0.0])[:3]
    p = QpProblem(np.ones(4), np.full(4, -np.inf), np.full(4, np.inf))
    assert _project_three(p.inverse_weights, [0.0] * 4, A.tolist(), [0.0, 0.0, 1.0]) is None
    s = solve(p, np.zeros(4), A=A, b=[0.0, 0.0, 1.0])
    assert s.eq_projected and s.eq_residual == 1.0


def test_one_round_takes_the_svd_in_0_of_190_qps(monkeypatch):
    # one c1..c4 round at the bundled parameters poses 190 QPs, and every one ends at the float projection:
    # no plan brings its collision row or a joint bound into play, so none reaches the SVD for its null space
    posed, eliminated = [], []

    def recording_solve(problem, x_ref, **rows):
        posed.append(np.shape(rows["A"]))
        return solve(problem, x_ref, **rows)

    def counting_elimination(*args):
        eliminated.append(args[-1] is not None)  # the float x0 is reused
        return _eliminate_equalities(*args)

    monkeypatch.setattr(planner, "solve", recording_solve)
    monkeypatch.setattr(qp, "_eliminate_equalities", counting_elimination)
    for name in ("c1", "c2", "c3", "c4"):
        s = load_bundled(name)
        scene, path = mounted_scene_and_path(s)
        plan(path, s.initial_config, s.chain, s.capsules, scene, s.params)
    assert len(posed) == 190 and set(posed) == {(3, 6)}
    assert eliminated == []
