"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Numbered tolerances are pinned here, not configurable.
"""

import dataclasses

import numpy as np
import pytest

from icop.cli import EXIT_OK, main as cli_main
from icop.geometry import (
    CASE_TUNNEL,
    capsule_distance,
    segment_segment_distance,
    transform_scene,
    world_capsule_segments,
)
from icop.kinematics import BodyPoint, body_point_jacobian, forward_kinematics
from icop.qp import STATUS_OPTIMAL, solve
from icop.scenario import bundled_scenario_path, load_bundled, mounted_scene_and_path, plan_scenario, resample_path
from icop.transforms import homogeneous, rot_y

from conftest import random_tunnel, rot_z
from oracles import (
    fd_jacobian,
    fk_oracle,
    grid_segment_distance,
    qp_enumeration_oracle,
    qp_objective,
    sampled_material_clearance,
    sampled_tunnel_clearance,
)

SCENARIOS = ("c1", "c2", "c3", "c4")


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def planned():
    """All four bundled scenarios planned once, with wall times."""
    results = {}
    for name in SCENARIOS:
        s = load_bundled(name)
        traj, metrics = plan_scenario(s)
        results[name] = (s, traj, metrics)
    return results


def test_criterion_1_constraint_satisfaction(planned):
    total_time = 0.0
    worst_tcp, worst_dist = 0.0, np.inf
    for name, (s, traj, metrics) in planned.items():
        total_time += metrics.total_time
        worst_tcp = max(worst_tcp, float(np.max(traj.tcp_error)))
        worst_dist = min(worst_dist, float(np.min(traj.min_distance)))
        ok = (
            len(traj) == 43
            and np.all(traj.tcp_error <= 1e-4)
            and np.all(traj.min_distance > 0.0)
            and np.all(traj.states >= s.params.joint_lower - 1e-12)
            and np.all(traj.states <= s.params.joint_upper + 1e-12)
        )
        assert ok, f"{name} violates the per-step constraints"
    _report(
        "criterion 1 (constraint satisfaction C1-C4)",
        total_time < 60.0,
        f"worst tcp={worst_tcp:.2e} m, worst distance={worst_dist:.4f} m, total plan time={total_time:.2f} s",
    )


def test_criterion_2_tcp_error_scale(planned):
    means = {name: float(np.mean(traj.tcp_error)) for name, (_, traj, _) in planned.items()}
    ok = all(m <= 5e-5 for m in means.values())
    _report(
        "criterion 2 (mean TCP error <= xi/2)",
        ok,
        " ".join(f"{k}={v:.2e}" for k, v in means.items()),
    )


def test_criterion_3_inner_loop_economy(planned):
    iters = np.concatenate([traj.inner_iterations for _, traj, _ in planned.values()])
    med = float(np.median(iters))
    mx = int(np.max(iters))
    _report(
        "criterion 3 (inner-loop economy)",
        med <= 5.0 and mx <= 15,
        f"median={med:.1f} max={mx} over {iters.size} waypoints",
    )


def test_criterion_4_horizon_linearity():
    s = load_bundled("c4")
    horizons = (14, 21, 43, 82, 164)
    plan_scenario(s)  # warm-up so allocator and caches settle
    resampled = [dataclasses.replace(s, weld_path=resample_path(s.weld_path, h)) for h in horizons]
    # mean of five interleaved rounds: a shared host runs some plans up to
    # twice as fast or slow in bursts of a few plans; averaging over rounds
    # evens that out, while a per-horizon minimum catches a burst on one
    # horizon and bends the line
    rounds = [[plan_scenario(s_h)[1].total_time for s_h in resampled] for _ in range(5)]
    times = dict(zip(horizons, np.mean(rounds, axis=0)))
    hs = np.array(horizons, dtype=float)
    ts = np.array([times[h] for h in horizons])
    A = np.vstack([hs, np.ones_like(hs)]).T
    coef, *_ = np.linalg.lstsq(A, ts, rcond=None)
    pred = A @ coef
    r2 = 1.0 - np.sum((ts - pred) ** 2) / np.sum((ts - ts.mean()) ** 2)
    ratio = times[82] / times[43]
    _report(
        "criterion 4 (horizon linearity on C4)",
        r2 >= 0.95 and 1.5 <= ratio <= 2.5,
        f"R^2={r2:.4f} ratio(43->82)={ratio:.2f} times=" + " ".join(f"{times[h]:.3f}" for h in horizons),
    )


def test_criterion_5_xi_trend():
    s = load_bundled("c4")
    xis = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    totals = []
    for xi in xis:
        _, metrics = plan_scenario(s, dataclasses.replace(s.params, xi=xi))
        totals.append(metrics.total_inner_iters)
    # non-increasing in xi: tightening the threshold never reduces the work
    ok = all(totals[i] <= totals[i + 1] for i in range(len(totals) - 1))
    _report(
        "criterion 5 (xi trend on C4)",
        ok,
        " ".join(f"xi={x:.0e}:{n}" for x, n in zip(xis, totals)),
    )


def test_criterion_6_kinematics_oracles(c4):
    chain = c4.chain
    rng = np.random.default_rng(101)
    worst_fk, worst_jac = 0.0, 0.0
    for _ in range(1000):
        q = rng.uniform(-np.pi, np.pi, 6)
        worst_fk = max(worst_fk, float(np.max(np.abs(forward_kinematics(q, chain) - fk_oracle(q, chain)))))
        link = int(rng.integers(1, 7))
        point = BodyPoint(link, rng.uniform(-0.5, 0.5, 3))
        J = body_point_jacobian(q, chain, point)
        worst_jac = max(worst_jac, float(np.max(np.abs(J - fd_jacobian(q, chain, point)))))
    _report(
        "criterion 6 (kinematics oracle suite)",
        worst_fk <= 1e-12 and worst_jac <= 1e-6,
        f"max FK gap={worst_fk:.2e}, max Jacobian FD gap={worst_jac:.2e} over 1000 configs",
    )


def test_criterion_7_geometry_oracles():
    rng = np.random.default_rng(102)
    worst_seg = 0.0
    for _ in range(500):
        a0 = rng.uniform(-2, 2, 3)
        a1 = a0 + rng.uniform(-2, 2, 3)
        b0 = rng.uniform(-2, 2, 3)
        b1 = b0 + rng.uniform(-2, 2, 3)
        exact = segment_segment_distance(a0, a1, b0, b1).distance
        worst_seg = max(worst_seg, abs(exact - grid_segment_distance(a0, a1, b0, b1)))

    worst_plane = 0.0
    checked = 0
    while checked < 500:
        scene = random_tunnel(rng)
        a = rng.uniform(-1.5, 1.5, 3)
        b = a + rng.uniform(-1.5, 1.5, 3)
        witness = capsule_distance(a, b, 0.0, scene)
        if witness.case_tag != CASE_TUNNEL:  # the worst wall clearance of the axis's part in the slab
            continue
        worst_plane = max(worst_plane, abs(witness.value - sampled_tunnel_clearance(a, b, scene)))
        checked += 1

    worst_inv = 0.0
    for _ in range(100):
        scene = random_tunnel(rng)
        a = rng.uniform(-1.5, 1.5, 3)
        b = a + rng.uniform(-1.5, 1.5, 3)
        w = capsule_distance(a, b, 0.06, scene)
        T = homogeneous(rot_y(rng.uniform(-np.pi, np.pi)) @ rot_z(rng.uniform(-np.pi, np.pi)), rng.uniform(-2, 2, 3))
        Ta, Tb = np.array([a, b]) @ T[:3, :3].T + T[:3, 3]
        w2 = capsule_distance(Ta, Tb, 0.06, transform_scene(scene, T))
        worst_inv = max(worst_inv, abs(w.value - w2.value))

    _report(
        "criterion 7 (geometry oracle suite)",
        worst_seg <= 2e-3 and worst_plane <= 2e-3 and worst_inv <= 1e-9,
        f"seg-seg gap={worst_seg:.2e}, seg-plane gap={worst_plane:.2e}, rigid-motion gap={worst_inv:.2e}",
    )


def test_criterion_8_qp_oracle():
    from test_qp import _random_feasible_problem

    rng = np.random.default_rng(103)
    worst_gap, worst_kkt = 0.0, 0.0
    for _ in range(500):
        p, call = _random_feasible_problem(rng)
        s = solve(p, **call)
        assert s.status == STATUS_OPTIMAL
        ref = qp_enumeration_oracle(p, **call)
        worst_gap = max(worst_gap, qp_objective(p, call["x_ref"], s.x) - ref[0])
        worst_kkt = max(worst_kkt, s.kkt_residual)
    _report(
        "criterion 8 (QP oracle suite)",
        worst_gap <= 1e-7 and worst_kkt <= 1e-8,
        f"max objective gap={worst_gap:.2e}, max KKT residual={worst_kkt:.2e} over 500 problems",
    )


def test_criterion_9_determinism(tmp_path):
    c1 = str(bundled_scenario_path("c1"))
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["--scenario", c1, "--out", str(a)]) == EXIT_OK
    assert cli_main(["--scenario", c1, "--out", str(b)]) == EXIT_OK
    same = (a / "c1_trajectory.csv").read_bytes() == (b / "c1_trajectory.csv").read_bytes()
    _report("criterion 9 (determinism)", same, "two plan runs produced byte-identical trajectory files")


def test_criterion_10_material_clearance(planned):
    # the start and every planned state of c1..c4 against the wall quads, measured by sampling each capsule
    # axis (400 points): every capsule clears the material and no axis crosses a wall quad; and each plan's
    # recorded minimum is the material's over its planned states, to within the sampling error
    details, ok = [], True
    for name, (s, traj, _metrics) in planned.items():
        scene, _path = mounted_scene_and_path(s)
        least, crossing, spacing = [], 0, 0.0
        for q in [s.initial_config, *traj.states]:
            axes = world_capsule_segments(q, s.chain, s.capsules)
            measured = [sampled_material_clearance(a, b, cap.radius, scene) for (a, b), cap in zip(axes, s.capsules)]
            least.append(min(m.clearance for m in measured))
            crossing += any(m.crosses_wall for m in measured)
            spacing = max(spacing, *(np.linalg.norm(b - a) / (2 * 399) for a, b in axes))  # half the sample spacing
        model, material = float(np.min(traj.min_distance)), min(least[1:])
        ok &= min(least) > 0.0 and crossing == 0 and model <= material + 1e-12 and material - model <= spacing
        details.append(f"{name}: material min={material:.5f} m, model min={model:.5f} m, crossing states={crossing}")
    _report("criterion 10 (material clearance C1-C4)", ok, "; ".join(details))
