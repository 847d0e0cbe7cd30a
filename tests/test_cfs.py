import numpy as np
import pytest

from icop.cfs import LinearInequality, convexify_collision
from icop.geometry import scene_distance
from icop.scenario import mounted_scene_and_path


@pytest.fixture(scope="module")
def mounted(c4):
    scene, _ = mounted_scene_and_path(c4)
    return scene


def test_row_evaluates_to_distance_at_reference(c4, mounted):
    rng = np.random.default_rng(31)
    for _ in range(30):
        q_ref = c4.initial_config + rng.uniform(-0.2, 0.2, 6)
        d = scene_distance(q_ref, c4.chain, c4.capsules, mounted).value
        rows = convexify_collision(q_ref, c4.chain, c4.capsules, mounted)
        assert len(rows) == 1
        assert rows[0].residual(q_ref) == pytest.approx(d, abs=1e-12)


def test_reference_feasible_iff_distance_nonnegative(c4, mounted):
    q_free = c4.initial_config
    row = convexify_collision(q_free, c4.chain, c4.capsules, mounted)[0]
    assert row.residual(q_free) >= 0.0

    # drive the tool into a wall to get a negative-distance reference
    rng = np.random.default_rng(32)
    for _ in range(300):
        q_bad = q_free + rng.uniform(-0.5, 0.5, 6)
        if scene_distance(q_bad, c4.chain, c4.capsules, mounted).value < -0.005:
            row_bad = convexify_collision(q_bad, c4.chain, c4.capsules, mounted)[0]
            assert row_bad.residual(q_bad) < 0.0
            return
    pytest.fail("never sampled a colliding configuration")


def test_axis_aligned_gradient_example():
    # with d(q_ref) = 0.1 and grad = e1 the row reads x1 >= q_ref1 - 0.1
    q_ref = np.array([0.3, -0.2, 0.5, 0.0, 0.1, -0.4])
    g = np.eye(6)[0]
    row = LinearInequality(a=g, b=float(g @ q_ref) - 0.1)
    x = q_ref.copy()
    x[0] = q_ref[0] - 0.1
    assert row.residual(x) == pytest.approx(0.0, abs=1e-15)
    x[0] -= 1e-9
    assert row.residual(x) < 0.0


def test_boundary_reference_halfspace_through_reference(c4, mounted):
    # synthetic check of the tangency identity: residual at q_ref equals d
    rng = np.random.default_rng(33)
    q_ref = c4.initial_config + rng.uniform(-0.1, 0.1, 6)
    rows = convexify_collision(q_ref, c4.chain, c4.capsules, mounted)
    d = scene_distance(q_ref, c4.chain, c4.capsules, mounted).value
    boundary_point_residual = rows[0].residual(q_ref) - d
    assert boundary_point_residual == pytest.approx(0.0, abs=1e-12)


def test_per_capsule_rows(c4, mounted):
    q_ref = c4.initial_config
    rows = convexify_collision(q_ref, c4.chain, c4.capsules, mounted, per_capsule_rows=True)
    # one row per capsule whose witness can move at all (base-pinned witness
    # points have an identically zero gradient and produce no row)
    assert 2 <= len(rows) <= len(c4.capsules)
    single = convexify_collision(q_ref, c4.chain, c4.capsules, mounted)[0]
    # the worst capsule's row appears among the per-capsule rows
    assert any(np.allclose(r.a, single.a) and r.b == pytest.approx(single.b) for r in rows)


def test_first_order_validity_ball(c4, mounted):
    rng = np.random.default_rng(34)
    for _ in range(10):
        q_ref = c4.initial_config + rng.uniform(-0.1, 0.1, 6)
        rows = convexify_collision(q_ref, c4.chain, c4.capsules, mounted)
        row = rows[0]
        kept = 0
        while kept < 25:
            q = q_ref + rng.uniform(-1e-3, 1e-3, 6)
            if row.residual(q) < 0.0:
                continue
            d = scene_distance(q, c4.chain, c4.capsules, mounted).value
            assert d >= -5e-4
            kept += 1
