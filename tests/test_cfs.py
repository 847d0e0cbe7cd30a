import math

import numpy as np
import pytest

from icop.cfs import collision_rows, convexify_collision
from icop.geometry import Capsule, CapsuleSet, scene_distance, witness_gradient, world_state
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
        G, h = convexify_collision(q_ref, c4.chain, c4.capsules, mounted)
        assert G.shape == (1, 6) and h.shape == (1,)
        assert G[0] @ q_ref - h[0] == pytest.approx(d, abs=1e-12)


def test_reference_feasible_iff_distance_nonnegative(c4, mounted):
    q_free = c4.initial_config
    G, h = convexify_collision(q_free, c4.chain, c4.capsules, mounted)
    assert G[0] @ q_free - h[0] >= 0.0

    # drive the tool into a wall to get a negative-distance reference
    rng = np.random.default_rng(32)
    for _ in range(300):
        q_bad = q_free + rng.uniform(-0.5, 0.5, 6)
        if scene_distance(q_bad, c4.chain, c4.capsules, mounted).value < -0.005:
            G, h = convexify_collision(q_bad, c4.chain, c4.capsules, mounted)
            assert G[0] @ q_bad - h[0] < 0.0
            return
    pytest.fail("never sampled a colliding configuration")


def test_boundary_reference_halfspace_through_reference(c4, mounted):
    # synthetic check of the tangency identity: residual at q_ref equals d
    rng = np.random.default_rng(33)
    q_ref = c4.initial_config + rng.uniform(-0.1, 0.1, 6)
    G, h = convexify_collision(q_ref, c4.chain, c4.capsules, mounted)
    d = scene_distance(q_ref, c4.chain, c4.capsules, mounted).value
    boundary_point_residual = G[0] @ q_ref - h[0] - d
    assert boundary_point_residual == pytest.approx(0.0, abs=1e-12)


def test_first_order_validity_ball(c4, mounted):
    rng = np.random.default_rng(34)
    for _ in range(10):
        q_ref = c4.initial_config + rng.uniform(-0.1, 0.1, 6)
        G, h = convexify_collision(q_ref, c4.chain, c4.capsules, mounted)
        kept = 0
        while kept < 25:
            q = q_ref + rng.uniform(-1e-3, 1e-3, 6)
            if G[0] @ q - h[0] < 0.0:
                continue
            d = scene_distance(q, c4.chain, c4.capsules, mounted).value
            assert d >= -5e-4
            kept += 1


def test_a_locally_flat_distance_gives_no_row(c4, mounted):
    # a capsule on the base link does not move with q, so its witness has a zero gradient
    base = CapsuleSet([Capsule(0, np.array([0.0, 0.0, 0.2]), np.array([0.0, 0.0, 0.6]), 0.1)])
    state = world_state(c4.initial_config, c4.chain, base, mounted)
    assert not any(state.gradient())
    assert collision_rows(state) == ((), ())
    G, h = convexify_collision(c4.initial_config, c4.chain, base, mounted)
    assert G.shape == (0, 6) and h.shape == (0,)


def test_the_float_row_keeps_its_bits(c4, mounted):
    # the planner's row on floats: g is the witness gradient, h = fsum(g * q) - d; the public wrapper holds the same bits
    rng = np.random.default_rng(35)
    for _ in range(30):
        q = c4.initial_config + rng.uniform(-0.2, 0.2, 6)
        state = world_state(q, c4.chain, c4.capsules, mounted)
        (g,), (h,) = collision_rows(state)
        assert len(g) == 6 and all(type(v) is float for v in (*g, h))
        assert np.array(g).tobytes() == witness_gradient(q, c4.chain, c4.capsules, mounted, state.witness).tobytes()
        assert np.float64(h).tobytes() == np.float64(math.fsum((np.array(g) * q).tolist()) - state.witness.value).tobytes()
        G, H = convexify_collision(q, c4.chain, c4.capsules, mounted)
        assert G.shape == (1, 6) and H.shape == (1,)
        assert G.tobytes() == np.array([g]).tobytes() and H.tobytes() == np.array([h]).tobytes()
