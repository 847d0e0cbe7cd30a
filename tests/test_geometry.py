import numpy as np
import pytest

from icop.geometry import (
    CASE_FRINGE,
    CASE_TUNNEL,
    BoundedPlane,
    Capsule,
    _score_axes,
    _tunnel_clearance,
    capsule_distance,
    classify_segment,
    point_in_polygon,
    scene_distance,
    segment_bounded_planes_distance,
    segment_segment_distance,
    transform_scene,
    witness_gradient,
    world_capsule_segments,
)
from icop.kinematics import forward_kinematics
from icop.transforms import apply_transform, homogeneous, rot_y, rot_z

from conftest import random_tunnel
from oracles import fd_scene_gradient, grid_segment_distance, sampled_tunnel_clearance


def _random_segment(rng, scale=2.0):
    a = rng.uniform(-scale, scale, 3)
    b = a + rng.uniform(-scale, scale, 3)
    while np.linalg.norm(b - a) < 1e-3:
        b = a + rng.uniform(-scale, scale, 3)
    return a, b


class TestSegmentSegment:
    def test_identical_segments(self):
        r = segment_segment_distance([0, 0, 0], [1, 2, 3], [0, 0, 0], [1, 2, 3])
        assert r.distance == 0.0

    def test_parallel_offset(self):
        r = segment_segment_distance([0, 0, 0], [1, 0, 0], [0, 0, 2], [1, 0, 2])
        assert r.distance == pytest.approx(2.0, abs=1e-15)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            a0, a1 = _random_segment(rng)
            b0, b1 = _random_segment(rng)
            d1 = segment_segment_distance(a0, a1, b0, b1).distance
            d2 = segment_segment_distance(b0, b1, a0, a1).distance
            assert d1 >= 0.0
            assert d1 == pytest.approx(d2, abs=1e-12)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            a0, a1 = _random_segment(rng)
            b0, b1 = _random_segment(rng)
            exact = segment_segment_distance(a0, a1, b0, b1).distance
            grid = grid_segment_distance(a0, a1, b0, b1)
            assert exact <= grid + 1e-12
            assert grid - exact < 2e-3

    def test_witness_points_realize_distance(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            a0, a1 = _random_segment(rng)
            b0, b1 = _random_segment(rng)
            r = segment_segment_distance(a0, a1, b0, b1)
            assert np.linalg.norm(r.point_on_1 - r.point_on_2) == pytest.approx(r.distance, abs=1e-12)
            assert np.allclose(r.point_on_1, a0 + r.param_1 * (np.asarray(a1) - a0), atol=1e-12)


class TestClassification:
    def test_segment_outside_is_fringe(self, square_tunnel):
        assert classify_segment([-1, 0, 0], [-0.2, 0, 0], square_tunnel) == CASE_FRINGE

    def test_straddling_through_opening_is_tunnel(self, square_tunnel):
        assert classify_segment([-0.5, 0, 0], [0.5, 0, 0], square_tunnel) == CASE_TUNNEL

    def test_straddling_outside_opening_is_fringe(self, square_tunnel):
        assert classify_segment([-0.5, 2.0, 0], [0.5, 2.0, 0], square_tunnel) == CASE_FRINGE

    def test_random_segments_match_plane_side_sampling(self, square_tunnel):
        from oracles import sampled_entrance_side

        rng = np.random.default_rng(24)
        for _ in range(200):
            a, b = _random_segment(rng)
            crosses = sampled_entrance_side(a, b, square_tunnel)
            got = classify_segment(a, b, square_tunnel)
            if got == CASE_TUNNEL:
                assert crosses
            elif crosses:
                # crossing the plane but not through the opening polygon
                n = square_tunnel.entrance_outward_normal
                off = square_tunnel.entrance_outward_offset
                sa = float(n @ a - off)
                sb = float(n @ b - off)
                t = sa / (sa - sb)
                p = a + t * (b - a)
                assert not point_in_polygon(p, square_tunnel.entrance_plane, tol=-1e-9)


class TestTunnelClearance:
    def test_axis_segment_of_unit_square_prism(self, square_tunnel):
        val = segment_bounded_planes_distance([-0.5, 0, 0], [1.0, 0, 0], square_tunnel)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_segment_on_wall_plane(self, square_tunnel):
        val = segment_bounded_planes_distance([-0.5, 0.5, 0], [1.0, 0.5, 0], square_tunnel)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_penetrating_segment_is_negative(self, square_tunnel):
        val = segment_bounded_planes_distance([-0.5, 0, 0], [1.0, 1.2, 0], square_tunnel)
        assert val < 0.0

    def test_matches_sampling_oracle(self):
        rng = np.random.default_rng(25)
        checked = 0
        while checked < 60:
            scene = random_tunnel(rng)
            a, b = _random_segment(rng, scale=1.5)
            if classify_segment(a, b, scene) != CASE_TUNNEL:
                continue
            exact = segment_bounded_planes_distance(a, b, scene)
            approx = sampled_tunnel_clearance(a, b, scene)
            assert abs(exact - approx) < 1e-3
            checked += 1


class TestSceneDistance:
    def test_far_field_positive_clearance(self, c4):
        from icop.scenario import mounted_scene_and_path

        scene, _ = mounted_scene_and_path(c4)
        q = np.zeros(6)
        w = scene_distance(q, c4.chain, c4.capsules, scene)
        assert w.value > 0.1
        assert w.case_tag == CASE_FRINGE

    def test_capsule_touching_fringe_is_minus_radius(self, square_tunnel):
        # axis through a fringe rim point, staying outside the entrance plane
        seg = square_tunnel.fringe_segments[0]
        touch = 0.5 * (seg[0] + seg[1])
        w = capsule_distance(touch + [-0.4, 0, 0], touch, 0.05, square_tunnel)
        assert w.case_tag == CASE_FRINGE
        assert w.value == pytest.approx(-0.05, abs=1e-12)

    def test_min_over_capsules(self, c4):
        from icop.scenario import mounted_scene_and_path
        from icop.geometry import capsule_witnesses

        scene, _ = mounted_scene_and_path(c4)
        q = c4.initial_config
        per_capsule = capsule_witnesses(q, c4.chain, c4.capsules, scene)
        w = scene_distance(q, c4.chain, c4.capsules, scene)
        assert w.value == min(x.value for x in per_capsule)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            scene = random_tunnel(rng)
            a, b = _random_segment(rng, scale=1.5)
            w = capsule_distance(a, b, 0.07, scene)
            T = homogeneous(rot_y(rng.uniform(-np.pi, np.pi)) @ rot_z(rng.uniform(-np.pi, np.pi)),
                            rng.uniform(-2, 2, 3))
            w2 = capsule_distance(apply_transform(T, a), apply_transform(T, b), 0.07, transform_scene(scene, T))
            assert abs(w.value - w2.value) < 1e-9

    def test_obstacle_translation_is_1_lipschitz_far_field(self, c4):
        from icop.scenario import mounted_scene_and_path

        scene, _ = mounted_scene_and_path(c4)
        q = np.zeros(6)
        d0 = scene_distance(q, c4.chain, c4.capsules, scene).value
        n_out = scene.entrance_outward_normal
        for delta in (0.05, 0.2, 0.5):
            moved = transform_scene(scene, homogeneous(translation=delta * n_out))
            d1 = scene_distance(q, c4.chain, c4.capsules, moved).value
            assert abs(d1 - d0) <= delta + 1e-9


class TestDistanceGradient:
    def test_gradient_matches_fd_far_field(self, c4):
        from icop.scenario import mounted_scene_and_path

        scene, _ = mounted_scene_and_path(c4)
        q = np.zeros(6)
        g = witness_gradient(q, c4.chain, c4.capsules, scene, scene_distance(q, c4.chain, c4.capsules, scene))
        assert np.max(np.abs(g - fd_scene_gradient(q, c4.chain, c4.capsules, scene))) < 1e-5

    def test_gradient_matches_fd_near_tunnel(self, c4):
        from icop.scenario import mounted_scene_and_path

        scene, _ = mounted_scene_and_path(c4)
        rng = np.random.default_rng(27)
        q0 = c4.initial_config
        checked = 0
        for _ in range(120):
            q = q0 + rng.uniform(-0.15, 0.15, 6)
            w = scene_distance(q, c4.chain, c4.capsules, scene)
            g = witness_gradient(q, c4.chain, c4.capsules, scene, w)
            gfd = fd_scene_gradient(q, c4.chain, c4.capsules, scene)
            err = np.max(np.abs(g - gfd))
            if err >= 1e-5:
                # tolerate finite-difference straddles of a witness switch:
                # central differences are invalid exactly there
                assert _near_witness_switch(q, c4, scene), f"gradient mismatch {err:.2e} with unique witness"
            else:
                checked += 1
        assert checked > 80

    def test_tangential_joint_has_small_component(self, square_tunnel, c4):
        # rotate the whole scene so the witness direction is vertical for joint 1:
        # joint-1 motion is then tangential and its gradient component ~ 0.
        from icop.scenario import mounted_scene_and_path

        scene, _ = mounted_scene_and_path(c4)
        q = np.zeros(6)
        w = scene_distance(q, c4.chain, c4.capsules, scene)
        g = witness_gradient(q, c4.chain, c4.capsules, scene, w)
        n = (w.point_on_robot - w.point_on_obstacle)
        n /= np.linalg.norm(n)
        # witness on the arm at y=0 plane with direction in the xz plane:
        # joint 1 moves the point along +-y, orthogonal to the witness direction
        if abs(n[1]) < 1e-9 and abs(w.point_on_robot[1]) < 1e-9:
            assert abs(g[0]) < 1e-9


def _near_witness_switch(q, scenario, scene, h: float = 2e-6) -> bool:
    """True if a +-h perturbation changes the active witness branch."""
    base = scene_distance(q, scenario.chain, scenario.capsules, scene)
    for i in range(6):
        for sign in (-1.0, 1.0):
            dq = np.zeros(6)
            dq[i] = sign * h
            w = scene_distance(q + dq, scenario.chain, scenario.capsules, scene)
            if (
                w.capsule_index != base.capsule_index
                or w.case_tag != base.case_tag
                or w.plane_index != base.plane_index
                or (w.clip_plane_index is None) != (base.clip_plane_index is None)
                or abs(w.axis_param - base.axis_param) > 0.2
            ):
                return True
    return False


class TestValidation:
    def test_bounded_plane_rejects_non_unit_normal(self):
        with pytest.raises(ValueError):
            BoundedPlane(normal=[2, 0, 0], offset=0.0, vertices=[[0, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_bounded_plane_rejects_off_plane_vertex(self):
        with pytest.raises(ValueError):
            BoundedPlane(normal=[1, 0, 0], offset=0.0, vertices=[[0, 0, 0], [0, 1, 0], [0.1, 0, 1]])

    def test_bounded_plane_rejects_concave_polygon(self):
        verts = [[0, 0, 0], [0, 2, 0], [0, 1, 0.2], [0, 0, 2]]  # reflex at third vertex
        with pytest.raises(ValueError):
            BoundedPlane(normal=[1.0, 0, 0], offset=0.0, vertices=verts)

    def test_capsule_rejects_bad_radius_and_degenerate_axis(self):
        with pytest.raises(ValueError):
            Capsule(link_index=1, endpoint_a=[0, 0, 0], endpoint_b=[1, 0, 0], radius=0.0)
        with pytest.raises(ValueError):
            Capsule(link_index=1, endpoint_a=[0, 0, 0], endpoint_b=[0, 0, 0], radius=0.1)

    def test_scene_rejects_fringe_off_entrance(self, square_tunnel):
        from icop.geometry import Scene

        bad_fringe = square_tunnel.fringe_segments.copy()
        bad_fringe[0, 0, 0] += 0.01
        with pytest.raises(ValueError):
            Scene(
                planes=square_tunnel.planes,
                fringe_segments=bad_fringe,
                entrance_plane_index=square_tunnel.entrance_plane_index,
            )

    def test_world_capsule_segments_shape(self, c4):
        segs = world_capsule_segments(np.zeros(6), c4.chain, c4.capsules)
        assert segs.shape == (len(c4.capsules), 2, 3)
        fk = forward_kinematics(np.zeros(6), c4.chain)
        # capsule 6 rear endpoint rides on frame 6
        cap = c4.capsules[5]
        expected = fk[5][:3, :3] @ cap.endpoint_a + fk[5][:3, 3]
        assert np.allclose(segs[5, 0], expected, atol=1e-12)


def _reference_witness(a, b, radius, scene):
    """Scalar per-capsule reference: classification, then fringe loop or tunnel clearance.

    Returns (value, case, plane index, clip plane index, the indices whose
    distance ties the minimum to 1e-12).
    """
    if classify_segment(a, b, scene) == CASE_FRINGE:
        closest = [segment_segment_distance(a, b, s0, s1) for s0, s1 in scene.fringe_segments]
        best = 0
        for i, cand in enumerate(closest):
            if cand.distance < closest[best].distance:  # strict: the first index wins a tie
                best = i
        ties = {i for i, cand in enumerate(closest) if cand.distance - closest[best].distance <= 1e-12}
        return closest[best].distance - radius, CASE_FRINGE, best, None, ties
    clearance, _t, clip, wall, _p, _foot = _tunnel_clearance(a, b, scene)
    return clearance - radius, CASE_TUNNEL, wall, clip, {wall}


class TestBatchedKernel:
    """The batched (capsules x fringe segments) kernel against the scalar reference."""

    def _check(self, axes, radii, scene):
        batch = _score_axes(np.asarray(axes, dtype=float), radii, scene, range(len(radii)))
        for i, w in enumerate(batch):
            value, case, plane, clip, ties = _reference_witness(axes[i][0], axes[i][1], radii[i], scene)
            assert abs(w.value - value) <= 1e-12
            assert (w.case_tag, w.clip_plane_index) == (case, clip)
            # Two rim edges meeting at the closest corner tie up to rounding, which
            # the scalar and the batched sums may break differently.
            assert w.plane_index == plane or (w.plane_index in ties and len(ties) > 1)
            # one capsule scored alone takes the same arithmetic as in the batch
            alone = capsule_distance(axes[i][0], axes[i][1], radii[i], scene, i)
            assert alone.value == w.value
            assert (alone.case_tag, alone.plane_index, alone.clip_plane_index, alone.axis_param) == (
                w.case_tag, w.plane_index, w.clip_plane_index, w.axis_param
            )
        return batch

    def test_random_c4_configurations(self, c4):
        from icop.geometry import capsule_witnesses
        from icop.scenario import mounted_scene_and_path

        scene, _ = mounted_scene_and_path(c4)
        rng = np.random.default_rng(31)
        radii = [cap.radius for cap in c4.capsules]
        cases = set()
        for _ in range(150):
            q = c4.initial_config + rng.uniform(-0.4, 0.4, 6)
            segs = world_capsule_segments(q, c4.chain, c4.capsules)
            batch = self._check(segs, radii, scene)
            assert [w.value for w in capsule_witnesses(q, c4.chain, c4.capsules, scene)] == [w.value for w in batch]
            assert scene_distance(q, c4.chain, c4.capsules, scene).value == min(w.value for w in batch)
            cases.update(w.case_tag for w in batch)
        assert cases == {CASE_FRINGE, CASE_TUNNEL}

    def test_random_tunnels(self):
        rng = np.random.default_rng(32)
        tunnels = 0
        for _ in range(60):
            scene = random_tunnel(rng)
            n_out = scene.entrance_outward_normal
            center = scene.entrance_plane.vertices.mean(axis=0)
            axes = [_random_segment(rng, scale=1.5) for _ in range(4)]
            for _ in range(4):  # axes through the opening, most of them TUNNEL
                jitter = rng.uniform(-0.2, 0.2, 3)
                axes.append((center + 0.4 * n_out + jitter, center - rng.uniform(0.1, 2.5) * n_out + jitter))
            batch = self._check(axes, [0.05] * len(axes), scene)
            tunnels += sum(w.case_tag == CASE_TUNNEL for w in batch)
        assert tunnels > 60

    def test_parallel_segments(self, square_tunnel):
        # axes parallel to fringe edges of the unit-square entrance (x = 0, |y|, |z| <= 0.5)
        axes = [
            ([-0.3, 0.8, -0.2], [-0.3, 0.8, 0.4]),  # parallel to the y = 0.5 edge, overlapping it
            ([-0.3, 0.8, 0.7], [-0.3, 0.8, 1.2]),  # parallel, beyond the edge's end
            ([-0.3, -0.2, -0.9], [-0.3, 0.3, -0.9]),  # parallel to the z = -0.5 edge
        ]
        batch = self._check(axes, [0.05] * 3, square_tunnel)
        assert all(w.case_tag == CASE_FRINGE for w in batch)

    def test_zero_length_fringe_segment(self, square_tunnel):
        from icop.geometry import Scene

        corner = square_tunnel.fringe_segments[0, 0]
        scene = Scene(
            planes=square_tunnel.planes,
            fringe_segments=np.concatenate([[[corner, corner]], square_tunnel.fringe_segments]),
            entrance_plane_index=square_tunnel.entrance_plane_index,
        )
        axes = [
            (corner + [-0.5, 0.2, 0.3], corner + [-0.2, 0.4, 0.1]),
            (corner + [-0.3, -0.1, 0.0], corner + [-0.3, 0.1, 0.0]),
            (corner + [-0.3, 0.0, 0.0], corner + [-0.3, 0.0, 0.0]),  # a zero-length axis as well
        ]
        batch = self._check(axes, [0.05] * 3, scene)
        assert batch[1].plane_index == 0  # the point segment comes first and ties the edges at the corner

    def test_equal_distance_tie_keeps_first_index(self, square_tunnel):
        # on the tunnel's centre line the four rim edges are equally far away
        axes = [([-2.0, 0.0, 0.0], [-1.0, 0.0, 0.0])]
        distances = [segment_segment_distance(*axes[0], s0, s1).distance for s0, s1 in square_tunnel.fringe_segments]
        assert len(set(distances)) == 1
        batch = self._check(axes, [0.05], square_tunnel)
        assert batch[0].plane_index == 0 == _reference_witness(*axes[0], 0.05, square_tunnel)[2]
