from dataclasses import fields

import numpy as np
import pytest

from icop import geometry
from icop.geometry import (
    CASE_FRINGE,
    CASE_TUNNEL,
    Capsule,
    CapsuleSet,
    DistanceWitness,
    Scene,
    _closest_fringe,
    _score_axes,
    capsule_distance,
    scene_distance,
    segment_segment_distance,
    transform_scene,
    witness_gradient,
    world_capsule_segments,
    world_state,
)
from icop.kinematics import RobotChain, forward_kinematics, point_jacobian_columns
from icop.transforms import homogeneous, rot_y

from conftest import fringe_segments, random_tunnel, rot_z
from oracles import (
    fd_scene_gradient,
    grid_closest_fringe,
    grid_segment_distance,
    prism_faces,
    quad_distance,
    sampled_material_clearance,
    sampled_tunnel_clearance,
)


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


def _gap(a, b, scene):
    """The kernel's signed distance from the axis [a, b] to the wall quads: a capsule of radius 0."""
    return capsule_distance(a, b, 0.0, scene).value


def _prism_x(points, scene):
    """The prism-frame x of world-frame points (..., 3): 0 on the entrance plane, ``depth`` on the exit plane."""
    return (np.asarray(points, dtype=float) - scene.pose[:3, 3]) @ scene.pose[:3, 0]


class TestClassification:
    """The case tag names the piece that measured the witness: an edge (FRINGE) or the walls in the slab (TUNNEL)."""

    def test_segment_outside_is_fringe(self, square_tunnel):
        assert capsule_distance([-1, 0, 0], [-0.2, 0, 0], 0.05, square_tunnel).case_tag == CASE_FRINGE

    def test_straddling_through_opening_is_tunnel(self, square_tunnel):
        # through the opening toward the y = 0.5 wall: the end inside is nearer a wall than any rim point
        w = capsule_distance([-0.2, 0, 0], [0.5, 0.3, 0], 0.05, square_tunnel)
        assert (w.case_tag, w.plane_index, w.axis_param) == (CASE_TUNNEL, 2, 1.0)

    def test_straddling_outside_opening_is_fringe(self, square_tunnel):
        assert capsule_distance([-0.5, 2.0, 0], [0.5, 2.0, 0], 0.05, square_tunnel).case_tag == CASE_FRINGE

    def test_random_segments_match_plane_side_sampling(self, square_tunnel):
        # a TUNNEL witness lies in the slab; a FRINGE one on the rim (plane j), the exit ring (k + j) or a wall
        # quad seen from the slab (2k + j), and sampling finds axis points on that side of the face planes
        rng = np.random.default_rng(24)
        k, depth = len(square_tunnel.section), square_tunnel.depth
        pieces = set()
        for _ in range(200):
            a, b = _random_segment(rng)
            w = capsule_distance(a, b, 0.05, square_tunnel)
            x = _prism_x(a + np.linspace(0.0, 1.0, 2_000)[:, None] * (b - a), square_tunnel)
            witness_x = _prism_x(w.point_on_robot, square_tunnel)
            ring = 3 if w.case_tag == CASE_TUNNEL else w.plane_index // k
            assert ring in (0, 1, 2, 3) and (ring == 3) == (w.case_tag == CASE_TUNNEL)
            if ring == 0:
                assert x.min() < 0.0
            elif ring == 1:
                assert x.max() > depth
            else:
                assert -1e-12 <= witness_x <= depth + 1e-12 and ((x >= 0.0) & (x <= depth)).any()
            pieces.add(ring)
        assert pieces == {0, 1, 2, 3}


class TestTunnelClearance:
    def test_axis_segment_of_unit_square_prism(self, square_tunnel):
        val = _gap([-0.5, 0, 0], [1.0, 0, 0], square_tunnel)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_segment_on_wall_plane(self, square_tunnel):
        val = _gap([-0.5, 0.5, 0], [1.0, 0.5, 0], square_tunnel)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_penetrating_segment_is_negative(self, square_tunnel):
        val = _gap([-0.5, 0, 0], [1.0, 1.2, 0], square_tunnel)
        assert val < 0.0

    def test_matches_sampling_oracle(self):
        # a TUNNEL witness is the worst wall clearance of the axis's part in the slab, which the oracle samples
        rng = np.random.default_rng(25)
        checked = 0
        while checked < 60:
            scene = random_tunnel(rng)
            a, b = _random_segment(rng, scale=1.5)
            w = capsule_distance(a, b, 0.0, scene)
            if w.case_tag != CASE_TUNNEL:
                continue
            approx = sampled_tunnel_clearance(a, b, scene)
            assert abs(w.value - approx) < 1e-3
            checked += 1

    def test_a_point_inside_gets_the_scorers_clearance(self):
        # the weld-point check maps points into the prism frame and reads the wall table as the capsule scorer
        # does, summed left to right, so it has the scorer's bits whatever BLAS kernel the host picks
        rng = np.random.default_rng(26)
        checked = 0
        while checked < 200:
            scene = random_tunnel(rng)
            local = [rng.uniform(0.0, scene.depth), *rng.uniform(-0.3, 0.3, 2)]
            p = scene.pose[:3, :3] @ local + scene.pose[:3, 3]
            w = capsule_distance(p, p, 0.0, scene)
            if w.case_tag != CASE_TUNNEL or not w.value > 0.0:
                continue
            assert geometry.point_tunnel_clearance(p, scene) == w.value
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
        seg = fringe_segments(square_tunnel)[0]
        touch = 0.5 * (seg[0] + seg[1])
        w = capsule_distance(touch + [-0.4, 0, 0], touch, 0.05, square_tunnel)
        assert w.case_tag == CASE_FRINGE
        assert w.value == pytest.approx(-0.05, abs=1e-12)

    def test_min_over_capsules(self, c4):
        from icop.scenario import mounted_scene_and_path

        scene, _ = mounted_scene_and_path(c4)
        q = c4.initial_config
        state = world_state(q, c4.chain, c4.capsules, scene)
        alone = [capsule_distance(a, b, cap.radius, scene, i).value
                 for i, ((a, b), cap) in enumerate(zip(state.segments, c4.capsules))]
        assert state.clearances.tolist() == alone
        w = scene_distance(q, c4.chain, c4.capsules, scene)
        assert w.value == min(alone)
        assert w.capsule_index == alone.index(min(alone))

    def test_seeded_mountings_keep_the_minimum_over_capsules(self):
        # the benchmark's mounts check, on its ranges: each scenario at its initial configuration, its scene
        # mounted at l in [0, 1.5] m and alpha in [0, pi/4]
        import dataclasses

        from icop.scenario import load_bundled, mounted_scene_and_path

        rng = np.random.default_rng(35)
        bundled = [load_bundled(name) for name in ("c1", "c2", "c3", "c4")]
        cases = set()
        for k in range(200):
            l, alpha = float(rng.uniform(0.0, 1.5)), float(rng.uniform(0.0, 0.25 * np.pi))
            s = dataclasses.replace(bundled[k % 4], mounting_l=l, mounting_alpha=alpha)
            scene, _ = mounted_scene_and_path(s)
            q = s.initial_config
            segments = world_capsule_segments(q, s.chain, s.capsules)
            alone = [capsule_distance(a, b, cap.radius, scene, i) for i, ((a, b), cap) in enumerate(zip(segments, s.capsules))]
            values = [w.value for w in alone]
            w = scene_distance(q, s.chain, s.capsules, scene)
            assert w.value == values[w.capsule_index], (l, alpha)
            assert w.value == min(values) and w.capsule_index == values.index(min(values)), (l, alpha)
            assert world_state(q, s.chain, s.capsules, scene).clearances.tolist() == values, (l, alpha)
            cases.update(w.case_tag for w in alone)
        assert cases == {CASE_FRINGE, CASE_TUNNEL}

    def test_a_moved_scene_scores_like_a_fresh_one(self, c4):
        # transform_scene copies the scene's fields, so anything derived from the pose and kept on a scene
        # would reach the moved scene stale; the unmoved scene is scored first so that such a value exists
        from icop.scenario import mounted_scene_and_path

        base, _ = mounted_scene_and_path(c4)
        rng = np.random.default_rng(36)
        cases = set()
        for q in [c4.initial_config] + [c4.initial_config + rng.uniform(-0.4, 0.4, 6) for _ in range(50)]:
            world_state(q, c4.chain, c4.capsules, base).gradient()
            T = homogeneous(rot_y(rng.uniform(-0.2, 0.2)) @ rot_z(rng.uniform(-0.2, 0.2)), rng.uniform(-0.1, 0.1, 3))
            moved_scene = transform_scene(base, T)
            moved = world_state(q, c4.chain, c4.capsules, moved_scene)
            fresh = world_state(q, c4.chain, c4.capsules, Scene(base.section, base.depth, moved_scene.pose))
            assert moved.clearances.tobytes() == fresh.clearances.tobytes()
            _assert_same_witness(moved.witness, fresh.witness)
            assert np.array(moved.gradient()).tobytes() == np.array(fresh.gradient()).tobytes()
            cases.add(moved.witness.case_tag)
        assert cases == {CASE_FRINGE, CASE_TUNNEL}

    def test_world_state_builds_one_witness(self, c4, monkeypatch):
        # only the worst capsule gets a witness; the others are scored into the clearance array
        from icop.scenario import mounted_scene_and_path

        scene, _ = mounted_scene_and_path(c4)
        built = []

        def counted(*args, **kwargs):
            built.append(DistanceWitness(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(geometry, "DistanceWitness", counted)
        state = world_state(c4.initial_config, c4.chain, c4.capsules, scene)
        assert len(built) == 1 and built[0] is state.witness
        assert state.clearances.shape == (len(c4.capsules),) == (6,)
        assert list(vars(state)) == [field.name for field in fields(geometry.WorldState)]  # world_state fills every field

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            scene = random_tunnel(rng)
            a, b = _random_segment(rng, scale=1.5)
            w = capsule_distance(a, b, 0.07, scene)
            T = homogeneous(rot_y(rng.uniform(-np.pi, np.pi)) @ rot_z(rng.uniform(-np.pi, np.pi)),
                            rng.uniform(-2, 2, 3))
            Ta, Tb = np.array([a, b]) @ T[:3, :3].T + T[:3, 3]
            w2 = capsule_distance(Ta, Tb, 0.07, transform_scene(scene, T))
            assert abs(w.value - w2.value) < 1e-9

    def test_obstacle_translation_is_1_lipschitz_far_field(self, c4):
        from icop.scenario import mounted_scene_and_path

        scene, _ = mounted_scene_and_path(c4)
        q = np.zeros(6)
        d0 = scene_distance(q, c4.chain, c4.capsules, scene).value
        n_out = prism_faces(scene).opening_normals[0]
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

    @pytest.mark.parametrize("k", range(2, 6))  # links 3..6: the first two move a point in a plane only
    def test_an_axis_touching_a_rim_edge_gets_a_direction_across_the_edge(self, c4, k):
        # c4's capsule k at its initial configuration, with a unit-square rim edge through the end of its
        # axis: the witness points coincide, so the direction comes from the edge, not from their difference
        q = c4.initial_config
        capsule = CapsuleSet([c4.capsules[k]])
        ((a, b),) = world_capsule_segments(q, c4.chain, capsule)
        x = (b - a) / np.linalg.norm(b - a)
        z = np.cross(x, [0.3, 0.5, 0.8])
        z /= np.linalg.norm(z)
        R = np.column_stack([x, np.cross(z, x), z])
        # prism frame: the axis ends 1e-13 m in front of (0, 0.5, 0), the midpoint of rim edge 0 along z, so
        # rounding cannot move the end across the entrance
        scene = Scene(np.array(_UNIT_SQUARE), 2.0, homogeneous(R, b - R @ [-1e-13, 0.5, 0.0]))
        state = world_state(q, c4.chain, capsule, scene)
        w = state.witness
        assert w.case_tag == CASE_FRINGE and w.plane_index == 0
        assert np.linalg.norm(w.point_on_robot - w.point_on_obstacle) < 1e-12
        g = np.array(state.gradient())
        assert np.isfinite(g).all() and g.any()
        assert g.tobytes() == witness_gradient(q, c4.chain, capsule, scene, w).tobytes()
        # g = n @ J for the witness point's Jacobian J, whose three rows are independent: n is a unit
        # vector across the edge
        J = np.array(point_jacobian_columns(state.frames, c4.capsules[k].link_index, w.point_on_robot.tolist())).T
        n, *_ = np.linalg.lstsq(J.T, g, rcond=None)
        assert np.linalg.matrix_rank(J) == 3
        assert np.abs(n @ J - g).max() < 1e-6
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-6)
        assert abs(n @ z) < 1e-6


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


_UNIT_SQUARE = [[0.5, -0.5], [0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5]]


class TestValidation:
    def test_scene_rejects_non_unit_normal(self):
        # a scaling pose would stretch every face normal off unit length
        with pytest.raises(ValueError, match="pose must be a proper rigid transform"):
            Scene(_UNIT_SQUARE, 1.0, np.diag([2.0, 2.0, 2.0, 1.0]))

    def test_scene_rejects_off_plane_vertex(self):
        # section vertices are (y, z) points of the entrance plane; one with a third coordinate lies off it
        with pytest.raises(ValueError, match=r"section must be a \(k, 2\) polygon"):
            Scene([[0.5, -0.5, 0.0], [0.5, 0.5, 0.1], [-0.5, 0.5, 0.0]], 1.0)

    def test_scene_rejects_concave_polygon(self):
        section = [[1.0, -1.0], [1.0, 1.0], [0.0, 0.2], [-1.0, 1.0], [-1.0, -1.0]]  # reflex at the third vertex
        with pytest.raises(ValueError, match="section must be strictly convex and counter-clockwise"):
            Scene(section, 1.0)

    def test_scene_rejects_no_wall_plane(self):
        # a wall per section edge: fewer than three vertices bound no tunnel
        for section in (np.zeros((0, 2)), [[0.5, -0.5]], [[0.5, -0.5], [0.5, 0.5]]):
            with pytest.raises(ValueError, match=r"section must be a \(k, 2\) polygon with k >= 3"):
                Scene(section, 1.0)

    @pytest.mark.parametrize(
        "section, message",
        [
            (_UNIT_SQUARE[::-1], "section must be strictly convex and counter-clockwise"),
            ([[0.5, -0.5], [0.5, 0.5], [0.0, 0.5], [-0.5, 0.5], [-0.5, -0.5]], "strictly convex"),  # collinear
            ([[0.5, -0.5], [0.5, 0.5], [0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5]], "section repeats a vertex"),
            ([[0.5, -0.5], [0.5, 0.5], [-0.5, 0.5], [0.5, 0.5], [-0.5, -0.5]], "section repeats a vertex"),
            ([[0.5, -0.5], [0.5, np.nan], [-0.5, 0.5]], "section must be finite"),
            # a pentagram turns left at every vertex but winds twice
            ([[np.cos(a), np.sin(a)] for a in np.arange(5) * 4 * np.pi / 5], "strictly convex"),
        ],
        ids=["clockwise", "collinear", "repeated", "repeated-apart", "nan", "star"],
    )
    def test_scene_rejects_a_bad_section(self, section, message):
        with pytest.raises(ValueError, match=message):
            Scene(section, 1.0)

    @pytest.mark.parametrize("depth", [0.0, -1.0, np.nan, np.inf, True, "1.0"], ids=repr)
    def test_scene_rejects_a_bad_depth(self, depth):
        with pytest.raises(ValueError, match="depth must be > 0 and finite"):
            Scene(_UNIT_SQUARE, depth)

    @pytest.mark.parametrize(
        "pose",
        [np.diag([1.0, 1.0, -1.0, 1.0]), np.eye(3), np.full((4, 4), np.nan)],
        ids=["reflection", "3x3", "nan"],
    )
    def test_scene_rejects_a_non_rigid_pose(self, pose):
        with pytest.raises(ValueError, match="pose must be a proper rigid transform"):
            Scene(_UNIT_SQUARE, 1.0, pose)

    def test_scene_reports_every_bad_field_at_once(self):
        with pytest.raises(ValueError) as err:
            Scene(_UNIT_SQUARE[::-1], -1.0, np.diag([2.0, 2.0, 2.0, 1.0]))
        assert [part.split(" ")[0] for part in str(err.value).split("; ")] == ["section", "depth", "pose"]

    def test_scene_keeps_a_valid_prism(self):
        pose = homogeneous(rot_y(0.3), [1.0, -2.0, 0.5])
        scene = Scene(np.array(_UNIT_SQUARE), np.float64(2.0), pose)
        assert scene.section.tolist() == _UNIT_SQUARE and scene.depth == 2.0 and type(scene.depth) is float
        assert scene.pose.tobytes() == pose.tobytes()
        assert not scene.section.flags.writeable and not scene.pose.flags.writeable
        assert Scene(_UNIT_SQUARE, 2).pose.tobytes() == np.eye(4).tobytes()

    def test_capsule_rejects_bad_radius_and_degenerate_axis(self):
        with pytest.raises(ValueError):
            Capsule(link_index=1, endpoint_a=[0, 0, 0], endpoint_b=[1, 0, 0], radius=0.0)
        with pytest.raises(ValueError):
            Capsule(link_index=1, endpoint_a=[0, 0, 0], endpoint_b=[0, 0, 0], radius=0.1)
        for bad in (
            dict(link_index=2.5),
            dict(link_index=True),
            dict(link_index=7),
            dict(endpoint_a=[0, np.nan, 0]),
            dict(endpoint_b=[np.inf, 0, 0]),
            dict(radius=np.inf),
            dict(radius=np.nan),
            dict(radius=True),
            dict(radius="0.1"),
        ):
            with pytest.raises(ValueError):
                Capsule(**{**dict(link_index=1, endpoint_a=[0, 0, 0], endpoint_b=[1, 0, 0], radius=0.1), **bad})
        assert Capsule(link_index=np.int64(2), endpoint_a=[0, 0, 0], endpoint_b=[1, 0, 0], radius=0.1).link_index == 2

    def test_world_capsule_segments_shape(self, c4):
        segs = world_capsule_segments(np.zeros(6), c4.chain, c4.capsules)
        assert segs.shape == (len(c4.capsules), 2, 3)
        fk = forward_kinematics(np.zeros(6), c4.chain)
        # capsule 6 rear endpoint rides on frame 6
        cap = c4.capsules[5]
        expected = fk[5][:3, :3] @ cap.endpoint_a + fk[5][:3, 3]
        assert np.allclose(segs[5, 0], expected, atol=1e-12)


class TestCapsuleSet:
    def test_rejects_an_empty_set_and_a_non_capsule(self, c4):
        for bad in ((), [], [*c4.capsules, None], [c4.capsules[0], (1, [0, 0, 0], [1, 0, 0], 0.1)]):
            with pytest.raises(ValueError, match="capsule set"):
                CapsuleSet(bad)

    def test_a_capsule_list_gives_the_capsule_set_bits(self, c4):
        from icop.scenario import mounted_scene_and_path

        scene, _ = mounted_scene_and_path(c4)
        rng = np.random.default_rng(33)
        as_list = list(c4.capsules)
        for q in [c4.initial_config] + [c4.initial_config + rng.uniform(-0.4, 0.4, 6) for _ in range(20)]:
            state = world_state(q, c4.chain, c4.capsules, scene)
            listed = world_state(q, c4.chain, as_list, scene)
            assert isinstance(listed.capsules, CapsuleSet) and list(listed.capsules) == as_list
            for name in ("q", "frames", "segments", "tool_position", "clearances"):
                assert np.asarray(getattr(listed, name)).tobytes() == np.asarray(getattr(state, name)).tobytes(), name
            _assert_same_witness(listed.witness, state.witness)
            _assert_same_witness(scene_distance(q, c4.chain, as_list, scene), state.witness)
            gradient = witness_gradient(q, c4.chain, c4.capsules, scene, state.witness)
            assert witness_gradient(q, c4.chain, as_list, scene, state.witness).tobytes() == gradient.tobytes()
            assert np.array(state.gradient()).tobytes() == gradient.tobytes()
            segments = world_capsule_segments(q, c4.chain, as_list)
            assert segments.tobytes() == world_capsule_segments(q, c4.chain, c4.capsules).tobytes()



def _assert_culled_like_full(state):
    """``state`` against a full evaluation of its q: the same witness bits, and every clearance exact or below it."""
    full = world_state(state.q, state.chain, state.capsules, state.scene)
    _assert_same_witness(state.witness, full.witness)
    assert full.scored == len(full.capsules)
    assert (state.clearances <= full.clearances).all()
    exact = state.clearances == full.clearances
    assert exact.sum() >= state.scored
    assert (state.clearances[~exact] > state.witness.value).all()  # a culled capsule is above the minimum


def _straddling(state) -> tuple:
    """The capsules whose axis has ends strictly on both sides of the entrance plane in ``state``."""
    return tuple(i for i, ends in enumerate(state.segments) if np.prod(np.sign(_prism_x(ends, state.scene))) < 0)


class TestCulledEvaluation:
    """``world_state`` from a previous state skips the rim pass of capsules that cannot bind."""

    @pytest.fixture(scope="class")
    def setup(self, straight_chain, square_tunnel):
        """The square tunnel 3 m out along x, and three capsules: B on link 1 near the top rim edge, A on link 1
        through the middle of the opening, C fixed on the base beside it. Joint 1 turns links 1..6 about z."""
        scene = transform_scene(square_tunnel, homogeneous(np.eye(3), [3.0, 0.0, 0.0]))
        capsules = CapsuleSet([
            Capsule(1, [1.0, 0.0, 0.62], [1.9, 0.0, 0.62], 0.05),
            Capsule(1, [1.0, 0.0, 0.0], [2.0005, 0.0, 0.0], 0.05),
            Capsule(0, [2.7, -0.75, -0.3], [2.7, -0.75, 0.3], 0.05),
        ])
        states, previous = [], None
        for turn in (0.0, 0.05, 0.5):
            previous = world_state([turn, 0, 0, 0, 0, 0], straight_chain, capsules, scene, previous)
            states.append(previous)
        return scene, capsules, states

    def test_an_axis_that_left_the_opening_keeps_its_floor(self, setup):
        _scene, _capsules, (first, second, _third) = setup
        # A crosses the opening first and has left it after a 0.05 rad turn: its exact clearance there, less
        # its axis's motion, bounds its clearance now, so it is culled, and so is C
        assert _straddling(first) == (1,) and _straddling(second) == ()
        assert second.witness.capsule_index == 0 and second.scored == 1
        full = world_state(second.q, second.chain, second.capsules, second.scene)
        assert second.clearances[0] == full.clearances[0]
        motion = max(np.linalg.norm(np.subtract(now, then)) for now, then in zip(second.segments[1], first.segments[1]))
        assert second.clearances[1] == pytest.approx(first.clearances[1] - motion - geometry._CULL_SLACK, abs=1e-15)
        assert second.witness.value < second.clearances[1] < full.clearances[1]
        assert second.clearances[2] == full.clearances[2] - geometry._CULL_SLACK
        for state in setup[2]:
            _assert_culled_like_full(state)

    def test_the_witness_passes_to_a_capsule_culled_one_step_earlier(self, setup):
        _scene, _capsules, (first, second, third) = setup
        assert first.scored == 3 and first.witness.capsule_index == 0
        assert second.clearances[2] < world_state(second.q, second.chain, second.capsules, second.scene).clearances[2]
        # B turned away from the rim: C, culled at the step before, is scored and is the witness
        assert third.scored == 3 and third.witness.capsule_index == 2
        _assert_same_witness(third.witness, world_state(third.q, third.chain, third.capsules, third.scene).witness)

    def test_a_previous_state_of_other_objects_gives_the_full_evaluation(self, setup, straight_chain):
        scene, capsules, (first, second, _third) = setup
        q = second.q
        assert world_state(q, straight_chain, capsules, scene, first).scored == 1
        full = world_state(q, straight_chain, capsules, scene)
        other_chain = RobotChain(joints=straight_chain.joints, tool_offset=straight_chain.tool_offset)
        others = (
            world_state(first.q, other_chain, capsules, scene),
            world_state(first.q, straight_chain, CapsuleSet(capsules), scene),
            world_state(first.q, straight_chain, capsules, transform_scene(scene, np.eye(4))),
        )
        for previous in others:
            state = world_state(q, straight_chain, capsules, scene, previous)
            assert state.scored == 3
            assert state.clearances.tobytes() == full.clearances.tobytes()
            _assert_same_witness(state.witness, full.witness)

    def test_seeded_entrance_exits_keep_the_full_witness(self, setup, straight_chain):
        # A crosses the opening near its centre on a shallow line whose outside part passes just beyond a rim
        # edge, so a small turn can carry the crossing past the edge: the axis then pierces the wall, and its
        # clearance falls below minus its radius, which no floor minus the motion may bound from above
        scene = setup[0]
        rng = np.random.default_rng(41)
        link_1 = np.array([1.0, 0.0, 0.0])  # link 1's frame origin at zero turn
        exits = culled_exits = 0
        for _ in range(1000):
            crossing = np.array([3.0, *rng.uniform(-0.2, 0.2, 2)])
            angle = rng.uniform(0.0, 2 * np.pi)
            u = np.array([0.0, np.cos(angle), np.sin(angle)])
            to_rim = min((np.copysign(0.5, u_j) - c_j) / u_j for c_j, u_j in zip(crossing[1:], u[1:]) if u_j)
            outside = crossing + (to_rim + rng.uniform(0.01, 0.1)) * u - [rng.uniform(0.002, 0.03), 0.0, 0.0]
            inside = crossing - rng.uniform(0.1, 0.6) * (outside - crossing)
            b_end, c_end = (np.array([rng.uniform(2.0, 2.95), *rng.uniform(-0.8, 0.8, 2)]) for _ in range(2))
            capsules = CapsuleSet([
                Capsule(1, b_end + rng.uniform(-0.6, 0.6, 3) - link_1, b_end - link_1, 0.05),
                Capsule(1, outside - link_1, inside - link_1, 0.05),
                Capsule(0, c_end + rng.uniform(-0.6, 0.6, 3), c_end, 0.05),
            ])
            turn = rng.uniform(-0.02, 0.02)
            previous = world_state([turn, 0, 0, 0, 0, 0], straight_chain, capsules, scene)
            turn += rng.choice([-1.0, 1.0]) * rng.uniform(0.002, 0.05)
            state = world_state([turn, 0, 0, 0, 0, 0], straight_chain, capsules, scene, previous)
            _assert_culled_like_full(state)
            full = world_state(state.q, state.chain, state.capsules, state.scene)
            if not previous.clearances[1] > -0.05 > full.clearances[1]:
                continue
            exits += 1  # A's axis went from clear of the walls to piercing one
            culled_exits += state.clearances[1] != full.clearances[1]
        assert exits >= 40 and culled_exits == 0  # 49 of the 1000 draws

    def test_random_joint_walks_keep_the_full_witness(self):
        # walks from each scenario's start in steps of 0.002-0.08 rad per joint carry axes across the entrance
        from icop.scenario import load_bundled, mounted_scene_and_path

        rng = np.random.default_rng(37)
        states = witness_changes = straddle_changes = piercing = culled = 0
        for name in ("c1", "c2", "c3", "c4"):
            s = load_bundled(name)
            scene, _ = mounted_scene_and_path(s)
            for _walk in range(25):
                q, previous = s.initial_config, world_state(s.initial_config, s.chain, s.capsules, scene)
                for _step in range(100):
                    q = q + rng.uniform(0.002, 0.08, 6) * rng.choice([-1.0, 1.0], 6)
                    state = world_state(q, s.chain, s.capsules, scene, previous)
                    _assert_culled_like_full(state)
                    states += 1
                    witness_changes += state.witness.capsule_index != previous.witness.capsule_index
                    straddle_changes += _straddling(state) != _straddling(previous)
                    piercing += state.witness.value < -s.capsules[state.witness.capsule_index].radius
                    culled += len(s.capsules) - state.scored
                    previous = state
        assert states == 10_000
        assert witness_changes > 100 and straddle_changes > 100 and piercing > 100 and culled > states


class TestMaterialOracle:
    """``sampled_material_clearance``: a capsule against the wall quads, (section edge i -> i + 1) x [0, depth]."""

    SAMPLES = 400

    def _spacing(self, a, b, samples=SAMPLES):
        """The most a sampled axis minimum can exceed the true one: half the sample spacing."""
        return np.linalg.norm(np.subtract(b, a)) / (2 * (samples - 1))

    def test_through_a_wall(self, square_tunnel):
        a, b = [1.0, 0.0, 0.0], [1.0, 0.8, 0.0]  # leaves through the y = 0.5 wall
        got = sampled_material_clearance(a, b, 0.05, square_tunnel, self.SAMPLES)
        assert got.crosses_wall
        assert -0.05 <= got.clearance <= -0.05 + self._spacing(a, b)

    def test_wholly_inside(self, square_tunnel):
        # the nearest wall is y = 0.5, 0.3 from the end (1.5, 0.2, 0.1)
        got = sampled_material_clearance([0.5, -0.2, 0.1], [1.5, 0.2, 0.1], 0.05, square_tunnel, self.SAMPLES)
        assert not got.crosses_wall
        assert got.clearance == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("y", [0.45, 0.55])
    def test_grazing_a_face(self, square_tunnel, y):
        # parallel to the y = 0.5 wall at one radius from it, on the inner face and on the outer one
        got = sampled_material_clearance([0.5, y, 0.0], [1.5, y, 0.0], 0.05, square_tunnel, self.SAMPLES)
        assert not got.crosses_wall
        assert got.clearance == pytest.approx(0.0, abs=1e-12)

    def test_in_front_of_the_rim(self, square_tunnel):
        # in front of the entrance the nearest material is the rim, the quads' entrance edges
        a, b = [-0.5, 0.0, 0.0], [-0.1, 0.3, 0.0]
        exact = min(segment_segment_distance(a, b, *edge).distance for edge in fringe_segments(square_tunnel)) - 0.05
        got = sampled_material_clearance(a, b, 0.05, square_tunnel, self.SAMPLES)
        assert not got.crosses_wall
        assert exact <= got.clearance <= exact + self._spacing(a, b)

    def test_random_tunnels_against_denser_sampling(self):
        # every coarse sample is a dense one, so the dense minimum is no larger and lies within the coarse spacing
        rng = np.random.default_rng(42)
        dense_samples = 10 * (self.SAMPLES - 1) + 1
        crossing = 0
        for _ in range(12):
            scene = random_tunnel(rng)
            to_world = scene.pose[:3, :3], scene.pose[:3, 3]
            for _ in range(8):
                ends = rng.uniform([-0.5, -1.0, -1.0], [scene.depth + 0.5, 1.0, 1.0], (2, 3))  # prism frame
                a, b = ends @ to_world[0].T + to_world[1]
                coarse = sampled_material_clearance(a, b, 0.05, scene, self.SAMPLES)
                dense = sampled_material_clearance(a, b, 0.05, scene, dense_samples)
                assert dense.crosses_wall == coarse.crosses_wall
                assert dense.clearance <= coarse.clearance <= dense.clearance + self._spacing(a, b)
                if coarse.crosses_wall:
                    assert dense.clearance <= -0.05 + self._spacing(a, b, dense_samples)
                    crossing += 1
        assert crossing > 20

    def test_a_point_against_a_grid_on_the_quads(self):
        # the distance to each quad against a 101 x 101 grid of its points, placed from section, depth and pose
        rng = np.random.default_rng(43)
        u = np.linspace(0.0, 1.0, 101)
        for _ in range(10):
            scene = random_tunnel(rng)
            section, R, t = scene.section, scene.pose[:3, :3], scene.pose[:3, 3]
            edges = np.roll(section, -1, axis=0) - section
            x, along = (g.ravel() for g in np.meshgrid(u * scene.depth, u))
            quads = [np.column_stack([x, start + along[:, None] * edge]) for start, edge in zip(section, edges)]
            grid = np.concatenate(quads) @ R.T + t
            cell = np.hypot(scene.depth, np.linalg.norm(edges, axis=1).max()) / 100  # a grid cell's diagonal
            for _ in range(5):
                point = np.array([rng.uniform(-0.5, scene.depth + 0.5), *rng.uniform(-1.0, 1.0, 2)]) @ R.T + t
                got = sampled_material_clearance(point, point, 0.0, scene, 2).clearance
                nearest = np.linalg.norm(grid - point, axis=1).min()
                assert got - 1e-12 <= nearest <= got + cell


class TestKernelAgainstTheMaterial:
    """The kernel's distance on seeded ``random_tunnel`` axes against the wall quads, measured independently."""

    SAMPLES = 2_000

    @pytest.fixture(scope="class")
    def measured(self):
        """(kernel gap, sampled material clearance, exact quad distance, axis length) of 1000 seeded axes."""
        rng = np.random.default_rng(44)
        rows = []
        for _ in range(100):
            scene = random_tunnel(rng)
            R, t = scene.pose[:3, :3], scene.pose[:3, 3]
            for _ in range(10):
                ends = rng.uniform([-0.5, -1.0, -1.0], [scene.depth + 0.5, 1.0, 1.0], (2, 3))  # prism frame
                a, b = ends @ R.T + t
                oracle = sampled_material_clearance(a, b, 0.0, scene, self.SAMPLES)
                rows.append((_gap(a, b, scene), oracle, quad_distance(a, b, scene), np.linalg.norm(b - a)))
        return rows

    def test_the_kernel_never_exceeds_the_sampled_material_clearance(self, measured):
        # sampling can only over-estimate a minimum, so an exact kernel lies at or below the oracle
        assert max(gap - oracle.clearance for gap, oracle, _exact, _length in measured) <= 1e-12

    def test_the_kernel_agrees_with_the_material_within_the_sampling_error(self, measured):
        clear = [(gap, oracle, exact, length) for gap, oracle, exact, length in measured if not oracle.crosses_wall]
        assert len(clear) > 500
        for gap, oracle, exact, length in clear:
            assert oracle.clearance - gap <= length / (2 * (self.SAMPLES - 1))  # half the sample spacing
            assert abs(gap - exact) <= 1e-12

    def test_every_piercing_axis_scores_negative(self, measured):
        piercing = [(gap, exact) for gap, oracle, exact, _length in measured if oracle.crosses_wall]
        assert len(piercing) > 300
        assert all(gap < 0.0 and exact == 0.0 for gap, exact in piercing)
        assert all(oracle.crosses_wall for gap, oracle, _exact, _length in measured if gap < 0.0)

    def test_axes_on_faces_edges_and_corners_never_score_above_the_exact_distance(self, square_tunnel):
        # ends drawn from coordinates on and one rounding step off the entrance, exit and wall planes, so axes
        # lie in faces, run along edges and touch corners: a score is never above the exact distance to the
        # quads and equals it unless negative. An axis that only touches a quad's boundary may score a depth.
        rng = np.random.default_rng(45)
        xs = [-0.5, -1e-16, 0.0, 1e-16, 1.0, 2.0, 2.0 + 1e-16, 2.5]
        yzs = [-0.7, -0.5, -0.2, 0.0, 0.5, 0.5 + 1e-15, 0.7]
        negative = 0
        for _ in range(2000):
            a = np.array([rng.choice(xs), rng.choice(yzs), rng.choice(yzs)])
            b = a.copy() if rng.random() < 0.15 else np.array([rng.choice(xs), rng.choice(yzs), rng.choice(yzs)])
            gap, exact = _gap(a, b, square_tunnel), quad_distance(a, b, square_tunnel)
            assert gap <= exact + 1e-12 and (gap < 0.0 or abs(gap - exact) <= 1e-12), (a, b, gap, exact)
            negative += gap < 0.0
        assert negative > 300


def _placed_scene(q, chain, capsules, start, direction, depth=2.0):
    """A unit-square prism posed so that the one capsule's axis at q runs from prism-frame ``start`` along ``direction``."""
    ((a, b),) = world_capsule_segments(q, chain, capsules)

    def frame(x):  # a rotation whose first column is the unit vector along x
        x = np.asarray(x, dtype=float) / np.linalg.norm(x)
        z = np.cross(x, [0.3, 0.5, 0.8])
        z /= np.linalg.norm(z)
        return np.column_stack([x, np.cross(z, x), z])

    R = frame(b - a) @ frame(direction).T
    return Scene(np.array(_UNIT_SQUARE), depth, homogeneous(R, a - R @ np.asarray(start, dtype=float)))


class TestPieceGradients:
    """Central differences of each record kind's distance against ``gradient``, within one smooth piece.

    One 0.5 m capsule on link 6 of c4's chain, placed in a unit-square prism
    of depth 2. The rim and exit-ring passes measure the whole axis, so their
    witnesses are never pinned. A clear witness pinned at a cut plane ties
    the ring pass through the same point, so the pinned cases are piercing
    ones, whose chain-rule term a sign error would flip.
    """

    CAPSULE = CapsuleSet([Capsule(6, [0.0, 0.0, 0.0], [0.0, 0.0, 0.5], 0.04)])

    @pytest.mark.parametrize("start, direction, piece, piercing", [
        ((-0.6, 0.1, 0.1), (1.0, 0.4, 0.5), (CASE_FRINGE, 1, None), False),  # in front: the rim
        ((2.6, 0.1, 0.1), (-1.0, 0.4, 0.5), (CASE_FRINGE, 5, None), False),  # beyond the exit: the exit ring
        ((0.5, 0.0, 0.0), (1.0, 0.5, 0.2), (CASE_TUNNEL, 2, None), False),  # in the section: a wall
        ((0.5, 0.7, 0.1), (1.0, 0.3, 0.2), (CASE_FRINGE, 8, None), False),  # beside the section: a wall quad
        ((0.5, 0.2, 0.0), (0.3, 1.0, 0.1), (CASE_TUNNEL, 2, None), True),  # through a wall, both ends in the slab
        ((-0.1, 0.8, 0.1), (1.0, -1.2, 0.2), (CASE_TUNNEL, 2, 0), True),  # its end outside on the entrance plane
        ((1.8, 0.3, 0.1), (1.0, 1.5, 0.2), (CASE_TUNNEL, 2, 1), True),  # its end outside on the exit plane
    ], ids=["rim", "exit-ring", "wall", "slab-edge", "piercing", "piercing-entrance", "piercing-exit"])
    def test_gradient_matches_central_differences(self, c4, start, direction, piece, piercing, h=1e-6):
        q = c4.initial_config
        scene = _placed_scene(q, c4.chain, self.CAPSULE, start, direction)
        state = world_state(q, c4.chain, self.CAPSULE, scene)
        w = state.witness
        assert (w.case_tag, w.plane_index, w.clip_plane_index) == piece
        assert (w.value < -self.CAPSULE[0].radius) == piercing
        grad = state.gradient()
        for j in range(6):
            step = np.zeros(6)
            step[j] = h
            up, down = (world_state(q + sign * step, c4.chain, self.CAPSULE, scene).witness for sign in (1.0, -1.0))
            assert {(o.case_tag, o.plane_index, o.clip_plane_index) for o in (up, down)} == {piece}
            assert (up.value - down.value) / (2 * h) == pytest.approx(grad[j], abs=1e-6), j


_DERIVED = ("_walls", "_rim")


def _rebuilt(scene):
    """The same scene through the validating constructor."""
    return Scene(scene.section, scene.depth, scene.pose)


def _composed(T, P):
    """T @ P on Python floats, each entry summed left to right as ``transform_scene`` sums it."""
    columns = list(zip(*P.tolist()))
    return np.array([[a * p + b * q + c * r + d * s for p, q, r, s in columns] for a, b, c, d in T.tolist()])


def _assert_same_scene(s1, s2):
    for name in ("section", "depth", "pose", "_pose_rows", *_DERIVED):
        assert np.asarray(getattr(s1, name)).tobytes() == np.asarray(getattr(s2, name)).tobytes(), name


class TestTransformScene:
    """A rigid motion keeps every scene invariant, so transform_scene checks only the transform."""

    def test_output_passes_the_constructor(self):
        rng = np.random.default_rng(81)
        for _ in range(1000):
            scene = random_tunnel(rng)
            T = homogeneous(rot_y(rng.uniform(-np.pi, np.pi)) @ rot_z(rng.uniform(-np.pi, np.pi)), rng.uniform(-2, 2, 3))
            moved = transform_scene(scene, T)
            _assert_same_scene(_rebuilt(moved), moved)

    def test_two_moves_compose_into_one(self):
        # from the identity pose, T @ I is T to the bit, so moving by A then B stores B @ A, summed in a fixed order
        rng = np.random.default_rng(82)
        for _ in range(200):
            scene = Scene(random_tunnel(rng).section, float(rng.uniform(0.5, 2.0)))
            A, B = (
                homogeneous(rot_y(rng.uniform(-np.pi, np.pi)) @ rot_z(rng.uniform(-np.pi, np.pi)), rng.uniform(-2, 2, 3))
                for _ in range(2)
            )
            _assert_same_scene(transform_scene(transform_scene(scene, A), B), transform_scene(scene, _composed(B, A)))

    @pytest.mark.parametrize(
        "T", [np.diag([2.0, 2.0, 2.0, 1.0]), np.diag([1.0, 1.0, -1.0, 1.0])], ids=["scaling", "reflection"]
    )
    def test_rejects_non_rigid_transform(self, square_tunnel, T):
        with pytest.raises(ValueError, match="rigid"):
            transform_scene(square_tunnel, T)

    def test_a_moved_scene_shares_its_tables(self):
        # the tables come from the section alone, so a move changes only the pose
        rng = np.random.default_rng(83)
        scene = random_tunnel(rng)
        moved = transform_scene(scene, homogeneous(rot_y(0.4) @ rot_z(-1.1), [0.3, -0.2, 1.0]))
        for name in _DERIVED:
            assert getattr(moved, name) is getattr(scene, name), name
        assert moved.section is scene.section and moved.depth == scene.depth
        assert moved.pose is not scene.pose and not moved.pose.flags.writeable

    def test_does_not_run_the_plane_check(self, square_tunnel, monkeypatch):
        # the constructor's check of the section, depth and pose the planes come from
        def refuse(*_args):
            raise AssertionError("scene checks called")

        monkeypatch.setattr(Scene, "__post_init__", refuse)
        T = homogeneous(rot_y(0.4), [0.3, -0.2, 1.0])
        moved = transform_scene(square_tunnel, T)
        assert moved.pose.tobytes() == (T @ square_tunnel.pose).tobytes()
        with pytest.raises(AssertionError, match="scene checks called"):  # the constructor does run them
            _rebuilt(moved)


def _check_witness(w, a, b, radius, scene):
    """Check one capsule's witness against the exact quad distance, and against the face its record names.

    An axis that does not cross a wall quad scores its ``quad_distance``
    minus the radius, to 1e-12. One that crosses (the material oracle's exact
    flag) scores below minus the radius: the worst wall clearance on its part
    in the slab, which ``sampled_tunnel_clearance`` samples. The witness
    points realize the value, the axis point lies at ``axis_param``, and the
    obstacle point lies on the face the record names: rim edge j (FRINGE
    plane j) at x = 0, exit-ring edge j (k + j) at x = depth, section edge j
    seen from the slab (2k + j) or wall plane i (TUNNEL 2 + i) within
    0 <= x <= depth.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if sampled_material_clearance(a, b, radius, scene).crosses_wall:
        assert w.case_tag == CASE_TUNNEL and w.value < -radius
        assert abs(w.value + radius - sampled_tunnel_clearance(a, b, scene)) < 1e-3
    else:
        assert abs(w.value + radius - quad_distance(a, b, scene)) <= 1e-12
    assert np.linalg.norm(a + w.axis_param * (b - a) - w.point_on_robot) <= 1e-12
    assert abs(np.linalg.norm(w.point_on_robot - w.point_on_obstacle) - abs(w.value + radius)) <= 1e-12
    x, y, z = (w.point_on_obstacle - scene.pose[:3, 3]) @ scene.pose[:3, :3]
    section = scene.section
    k = len(section)
    if w.case_tag == CASE_TUNNEL:
        edge, ring = w.plane_index - 2, 2
    else:
        edge, ring = w.plane_index % k, w.plane_index // k
    start, end = section[edge], section[(edge + 1) % k]
    along = end - start
    u = (np.array([y, z]) - start) @ along / (along @ along)
    off_line = abs(along[0] * (z - start[1]) - along[1] * (y - start[0])) / np.linalg.norm(along)
    assert off_line <= 1e-12
    if w.case_tag == CASE_FRINGE:
        assert -1e-12 <= u <= 1 + 1e-12
    assert ring in (0, 1, 2)
    lo, hi = ((0.0, 0.0), (scene.depth, scene.depth), (0.0, scene.depth))[ring]
    assert lo - 1e-12 <= x <= hi + 1e-12


_WITNESS_FIELDS = [field.name for field in fields(DistanceWitness)]


def _assert_same_witness(w1, w2):
    # every field, the point arrays by their shape and bytes
    bits = [
        tuple((v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v for v in map(vars(w).get, _WITNESS_FIELDS))
        for w in (w1, w2)
    ]
    assert bits[0] == bits[1]


# The unit square with its (0.5, 0.5) corner doubled 1e-9 away, and 1e-12 out so that the section stays
# strictly convex: rim edge 0 is point-like.
_POINT_EDGE_SECTION = [[0.5, 0.5], [0.5 - 1e-9, 0.5 + 1e-12], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]]


class TestBatchedKernel:
    """The kernel that scores every capsule of a state against the per-capsule references."""

    def _check(self, axes, radii, scene):
        """Check each capsule alone against the reference and the batch against the alone results.

        Returns the batch's (clearances, witness) and each capsule's witness scored alone.
        """
        clearances, witness, *_ = _score_axes(np.asarray(axes, dtype=float).tolist(), radii, scene, range(len(radii)))
        alone = [capsule_distance(a, b, radius, scene, i) for i, ((a, b), radius) in enumerate(zip(axes, radii))]
        for i, w in enumerate(alone):
            _check_witness(w, axes[i][0], axes[i][1], radii[i], scene)
            # one capsule scored alone takes the same arithmetic as in the batch
            assert clearances[i] == w.value
        assert witness.capsule_index == int(np.argmin(clearances))
        _assert_same_witness(witness, alone[witness.capsule_index])
        return clearances, witness, alone

    def test_random_c4_configurations(self, c4):
        from icop.scenario import mounted_scene_and_path

        scene, _ = mounted_scene_and_path(c4)
        rng = np.random.default_rng(31)
        radii = [cap.radius for cap in c4.capsules]
        cases = set()
        for _ in range(150):
            q = c4.initial_config + rng.uniform(-0.4, 0.4, 6)
            segs = world_capsule_segments(q, c4.chain, c4.capsules)
            clearances, witness, alone = self._check(segs, radii, scene)
            state = world_state(q, c4.chain, c4.capsules, scene)
            assert state.clearances.tolist() == clearances
            _assert_same_witness(state.witness, witness)
            assert scene_distance(q, c4.chain, c4.capsules, scene).value == min(clearances)
            cases.update(w.case_tag for w in alone)
        assert cases == {CASE_FRINGE, CASE_TUNNEL}

    def test_random_tunnels(self):
        rng = np.random.default_rng(32)
        tunnels = 0
        for _ in range(60):
            scene = random_tunnel(rng)
            faces = prism_faces(scene)
            n_out, center = faces.opening_normals[0], faces.entrance.mean(axis=0)
            axes = [_random_segment(rng, scale=1.5) for _ in range(4)]
            for _ in range(4):  # axes through the opening, most of them TUNNEL
                jitter = rng.uniform(-0.2, 0.2, 3)
                axes.append((center + 0.4 * n_out + jitter, center - rng.uniform(0.1, 2.5) * n_out + jitter))
            _clearances, _witness, alone = self._check(axes, [0.05] * len(axes), scene)
            tunnels += sum(w.case_tag == CASE_TUNNEL for w in alone)
        assert tunnels > 60

    def test_parallel_segments(self, square_tunnel):
        # axes parallel to fringe edges of the unit-square entrance (x = 0, |y|, |z| <= 0.5)
        axes = [
            ([-0.3, 0.8, -0.2], [-0.3, 0.8, 0.4]),  # parallel to the y = 0.5 edge, overlapping it
            ([-0.3, 0.8, 0.7], [-0.3, 0.8, 1.2]),  # parallel, beyond the edge's end
            ([-0.3, -0.2, -0.9], [-0.3, 0.3, -0.9]),  # parallel to the z = -0.5 edge
        ]
        _clearances, _witness, alone = self._check(axes, [0.05] * 3, square_tunnel)
        assert all(w.case_tag == CASE_FRINGE for w in alone)

    def test_zero_length_fringe_segment(self):
        scene = Scene(_POINT_EDGE_SECTION, depth=2.0)
        corner, end = fringe_segments(scene)[0]
        assert np.sum((end - corner) ** 2) <= geometry._SEGMENT_EPS
        axes = [
            (corner + [-0.5, 0.2, 0.3], corner + [-0.2, 0.4, 0.1]),
            (corner + [-0.3, -0.1, 0.0], corner + [-0.3, 0.1, 0.0]),
            (corner + [-0.3, 0.0, 0.0], corner + [-0.3, 0.0, 0.0]),  # a zero-length axis as well
        ]
        _clearances, _witness, alone = self._check(axes, [0.05] * 3, scene)
        assert alone[1].plane_index == 0  # the point segment comes first and ties the edges at the corner

    def test_point_like_axis(self, square_tunnel):
        # a valid capsule whose axis is about 1e-9 long: its squared length is below _SEGMENT_EPS, so it is
        # scored as a point; the axis points at the nearest rim corner, where the segment formulas would move s to 1
        a = np.array([-0.1, 0.6, 0.6])
        cap = Capsule(link_index=0, endpoint_a=a, endpoint_b=a + [5e-10, -5e-10, -5e-10], radius=0.05)
        assert np.sum((cap.endpoint_b - cap.endpoint_a) ** 2) < geometry._SEGMENT_EPS
        axes = [([-1.0, 0.0, 0.9], [-0.6, 0.2, 0.9]), (cap.endpoint_a, cap.endpoint_b)]
        _clearances, witness, alone = self._check(axes, [0.05, cap.radius], square_tunnel)
        assert (witness.capsule_index, witness.case_tag) == (1, CASE_FRINGE)
        assert alone[1].axis_param == 0.0

    def test_axes_where_the_straddle_test_decides(self, square_tunnel):
        # the unit-square entrance is x = 0, |y|, |z| <= 0.5: an end strictly in front of it runs the rim pass,
        # and the part with 0 <= x <= depth is scored in the slab
        axes = [
            ([0.0, 0.1, 0.1], [0.7, 0.1, 0.1]),  # an endpoint on the entrance plane, inside the opening
            ([-0.4, 0.1, 0.2], [0.0, 0.1, 0.2]),  # the same from outside: the rim pass ties the slab's point
            ([0.0, -0.3, 0.1], [0.0, 0.2, 0.1]),  # lying in the entrance plane
            ([-0.5, 0.5 - 1e-6, 0.1], [0.5, 0.5 - 1e-6, 0.1]),  # through the opening 1e-6 inside the y = 0.5 edge
            ([-0.5, 0.5 + 1e-6, 0.1], [0.5, 0.5 + 1e-6, 0.1]),  # beside the y = 0.5 wall, 1e-6 outside it
            ([-0.5, 0.0, 0.0], [0.5, 1.0, 1.0]),  # through the (0.5, 0.5) rim vertex into the walls' corner
        ]
        _clearances, _witness, alone = self._check(axes, [0.05] * len(axes), square_tunnel)
        pieces = [(w.case_tag, w.plane_index, w.clip_plane_index) for w in alone]
        assert pieces == [
            (CASE_TUNNEL, 2, None),
            (CASE_FRINGE, 1, None),
            (CASE_TUNNEL, 4, None),
            (CASE_FRINGE, 0, None),
            (CASE_FRINGE, 0, None),
            (CASE_TUNNEL, 2, None),
        ]
        assert [w.value for w in alone[3:5]] == pytest.approx([1e-6 - 0.05] * 2, abs=1e-15)
        assert alone[5].value == pytest.approx(-0.55, abs=1e-15)  # pierces: its far end is 0.5 beyond two walls

    def test_a_grazing_crossing_is_scored_by_the_rim_pass(self):
        # the axis crosses x = 0 within 1e-16 of parallel to it: the rim pass measures the whole axis, and its
        # part in the slab, from the crossing on, ties it at the far end
        scene = Scene(_UNIT_SQUARE, depth=1.0)
        axes = [([-1e-16, -0.2, 0.1], [1e-16, 0.3, 0.1])]
        _clearances, _witness, (w,) = self._check(axes, [0.05], scene)
        assert (w.case_tag, w.axis_param, w.clip_plane_index, w.plane_index) == (CASE_FRINGE, 1.0, None, 0)
        assert w.value == pytest.approx(0.15, abs=1e-15)

    def test_equal_distance_tie_keeps_first_index(self, square_tunnel):
        # on the tunnel's centre line the four rim edges are equally far away
        axes = [([-2.0, 0.0, 0.0], [-1.0, 0.0, 0.0])]
        distances = [segment_segment_distance(*axes[0], s0, s1).distance for s0, s1 in fringe_segments(square_tunnel)]
        assert len(set(distances)) == 1
        _clearances, _witness, alone = self._check(axes, [0.05], square_tunnel)
        assert alone[0].plane_index == 0

    @pytest.mark.parametrize("worst, case", [
        (([-0.3, 0.8, -0.2], [-0.3, 0.8, 0.4]), CASE_FRINGE),  # parallel to the y = 0.5 rim edge
        (([-0.5, 0.1, 0.0], [1.0, 0.3, 0.0]), CASE_TUNNEL),  # through the opening
    ], ids=["fringe", "tunnel"])
    def test_identical_axes_tie_names_the_first_capsule(self, square_tunnel, worst, case):
        far = ([-3.0, 0.0, 0.0], [-2.0, 0.0, 0.0])
        clearances, witness, _alone = self._check([far, worst, worst], [0.05] * 3, square_tunnel)
        assert clearances[1] == clearances[2] < clearances[0]
        assert (witness.capsule_index, witness.case_tag) == (1, case)

    def test_scalar_fringe_matches_the_grid_bit_for_bit(self, c4, square_tunnel):
        # distance, rim index, axis parameter and both points of every axis, scalar pass against the numpy grid
        from icop.scenario import mounted_scene_and_path

        rng = np.random.default_rng(34)
        cases = []  # (prism-frame axes (n, 2, 3), scene)
        mounted, _ = mounted_scene_and_path(c4)
        for _ in range(100):
            q = c4.initial_config + rng.uniform(-0.4, 0.4, 6)
            cases.append((_prism_frame(world_capsule_segments(q, c4.chain, c4.capsules), mounted), mounted))
        for _ in range(100):
            scene = random_tunnel(rng)
            faces = prism_faces(scene)
            n_out, center = faces.opening_normals[0], faces.entrance.mean(axis=0)
            axes = [_random_segment(rng, scale=1.5) for _ in range(4)]
            jitter = rng.uniform(-0.2, 0.2, 3)
            axes.append((center + 0.4 * n_out + jitter, center - rng.uniform(0.1, 2.5) * n_out + jitter))
            cases.append((_prism_frame(axes, scene), scene))
        point_edge = Scene(_POINT_EDGE_SECTION, depth=2.0)
        corner = np.array([0.0, 0.5, 0.5])  # rim edge 0, a point, in the prism frame
        cases.append((
            [
                (corner + [-0.5, 0.2, 0.3], corner + [-0.2, 0.4, 0.1]),
                (corner + [-0.3, -0.1, 0.0], corner + [-0.3, 0.1, 0.0]),
                (corner + [-0.3, 0.0, 0.0], corner + [-0.3, 0.0, 0.0]),  # an exact point
            ],
            point_edge,
        ))
        near_point = np.array([-0.1, 0.6, 0.6])
        cases.append((
            [
                (near_point, near_point + [5e-10, -5e-10, -5e-10]),  # about 1e-9 long, scored as a point
                ([-0.3, 0.6, 0.2], [-0.3, 0.6, 0.2]),  # an exact point
                ([-2.0, 0.0, 0.0], [-1.0, 0.0, 0.0]),  # on the centre line: all four rim edges tie
                # on a rim vertex or along a rim edge, with signed zeros: the products a zero x term would add
                ([-0.0, 0.5, -0.5], [-0.0, 0.5, -0.5]),
                ([0.0, 0.5, -0.5], [0.0, 0.5, 0.5]),
                ([-0.0, 0.5, -0.5], [-0.5, 0.5, 0.5]),
                ([-0.0, -0.5, -0.5], [-1.0, -0.5, -0.5]),
                ([-0.0, -0.3, 0.1], [-0.0, 0.2, 0.1]),
                ([-0.3, 0.5, 0.5], [-0.3, 0.5, 0.5]),
                ([-0.0, 0.5, 0.0], [-0.5, 0.3, -0.0]),  # the axis parameter before its clip is -0.0
            ],
            square_tunnel,
        ))
        # rim edge 0 starts at (y, z) = (-0.0, 0.0) and runs along z = -0.0: the edge parameter before its clip
        # is -0.0, and its sign would reach the point on the rim
        signed_zero_rim = Scene([[-0.0, 0.0], [-0.5, -0.0], [-0.5, -1.0], [0.5, -1.0], [0.5, -0.5]], depth=2.0)
        cases.append(([([-0.1, 0.0, 0.2], [-0.3, 0.1, 0.4])], signed_zero_rim))
        for axes, scene in cases:
            local = np.asarray(axes, dtype=float)
            dist, nearest, s, on_axis, on_fringe = grid_closest_fringe(
                np.ascontiguousarray(local.transpose(2, 1, 0)), scene
            )
            for k, axis in enumerate(local.tolist()):
                got_dist, got_s, got_edge, got_on_axis, got_on_fringe = _closest_fringe(axis, scene._rim)
                edge = int(nearest[k])
                assert got_edge == edge, (k, axis)
                got = np.array([got_dist, got_s, *got_on_axis, *got_on_fringe])
                grid = np.array([dist[k], s[k, edge], *on_axis[:, k, edge], *on_fringe[:, k, edge]])
                assert got.tobytes() == grid.tobytes(), (k, axis, got, grid)

    def test_degenerate_axes_raise_no_floating_point_error(self, square_tunnel):
        # every division sits behind its own test, so no floating-point state needs to be masked
        point_edge = Scene(_POINT_EDGE_SECTION, depth=2.0)
        corner = np.array([0.0, 0.5, 0.5])
        cases = [
            (([-0.3, 0.6, 0.2], [-0.3, 0.6, 0.2]), square_tunnel),  # an exact point
            ((corner + [-0.3, -0.1, 0.0], corner + [-0.3, 0.1, 0.0]), point_edge),  # a point-like rim edge
            (([-0.3, 0.8, -0.2], [-0.3, 0.8, 0.4]), square_tunnel),  # parallel to the y = 0.5 rim edge
            (([0.0, -0.3, 0.1], [0.0, 0.2, 0.1]), square_tunnel),  # lying in the entrance plane
            (([-1e-16, -0.2, 0.1], [1e-16, 0.3, 0.1]), Scene(_UNIT_SQUARE, depth=1.0)),  # a grazing crossing
        ]
        with np.errstate(all="raise"):
            for axis, scene in cases:
                clearances, witness, *_ = _score_axes(np.array([axis], dtype=float).tolist(), [0.05], scene, [0])
                assert np.isfinite(clearances).all() and np.isfinite(witness.point_on_obstacle).all()


def _prism_frame(axes, scene) -> np.ndarray:
    """World-frame axes (n, 2, 3) in the scene's prism frame."""
    R, t = scene.pose[:3, :3], scene.pose[:3, 3]
    return (np.asarray(axes, dtype=float) - t) @ R
