import functools
import operator

import numpy as np
import pytest
import yaml

from icop import geometry
from icop.geometry import transform_scene
from icop.planner import Trajectory
from icop.scenario import (
    MetricsReport,
    ScenarioError,
    bundled_scenario_path,
    compute_metrics,
    export_trajectory,
    load_bundled,
    load_scenario,
    mounted_scene_and_path,
    mounting_transform,
    parse_scenario,
    plan_scenario,
    resample_path,
    scenario_to_dict,
    serialize_scenario,
    write_metrics,
)

from conftest import fringe_segments
from oracles import prism_faces


class TestLoading:
    def test_bundled_c4_fields(self, c4):
        assert c4.name == "c4"
        assert c4.mounting_l == pytest.approx(0.18)  # family label quotes 18 cm
        assert c4.mounting_alpha == pytest.approx(0.125 * np.pi)
        assert len(c4.weld_path) == 43
        assert c4.scene.section.shape == (6, 2) and c4.scene.depth == 0.5
        assert len(c4.capsules) == 6

    @pytest.mark.filterwarnings("error")
    def test_all_bundled_scenarios_load(self):
        for name in ("c1", "c2", "c3", "c4"):
            s = load_bundled(name)
            assert len(s.weld_path) == 43
            assert s.params.xi == pytest.approx(1e-4)

    def test_zero_radius_capsule_error_names_index(self, c4):
        data = scenario_to_dict(c4)
        data["capsules"][2]["radius"] = 0.0
        with pytest.raises(ScenarioError) as err:
            parse_scenario(yaml.safe_dump(data))
        assert any("capsules[2]" in f for f in err.value.failures)

    def test_missing_file_is_structured_error(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "nope.scenario")

    def test_non_utf8_file_is_structured_error(self, tmp_path):
        path = tmp_path / "bad.scenario"
        path.write_bytes(b"name: \xff\n")
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.failures == ["cannot read file: not UTF-8 (byte 0xff at offset 6)"]

    def test_all_failures_reported_at_once(self, c4):
        data = scenario_to_dict(c4)
        data["capsules"][0]["radius"] = -1.0
        data["params"]["xi"] = -2.0
        del data["weld_path"]
        with pytest.raises(ScenarioError) as err:
            parse_scenario(yaml.safe_dump(data))
        joined = "\n".join(err.value.failures)
        assert "capsules[0]" in joined and "params" in joined and "weld_path" in joined

    def test_bad_yaml_reports_parse_error(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("foo: [unclosed")
        assert "YAML" in err.value.failures[0]
        with pytest.raises(ScenarioError):
            parse_scenario("max_inner: " + "9" * 5000)  # more digits than int() converts
        with pytest.raises(ScenarioError):
            parse_scenario("name: \ud800")  # a lone surrogate, which no text decoded from UTF-8 holds

    def test_roundtrip_identity(self, c4, tmp_path):
        out = tmp_path / "copy.scenario"
        serialize_scenario(c4, out)
        again = load_scenario(out)
        assert again.name == c4.name
        assert again.mounting_l == c4.mounting_l and again.mounting_alpha == c4.mounting_alpha
        np.testing.assert_array_equal(again.weld_path, c4.weld_path)
        np.testing.assert_array_equal(again.initial_config, c4.initial_config)
        np.testing.assert_array_equal(again.params.q_diag, c4.params.q_diag)
        for name in ("section", "depth", "pose"):
            np.testing.assert_array_equal(getattr(again.scene, name), getattr(c4.scene, name))
        np.testing.assert_array_equal(fringe_segments(again.scene), fringe_segments(c4.scene))
        for c1_, c2_ in zip(again.capsules, c4.capsules):
            np.testing.assert_array_equal(c1_.endpoint_a, c2_.endpoint_a)
            assert c1_.radius == c2_.radius
        for j1, j2 in zip(again.chain.joints, c4.chain.joints):
            assert j1 == j2
        np.testing.assert_array_equal(again.chain.tool_offset, c4.chain.tool_offset)

    @pytest.mark.parametrize("name", ["c1", "c2", "c3", "c4"])
    def test_bundled_asset_is_its_own_serialization(self, name, tmp_path):
        out = tmp_path / f"{name}.scenario"
        serialize_scenario(load_bundled(name), out)
        assert out.read_bytes() == bundled_scenario_path(name).read_bytes()

    def test_weld_point_outside_tunnel_warns(self, c4):
        data = scenario_to_dict(c4)
        data["weld_path"][0] = [5.0, 5.0, 5.0]
        with pytest.warns(UserWarning, match="outside the mounted tunnel"):
            parse_scenario(yaml.safe_dump(data))

    def test_each_weld_point_outside_the_tunnel_warns_in_order(self, c4):
        data = scenario_to_dict(c4)
        x0, y0, z0 = data["weld_path"][0]
        x5, _, z5 = data["weld_path"][5]
        data["weld_path"][0] = [-5.0, y0, z0]  # in front of the entrance face
        data["weld_path"][5] = [x5, 5.0, z5]  # between the opening faces, beyond a wall
        with pytest.warns(UserWarning) as record:
            parse_scenario(yaml.safe_dump(data))
        assert [str(w.message) for w in record] == [
            f"weld point {t} lies outside the mounted tunnel region" for t in (0, 5)
        ]

    def test_load_mounts_one_scene_for_the_start_and_a_plan_one_more(self, monkeypatch):
        transform, mounted = geometry.transform_scene, []

        def counted(*args):
            mounted.append(args)
            return transform(*args)

        monkeypatch.setattr(geometry, "transform_scene", counted)
        c4 = load_bundled("c4")
        assert len(mounted) == 1  # the start's clearance; the weld points are checked in the construction frame
        plan_scenario(c4)
        assert len(mounted) == 2

    def test_a_start_that_pierces_a_wall_is_rejected(self, pierced_start_path):
        with pytest.raises(ScenarioError) as err:
            load_scenario(pierced_start_path)
        (failure,) = err.value.failures
        assert failure.startswith("initial_config: clearance -") and failure.endswith("is not positive")

    def test_bundled_starts_clear_the_mounted_scene(self):
        for name in ("c1", "c2", "c3", "c4"):
            s = load_bundled(name)
            scene, _ = mounted_scene_and_path(s)
            assert geometry.world_state(s.initial_config, s.chain, s.capsules, scene).witness.value > 0.1

    def test_unknown_params_key_warns(self, c4):
        data = scenario_to_dict(c4)
        data["params"]["rounds"] = 2
        data["params"]["step_mx"] = 0.1
        data["params"]["per_capsule_rows"] = True
        with pytest.warns(UserWarning) as record:
            s = parse_scenario(yaml.safe_dump(data))
        messages = [str(w.message) for w in record]
        for key in ("rounds", "step_mx", "per_capsule_rows"):
            assert any(f"'{key}'" in m for m in messages), key
        assert s.params.step_max == c4.params.step_max

    def test_unknown_key_in_any_mapping_warns_with_its_path(self, c4):
        data = scenario_to_dict(c4)
        data["scene"]["fringe_segments"] = [[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]]  # the rim, as version 1 stored it
        data["scene"]["bogus"] = 1
        data["mounting"]["lx"] = 0.5
        data["capsules"][1]["colour"] = "red"
        data["extra"] = True
        with pytest.warns(UserWarning) as record:
            s = parse_scenario(yaml.safe_dump(data))
        messages = [str(w.message) for w in record]
        for key, parent in (
            ("fringe_segments", "scene"),
            ("bogus", "scene"),
            ("lx", "mounting"),
            ("colour", "capsules[1]"),
            ("extra", "the top level"),
        ):
            assert sum(f"'{key}'" in m and m.endswith(parent) for m in messages) == 1, key
        assert len(messages) == 5
        assert s.mounting_l == c4.mounting_l

    def test_vertices_off_plane_rejected(self, c4):
        # section vertices are (y, z) points of the entrance plane; one with a third coordinate lies off it
        data = scenario_to_dict(c4)
        data["scene"]["section"][1].append(0.01)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(yaml.safe_dump(data))
        assert err.value.failures == ["scene.section: expected numbers of shape (n, 2)"]

    def test_all_failing_planes_reported_at_once(self, c4):
        # the walls come from the section and the exit face from the depth: both are reported, with a chain failure
        data = scenario_to_dict(c4)
        section = data["scene"]["section"]
        section[2] = [0.0, 0.0]  # a reflex vertex: the section is concave
        data["scene"]["depth"] = -0.5
        data["chain"]["joints"][1]["d"] = "0.0"
        with pytest.raises(ScenarioError) as err:
            parse_scenario(yaml.safe_dump(data))
        assert err.value.failures == [
            "chain.joints[1].d: expected a number, got str",
            "scene: section must be strictly convex and counter-clockwise seen from +x; "
            "depth must be > 0 and finite, got -0.5",
        ]

    def test_scene_pose_is_read_like_the_tool_offset(self, c4):
        data = scenario_to_dict(c4)
        data["scene"]["pose"]["rotation"][0][0] = 2.0
        del data["chain"]["tool_offset"]["translation"]
        with pytest.raises(ScenarioError) as err:
            parse_scenario(yaml.safe_dump(data))
        assert err.value.failures == [
            "chain.tool_offset.translation: missing",
            "scene: pose must be a proper rigid transform",
        ]

    def test_a_rotated_scene_pose_round_trips(self, c4, tmp_path):
        data = scenario_to_dict(c4)
        data["scene"]["pose"]["rotation"] = [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]
        data["scene"]["pose"]["translation"] = [0.1, 0.0, 3.28]  # 2 m higher, so the turned tunnel clears the start
        with pytest.warns(UserWarning, match="outside the mounted tunnel"):  # the tunnel turned away from the seam
            s = parse_scenario(yaml.safe_dump(data))
        np.testing.assert_array_equal(s.scene.pose[:3, :3], data["scene"]["pose"]["rotation"])
        np.testing.assert_array_equal(-s.scene.pose[:3, 0], [0.0, 0.0, 1.0])  # the entrance's outward normal, -x of the prism, rotated
        out = tmp_path / "rotated.scenario"
        serialize_scenario(s, out)
        with pytest.warns(UserWarning, match="outside the mounted tunnel"):
            assert load_scenario(out).scene.pose.tobytes() == s.scene.pose.tobytes()


_DELETE = object()


@pytest.mark.parametrize(
    "field, keys, value",
    [
        ("capsules[3].link_index", ("capsules", 3, "link_index"), _DELETE),
        ("capsules[3].link_index", ("capsules", 3, "link_index"), 2.7),
        ("capsules", ("capsules",), []),
        ("scene.section", ("scene", "section"), _DELETE),
        ("scene.depth", ("scene", "depth"), True),
        ("weld_path", ("weld_path", 3, 1), float("nan")),
        ("mounting.l", ("mounting", "l"), float("nan")),
        ("mounting.alpha", ("mounting", "alpha"), float("inf")),
        ("chain.joints[0].a", ("chain", "joints", 0, "a"), True),
        ("chain.joints[0].a", ("chain", "joints", 0, "a"), "0.145"),
        ("params.max_inner", ("params", "max_inner"), 2.7),
        ("name", ("name",), "../escaped"),
        ("name", ("name",), "c4\\x"),
        ("name", ("name",), "c4\0"),
        ("format_version", ("format_version",), 1),
        ("format_version", ("format_version",), 2),
        ("scene.pose", ("scene", "pose"), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ],
)
def test_each_field_is_checked_not_dropped_or_coerced(c4, field, keys, value):
    data = scenario_to_dict(c4)
    parent = functools.reduce(operator.getitem, keys[:-1], data)
    if value is _DELETE:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    with pytest.raises(ScenarioError) as err:
        parse_scenario(yaml.safe_dump(data))
    assert any(f.startswith(f"{field}: ") for f in err.value.failures), err.value.failures


class TestMounting:
    def test_identity(self, square_tunnel):
        m = transform_scene(square_tunnel, mounting_transform(0.0, 0.0))
        np.testing.assert_allclose(m.pose, square_tunnel.pose, atol=1e-15)
        np.testing.assert_allclose(prism_faces(m).wall_normals, prism_faces(square_tunnel).wall_normals, atol=1e-15)
        np.testing.assert_allclose(fringe_segments(m), fringe_segments(square_tunnel), atol=1e-15)

    def test_pure_translation_shifts_x(self, square_tunnel):
        m = transform_scene(square_tunnel, mounting_transform(5.0, 0.0))
        moved, faces = prism_faces(m), prism_faces(square_tunnel)
        np.testing.assert_allclose(moved.wall_normals, faces.wall_normals, atol=1e-15)
        np.testing.assert_allclose(moved.opening_normals, faces.opening_normals, atol=1e-15)
        shift = fringe_segments(m) - fringe_segments(square_tunnel)
        np.testing.assert_allclose(shift, np.broadcast_to([5.0, 0, 0], shift.shape), atol=1e-12)
        np.testing.assert_allclose(moved.opening_offsets - faces.opening_offsets, [-5.0, 5.0], atol=1e-12)

    def test_quarter_turn_sends_plus_x_normal_to_minus_z(self, square_tunnel):
        # entrance outward normal of the local tunnel is -x; its exit face is +x
        m = transform_scene(square_tunnel, mounting_transform(0.0, np.pi / 2))
        exit_normal = prism_faces(m).opening_normals[1]
        np.testing.assert_allclose(exit_normal, [0.0, 0.0, -1.0], atol=1e-15)

    def test_mounting_is_isometry(self, square_tunnel):
        rng = np.random.default_rng(71)
        m = transform_scene(square_tunnel, mounting_transform(1.3, 0.7))
        pts_before = fringe_segments(square_tunnel).reshape(-1, 3)
        pts_after = fringe_segments(m).reshape(-1, 3)
        d_before = np.linalg.norm(pts_before[:, None] - pts_before[None, :], axis=2)
        d_after = np.linalg.norm(pts_after[:, None] - pts_after[None, :], axis=2)
        assert np.max(np.abs(d_before - d_after)) < 1e-9

    def test_weld_path_transforms_with_scene(self, c4):
        scene, path = mounted_scene_and_path(c4)
        T = mounting_transform(c4.mounting_l, c4.mounting_alpha)
        expected = c4.weld_path @ T[:3, :3].T + T[:3, 3]
        np.testing.assert_allclose(path, expected, atol=1e-15)


class TestExportAndMetrics:
    def _tiny_traj(self):
        return Trajectory(
            states=np.array([[0.1, -0.2, 0.3, 0.0, 0.5, -0.6]]),
            tcp_error=np.array([1e-5]),
            min_distance=np.array([0.02]),
            inner_iterations=np.array([3]),
        )

    def test_single_step_export(self, c4, tmp_path):
        out = tmp_path / "traj.csv"
        export_trajectory(self._tiny_traj(), out, scenario=c4)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3  # comment, header row, one record
        assert lines[0].startswith("# scenario=c4")
        assert lines[1].split(",")[0] == "index"

    def test_export_roundtrip_precision(self, c4, tmp_path):
        from icop.kinematics import forward_kinematics

        scene, path = mounted_scene_and_path(c4)
        traj, _ = plan_scenario(c4)
        out = tmp_path / "traj.csv"
        export_trajectory(traj, out, scenario=c4)
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[2:]]
        for t, row in enumerate(rows):
            q = np.array([float(v) for v in row[1:7]])
            tool = np.array([float(v) for v in row[7:10]])
            fk_tool = forward_kinematics(q, c4.chain)[-1][:3, 3]
            assert np.max(np.abs(fk_tool - tool)) < 1e-9
            exact = forward_kinematics(traj.states[t], c4.chain)[-1][:3, 3]
            assert np.max(np.abs(fk_tool - exact)) < 1e-9

    def test_metrics_constant_mean(self):
        traj = Trajectory(
            states=np.zeros((3, 6)),
            tcp_error=np.full(3, 1e-5),
            min_distance=np.array([0.02, 0.04, 0.03]),
            inner_iterations=np.array([1, 2, 3]),
        )
        m = compute_metrics(traj, scenario_name="x", xi=1e-4, total_time=0.5)
        assert m.mean_tcp_error == pytest.approx(1e-5)
        assert m.mean_safe_distance == pytest.approx(0.03)
        assert m.total_inner_iters == 6
        assert m.per_step_inner_iters == (1, 2, 3)

    def test_two_step_mean(self):
        traj = Trajectory(
            states=np.zeros((2, 6)),
            tcp_error=np.array([1e-5, 3e-5]),
            min_distance=np.array([0.02, 0.04]),
            inner_iterations=np.array([1, 1]),
        )
        m = compute_metrics(traj, scenario_name="x", xi=1e-4, total_time=0.0)
        assert m.mean_safe_distance == pytest.approx(0.03)

    def test_means_are_order_invariant(self):
        rng = np.random.default_rng(72)
        err = rng.uniform(0, 1e-4, 10)
        dist = rng.uniform(0, 0.1, 10)
        perm = rng.permutation(10)
        t1 = Trajectory(np.zeros((10, 6)), err, dist, np.ones(10, dtype=int))
        t2 = Trajectory(np.zeros((10, 6)), err[perm], dist[perm], np.ones(10, dtype=int))
        m1 = compute_metrics(t1, scenario_name="x", xi=1e-4, total_time=0.0)
        m2 = compute_metrics(t2, scenario_name="x", xi=1e-4, total_time=0.0)
        assert m1.mean_tcp_error == pytest.approx(m2.mean_tcp_error, abs=1e-18)
        assert m1.mean_safe_distance == pytest.approx(m2.mean_safe_distance, abs=1e-18)

    def test_write_metrics_format(self, tmp_path):
        report = MetricsReport(
            scenario="c1", horizon=43, xi=1e-4, mean_tcp_error=3e-5,
            mean_safe_distance=0.08, total_time=0.4, total_inner_iters=48,
            per_step_inner_iters=tuple([1] * 43),
        )
        out = tmp_path / "metrics.txt"
        write_metrics(report, out)
        text = out.read_text()
        assert "tcp_distance_m" in text and "safe_distance_m" in text and "computation_time_s" in text


class TestResampling:
    def test_endpoint_preservation(self, c4):
        for h in (14, 21, 43, 82, 164):
            r = resample_path(c4.weld_path, h)
            assert r.shape == (h, 3)
            np.testing.assert_allclose(r[0], c4.weld_path[0], atol=1e-15)
            np.testing.assert_allclose(r[-1], c4.weld_path[-1], atol=1e-15)

    def test_identity_horizon(self, c4):
        r = resample_path(c4.weld_path, 43)
        np.testing.assert_allclose(r, c4.weld_path, atol=1e-12)

    def test_single_point(self, c4):
        r = resample_path(c4.weld_path, 1)
        assert r.shape == (1, 3)
