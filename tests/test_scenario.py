import numpy as np
import pytest
import yaml

from icop.geometry import transform_scene
from icop.planner import Trajectory
from icop.scenario import (
    MetricsReport,
    ScenarioError,
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


class TestLoading:
    def test_bundled_c4_fields(self, c4):
        assert c4.name == "c4"
        assert c4.mounting_l == pytest.approx(0.18)  # family label quotes 18 cm
        assert c4.mounting_alpha == pytest.approx(0.125 * np.pi)
        assert c4.horizon == 43
        assert len(c4.scene.planes) == 8
        assert len(c4.capsules) == 6

    @pytest.mark.filterwarnings("error")
    def test_all_bundled_scenarios_load(self):
        for name in ("c1", "c2", "c3", "c4"):
            s = load_bundled(name)
            assert s.horizon == 43
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

    def test_roundtrip_identity(self, c4, tmp_path):
        out = tmp_path / "copy.scenario"
        serialize_scenario(c4, out)
        again = load_scenario(out)
        assert again.name == c4.name
        assert again.mounting_l == c4.mounting_l and again.mounting_alpha == c4.mounting_alpha
        np.testing.assert_array_equal(again.weld_path, c4.weld_path)
        np.testing.assert_array_equal(again.initial_config, c4.initial_config)
        np.testing.assert_array_equal(again.params.q_diag, c4.params.q_diag)
        for p1, p2 in zip(again.scene.planes, c4.scene.planes):
            np.testing.assert_array_equal(p1.normal, p2.normal)
            np.testing.assert_array_equal(p1.vertices, p2.vertices)
            assert p1.offset == p2.offset
        np.testing.assert_array_equal(again.scene.fringe_segments, c4.scene.fringe_segments)
        for c1_, c2_ in zip(again.capsules, c4.capsules):
            np.testing.assert_array_equal(c1_.endpoint_a, c2_.endpoint_a)
            assert c1_.radius == c2_.radius
        for j1, j2 in zip(again.chain.joints, c4.chain.joints):
            assert j1 == j2
        np.testing.assert_array_equal(again.chain.tool_offset, c4.chain.tool_offset)

    def test_weld_point_outside_tunnel_warns(self, c4):
        data = scenario_to_dict(c4)
        data["weld_path"][0] = [5.0, 5.0, 5.0]
        with pytest.warns(UserWarning, match="outside the mounted tunnel"):
            parse_scenario(yaml.safe_dump(data))

    def test_unknown_params_key_warns(self, c4):
        data = scenario_to_dict(c4)
        data["params"]["rounds"] = 2
        data["params"]["step_mx"] = 0.1
        with pytest.warns(UserWarning) as record:
            s = parse_scenario(yaml.safe_dump(data))
        messages = [str(w.message) for w in record]
        assert any("'rounds'" in m for m in messages) and any("'step_mx'" in m for m in messages)
        assert s.params.step_max == c4.params.step_max

    def test_off_unit_normal_renormalized_with_warning(self, c4):
        data = scenario_to_dict(c4)
        data["scene"]["planes"][0]["normal"] = [float(2 * v) for v in data["scene"]["planes"][0]["normal"]]
        with pytest.warns(UserWarning, match="renormalizing plane 0"):
            s = parse_scenario(yaml.safe_dump(data))
        assert np.linalg.norm(s.scene.planes[0].normal) == pytest.approx(1.0, abs=1e-15)

    def test_vertices_off_plane_rejected(self, c4):
        data = scenario_to_dict(c4)
        data["scene"]["planes"][0]["vertices"][0][0] += 0.01
        with pytest.raises(ScenarioError) as err:
            parse_scenario(yaml.safe_dump(data))
        assert any("planes[0]" in f for f in err.value.failures)


class TestMounting:
    def test_identity(self, square_tunnel):
        m = transform_scene(square_tunnel, mounting_transform(0.0, 0.0))
        for p1, p2 in zip(m.planes, square_tunnel.planes):
            np.testing.assert_allclose(p1.normal, p2.normal, atol=1e-15)
            np.testing.assert_allclose(p1.vertices, p2.vertices, atol=1e-15)

    def test_pure_translation_shifts_x(self, square_tunnel):
        m = transform_scene(square_tunnel, mounting_transform(5.0, 0.0))
        for p1, p2 in zip(m.planes, square_tunnel.planes):
            np.testing.assert_allclose(p1.normal, p2.normal, atol=1e-15)
            np.testing.assert_allclose(p1.vertices - p2.vertices, np.broadcast_to([5.0, 0, 0], p1.vertices.shape), atol=1e-12)

    def test_quarter_turn_sends_plus_x_normal_to_minus_z(self, square_tunnel):
        # entrance outward normal of the local tunnel is -x; its exit face is +x
        m = transform_scene(square_tunnel, mounting_transform(0.0, np.pi / 2))
        exit_normal = m.planes[1].normal
        np.testing.assert_allclose(exit_normal, [0.0, 0.0, -1.0], atol=1e-15)

    def test_mounting_is_isometry(self, square_tunnel):
        rng = np.random.default_rng(71)
        m = transform_scene(square_tunnel, mounting_transform(1.3, 0.7))
        pts_before = square_tunnel.fringe_segments.reshape(-1, 3)
        pts_after = m.fringe_segments.reshape(-1, 3)
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
            solve_time=np.array([0.01]),
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
            solve_time=np.zeros(3),
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
            solve_time=np.zeros(2),
        )
        m = compute_metrics(traj, scenario_name="x", xi=1e-4, total_time=0.0)
        assert m.mean_safe_distance == pytest.approx(0.03)

    def test_means_are_order_invariant(self):
        rng = np.random.default_rng(72)
        err = rng.uniform(0, 1e-4, 10)
        dist = rng.uniform(0, 0.1, 10)
        perm = rng.permutation(10)
        t1 = Trajectory(np.zeros((10, 6)), err, dist, np.ones(10, dtype=int), np.zeros(10))
        t2 = Trajectory(np.zeros((10, 6)), err[perm], dist[perm], np.ones(10, dtype=int), np.zeros(10))
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
