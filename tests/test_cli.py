import json
import subprocess
import sys

import pytest
import yaml

from icop import planner, scenario as scn
from icop.cli import EXIT_IO, EXIT_NON_CONVERGED, EXIT_OK, EXIT_PARSE, main
from icop.geometry import world_state
from icop.qp import STATUS_INFEASIBLE, QpSolution
from icop.scenario import bundled_scenario_path, load_bundled, load_scenario, mounted_scene_and_path, scenario_to_dict


@pytest.fixture(scope="module")
def c1_path():
    return str(bundled_scenario_path("c1"))


def test_plan_writes_outputs_and_exits_zero(c1_path, tmp_path, capsys):
    code = main(["--scenario", c1_path, "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "c1_trajectory.csv").exists()
    assert (tmp_path / "c1_metrics.txt").exists()
    out = capsys.readouterr().out
    assert "mean_tcp_error" in out


def test_non_convergence_exits_three_with_one_json_line(c1_path, tmp_path, capsys, monkeypatch):
    # every QP is infeasible, so the state never leaves c1's initial configuration
    def infeasible(problem, x_ref, **rows):
        return QpSolution(x_ref, STATUS_INFEASIBLE, kkt_residual=0.0, eq_residual=0.0)

    monkeypatch.setattr(planner, "solve", infeasible)
    code = main(["--scenario", c1_path, "--out", str(tmp_path)])
    assert code == EXIT_NON_CONVERGED
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["status"] == "non_converged" and report["waypoint"] == 0
    c1 = load_bundled("c1")
    scene, _ = mounted_scene_and_path(c1)
    assert report["min_distance"] == world_state(c1.initial_config, c1.chain, c1.capsules, scene).witness.value


@pytest.mark.parametrize("blocked", ["c1_trajectory.csv", "c1_metrics.txt"])
def test_an_output_file_that_cannot_be_written_exits_four(c1_path, tmp_path, capsys, blocked):
    (tmp_path / blocked).mkdir()  # a directory where the file goes
    code = main(["--scenario", c1_path, "--out", str(tmp_path), "--horizon", "5"])
    assert code == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("I/O failure:")


def test_a_sweep_table_that_cannot_be_written_exits_four(c1_path, tmp_path, capsys):
    (tmp_path / "c1_horizon_sweep.txt").mkdir()
    code = main(["--scenario", c1_path, "--out", str(tmp_path), "--sweep-horizon", "3,5"])
    assert code == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("I/O failure:")


def test_an_out_directory_that_cannot_be_made_exits_four_before_planning(c1_path, tmp_path, capsys, monkeypatch):
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(planner, "plan", lambda *args: pytest.fail("planned without an output directory"))
    code = main(["--scenario", c1_path, "--out", str(tmp_path / "file" / "out")])
    assert code == EXIT_IO
    assert capsys.readouterr().err.startswith("I/O failure:")


def test_an_invariant_violation_exits_three_with_one_json_line(c1_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(planner, "verify_trajectory", lambda traj, params: ["step 2: joint limits violated"])
    code = main(["--scenario", c1_path, "--out", str(tmp_path), "--horizon", "5"])
    assert code == EXIT_NON_CONVERGED
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report == {"status": "invariant_violated", "scenario": "c1", "violations": ["step 2: joint limits violated"]}
    assert (tmp_path / "c1_trajectory.csv").exists()  # the outputs are written before the check


def test_a_sweep_row_that_does_not_converge_exits_three(c1_path, tmp_path, monkeypatch):
    plan_scenario = scn.plan_scenario

    def fails_at_five_waypoints(s, params):
        if len(s.weld_path) == 5:
            raise planner.NonConvergedError(3, 1e-3, 0.05)
        return plan_scenario(s, params)

    monkeypatch.setattr(scn, "plan_scenario", fails_at_five_waypoints)
    code = main(["--scenario", c1_path, "--out", str(tmp_path), "--sweep-horizon", "3,5,7"])
    assert code == EXIT_NON_CONVERGED
    rows = [row.split() for row in (tmp_path / "c1_horizon_sweep.txt").read_text().splitlines()[2:]]
    assert [row[0] for row in rows] == ["3", "5", "7"]
    assert [row[3] for row in rows] == ["ok", "non_converged@3", "ok"]
    assert rows[0][2].isdigit() and rows[1][2] == "-" and rows[2][2].isdigit()


def test_missing_file_exits_parse_code_without_outputs(tmp_path):
    code = main(["--scenario", str(tmp_path / "missing.scenario"), "--out", str(tmp_path / "o")])
    assert code == EXIT_PARSE
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


def test_a_start_inside_a_wall_exits_parse_code_without_outputs(pierced_start_path, tmp_path, capsys):
    code = main(["--scenario", str(pierced_start_path), "--out", str(tmp_path / "o")])
    assert code == EXIT_PARSE
    assert "initial_config: clearance -" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_non_utf8_file_exits_parse_code_without_outputs(tmp_path, capsys):
    bad = tmp_path / "bad.scenario"
    bad.write_bytes(b"name: \xff\n")
    code = main(["--scenario", str(bad), "--out", str(tmp_path / "o")])
    assert code == EXIT_PARSE
    assert "not UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_determinism_byte_identical_trajectories(c1_path, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--scenario", c1_path, "--out", str(a)]) == EXIT_OK
    assert main(["--scenario", c1_path, "--out", str(b)]) == EXIT_OK
    assert (a / "c1_trajectory.csv").read_bytes() == (b / "c1_trajectory.csv").read_bytes()


def test_xi_override_changes_iteration_count(c1_path, tmp_path):
    assert main(["--scenario", c1_path, "--out", str(tmp_path / "loose"), "--xi", "1e-2"]) == EXIT_OK
    assert main(["--scenario", c1_path, "--out", str(tmp_path / "tight"), "--xi", "1e-6"]) == EXIT_OK

    def total_iters(d):
        text = (d / "c1_metrics.txt").read_text()
        return int([ln for ln in text.splitlines() if ln.startswith("total_inner_iters")][0].split()[-1])

    assert total_iters(tmp_path / "loose") < total_iters(tmp_path / "tight")


def test_trajectory_header_names_the_overridden_xi(c1_path, tmp_path):
    assert main(["--scenario", c1_path, "--out", str(tmp_path), "--xi", "1e-6"]) == EXIT_OK
    header = (tmp_path / "c1_trajectory.csv").read_text().splitlines()[0]
    assert header.split()[2] == "xi=1.000000e-06"
    assert "equality_threshold_m  1.000000e-06" in (tmp_path / "c1_metrics.txt").read_text().splitlines()


def test_horizon_override(c1_path, tmp_path):
    assert main(["--scenario", c1_path, "--out", str(tmp_path), "--horizon", "10"]) == EXIT_OK
    lines = (tmp_path / "c1_trajectory.csv").read_text().strip().splitlines()
    assert len(lines) == 2 + 10


def test_sweep_horizon_table(c1_path, tmp_path):
    code = main(["--scenario", c1_path, "--out", str(tmp_path), "--sweep-horizon", "5,9,14"])
    assert code == EXIT_OK
    table = (tmp_path / "c1_horizon_sweep.txt").read_text().splitlines()
    assert table[0].startswith("# host:")
    assert len(table) == 2 + 3
    assert table[1].split()[:3] == ["horizon", "time_s", "total_inner_iters"]


def test_sweep_benchmark_horizon_list_gives_six_rows(c1_path, tmp_path):
    code = main(["--scenario", c1_path, "--out", str(tmp_path), "--sweep-horizon", "14,21,43,82,123,164"])
    assert code == EXIT_OK
    rows = (tmp_path / "c1_horizon_sweep.txt").read_text().splitlines()[2:]
    assert len(rows) == 6
    assert all(r.split()[3] == "ok" for r in rows)


def test_sweep_degenerate_horizon_one(c1_path, tmp_path):
    code = main(["--scenario", c1_path, "--out", str(tmp_path), "--sweep-horizon", "1"])
    assert code == EXIT_OK
    rows = (tmp_path / "c1_horizon_sweep.txt").read_text().splitlines()[2:]
    assert len(rows) == 1 and rows[0].split()[0] == "1"


def test_sweep_xi_five_rows(c1_path, tmp_path):
    code = main(["--scenario", c1_path, "--out", str(tmp_path), "--sweep-xi", "1e-2,1e-3,1e-4,1e-5,1e-6"])
    assert code == EXIT_OK
    rows = (tmp_path / "c1_xi_sweep.txt").read_text().splitlines()[2:]
    assert len(rows) == 5


def test_sweep_xi_table_and_monotonicity(c1_path, tmp_path):
    code = main(["--scenario", c1_path, "--out", str(tmp_path), "--sweep-xi", "1e-2,1e-3,1e-4"])
    assert code == EXIT_OK
    rows = (tmp_path / "c1_xi_sweep.txt").read_text().splitlines()[2:]
    iters = [int(r.split()[2]) for r in rows]
    assert iters == sorted(iters)


def test_sweep_xi_at_least_the_step_length_plans(c1_path, tmp_path):
    # c1's step_max is 0.05: a threshold near or above it once split steps without end
    code = main(["--scenario", c1_path, "--out", str(tmp_path), "--sweep-xi", "0.04,0.1"])
    assert code == EXIT_OK
    rows = (tmp_path / "c1_xi_sweep.txt").read_text().splitlines()[2:]
    assert [r.split()[3] for r in rows] == ["ok", "ok"]


def test_sweep_duplicate_xi_rows_identical(c1_path, tmp_path):
    code = main(["--scenario", c1_path, "--out", str(tmp_path), "--sweep-xi", "1e-3,1e-3"])
    assert code == EXIT_OK
    rows = (tmp_path / "c1_xi_sweep.txt").read_text().splitlines()[2:]
    # identical rows up to the timing column
    a = rows[0].split()
    b = rows[1].split()
    assert a[0] == b[0] and a[2] == b[2] and a[3] == b[3]


def test_removed_per_capsule_rows_flag_is_a_usage_error(c1_path, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["--scenario", c1_path, "--out", str(tmp_path), "--per-capsule-rows"])
    assert err.value.code == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("options, message", [
    # one run writes one table: --sweep-xi was once ignored beside --sweep-horizon
    (["--sweep-horizon", "5", "--sweep-xi", "1e-2,1e-3"], "argument --sweep-xi: not allowed with argument --sweep-horizon"),
    # a sweep sets the value it varies: it once resampled the resampled path, and overwrote --xi
    (["--horizon", "2", "--sweep-horizon", "5,43"], "argument --horizon: not allowed with argument --sweep-horizon"),
    (["--xi", "1e-5", "--sweep-xi", "1e-2,1e-3"], "argument --xi: not allowed with argument --sweep-xi"),
])
def test_contradictory_options_are_a_usage_error(c1_path, tmp_path, capsys, options, message):
    with pytest.raises(SystemExit) as err:
        main(["--scenario", c1_path, "--out", str(tmp_path), *options])
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_name_with_a_path_separator_exits_parse_code_without_outputs(c1_path, tmp_path):
    data = scenario_to_dict(load_scenario(c1_path))
    data["name"] = "../escaped"
    path = tmp_path / "bad.scenario"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    out = tmp_path / "out" / "sub"
    assert main(["--scenario", str(path), "--out", str(out)]) == EXIT_PARSE
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["bad.scenario"]


@pytest.mark.parametrize("key, value", [("l", float("nan")), ("alpha", float("inf"))])
def test_non_finite_mounting_exits_parse_code_without_outputs(c1_path, tmp_path, key, value):
    data = scenario_to_dict(load_scenario(c1_path))
    data["mounting"][key] = value
    path = tmp_path / "bad.scenario"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--scenario", str(path), "--out", str(out)]) == EXIT_PARSE
    assert not out.exists() or not any(out.iterdir())


def test_invalid_override_exits_parse_code(c1_path, tmp_path):
    for xi in ("-1.0", "inf"):
        out = tmp_path / "o"
        assert main(["--scenario", c1_path, "--out", str(out), "--xi", xi]) == EXIT_PARSE
        assert not out.exists()


@pytest.mark.parametrize("option, values", [
    ("--sweep-horizon", "14,abc"),
    ("--sweep-horizon", "0"),
    ("--sweep-xi", "1e-3,x"),
    ("--sweep-xi", "0"),
    ("--sweep-xi", "1e-3,inf"),
    ("--sweep-horizon", ","),
    ("--sweep-xi", " , "),
    ("--sweep-horizon", ""),
])
def test_bad_sweep_value_exits_parse_code_without_a_table(c1_path, tmp_path, capsys, option, values):
    out = tmp_path / "o"
    assert main(["--scenario", c1_path, "--out", str(out), option, values]) == EXIT_PARSE
    assert "invalid override" in capsys.readouterr().err
    assert not out.exists()


def test_console_script_smoke(c1_path, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "icop.cli", "--scenario", c1_path, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
