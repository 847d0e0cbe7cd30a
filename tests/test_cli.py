import subprocess
import sys

import pytest

from icop.cli import EXIT_OK, EXIT_PARSE, main
from icop.scenario import bundled_scenario_path


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


def test_missing_file_exits_parse_code_without_outputs(tmp_path):
    code = main(["--scenario", str(tmp_path / "missing.scenario"), "--out", str(tmp_path / "o")])
    assert code == EXIT_PARSE
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


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


def test_sweep_duplicate_xi_rows_identical(c1_path, tmp_path):
    code = main(["--scenario", c1_path, "--out", str(tmp_path), "--sweep-xi", "1e-3,1e-3"])
    assert code == EXIT_OK
    rows = (tmp_path / "c1_xi_sweep.txt").read_text().splitlines()[2:]
    # identical rows up to the timing column
    a = rows[0].split()
    b = rows[1].split()
    assert a[0] == b[0] and a[2] == b[2] and a[3] == b[3]


def test_per_capsule_rows_flag(c1_path, tmp_path):
    assert main(["--scenario", c1_path, "--out", str(tmp_path), "--per-capsule-rows"]) == EXIT_OK


def test_invalid_override_exits_parse_code(c1_path, tmp_path):
    assert main(["--scenario", c1_path, "--out", str(tmp_path), "--xi", "-1.0"]) == EXIT_PARSE


def test_console_script_smoke(c1_path, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "icop.cli", "--scenario", c1_path, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
