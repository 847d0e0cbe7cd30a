"""Tests of scripts/plan_fingerprint.py, and the pin of the bundled plans.

The fingerprint of the c1..c4 plans is pinned, so a change that moves any
planned bit fails here; a change meant to alter the plans updates
``PINNED`` and says why. The pin holds under whatever BLAS kernel the host
picks: every product that reaches a plan runs on Python floats or numpy's
elementwise operations in a fixed order, and every bundled QP ends at the
float projection. So the pin is checked in-process, and once more under the
oldest x86-64 kernel. The QP's active-set path (SVD and QR), which no bundled
QP reaches, still rounds in the kernel's last bits. Saving the plans and
comparing them with themselves exercises ``--save`` and ``--compare``.
"""

import importlib.util
import platform
from pathlib import Path

import numpy as np
import pytest

from conftest import run_under_pinned_kernel

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "plan_fingerprint.py"

# Moved once when the distances, the collision and contact rows, the witness gradient and the mounting went from
# BLAS products to a fixed float order: the plans moved by <= 1.6e-15 rad with every iteration count equal, and
# the hash became the same under every kernel.
PINNED = "482d819b7ee42fc07375d8f3abcc34d4c5f5a434f9ca844c1de482aa44a97295"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("plan_fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def results(script):
    return script.run_plans()


def test_fingerprint_pins_the_bundled_plans(script, results):
    assert script.fingerprint(results) == PINNED
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OPENBLAS_CORETYPE=Prescott names an x86-64 kernel")
    # SSE3 without FMA, which every x86-64 CPU runs: it rounds other last bits than the AVX2 and AVX-512 kernels
    assert run_under_pinned_kernel(str(SCRIPT), kernel="Prescott").splitlines()[0] == PINNED


def test_saved_plans_compare_equal_to_themselves(script, results, tmp_path):
    saved = tmp_path / "plans.npz"
    script.save(saved, results)
    rows = script.compare(saved, results)
    assert [key for key, *_ in rows] == list(results)
    assert len(rows) == len(script.SCENARIOS) * len(script.PARAM_SETS)
    for key, change, iters_match, reports_match, distance_change in rows:
        assert iters_match and reports_match, key
        if isinstance(results[key], script.NonConvergedError):
            assert change is distance_change is None, key
        else:
            assert change == distance_change == 0.0, key


def test_compare_flags_a_changed_iteration_count(script, results, tmp_path):
    saved = tmp_path / "plans.npz"
    script.save(saved, results)
    with np.load(saved) as plans:
        arrays = dict(plans)
    key = next(name for name in arrays if name.endswith("/inner_iterations"))
    arrays[key] = arrays[key] + 1
    np.savez(saved, **arrays)
    mismatched = [row[0] for row in script.compare(saved, results) if not row[2]]
    assert mismatched == [key.rsplit("/", 1)[0]]


def test_compare_exits_1_when_a_joint_moves_beyond_the_limit(script, results, tmp_path, monkeypatch, capsys):
    saved = tmp_path / "plans.npz"
    script.save(saved, results)
    monkeypatch.setattr(script, "run_plans", lambda: results)
    assert script.main(["--compare", str(saved)]) == 0
    with np.load(saved) as plans:
        arrays = dict(plans)
    key = next(name for name in arrays if name.endswith("/states"))
    arrays[key][3, 2] += 1e-11  # ten times MAX_JOINT_CHANGE
    np.savez(saved, **arrays)
    assert script.MAX_JOINT_CHANGE == 1e-12
    assert script.main(["--compare", str(saved)]) == 1
    assert "DIFFER" not in capsys.readouterr().out  # counts and reports still match; only the joint change fails
