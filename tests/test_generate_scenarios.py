"""Tests of scripts/generate_scenarios.py, which regenerates the bundled assets.

Loading the script catches a symbol it imports from ``icop`` going away; its
``__main__`` guard keeps the import from regenerating the assets. The assets
were written under ``conftest.PINNED_KERNEL``, whose rounding decides the
last bits of each initial configuration.
"""

import importlib.util
from pathlib import Path

import numpy as np

from icop.scenario import bundled_scenario_path, load_bundled

from conftest import fringe_segments, run_under_pinned_kernel

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "generate_scenarios.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("generate_scenarios", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_script_imports_and_builds_the_bundled_params():
    module = _load_script()
    params = module.default_params()
    bundled = load_bundled("c1").params
    for name in ("q_diag", "joint_lower", "joint_upper"):
        np.testing.assert_array_equal(getattr(params, name), getattr(bundled, name))
    assert (params.xi, params.max_inner, params.step_max) == (bundled.xi, bundled.max_inner, bundled.step_max)


def test_script_rebuilds_the_bundled_scenes_bit_for_bit():
    built = _load_script().workpiece_scene()
    for name in ("c1", "c2", "c3", "c4"):
        bundled = load_bundled(name).scene
        for field in ("section", "depth", "pose", "_walls", "_rim"):
            assert np.asarray(getattr(built, field)).tobytes() == np.asarray(getattr(bundled, field)).tobytes(), (
                name,
                field,
            )
        assert fringe_segments(built).tobytes() == fringe_segments(bundled).tobytes(), name


def test_build_scenario_rebuilds_the_bundled_assets_bit_for_bit(tmp_path):
    # serialized floats round-trip exactly, so equal files mean equal bits, initial_config included
    src = str(SCRIPT.parent.parent / "src")
    run_under_pinned_kernel(
        "-c",
        f"import sys; sys.path[:0] = [{src!r}, {str(SCRIPT.parent)!r}]\n"
        "from generate_scenarios import MOUNTINGS, build_scenario\n"
        "from icop.scenario import serialize_scenario\n"
        f"for name in MOUNTINGS: serialize_scenario(build_scenario(name), {str(tmp_path)!r} + f'/{{name}}.scenario')",
    )
    for name in ("c1", "c2", "c3", "c4"):
        assert (tmp_path / f"{name}.scenario").read_bytes() == bundled_scenario_path(name).read_bytes(), name
