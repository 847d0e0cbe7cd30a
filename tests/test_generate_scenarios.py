"""Import smoke test for scripts/generate_scenarios.py, which has no other test.

Loading the script catches a symbol it imports from ``icop`` going away; its
``__main__`` guard keeps the import from regenerating the assets.
"""

import importlib.util
from pathlib import Path

import numpy as np

from icop.scenario import load_bundled

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "generate_scenarios.py"


def test_script_imports_and_builds_the_bundled_params():
    spec = importlib.util.spec_from_file_location("generate_scenarios", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    params = module.default_params()
    bundled = load_bundled("c1").params
    for name in ("q_diag", "joint_lower", "joint_upper"):
        np.testing.assert_array_equal(getattr(params, name), getattr(bundled, name))
    assert (params.xi, params.max_inner, params.step_max) == (bundled.xi, bundled.max_inner, bundled.step_max)
