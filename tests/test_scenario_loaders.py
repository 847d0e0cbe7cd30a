"""Every test of test_scenario.py again under PyYAML's pure-Python loader, and parity between the loaders.

``parse_scenario`` uses the libyaml-backed ``yaml.CSafeLoader`` when PyYAML has
it. The autouse fixture below swaps in ``yaml.SafeLoader`` for every test
collected here, so each field check and warning is also seen to fire under the
loader that PyYAML falls back to.
"""

import numpy as np
import pytest
import yaml
from test_scenario import *  # noqa: F401,F403  (collected again here, under the pure loader)

from icop import scenario
from icop.scenario import ScenarioError, bundled_scenario_path, parse_scenario, scenario_to_dict

LOADERS = [yaml.SafeLoader, yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader]


@pytest.fixture(autouse=True)
def pure_yaml_loader(monkeypatch):
    monkeypatch.setattr(scenario, "_YAML_LOADER", yaml.SafeLoader)


def _parse_with(loader, monkeypatch, text):
    monkeypatch.setattr(scenario, "_YAML_LOADER", loader)
    return parse_scenario(text)


def test_the_default_loader_is_libyaml_when_pyyaml_has_it(monkeypatch):
    monkeypatch.undo()  # drop this module's pure loader
    assert scenario._YAML_LOADER is LOADERS[1]


@pytest.mark.parametrize("name", ["c1", "c2", "c3", "c4"])
def test_loaders_give_equal_dicts_and_scenarios(name, monkeypatch):
    text = bundled_scenario_path(name).read_text(encoding="utf-8")
    pure, fast = (yaml.load(text, Loader=loader) for loader in LOADERS)
    assert pure == fast
    a, b = (_parse_with(loader, monkeypatch, text) for loader in LOADERS)
    for field in ("name", "description", "mounting_l", "mounting_alpha"):
        assert getattr(a, field) == getattr(b, field)
    assert a.chain.joints == b.chain.joints
    np.testing.assert_array_equal(a.chain.tool_offset, b.chain.tool_offset)
    for ca, cb in zip(a.capsules, b.capsules, strict=True):
        assert ca.link_index == cb.link_index and ca.radius == cb.radius
        np.testing.assert_array_equal(ca.endpoint_a, cb.endpoint_a)
        np.testing.assert_array_equal(ca.endpoint_b, cb.endpoint_b)
    for field in ("section", "depth", "pose"):
        np.testing.assert_array_equal(getattr(a.scene, field), getattr(b.scene, field))
    for field in ("weld_path", "initial_config"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    for field in ("q_diag", "joint_lower", "joint_upper", "xi", "max_inner", "step_max"):
        np.testing.assert_array_equal(getattr(a.params, field), getattr(b.params, field))


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_parse_error_names_line_and_column(loader, monkeypatch):
    with pytest.raises(ScenarioError) as err:
        _parse_with(loader, monkeypatch, "name: c4\nscene: [unclosed\n")
    (failure,) = err.value.failures
    assert failure.startswith("YAML parse error: ")
    assert "line 2, column 8" in failure


def test_only_libyaml_rejects_a_lone_surrogate_escape(c4, monkeypatch):
    data = scenario_to_dict(c4)
    data["description"] = "PLACEHOLDER"
    text = yaml.safe_dump(data).replace("description: PLACEHOLDER", 'description: "\\ud800"')
    assert _parse_with(yaml.SafeLoader, monkeypatch, text).description == "\ud800"
    if yaml.__with_libyaml__:
        with pytest.raises(ScenarioError, match="YAML parse error"):
            _parse_with(yaml.CSafeLoader, monkeypatch, text)
