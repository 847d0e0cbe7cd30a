import numpy as np
import pytest

from icop.geometry import Scene, transform_scene
from icop.kinematics import JointParams, RobotChain
from icop.transforms import homogeneous, is_rigid, rot_y


def _with(entry, value, T=None):
    T = np.eye(4) if T is None else T.copy()
    T[entry] = value
    return T


class TestIsRigid:
    def test_accepts_a_rotation_with_a_translation(self):
        assert is_rigid(homogeneous(rot_y(0.7), [1.0, -2.0, 3.0]))
        assert is_rigid(np.eye(4))

    @pytest.mark.parametrize(
        "T",
        [np.diag([1.0, 1.0, -1.0, 1.0]), np.diag([-1.0, -1.0, -1.0, 1.0]), np.diag([2.0, 2.0, 2.0, 1.0])],
        ids=["reflection", "point-reflection", "scaling"],
    )
    def test_rejects_a_reflection_and_a_scaling(self, T):
        assert not is_rigid(T)

    def test_an_off_orthonormal_entry_is_held_to_the_tolerance(self):
        # the off-diagonal entry shows up to first order in the columns' dot product
        assert is_rigid(_with((0, 1), 1e-10))
        assert not is_rigid(_with((0, 1), 1e-8))
        assert is_rigid(_with((1, 1), 1.0 + 1e-10))
        assert not is_rigid(_with((1, 1), 1.0 + 1e-8))

    @pytest.mark.parametrize("entry", [(0, 0), (1, 2), (2, 1), (3, 0), (3, 3)], ids=str)
    def test_a_nan_entry_fails(self, entry):
        assert not is_rigid(_with(entry, np.nan, homogeneous(rot_y(0.3), [0.5, 0.0, 1.0])))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=str)
    @pytest.mark.parametrize("entry", [(0, 3), (1, 3), (2, 3)], ids=str)
    def test_a_non_finite_translation_fails(self, entry, value):
        # no tolerance test reads the translation column, so it is checked on its own
        assert not is_rigid(_with(entry, value, homogeneous(rot_y(0.3), [0.5, 0.0, 1.0])))

    @pytest.mark.parametrize("entry, value", [((3, 0), 1e-3), ((3, 2), -1.0), ((3, 3), 2.0)], ids=str)
    def test_rejects_a_bad_bottom_row(self, entry, value):
        assert not is_rigid(_with(entry, value))

    @pytest.mark.parametrize(
        "T",
        [np.eye(3), np.eye(4)[:3], np.eye(4)[:, :3], np.eye(4).reshape(16), np.eye(4)[None]],
        ids=["3x3", "3x4", "4x3", "flat", "1x4x4"],
    )
    def test_rejects_a_shape_other_than_4x4(self, T):
        assert not is_rigid(T)


_UNIT_SQUARE = [[0.5, -0.5], [0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5]]


class TestConstructorsRejectANonFiniteTranslation:
    def test_scene_pose(self):
        with pytest.raises(ValueError, match="pose must be a proper rigid transform"):
            Scene(_UNIT_SQUARE, 1.0, _with((0, 3), np.nan))

    def test_robot_chain_tool_offset(self):
        joints = tuple(JointParams(a=1.0, alpha=0.0, d=0.0) for _ in range(6))
        with pytest.raises(ValueError, match="tool_offset must be a proper 4x4 rigid transform"):
            RobotChain(joints=joints, tool_offset=_with((2, 3), np.inf))

    def test_transform_scene(self):
        with pytest.raises(ValueError, match="scene transform must be a proper rigid transform"):
            transform_scene(Scene(_UNIT_SQUARE, 1.0), _with((0, 3), np.nan))
