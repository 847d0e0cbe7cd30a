"""Small SE(3) helpers shared by the kinematics, geometry and scenario layers."""

from __future__ import annotations

import math

import numpy as np


def rot_y(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def homogeneous(rotation: np.ndarray | None = None, translation: np.ndarray | None = None) -> np.ndarray:
    """Assemble a 4x4 rigid transform from a 3x3 rotation and/or 3-vector."""
    T = np.eye(4)
    if rotation is not None:
        T[:3, :3] = rotation
    if translation is not None:
        T[:3, 3] = np.asarray(translation, dtype=float)
    return T


def is_rigid(T: np.ndarray, tol: float = 1e-9) -> bool:
    """True if T is a proper rigid motion: orthonormal rotation, det +1 and bottom row (0, 0, 0, 1), each within tol, and a finite translation."""
    if T.shape != (4, 4):
        return False
    (a, b, c, tx), (d, e, f, ty), (g, h, i, tz), (w0, w1, w2, w3) = T.tolist()
    if not (math.isfinite(tx) and math.isfinite(ty) and math.isfinite(tz)):
        return False
    errors = (
        a * a + d * d + g * g - 1.0, b * b + e * e + h * h - 1.0, c * c + f * f + i * i - 1.0,  # unit columns
        a * b + d * e + g * h, a * c + d * f + g * i, b * c + e * f + h * i,  # orthogonal columns
        a * (e * i - f * h) + b * (f * g - d * i) + c * (d * h - e * g) - 1.0,  # det R = r0 . (r1 x r2)
        w0, w1, w2, w3 - 1.0,  # the bottom row
    )
    return all(abs(err) <= tol for err in errors)  # a NaN fails its test

