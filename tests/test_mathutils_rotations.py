"""Unit tests for the skew operator and angle wrapping."""

import math

import numpy as np
import pytest

from repro.mathutils import skew, wrap_angle


def test_skew_cross_product_equivalence():
    a = np.array([1.0, -2.0, 3.0])
    b = np.array([0.5, 4.0, -1.0])
    assert np.allclose(skew(a) @ b, np.cross(a, b))


def test_skew_antisymmetric():
    m = skew(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(m, -m.T)


@pytest.mark.parametrize(
    "angle,expected",
    [
        (0.0, 0.0),
        (math.pi, math.pi),
        (-math.pi, math.pi),  # wraps to (-pi, pi]
        (3 * math.pi, math.pi),
        (2 * math.pi, 0.0),
        (math.pi + 0.1, -math.pi + 0.1),
    ],
)
def test_wrap_angle(angle, expected):
    assert math.isclose(wrap_angle(angle), expected, abs_tol=1e-12)
