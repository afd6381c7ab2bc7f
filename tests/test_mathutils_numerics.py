"""Unit tests for numeric helpers."""

import numpy as np
import pytest

from repro.mathutils import clamp, clamp_norm


def test_clamp_inside_range():
    assert clamp(0.5, 0.0, 1.0) == 0.5


def test_clamp_at_bounds():
    assert clamp(-2.0, -1.0, 1.0) == -1.0
    assert clamp(2.0, -1.0, 1.0) == 1.0


def test_clamp_inverted_bounds_raises():
    with pytest.raises(ValueError):
        clamp(0.0, 1.0, -1.0)


def test_clamp_norm_within_bound_returns_same_object():
    v = np.array([1.0, 0.0, 0.0])
    assert clamp_norm(v, 2.0) is v


def test_clamp_norm_scales_down():
    v = np.array([3.0, 4.0, 0.0])
    out = clamp_norm(v, 1.0)
    assert np.isclose(np.linalg.norm(out), 1.0)
    # Direction preserved.
    assert np.allclose(out / np.linalg.norm(out), v / np.linalg.norm(v))


def test_clamp_norm_negative_bound_raises():
    with pytest.raises(ValueError):
        clamp_norm(np.array([1.0, 0.0]), -1.0)


def test_clamp_norm_zero_bound():
    out = clamp_norm(np.array([1.0, 1.0]), 0.0)
    assert np.allclose(out, 0.0)
