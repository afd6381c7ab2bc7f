"""The skew operator and angle wrapping."""

from __future__ import annotations

import math

import numpy as np


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric cross-product matrix: ``skew(a) @ b == a x b``."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def wrap_angle(angle: float) -> float:
    """Wrap an angle to ``(-pi, pi]``."""
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi
