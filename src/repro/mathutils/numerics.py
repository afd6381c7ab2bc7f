"""Small numeric helpers used across control and estimation code."""

from __future__ import annotations

import math

import numpy as np


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into ``[low, high]``.

    Raises :class:`ValueError` if the bounds are inverted; silent bound
    swapping hides configuration bugs in controller limits.
    """
    if low > high:
        raise ValueError(f"clamp bounds inverted: [{low}, {high}]")
    return min(max(value, low), high)


def clip_float(x: float, lo: float, hi: float) -> float:
    """``np.minimum(np.maximum(x, lo), hi)`` on one float, bit for bit.

    Unlike :func:`clamp` (Python's ``min``/``max``), each comparison
    behaves as numpy's does: it returns ``x`` when ``x`` is NaN, the
    bound when the bound is NaN or equal to ``x`` (so ``-0.0`` clipped
    at ``0.0`` becomes ``0.0``), and the larger/smaller value otherwise.
    Float kernels that replace numpy clips use it (DESIGN.md §11).
    """
    x = x if x > lo or x != x else lo
    return x if x < hi or x != x else hi


def clamp_norm(vec: np.ndarray, max_norm: float) -> np.ndarray:
    """Scale ``vec`` down so its Euclidean norm is at most ``max_norm``.

    Direction is preserved; vectors already inside the bound are returned
    unchanged (same object, no copy) to keep hot control loops cheap.
    """
    if max_norm < 0.0:
        raise ValueError(f"max_norm must be non-negative, got {max_norm}")
    norm_sq = float(vec.dot(vec))
    if norm_sq <= max_norm * max_norm:
        return vec
    return vec * (max_norm / math.sqrt(norm_sq))
