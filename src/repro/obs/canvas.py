"""Terminal plots: the one scale-to-grid mapping behind the Figure 3-5
renderers (:func:`repro.core.figures.render_ascii_trajectory` and
``python -m repro.obs render``)."""

from __future__ import annotations

import numpy as np


class AsciiCanvas:
    """A ``width`` x ``height`` character grid over the box that holds
    every point of ``xs`` and ``ys``, with ``y`` growing upward. A glyph
    overwrites whatever an earlier one left in its cell."""

    def __init__(self, xs: np.ndarray, ys: np.ndarray, width: int, height: int) -> None:
        self.lo_x, self.hi_x = float(xs.min()), float(xs.max())
        self.lo_y, self.hi_y = float(ys.min()), float(ys.max())
        self._width = width
        self._height = height
        self._grid = [[" "] * width for _ in range(height)]

    def plot(self, x: float, y: float, glyph: str) -> None:
        span_x = max(self.hi_x - self.lo_x, 1e-6)
        span_y = max(self.hi_y - self.lo_y, 1e-6)
        col = int((x - self.lo_x) / span_x * (self._width - 1))
        row = int((1.0 - (y - self.lo_y) / span_y) * (self._height - 1))
        self._grid[row][col] = glyph

    def render(self) -> str:
        return "\n".join("".join(row) for row in self._grid)
