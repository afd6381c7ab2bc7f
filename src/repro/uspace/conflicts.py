"""Pairwise conflict detection between drones sharing the airspace.

The tables in the paper are per-drone-versus-own-route, but the bubble
concept exists to manage *separation between* drones in U-space. This
module provides that second use: given tracked positions and outer
radii for multiple drones, it detects bubble-overlap conflicts, which
the multi-UAV example exercises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Conflict:
    """A detected loss of separation between two drones."""

    time_s: float
    drone_a: int
    drone_b: int
    distance_m: float
    required_separation_m: float

    @property
    def severity(self) -> float:
        """1 at zero distance, 0 at exactly the required separation."""
        if self.required_separation_m <= 0.0:
            return 0.0
        return max(0.0, 1.0 - self.distance_m / self.required_separation_m)


class ConflictDetector:
    """Counts pairwise bubble-overlap conflicts over a campaign of tracks."""

    def __init__(self) -> None:
        self.conflicts: list[Conflict] = []
        self._active_pairs: set[tuple[int, int]] = set()

    def check_instant(
        self,
        time_s: float,
        positions: dict[int, np.ndarray],
        outer_radii: dict[int, float],
    ) -> list[Conflict]:
        """Evaluate all drone pairs at one tracking instance.

        A conflict *event* is opened when two outer bubbles first
        overlap and closed when they separate again, so a sustained
        overlap counts once (with its closest approach recorded).
        """
        new_conflicts: list[Conflict] = []
        ids = sorted(positions)
        current_overlaps: set[tuple[int, int]] = set()
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                delta = positions[a] - positions[b]
                distance = math.sqrt(float(delta.dot(delta)))
                required = outer_radii[a] + outer_radii[b]
                if distance < required:
                    pair = (a, b)
                    current_overlaps.add(pair)
                    if pair not in self._active_pairs:
                        conflict = Conflict(time_s, a, b, distance, required)
                        self.conflicts.append(conflict)
                        new_conflicts.append(conflict)
        self._active_pairs = current_overlaps
        return new_conflicts

    @property
    def total_conflicts(self) -> int:
        """Number of distinct conflict events observed so far."""
        return len(self.conflicts)
