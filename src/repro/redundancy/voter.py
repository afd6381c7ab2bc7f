"""Cross-sensor voting over a redundant IMU bank.

The voter compares every bank member against the member-wise median of
the bank (the classic mid-value select used by flight-control voters:
with one corrupted member out of three, the median is always formed
from healthy samples). A member whose residual against the median
exceeds the thresholds for a debounce interval is declared
*unhealthy*; it recovers only after staying inside the envelope for a
longer re-admission interval, so a fault oscillating around the
threshold cannot flap the primary selection.

With two members the median degenerates to the mean and the voter can
detect disagreement but not attribute it; three or more members give
full fault isolation — which is why
:class:`~repro.redundancy.bank.RedundancyConfig` defaults to three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.sensors.imu import ImuSample


def _median(values: list[float]) -> float:
    """``np.median`` of a list of floats, bit for bit.

    Without NaN the middle values of numpy's partition equal the sorted
    ones up to the sign of a zero, and ``np.mean`` sums from an initial
    ``+0.0``, so a plain sort and the ``0.0 +`` below give numpy's bits.
    A NaN (or infinities of both signs) goes to ``np.median`` itself,
    whose result is the NaN its partition leaves last. ``values`` is
    sorted in place.
    """
    total = sum(values)
    if total != total:
        return float(np.median(values))
    values.sort()
    n = len(values)
    half = n // 2
    if n % 2:
        return 0.0 + values[half]
    return (0.0 + values[half - 1] + values[half]) / 2.0


#: Residual against the bank median above which an accelerometer triad
#: counts as mismatched: clears normal sensor noise (sigma ~0.05 m/s^2)
#: by a wide margin while catching every Table I behaviour.
ACCEL_THRESHOLD_M_S2 = 3.0
#: Same for the gyroscope triad.
GYRO_THRESHOLD_RAD_S = 0.3
#: How long a member must stay mismatched before it is declared
#: unhealthy, and how long a flagged member must then stay clean before
#: it counts as healthy again. Re-admission is the slower of the two, so
#: a fault oscillating around the threshold cannot flap the selection.
MISMATCH_DEBOUNCE_S = 0.15
READMIT_DEBOUNCE_S = 0.5


@dataclass(frozen=True)
class VoteReport:
    """One voting cycle: residuals and health verdicts per member.

    ``residuals`` are normalised (1.0 = exactly at threshold; the
    accel and gyro residuals are combined by the worse of the two), so
    callers can rank members without caring which triad disagreed.
    """

    time_s: float
    residuals: tuple[float, ...]
    mismatched: tuple[bool, ...]
    unhealthy: tuple[bool, ...]
    median_accel: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    median_gyro: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def healthy_members(self) -> tuple[int, ...]:
        """Indices of members currently passing the vote."""
        return tuple(i for i, bad in enumerate(self.unhealthy) if not bad)

    def preferred_member(self, exclude: frozenset[int] | set[int] = frozenset()) -> int | None:
        """Best healthy member outside ``exclude`` (lowest residual,
        ties broken toward the lowest index), or ``None`` if no healthy
        candidate remains."""
        candidates = [i for i in self.healthy_members if i not in exclude]
        if not candidates:
            return None
        return min(candidates, key=lambda i: (self.residuals[i], i))


class Voter:
    """Debounced median voter over ``num_members`` IMU streams."""

    def __init__(self, num_members: int = 3) -> None:
        if num_members < 1:
            raise ValueError("num_members must be >= 1")
        self.num_members = num_members
        # Member-stacked samples and their deviations from the median,
        # overwritten every cycle. Each member owns a (1, 3) row, so one
        # matmul of the deviations by their (3, 1) transposes yields
        # every member's squared residual.
        self._accels = np.zeros((num_members, 1, 3))
        self._gyros = np.zeros((num_members, 1, 3))
        self._accel_dev = np.zeros((num_members, 1, 3))
        self._gyro_dev = np.zeros((num_members, 1, 3))
        self._mismatch_time_s = [0.0] * num_members
        self._clean_time_s = [0.0] * num_members
        self._unhealthy = [False] * num_members

    def update(self, samples: list[ImuSample], dt: float) -> VoteReport:
        """Advance the vote by one cycle of bank samples."""
        if len(samples) != self.num_members:
            raise ValueError(
                f"expected {self.num_members} samples, got {len(samples)}"
            )
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        accels = self._accels
        gyros = self._gyros
        for k, sample in enumerate(samples):
            accels[k] = sample.accel
            gyros[k] = sample.gyro
        median_accel = np.array([_median(c[0]) for c in accels.T.tolist()])
        median_gyro = np.array([_median(c[0]) for c in gyros.T.tolist()])

        # Residuals must equal np.linalg.norm's bits, which come from the
        # BLAS dot of a contiguous row with itself (a Python sum of
        # squares differs: DESIGN §11). A (1, 3) @ (3, 1) matmul sends
        # each 1 x 1 product to that same dot, one matmul for all rows.
        # The matmuls are batched over members (3-D), which ndarray.dot
        # does not broadcast, hence the NUM004 suppressions.
        accel_dev = self._accel_dev
        gyro_dev = self._gyro_dev
        np.subtract(accels, median_accel, out=accel_dev)
        np.subtract(gyros, median_gyro, out=gyro_dev)
        accel_sq = np.matmul(accel_dev, accel_dev.transpose(0, 2, 1)).tolist()  # reprolint: disable=NUM004
        gyro_sq = np.matmul(gyro_dev, gyro_dev.transpose(0, 2, 1)).tolist()  # reprolint: disable=NUM004
        residuals: list[float] = []
        mismatched: list[bool] = []
        for i in range(self.num_members):
            residual = max(
                math.sqrt(accel_sq[i][0][0]) / ACCEL_THRESHOLD_M_S2,
                math.sqrt(gyro_sq[i][0][0]) / GYRO_THRESHOLD_RAD_S,
            )
            residuals.append(residual)
            mismatched.append(residual > 1.0)

        for i, bad_now in enumerate(mismatched):
            if bad_now:
                self._mismatch_time_s[i] += dt
                self._clean_time_s[i] = 0.0
                if self._mismatch_time_s[i] >= MISMATCH_DEBOUNCE_S:
                    self._unhealthy[i] = True
            else:
                self._clean_time_s[i] += dt
                self._mismatch_time_s[i] = 0.0
                if self._unhealthy[i] and self._clean_time_s[i] >= READMIT_DEBOUNCE_S:
                    self._unhealthy[i] = False

        return VoteReport(
            time_s=samples[0].time_s,
            residuals=tuple(residuals),
            mismatched=tuple(mismatched),
            unhealthy=tuple(self._unhealthy),
            median_accel=median_accel,
            median_gyro=median_gyro,
        )
