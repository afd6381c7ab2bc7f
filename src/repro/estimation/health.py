"""Estimator health: innovation bookkeeping and fault flags.

PX4 exposes EKF innovation test ratios and "filter fault" flags that the
commander's failsafe logic consumes; this module reproduces that
interface. Two views of each innovation channel are kept:

* ``consecutive_rejections`` — drives the filter's own *fusion-timeout
  reset* (a short streak means the filter and the aiding source
  disagree and the state block should be re-seeded);
* a rolling accept/reject window — drives the *failsafe health flag*.
  Resets clear the streak but not the window, so a filter that is stuck
  in a reject/reset/reject cycle (violent IMU corruption) still degrades
  to "failed", while one that recovers after a reset (mild corruption)
  does not. This split is what lets Acc-Zeros-style faults stay flyable
  while Min/Max/Random faults escalate to the failsafe, as the paper
  observes.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field


@dataclass
class ChannelHealth:
    """Rolling statistics for one innovation channel."""

    #: Length of the rolling accept/reject window.
    WINDOW_SIZE = 25
    #: Populated share of the window before the channel may report
    #: ``failed``: 15 of the 25 entries.
    FAILED_MIN_FILL = 15

    last_test_ratio: float = 0.0
    peak_test_ratio: float = 0.0
    consecutive_rejections: int = 0
    total_rejections: int = 0
    total_updates: int = 0
    recent: deque[bool] = field(
        default_factory=lambda: deque(maxlen=ChannelHealth.WINDOW_SIZE)
    )
    # Incrementally maintained accept count: `failed` is polled every
    # tick per channel, so summing the window there is O(n) wasted.
    _accepted: int = field(default=0, init=False, repr=False)

    def record(self, test_ratio: float, accepted: bool) -> None:
        self.last_test_ratio = test_ratio
        self.peak_test_ratio = max(self.peak_test_ratio, test_ratio)
        self.total_updates += 1
        if len(self.recent) == self.WINDOW_SIZE:
            self._accepted -= self.recent[0]  # evicted by the append below
        self.recent.append(accepted)
        self._accepted += accepted
        if accepted:
            self.consecutive_rejections = 0
        else:
            self.consecutive_rejections += 1
            self.total_rejections += 1

    @property
    def rejection_fraction(self) -> float:
        """Share of rejected updates in the rolling window."""
        if not self.recent:
            return 0.0
        return 1.0 - self._accepted / len(self.recent)

    @property
    def failed(self) -> bool:
        """Sustained, near-total rejection in the rolling window."""
        return len(self.recent) >= self.FAILED_MIN_FILL and self.rejection_fraction >= 0.8

    def reset_window(self) -> None:
        """Forget the rolling history (e.g. after a sensor switchover)."""
        self.recent.clear()
        self._accepted = 0
        self.consecutive_rejections = 0


class InnovationMonitor:
    """Records accept/reject decisions per innovation channel.

    Vector measurements use per-axis channel names (``gps_vel_0`` ...),
    so a single bad axis cannot hide behind two healthy ones; group
    queries (:meth:`group_failed`) match on the prefix.
    """

    def __init__(self) -> None:
        self.channels: dict[str, ChannelHealth] = defaultdict(ChannelHealth)
        # Prefix -> member list, rebuilt whenever a channel appears. The
        # channel set grows monotonically (defaultdict, never deleted),
        # so a count check is a complete invalidation test.
        self._groups: dict[str, list[ChannelHealth]] = {}
        self._cached_count = 0
        # `aiding_failed()`'s flags, kept until the next record or reset
        # (most steps fuse no measurement, so the windows do not move).
        self._aiding_failed: tuple[bool, bool, bool] | None = None

    def record(self, channel: str, time_s: float, test_ratio: float, accepted: bool) -> None:
        """Record one innovation decision."""
        self.channels[channel].record(test_ratio, accepted)
        self._aiding_failed = None

    def _group(self, prefix: str) -> list[ChannelHealth]:
        if len(self.channels) != self._cached_count:
            self._groups.clear()
            self._cached_count = len(self.channels)
        group = self._groups.get(prefix)
        if group is None:
            group = [
                health
                for name, health in self.channels.items()
                if name == prefix or name.startswith(prefix + "_")
            ]
            self._groups[prefix] = group
        return group

    def group_failed(self, prefix: str) -> bool:
        """True when any channel named ``prefix`` or ``prefix_*`` failed."""
        return any(health.failed for health in self._group(prefix))

    def group_max_consecutive(self, prefix: str) -> int:
        """Largest per-axis rejection streak in a channel group."""
        return max(
            (health.consecutive_rejections for health in self._group(prefix)),
            default=0,
        )

    def clear_group_streaks(self, prefix: str) -> None:
        """Reset rejection streaks after a state reset (windows persist)."""
        for health in self._group(prefix):
            health.consecutive_rejections = 0
        self._aiding_failed = None

    def reset_all_windows(self) -> None:
        """Forget every channel's rolling history.

        Used on IMU switchover: the rejections accumulated against the
        failed sensor say nothing about the new primary, and a stale
        ~80%-rejected window would keep the failsafe's EKF-health
        trigger latched for the whole isolation budget.
        """
        for health in self.channels.values():
            health.reset_window()
        self._aiding_failed = None

    def aiding_failed(self) -> tuple[bool, bool, bool]:
        """``group_failed`` of ``gps_vel``, ``gps_pos`` and ``mag``.

        Computed once per change of the monitor: :meth:`record`,
        :meth:`clear_group_streaks` and :meth:`reset_all_windows` drop
        the cached flags.
        """
        flags = self._aiding_failed
        if flags is None:
            flags = self._aiding_failed = (
                self.group_failed("gps_vel"),
                self.group_failed("gps_pos"),
                self.group_failed("mag"),
            )
        return flags

    def test_ratio(self, channel: str) -> float:
        """Most recent normalised innovation test ratio for ``channel``."""
        return self.channels[channel].last_test_ratio


@dataclass(slots=True)
class EstimatorHealth:
    """Snapshot of estimator health consumed by the failsafe engine."""

    #: Attitude 1-sigma uncertainty (rad) above which the attitude
    #: estimate is declared invalid. A gyro-dead vehicle held together by
    #: GPS-velocity corrections plateaus well below this; only a fully
    #: dead IMU (no gyro *and* no specific-force observability) crosses it.
    ATTITUDE_INVALID_STD_RAD = 0.55

    velocity_aiding_failed: bool
    position_aiding_failed: bool
    yaw_aiding_failed: bool
    attitude_std_rad: float = 0.0
    imu_stale: bool = False

    @classmethod
    def from_monitor(
        cls,
        monitor: InnovationMonitor,
        attitude_std_rad: float = 0.0,
        imu_stale: bool = False,
    ) -> "EstimatorHealth":
        velocity, position, yaw = monitor.aiding_failed()
        return cls(velocity, position, yaw, attitude_std_rad, imu_stale)

    @property
    def attitude_invalid(self) -> bool:
        """True when the attitude estimate is too uncertain to fly on."""
        return self.attitude_std_rad > self.ATTITUDE_INVALID_STD_RAD

    @property
    def degraded(self) -> bool:
        """True when any aiding source or the attitude estimate failed."""
        return (
            self.velocity_aiding_failed
            or self.position_aiding_failed
            or self.yaw_aiding_failed
            or self.attitude_invalid
            or self.imu_stale
        )
