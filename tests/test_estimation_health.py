"""Unit tests for the innovation monitor and estimator health flags."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimation.health import ChannelHealth, EstimatorHealth, InnovationMonitor


def test_channel_records_statistics():
    ch = ChannelHealth()
    ch.record(0.5, True)
    ch.record(2.0, False)
    assert ch.total_updates == 2
    assert ch.total_rejections == 1
    assert ch.peak_test_ratio == 2.0
    assert ch.last_test_ratio == 2.0


def test_consecutive_rejections_reset_on_accept():
    ch = ChannelHealth()
    for _ in range(5):
        ch.record(2.0, False)
    assert ch.consecutive_rejections == 5
    ch.record(0.1, True)
    assert ch.consecutive_rejections == 0


def test_rejection_fraction_rolling_window():
    ch = ChannelHealth()
    for _ in range(25):
        ch.record(2.0, False)
    assert ch.rejection_fraction == 1.0
    for _ in range(25):
        ch.record(0.1, True)
    assert ch.rejection_fraction == 0.0  # old rejections aged out


def test_failed_requires_sustained_rejection():
    ch = ChannelHealth()
    for _ in range(10):
        ch.record(2.0, False)
    assert not ch.failed  # not enough samples yet
    for _ in range(10):
        ch.record(2.0, False)
    assert ch.failed


def test_failed_not_triggered_by_mixed_window():
    ch = ChannelHealth()
    for i in range(25):
        ch.record(1.0, i % 2 == 0)  # 50% rejections
    assert not ch.failed


def test_monitor_group_queries():
    mon = InnovationMonitor()
    for _ in range(20):
        mon.record("gps_vel_2", 0.0, 2.0, False)
        mon.record("gps_vel_0", 0.0, 0.1, True)
    assert mon.group_failed("gps_vel")
    assert not mon.group_failed("gps_pos")
    assert mon.group_max_consecutive("gps_vel") == 20


def test_monitor_clear_group_streaks_keeps_window():
    mon = InnovationMonitor()
    for _ in range(20):
        mon.record("gps_vel_1", 0.0, 2.0, False)
    mon.clear_group_streaks("gps_vel")
    assert mon.group_max_consecutive("gps_vel") == 0
    # The rolling window persists: channel still failed.
    assert mon.group_failed("gps_vel")


def test_estimator_health_from_monitor():
    mon = InnovationMonitor()
    for _ in range(20):
        mon.record("mag", 0.0, 3.0, False)
    health = EstimatorHealth.from_monitor(mon)
    assert health.yaw_aiding_failed
    assert health.degraded
    assert not health.velocity_aiding_failed


def test_attitude_invalid_threshold():
    health = EstimatorHealth(False, False, False, attitude_std_rad=0.6)
    assert health.attitude_invalid
    assert health.degraded
    ok = EstimatorHealth(False, False, False, attitude_std_rad=0.3)
    assert not ok.attitude_invalid
    assert not ok.degraded


def test_imu_stale_degrades():
    health = EstimatorHealth(False, False, False, imu_stale=True)
    assert health.degraded


def test_healthy_monitor_not_degraded():
    mon = InnovationMonitor()
    for _ in range(50):
        mon.record("gps_vel_0", 0.0, 0.1, True)
        mon.record("gps_pos_0", 0.0, 0.1, True)
    assert not EstimatorHealth.from_monitor(mon).degraded


#: One public monitor call: a burst of records on a channel of each group
#: (or one no group reads), long enough to fail it, a window reset, or a
#: group's streak reset.
monitor_ops = st.one_of(
    st.tuples(
        st.just("record"),
        st.sampled_from(["gps_vel_0", "gps_vel_2", "gps_pos_1", "mag", "baro", "grav"]),
        st.booleans(),
        st.integers(1, 30),
    ),
    st.tuples(st.just("reset_all_windows")),
    st.tuples(st.just("clear_group_streaks"), st.sampled_from(["gps_vel", "gps_pos", "mag"])),
)


@given(st.lists(monitor_ops, max_size=40))
@settings(max_examples=150, deadline=None)
def test_cached_aiding_flags_match_a_fresh_computation(ops):
    """After every public path that changes the monitor (record,
    reset_all_windows, clear_group_streaks), the cached flags equal the
    group scans, and so does the health built from them."""
    mon = InnovationMonitor()
    for op in ops:
        if op[0] == "record":
            for _ in range(op[3]):
                mon.record(op[1], 0.0, 0.1 if op[2] else 3.0, op[2])
        elif op[0] == "reset_all_windows":
            mon.reset_all_windows()
        else:
            mon.clear_group_streaks(op[1])
        fresh = (mon.group_failed("gps_vel"), mon.group_failed("gps_pos"), mon.group_failed("mag"))
        assert mon.aiding_failed() == fresh
        health = EstimatorHealth.from_monitor(mon)
        assert (
            health.velocity_aiding_failed,
            health.position_aiding_failed,
            health.yaw_aiding_failed,
        ) == fresh
