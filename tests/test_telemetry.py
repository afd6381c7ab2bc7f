"""Unit tests for the flight recorder."""

import numpy as np
import pytest

from repro.telemetry import COLUMNS, FlightRecorder


class Stub:
    """Attribute bag for faking the system object a recorder reads."""

    def __init__(self, **kw):
        self.__dict__.update(kw)


def fake_system(est=(1.0, 2.0, -15.0), truth=(1.0, 2.0, -15.0),
                phase="mission", failsafe="nominal"):
    """A stand-in for ``UavSystem`` carrying every field a row reads."""
    state = Stub(
        position_ned=np.array(truth, dtype=float),
        velocity_ned=np.zeros(3),
        quaternion=np.array([1.0, 0.0, 0.0, 0.0]),
        angular_rate_body=np.zeros(3),
    )
    return Stub(
        physics=Stub(
            state=state,
            airframe=Stub(motors=Stub(effective_commands=np.full(4, 0.5))),
        ),
        ekf=Stub(
            position_ned=np.array(est, dtype=float),
            velocity_ned=np.zeros(3),
            quaternion=np.array([1.0, 0.0, 0.0, 0.0]),
        ),
        _imu_sample=Stub(gyro=np.zeros(3)),
        _last_attitude_std=0.01,
        commander=Stub(phase=Stub(value=phase)),
        failsafe=Stub(state=Stub(value=failsafe)),
        redundancy=Stub(primary=0),
    )


# ---------------------------------------------------------------- Recorder


def test_recorder_decimates():
    rec = FlightRecorder(rate_hz=5.0)
    system = fake_system()
    for i in range(100):  # 1 s at 100 Hz
        rec.maybe_record(system, i * 0.01, False)
    assert len(rec) == 5
    assert list(rec.column("time_s")) == [0.0, 0.2, 0.4, 0.6, 0.8]


def test_recorder_estimated_distance():
    rec = FlightRecorder(rate_hz=1.0)
    for i in range(5):
        rec.maybe_record(fake_system(est=(float(i), 0.0, 0.0)), float(i), False)
    assert rec.estimated_distance_m == pytest.approx(4.0)


def test_recorder_arrays_shape():
    rec = FlightRecorder(rate_hz=1.0)
    assert rec.rows().shape == (0, len(COLUMNS))
    rec.maybe_record(fake_system(est=(2.0, 2.0, 2.0), truth=(1.0, 1.0, 1.0)), 0.0, True)
    assert rec.rows().shape == (1, len(COLUMNS))
    assert rec.column("truth_pos_n")[0] == 1.0
    assert rec.column("est_pos_n")[0] == 2.0
    assert rec.column("time_s").shape == (1,)
    assert rec.column("fault_active")[0] == 1.0


def test_unbounded_recorder_grows_and_keeps_every_row():
    rec = FlightRecorder(rate_hz=100.0)
    system = fake_system()
    for i in range(200):  # past the initial allocation, twice doubled
        rec.record(system, float(i), i % 2 == 0)
    assert rec.capacity is None
    assert len(rec) == rec.total_recorded == 200
    assert list(rec.column("time_s")) == [float(i) for i in range(200)]
    assert list(rec.column("fault_active")[:4]) == [1.0, 0.0, 1.0, 0.0]


def test_recorder_validation():
    with pytest.raises(ValueError):
        FlightRecorder(rate_hz=0.0)
    with pytest.raises(ValueError):
        FlightRecorder(rate_hz=5.0, seconds=0.0)


def test_recorder_feeds_metrics_registry():
    from repro.obs.registry import MetricsRegistry

    reg = MetricsRegistry()
    rec = FlightRecorder(rate_hz=1.0, registry=reg)
    for i in range(3):
        rec.maybe_record(fake_system(est=(float(i), 0.0, 0.0)), float(i), False)
    assert reg.value("flight_recorder_rows_total") == 3.0
    assert reg.value("flight_distance_m") == pytest.approx(2.0)
