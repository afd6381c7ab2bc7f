"""Unit tests for brokers, tracker, and the flight recorder."""

import numpy as np
import pytest

from repro.telemetry import (
    COLUMNS,
    Broker,
    CoreBroker,
    EdgeBroker,
    FlightRecorder,
    TrackMessage,
    Tracker,
)
from repro.telemetry.messages import FlightEvent


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


def track(drone_id=1, t=0.0):
    return TrackMessage(
        drone_id=drone_id,
        time_s=t,
        position_ned=(1.0, 2.0, -15.0),
        velocity_ned=(3.0, 0.0, 0.0),
        airspeed_m_s=3.0,
    )


# ------------------------------------------------------------------ Broker


def test_exact_topic_delivery():
    broker = Broker("test")
    got = []
    broker.subscribe("track/1", lambda topic, msg: got.append((topic, msg)))
    delivered = broker.publish("track/1", "hello")
    assert delivered == 1
    assert got == [("track/1", "hello")]


def test_wildcard_subscription():
    broker = Broker("test")
    got = []
    broker.subscribe("track/*", lambda topic, msg: got.append(topic))
    broker.publish("track/1", "a")
    broker.publish("track/2", "b")
    broker.publish("event/1", "c")
    assert got == ["track/1", "track/2"]


def test_no_subscribers_is_fine():
    broker = Broker("test")
    assert broker.publish("nobody/listens", "x") == 0


def test_subscriber_error_isolated():
    broker = Broker("test")
    got = []

    def bad(topic, msg):
        raise RuntimeError("boom")

    broker.subscribe("t", bad)
    broker.subscribe("t", lambda topic, msg: got.append(msg))
    delivered = broker.publish("t", 42)
    assert delivered == 1  # the healthy subscriber still got it
    assert got == [42]
    assert len(broker.delivery_errors) == 1
    assert isinstance(broker.delivery_errors[0].error, RuntimeError)


def test_edge_broker_forwards_upstream():
    core = CoreBroker()
    edge = EdgeBroker("edge-1", upstream=core)
    got_core, got_edge = [], []
    core.subscribe("track/1", lambda t, m: got_core.append(m))
    edge.subscribe("track/1", lambda t, m: got_edge.append(m))
    edge.publish("track/1", "msg")
    assert got_core == ["msg"]
    assert got_edge == ["msg"]


def test_broker_tree_two_edges():
    core = CoreBroker()
    tracker = Tracker(core)
    edge_a = EdgeBroker("edge-a", upstream=core)
    edge_b = EdgeBroker("edge-b", upstream=core)
    edge_a.publish("track/1", track(1, 0.0))
    edge_b.publish("track/2", track(2, 0.0))
    assert tracker.track_count(1) == 1
    assert tracker.track_count(2) == 1


# ----------------------------------------------------------------- Tracker


def test_tracker_stores_history_in_order():
    core = CoreBroker()
    tracker = Tracker(core)
    core.publish("track/1", track(1, 0.0))
    core.publish("track/1", track(1, 1.0))
    assert tracker.track_count(1) == 2
    assert tracker.latest(1).time_s == 1.0


def test_tracker_events():
    core = CoreBroker()
    tracker = Tracker(core)
    core.publish("event/1", FlightEvent(1, 5.0, "failsafe", "gyro_rate"))
    assert tracker.events[1][0].kind == "failsafe"


def test_tracker_latest_unknown_drone():
    tracker = Tracker(CoreBroker())
    assert tracker.latest(99) is None
    assert tracker.track_count(99) == 0


def test_tracker_rejects_wrong_message_type():
    core = CoreBroker()
    tracker = Tracker(core)
    core.publish("track/1", "not a track")
    # The type error is captured as a delivery error, not raised.
    assert len(core.delivery_errors) == 1


def test_track_message_arrays():
    msg = track()
    assert np.allclose(msg.position_array, [1.0, 2.0, -15.0])
    assert np.allclose(msg.velocity_array, [3.0, 0.0, 0.0])


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


# ------------------------------------------------- obs event stream


def event(drone_id=1, t=0.0, kind="imu.switchover"):
    return FlightEvent(drone_id=drone_id, time_s=t, kind=kind)


def test_subscribers_fire_in_subscription_order():
    broker = Broker("test")
    order = []
    broker.subscribe("event/1", lambda topic, msg: order.append("exact-first"))
    broker.subscribe("event/*", lambda topic, msg: order.append("wild-first"))
    broker.subscribe("event/1", lambda topic, msg: order.append("exact-second"))
    broker.subscribe("event/*", lambda topic, msg: order.append("wild-second"))
    broker.publish("event/1", event())
    # Exact matches deliver before wildcards; within each class,
    # subscription order is preserved.
    assert order == ["exact-first", "exact-second", "wild-first", "wild-second"]


def test_event_burst_no_drops_and_in_order():
    """A crash-window burst (every step emits) must arrive complete."""
    core = CoreBroker()
    edge = EdgeBroker("edge-0", upstream=core)
    tracker = Tracker(core)
    n = 5000
    for i in range(n):
        delivered = edge.publish("event/7", event(drone_id=7, t=i * 0.01))
        assert delivered == 1  # the tracker, via the core broker
    got = tracker.events[7]
    assert len(got) == n
    assert [e.time_s for e in got] == [i * 0.01 for i in range(n)]
    assert core.published_count == n
    assert not core.delivery_errors and not edge.delivery_errors


def test_event_burst_survives_one_bad_subscriber():
    broker = CoreBroker()
    tracker = Tracker(broker)

    def bad(topic, msg):
        raise RuntimeError("slow disk")

    broker.subscribe("event/*", bad)
    for i in range(100):
        broker.publish("event/1", event(t=float(i)))
    assert len(tracker.events[1]) == 100  # tracker unaffected
    assert len(broker.delivery_errors) == 100


def test_observer_events_reach_tracker_via_broker():
    """The obs plane's broker mirror: emit -> event/<id> -> Tracker."""
    from repro.obs.observer import Observer
    from repro.obs.registry import MetricsRegistry

    broker = CoreBroker()
    tracker = Tracker(broker)
    obs = Observer(registry=MetricsRegistry())
    obs.attach_broker(broker, drone_id=42)
    obs.trace.emit("failsafe.engaged", 12.5, trigger="attitude_excursion")
    obs.trace.emit("imu.switchover", 13.0, from_member=0, to_member=1)
    got = tracker.events[42]
    assert [(e.kind, e.time_s) for e in got] == [
        ("failsafe.engaged", 12.5), ("imu.switchover", 13.0),
    ]
    assert got[0].data == {"trigger": "attitude_excursion"}
    # The same emissions also land in the observer's metrics.
    assert obs.metrics.value("obs_events_total", event="imu.switchover") == 1.0
