"""Telemetry: flight recording and the tracking broker tree.

Reproduces the communication side of the paper's experimental
environment (Fig. 1): each vehicle publishes track messages through an
edge broker to a core broker, where the tracker service maintains the
per-drone track history that U-space surveillance (and our bubble
monitor) consumes. Brokers are in-process but preserve the pub/sub
topology so multi-vehicle examples exercise the same data paths.
"""

from repro.telemetry.messages import TrackMessage, FlightEvent
from repro.telemetry.broker import Broker, EdgeBroker, CoreBroker
from repro.telemetry.tracker import Tracker
from repro.telemetry.recorder import (
    COLUMNS,
    FlightRecorder,
    load_recording,
    recording_column,
)

__all__ = [
    "TrackMessage",
    "FlightEvent",
    "Broker",
    "EdgeBroker",
    "CoreBroker",
    "Tracker",
    "COLUMNS",
    "FlightRecorder",
    "load_recording",
    "recording_column",
]
