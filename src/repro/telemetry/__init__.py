"""Telemetry: the flight recorder, one format for the flight log and
the black box.

The paper's platform records every flight; :class:`FlightRecorder` is
that log. Its U-space track stream (Fig. 1) is not modelled as
transport: the 1 Hz track of each drone is
:attr:`repro.uspace.BubbleMonitor.history`, fed directly by the vehicle.
"""

from repro.telemetry.recorder import (
    COLUMNS,
    FlightRecorder,
    load_recording,
    recording_column,
)

__all__ = [
    "COLUMNS",
    "FlightRecorder",
    "load_recording",
    "recording_column",
]
