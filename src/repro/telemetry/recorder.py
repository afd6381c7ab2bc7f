"""Flight recorder: columnar rows of true and estimated vehicle state.

The platform in the paper "records all flights, capturing data from
both fault-injected and fault-free scenarios"; this recorder is that
log. It keeps both ground truth (for figures showing what actually
happened) and the EKF estimate (for the distance-travelled metric,
which the paper computes from estimated positions).

One class serves two roles:

* the **flight log** (``UavSystem.recorder``): unbounded, decimated to
  ``rate_hz`` by :meth:`FlightRecorder.maybe_record`, which also sums
  the distance travelled. A row carries the step's *start* time and
  the vehicle state at the step's *end*;
* the **black box** (``Observer.blackbox``): a ring of the last
  ``seconds`` of flight, written every physics tick through
  :meth:`FlightRecorder.record`, stamped with the post-step time.

Rows live in one preallocated ``(capacity, len(COLUMNS))`` float64
array; an unbounded recorder doubles it when full. Categorical columns
(phase, failsafe state) are stored as small codes assigned on first
sight; the code tables ride along in the dump, so the recorder never
needs to import the flight stack (and the format survives enum
renames).

Dumps go through :func:`repro.core.atomicio.atomic_write_text`: a kill
mid-dump can never leave a torn artifact next to the campaign results.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.atomicio import atomic_write_text
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.system import UavSystem

#: Dump format version (bump on column or header changes).
SCHEMA = 2

#: Column layout of one row. Order is the wire format: the dump writes
#: ``columns`` alongside the data, so readers never hard-code indices.
COLUMNS: tuple[str, ...] = (
    "time_s",
    "truth_pos_n", "truth_pos_e", "truth_pos_d",
    "truth_vel_n", "truth_vel_e", "truth_vel_d",
    "truth_quat_w", "truth_quat_x", "truth_quat_y", "truth_quat_z",
    "truth_rate_x", "truth_rate_y", "truth_rate_z",
    "est_pos_n", "est_pos_e", "est_pos_d",
    "est_vel_n", "est_vel_e", "est_vel_d",
    "est_quat_w", "est_quat_x", "est_quat_y", "est_quat_z",
    "gyro_x", "gyro_y", "gyro_z",
    "motor_0", "motor_1", "motor_2", "motor_3",
    "attitude_std_rad",
    "phase_code",
    "failsafe_code",
    "fault_active",
    "primary_member",
)

_WIDTH = len(COLUMNS)
_COL = {name: i for i, name in enumerate(COLUMNS)}
#: One row as native doubles, packed straight into the C-contiguous
#: row array.
_ROW = struct.Struct(f"{_WIDTH}d")
#: Rows allocated up front by an unbounded recorder.
_INITIAL_ROWS = 64


class FlightRecorder:
    """Columnar recorder of the running vehicle.

    ``seconds=None`` keeps every row; ``seconds=s`` keeps the newest
    ``round(s * rate_hz)`` rows in a ring.
    """

    def __init__(
        self,
        rate_hz: float,
        seconds: float | None = None,
        registry: MetricsRegistry | None = None,
    ):
        if rate_hz <= 0.0:
            raise ValueError("rate_hz must be positive")
        if seconds is not None and seconds <= 0.0:
            raise ValueError("seconds must be positive")
        self.rate_hz = rate_hz
        self.interval_s = 1.0 / rate_hz
        self.capacity = None if seconds is None else max(1, int(round(seconds * rate_hz)))
        self._data = np.zeros((self.capacity or _INITIAL_ROWS, _WIDTH))
        self._idx = 0
        self._count = 0
        # Code tables for categorical columns, built as states appear.
        self._phase_codes: dict[str, int] = {}
        self._failsafe_codes: dict[str, int] = {}
        # The last phase/failsafe member seen and its code.
        self._phase: Any = None
        self._phase_code = 0
        self._failsafe: Any = None
        self._failsafe_code = 0
        self._next_time = 0.0
        self._estimated_distance_m = 0.0
        self._prev_est_position: np.ndarray | None = None
        # Metrics hook: with the (default) null registry both
        # instruments are no-ops, so an unobserved recorder pays two
        # empty calls per decimated row.
        registry = registry if registry is not None else NULL_REGISTRY
        self._distance_gauge = registry.gauge(
            "flight_distance_m", "EKF-estimated distance travelled this run."
        )
        self._rows_total = registry.counter(
            "flight_recorder_rows_total", "Decimated log rows recorded."
        )

    def __len__(self) -> int:
        return self._count if self.capacity is None else min(self._count, self.capacity)

    @property
    def total_recorded(self) -> int:
        """Rows ever recorded (>= len() once a ring has wrapped)."""
        return self._count

    def record(self, system: "UavSystem", time_s: float, fault_active: bool) -> None:
        """Write one row from the system's current state.

        Strictly read-only on ``system`` (reprolint OBS001): the row is
        a copy, so later simulation steps cannot retroactively change
        recorded history. The black box calls this every simulation
        step, so the row is packed in one ``struct`` call from Python
        floats (native doubles, so every bit is kept), and the attitude
        sigma is the one the step already read.
        """
        truth = system.physics.state
        ekf = system.ekf
        # Phase and failsafe state change a handful of times a flight:
        # look their codes up only when the enum member changes.
        phase = system.commander.phase
        if phase is not self._phase:
            self._phase = phase
            self._phase_code = self._phase_codes.setdefault(phase.value, len(self._phase_codes))
        failsafe = system.failsafe.state
        if failsafe is not self._failsafe:
            self._failsafe = failsafe
            self._failsafe_code = self._failsafe_codes.setdefault(
                failsafe.value, len(self._failsafe_codes)
            )
        _ROW.pack_into(
            self._data,
            self._idx * _ROW.size,
            time_s,
            *truth.position_ned.tolist(),
            *truth.velocity_ned.tolist(),
            *truth.quaternion.tolist(),
            *truth.angular_rate_body.tolist(),
            *ekf.position_ned.tolist(),
            *ekf.velocity_ned.tolist(),
            *ekf.quaternion.tolist(),
            *system._imu_sample.gyro.tolist(),
            *system.physics.airframe.motors.effective_commands.tolist(),
            system._last_attitude_std,
            self._phase_code,
            self._failsafe_code,
            1.0 if fault_active else 0.0,
            system.redundancy.primary,
        )
        self._count += 1
        self._idx += 1
        if self._idx == len(self._data):
            if self.capacity is None:
                self._data = np.concatenate((self._data, np.zeros_like(self._data)))
            else:
                self._idx = 0

    def due(self, time_s: float) -> bool:
        """True when :meth:`maybe_record` would record at ``time_s``.

        Lets the caller skip computing row inputs (e.g. the fault
        flag) on the ticks between samples.
        """
        return not (time_s + 1e-9 < self._next_time)

    def maybe_record(
        self, system: "UavSystem", time_s: float, fault_active: bool
    ) -> None:
        """Record a row if the decimation interval has elapsed.

        The estimated-distance integral is updated on every recorded row
        ("summing the differences between the positions of drones as
        estimated by the EKF", paper Sec. III-D.5).
        """
        if time_s + 1e-9 < self._next_time:
            return
        self._next_time = time_s + self.interval_s
        idx = self._idx
        self.record(system, time_s, fault_active)
        position_est_ned = self._data[idx, 14:17]
        if self._prev_est_position is not None:
            delta = position_est_ned - self._prev_est_position
            self._estimated_distance_m += math.sqrt(float(delta.dot(delta)))
        self._prev_est_position = position_est_ned.copy()
        self._distance_gauge.default.set(self._estimated_distance_m)
        self._rows_total.default.inc()

    @property
    def estimated_distance_m(self) -> float:
        """EKF-estimated distance travelled so far (paper metric 5)."""
        return self._estimated_distance_m

    def rows(self) -> np.ndarray:
        """The recorded rows in chronological order (oldest first)."""
        if self.capacity is None or self._count < self.capacity:
            return self._data[: self._count].copy()
        return np.concatenate((self._data[self._idx:], self._data[: self._idx]))

    def column(self, name: str) -> np.ndarray:
        """One named column of :meth:`rows`."""
        return self.rows()[:, _COL[name]]

    # -- persistence ---------------------------------------------------

    def to_payload(
        self,
        metadata: dict[str, Any] | None = None,
        events: list[dict[str, Any]] | None = None,
    ) -> dict[str, Any]:
        """The dump dictionary (JSON-ready)."""
        return {
            "schema": SCHEMA,
            "rate_hz": self.rate_hz,
            "capacity": self.capacity,
            "columns": list(COLUMNS),
            "phase_codes": dict(self._phase_codes),
            "failsafe_codes": dict(self._failsafe_codes),
            "total_recorded": self._count,
            "estimated_distance_m": self._estimated_distance_m,
            "metadata": metadata or {},
            "events": events or [],
            "rows": self.rows().tolist(),
        }

    def dump(
        self,
        path: str | Path,
        metadata: dict[str, Any] | None = None,
        events: list[dict[str, Any]] | None = None,
    ) -> str:
        """Write the recording atomically; returns the path.

        ``events`` is the run's trace-event list (as dicts), embedded
        so a single artifact reconstructs both the continuous state and
        the discrete transitions that led to the terminal outcome.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            path, json.dumps(self.to_payload(metadata, events)) + "\n"
        )
        return str(path)


def load_recording(path: str | Path) -> dict[str, Any]:
    """Read a dump back, with ``rows`` as an ``(N, len(columns))`` array.

    Validates the schema tag, the width of every row, and the row count
    against the header (a truncated or hand-edited file is rejected,
    never silently reshaped).
    """
    payload = json.loads(Path(path).read_text())
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != SCHEMA:
        raise ValueError(f"unsupported recording schema {schema!r} in {path}")
    missing = {
        "columns", "rows", "phase_codes", "total_recorded", "capacity", "metadata"
    } - set(payload)
    if missing:
        raise ValueError(f"recording {path} is missing keys: {sorted(missing)}")
    width = len(payload["columns"])
    rows = payload["rows"]
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != width:
            raise ValueError(
                f"recording {path}: row {i} is not {width} values wide"
            )
    total, capacity = payload["total_recorded"], payload["capacity"]
    expected = total if capacity is None else min(total, capacity)
    if len(rows) != expected:
        raise ValueError(
            f"recording {path} has {len(rows)} rows, header says {expected}"
        )
    payload["rows"] = np.array(rows, dtype=float).reshape(len(rows), width)
    return payload


def recording_column(payload: dict[str, Any], name: str) -> np.ndarray:
    """One named column from a loaded dump."""
    return payload["rows"][:, payload["columns"].index(name)]
