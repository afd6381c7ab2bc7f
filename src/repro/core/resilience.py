"""Fault tolerance for the campaign harness itself.

The paper's 850-case campaign takes hours at paper scale, so the
harness must survive the same kinds of chaos it injects into the
vehicle: a raising experiment, a diverged simulation that never
terminates, or a worker process that dies mid-case. This module holds
the reusable pieces:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *deterministic* jitter (seeded by the case id, so two runs of the
  same campaign sleep identically), plus an optional per-case
  wall-clock timeout.
* :class:`CaseTimeoutError` — recorded when a case blows its
  wall-clock budget (the campaign's process pool stops it by killing
  its worker).
* :func:`campaign_fingerprint` — a stable hash of everything that
  determines campaign *results* (and nothing that does not, e.g.
  ``workers``), used to guard checkpoint resume against config drift.
* :class:`EtaEstimator` — completed-case-rate remaining-time estimate
  for the progress ticker; the clock is injectable so tests stay
  deterministic.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Iterable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (campaign imports us)
    from repro.core.campaign import CampaignConfig
    from repro.core.experiments import ExperimentSpec


class CaseTimeoutError(Exception):
    """A single experiment case exceeded its wall-clock budget."""


#: Multiplier applied to the backoff per further attempt.
BACKOFF_FACTOR = 2.0
#: Cap on any single backoff sleep, before jitter.
BACKOFF_MAX_S = 30.0
#: Amplitude of the deterministic jitter added on top of the backoff,
#: as a fraction of it; derived from the case key so the schedule is
#: reproducible.
JITTER_FRAC = 0.1


@dataclass(frozen=True)
class RetryPolicy:
    """How the harness treats a failing or hanging case.

    Attributes:
        max_attempts: total tries per case (1 = no retry).
        backoff_base_s: sleep before attempt 2; 0 disables sleeping.
            Each further attempt multiplies it by
            :data:`BACKOFF_FACTOR`, up to :data:`BACKOFF_MAX_S`, plus
            up to :data:`JITTER_FRAC` of jitter.
        timeout_s: per-case wall-clock limit; ``None`` disables it.
            Set, it runs every case in a worker process, which is
            killed when its case runs out of time.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.0
    timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0.0:
            raise ValueError("backoff_base_s must be non-negative")
        if self.timeout_s is not None and self.timeout_s <= 0.0:
            raise ValueError("timeout_s must be positive (or None)")

    def delay_s(self, attempt: int, key: int = 0) -> float:
        """Backoff before retrying after the given failed attempt.

        ``attempt`` counts from 1 (the first try). The jitter is a pure
        function of ``(key, attempt)``, so identical campaigns produce
        identical retry schedules.
        """
        if attempt < 1:
            raise ValueError("attempt counts from 1")
        base = self.backoff_base_s * BACKOFF_FACTOR ** (attempt - 1)
        base = min(BACKOFF_MAX_S, base)
        return base * (1.0 + JITTER_FRAC * _unit_hash(key, attempt))


#: Legacy behaviour: one attempt, no timeout — a raising case still
#: degrades to a harness-error record rather than aborting the matrix.
NO_RETRY = RetryPolicy(max_attempts=1)


def campaign_fingerprint(
    config: "CampaignConfig", specs: Iterable["ExperimentSpec"]
) -> str:
    """Hash of everything that determines campaign results.

    Deliberately excludes ``workers`` (parallelism cannot change
    results) so a checkpoint written serially can be resumed with a
    process pool and vice versa. ``obs_dir`` is excluded for the same
    reason: observability is read-only on the simulation (the
    bit-exactness tests enforce this), so a checkpoint written with
    tracing off can be resumed with it on.
    """
    from repro.core.results import fault_spec_to_dict

    payload = {
        "scale": config.scale,
        "injection_time_s": config.effective_injection_time_s,
        "durations_s": list(config.durations_s),
        "mission_ids": list(config.mission_ids),
        "base_seed": config.base_seed,
        "include_gold": config.include_gold,
        # The redundancy axis changes vehicle behaviour, so it must
        # change the fingerprint (checkpoints from mitigation-on and
        # mitigation-off campaigns can never be mixed).
        "fault_scope": config.fault_scope.value,
        "mitigation": config.mitigation,
        "imu_redundancy": config.imu_redundancy,
        # Every FaultSpec field goes through the canonical serializer:
        # a seed or noise-fraction change must change the fingerprint,
        # or resume would silently mix results from different campaigns.
        "specs": [
            (
                s.experiment_id,
                s.mission_id,
                s.label,
                s.duration_s,
                fault_spec_to_dict(s.fault) if s.fault is not None else None,
            )
            for s in specs
        ],
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    )
    return digest.hexdigest()


class EtaEstimator:
    """Remaining-time estimate from the completed-case rate.

    Resume-aware: cases already done when the estimator starts are
    excluded from the rate (they cost no wall clock this session), so a
    resumed campaign's ETA reflects only the work actually remaining.
    """

    def __init__(
        self,
        total: int,
        already_done: int = 0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if total < 0 or already_done < 0:
            raise ValueError("total and already_done must be non-negative")
        self.total = total
        self.done = already_done
        self._initial_done = already_done
        self._clock = clock
        self._start = clock()

    def update(self, done: int) -> None:
        """Record the current completed-case count."""
        self.done = done

    def eta_s(self) -> float | None:
        """Estimated seconds to completion; ``None`` until the first
        case of this session finishes (no rate to extrapolate)."""
        fresh = self.done - self._initial_done
        if fresh <= 0:
            return None
        remaining = max(0, self.total - self.done)
        elapsed = self._clock() - self._start
        if elapsed <= 0.0:
            return 0.0
        return remaining * elapsed / fresh

    def format(self) -> str:
        """Compact ticker suffix, e.g. ``ETA 2m30s`` (or ``ETA --``)."""
        eta = self.eta_s()
        if eta is None:
            return "ETA --"
        seconds = int(round(eta))
        if seconds >= 3600:
            return f"ETA {seconds // 3600}h{(seconds % 3600) // 60:02d}m"
        if seconds >= 60:
            return f"ETA {seconds // 60}m{seconds % 60:02d}s"
        return f"ETA {seconds}s"


def _unit_hash(key: int, attempt: int) -> float:
    """Deterministic pseudo-random value in [0, 1) for jitter."""
    digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64
