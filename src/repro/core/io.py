"""Persistence for campaign results.

Campaigns at paper scale take hours, so results must be storable and
re-analysable without re-running. Two formats live here:

* the **final JSON** (:func:`save_campaign` / :func:`load_campaign`):
  flat, versioned, written atomically (temp file + ``os.replace``) so
  an interrupted save can never corrupt an existing results file.
  Schema v2 adds harness-error rows (``outcome: null`` plus ``error``
  and ``attempts``); v3 adds the redundancy axis (``fault_scope``,
  ``mitigated``, ``imu_switchovers``, ``isolation_succeeded``); v4 adds
  the observability plane's ``blackbox_path``; older files remain
  loadable.
* the **JSONL checkpoint journal** (:class:`CampaignJournal`): one
  fsync'd line per completed case, written *while the campaign runs*,
  so a crash or kill loses at most the in-flight cases. The journal
  header carries a campaign fingerprint; resume refuses a checkpoint
  whose fingerprint does not match the requested config.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, fields
from pathlib import Path
from typing import IO, Any

from repro.core.atomicio import atomic_write_text
from repro.core.results import (
    HARNESS_ERROR_OUTCOME,
    CampaignResult,
    ExperimentResult,
)
from repro.flightstack.commander import MissionOutcome

_SCHEMA_VERSION = 4
_SUPPORTED_VERSIONS = (1, 2, 3, 4)

_JOURNAL_SCHEMA_VERSION = 1


#: The row schema: every persisted form (JSON, journal, CSV) writes
#: these fields, in this order.
_ROW_FIELDS = fields(ExperimentResult)

#: CSV cell formats of the rounded float columns.
_CSV_FORMATS = {
    "flight_duration_s": ".3f",
    "distance_km": ".4f",
    "max_deviation_m": ".3f",
}


def _result_to_dict(r: ExperimentResult) -> dict[str, Any]:
    row = {f.name: getattr(r, f.name) for f in _ROW_FIELDS}
    if r.outcome is not None:
        row["outcome"] = r.outcome.value
    return row


def _result_from_dict(r: dict[str, Any]) -> ExperimentResult:
    """Inverse of :func:`_result_to_dict`.

    A field an older schema lacks takes its dataclass default; a missing
    field without one raises ``KeyError`` (a torn journal line).
    """
    row = {f.name: r[f.name] for f in _ROW_FIELDS if f.name in r or f.default is MISSING}
    if row["outcome"] is not None:
        row["outcome"] = MissionOutcome(row["outcome"])
    return ExperimentResult(**row)


def _csv_cell(name: str, value: Any) -> str:
    if value is None:
        return HARNESS_ERROR_OUTCOME if name == "outcome" else ""
    if name in _CSV_FORMATS:
        return format(value, _CSV_FORMATS[name])
    if isinstance(value, bool):
        return str(value).lower()
    return str(value).replace(",", ";").replace("\n", " ")


def save_campaign(campaign: CampaignResult, path: str | Path) -> None:
    """Write a campaign to ``path`` as JSON (atomically)."""
    payload = {
        "schema_version": _SCHEMA_VERSION,
        "scale": campaign.scale,
        "injection_time_s": campaign.injection_time_s,
        "results": [_result_to_dict(r) for r in campaign.results],
    }
    atomic_write_text(Path(path), json.dumps(payload, indent=1))


def load_campaign(path: str | Path) -> CampaignResult:
    """Read a campaign previously written by :func:`save_campaign`.

    Accepts schemas v1-v4 (a field an older schema lacks takes its
    default); refuses unknown versions rather than guessing.
    """
    payload = json.loads(Path(path).read_text())
    version = payload.get("schema_version")
    if version not in _SUPPORTED_VERSIONS:
        raise ValueError(
            f"unsupported campaign schema version {version!r} in {path} "
            f"(expected one of {_SUPPORTED_VERSIONS})"
        )
    results = [_result_from_dict(r) for r in payload["results"]]
    return CampaignResult(
        results=results,
        specs=[],
        scale=payload["scale"],
        injection_time_s=payload["injection_time_s"],
    )


def export_csv(campaign: CampaignResult, path: str | Path) -> None:
    """Write the raw per-experiment rows as CSV (for pandas/R users)."""
    lines = [",".join(f.name for f in _ROW_FIELDS)]
    for r in campaign.results:
        lines.append(
            ",".join(_csv_cell(name, value) for name, value in _result_to_dict(r).items())
        )
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


class JournalMismatchError(ValueError):
    """The checkpoint on disk belongs to a different campaign config."""


class CampaignJournal:
    """Crash-safe JSONL checkpoint of a running campaign.

    Line 1 is a header record (fingerprint + provenance); every further
    line is one completed :class:`ExperimentResult`. Appends are
    flushed and fsync'd, so after a crash the journal holds every case
    that finished — at worst the final line is truncated, which
    :meth:`load` tolerates by skipping it.

    On a clean campaign finish, :meth:`finalize` atomically rewrites
    the journal (``os.replace``) with ``complete: true`` in the header
    and exactly one record per case, de-duplicating any rows a
    crash/resume cycle may have repeated.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle: IO[str] | None = None

    def exists(self) -> bool:
        return self.path.exists()

    def create(
        self,
        fingerprint: str,
        scale: float,
        injection_time_s: float,
        total_cases: int,
    ) -> None:
        """Start a fresh journal (truncates any existing file)."""
        header = {
            "kind": "header",
            "journal_version": _JOURNAL_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "scale": scale,
            "injection_time_s": injection_time_s,
            "total_cases": total_cases,
            "complete": False,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "w")
        self._write_line(header)

    def open_for_append(self) -> None:
        """Re-open an existing journal to continue a resumed campaign."""
        self._handle = open(self.path, "a")

    def append(self, result: ExperimentResult) -> None:
        """Durably record one completed case (flush + fsync)."""
        if self._handle is None:
            raise RuntimeError("journal is not open for writing")
        record = {"kind": "result", **_result_to_dict(result)}
        self._write_line(record)

    def load(
        self, expected_fingerprint: str | None = None
    ) -> tuple[dict[str, Any], dict[int, ExperimentResult]]:
        """Read the journal: (header, results keyed by experiment_id).

        A truncated or corrupt trailing line (crash mid-append) is
        skipped silently; corruption anywhere else raises. When
        ``expected_fingerprint`` is given, a mismatch raises
        :class:`JournalMismatchError` so a stale checkpoint can never
        silently mix campaigns.
        """
        lines = self.path.read_text().splitlines()
        if not lines:
            raise ValueError(f"empty campaign journal: {self.path}")
        header = json.loads(lines[0])
        if header.get("kind") != "header":
            raise ValueError(f"campaign journal {self.path} has no header line")
        if header.get("journal_version") != _JOURNAL_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported journal version {header.get('journal_version')!r} "
                f"in {self.path}"
            )
        if (
            expected_fingerprint is not None
            and header.get("fingerprint") != expected_fingerprint
        ):
            raise JournalMismatchError(
                f"checkpoint {self.path} was written by a different campaign "
                f"config (fingerprint {header.get('fingerprint')!r}); refusing "
                "to mix results — delete it or pass the original config"
            )
        results: dict[int, ExperimentResult] = {}
        for index, line in enumerate(lines[1:], start=2):
            try:
                record = json.loads(line)
                if record.get("kind") != "result":
                    raise ValueError("not a result record")
                result = _result_from_dict(record)
            except (ValueError, KeyError) as exc:
                if index == len(lines):
                    break  # torn final append from a crash — recoverable
                raise ValueError(
                    f"corrupt record at {self.path}:{index}: {exc}"
                ) from exc
            results[result.experiment_id] = result
        return header, results

    def finalize(self) -> None:
        """Atomically mark the journal complete (and compact it)."""
        self.close()
        header, results = self.load()
        header["complete"] = True
        ordered = sorted(results.values(), key=lambda r: r.experiment_id)
        text = "\n".join(
            [json.dumps(header, separators=(",", ":"))]
            + [
                json.dumps({"kind": "result", **_result_to_dict(r)},
                           separators=(",", ":"))
                for r in ordered
            ]
        )
        atomic_write_text(self.path, text + "\n")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def remove(self) -> None:
        """Delete the journal (after the final results file is saved)."""
        self.close()
        if self.path.exists():
            self.path.unlink()

    def _write_line(self, record: dict[str, Any]) -> None:
        assert self._handle is not None
        self._handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
