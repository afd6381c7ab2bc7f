"""repro: a full reproduction of the DSN 2024 study
"A Comprehensive Study on Drones Resilience in the Presence of
Inertial Measurement Unit Faults" (Khan, Ivaki, Madeira).

Public API surface:

* :class:`~repro.system.UavSystem` — one vehicle + PX4-like stack.
* :func:`~repro.missions.valencia.valencia_missions` — the 10-mission
  U-space scenario.
* :class:`~repro.core.faults.FaultSpec` / :class:`FaultType` /
  :class:`FaultTarget` — the IMU fault model (paper Table I).
* :func:`~repro.core.campaign.run_campaign` +
  :class:`~repro.core.campaign.CampaignConfig` — the 850-case
  experiment campaign.
* :func:`~repro.core.tables.table2_by_duration` /
  :func:`table3_by_fault` / :func:`table4_failure_analysis` — the
  paper's result tables.
"""

from repro.system import UavSystem, SystemConfig, MissionResult
from repro.missions import valencia_missions, MissionPlan, DroneSpec, Waypoint
from repro.core import (
    FaultSpec,
    FaultType,
    FaultTarget,
    FaultScope,
    FAULT_MODEL_CATALOG,
    SensorFaultInjector,
    build_experiment_matrix,
    ExperimentSpec,
    ExperimentResult,
    CampaignResult,
    ResilienceRow,
    resilience_comparison,
    render_resilience_table,
    table2_by_duration,
    table3_by_fault,
    table4_failure_analysis,
    render_table,
)
from repro.core.campaign import CampaignConfig, run_campaign, run_experiment
from repro.core.io import (
    save_campaign,
    load_campaign,
    export_csv,
    CampaignJournal,
    JournalMismatchError,
)
from repro.core.resilience import RetryPolicy, CaseTimeoutError, NO_RETRY
from repro.core.analysis import (
    check_paper_shapes,
    harness_error_report,
    redundancy_rescues,
    render_rescues,
    render_shape_checks,
)
from repro.flightstack import MissionOutcome
from repro.redundancy import ImuBank, RedundancyConfig, Voter

__version__ = "1.0.0"

__all__ = [
    "UavSystem",
    "SystemConfig",
    "MissionResult",
    "valencia_missions",
    "MissionPlan",
    "DroneSpec",
    "Waypoint",
    "FaultSpec",
    "FaultType",
    "FaultTarget",
    "FaultScope",
    "FAULT_MODEL_CATALOG",
    "SensorFaultInjector",
    "ImuBank",
    "RedundancyConfig",
    "Voter",
    "CampaignConfig",
    "run_campaign",
    "run_experiment",
    "build_experiment_matrix",
    "ExperimentSpec",
    "ExperimentResult",
    "CampaignResult",
    "ResilienceRow",
    "resilience_comparison",
    "render_resilience_table",
    "table2_by_duration",
    "table3_by_fault",
    "table4_failure_analysis",
    "render_table",
    "save_campaign",
    "load_campaign",
    "export_csv",
    "CampaignJournal",
    "JournalMismatchError",
    "RetryPolicy",
    "CaseTimeoutError",
    "NO_RETRY",
    "harness_error_report",
    "check_paper_shapes",
    "redundancy_rescues",
    "render_rescues",
    "render_shape_checks",
    "MissionOutcome",
    "__version__",
]
