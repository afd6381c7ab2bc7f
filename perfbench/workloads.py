"""The benchmark's fault-campaign workloads.

A campaign is a batch job, so every workload is a closed loop whose
client count is its ``workers``: a worker takes its next case only when
its last one has finished. Every :class:`CampaignConfig` field that
decides the matrix is set explicitly (scale, injection time, durations,
missions, scope, seed), so a change to a library default cannot
silently change what a workload flies.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.campaign import CampaignConfig
from repro.core.experiments import ExperimentSpec, build_experiment_matrix
from repro.core.faults import FaultScope

#: Base seeds whose result rows are pinned: the default seed and one
#: held out for checking that a claim does not rest on one seed. Seed 7
#: was picked because its matrices fly about as long as seed 0's (within
#: 0.5% on the fault workloads, 3% on gold), so the seed's parity adds
#: little to the run-to-run spread of cases_per_s.
PINNED_SEEDS = (0, 7)

#: Geometry scale and fault start shared by all workloads. 25 s is the
#: injection time the committed 850-case campaign documents at this
#: scale; it is set explicitly because the library's scaled default
#: differs from it.
SCALE = 0.15
INJECTION_TIME_S = 25.0


@dataclass(frozen=True)
class Workload:
    """One named campaign: its matrix and the layers it switches on."""

    name: str
    config: CampaignConfig
    #: Keep only the fault-free reference runs of the matrix.
    gold_only: bool = False
    #: Fly with an observer that dumps black boxes for failed runs.
    black_boxes: bool = False
    #: Journal every finished case to an fsync'd checkpoint.
    journal: bool = False
    #: Fly only the first cases of the matrix (smoke tests).
    case_limit: int | None = None

    def config_for(self, base_seed: int, obs_dir: str | None = None) -> CampaignConfig:
        """The workload's config for one pinned seed."""
        return dataclasses.replace(
            self.config,
            base_seed=base_seed,
            obs_dir=obs_dir if self.black_boxes else None,
        )

    def specs(self, config: CampaignConfig) -> list[ExperimentSpec]:
        """The case list of one pass, in the order the campaign runs it."""
        matrix = build_experiment_matrix(
            mission_ids=list(config.mission_ids),
            durations_s=config.durations_s,
            injection_time_s=config.effective_injection_time_s,
            base_seed=config.base_seed,
            include_gold=config.include_gold,
            scope=config.fault_scope,
        )
        specs = [s for s in matrix if s.is_gold] if self.gold_only else matrix
        return specs[: self.case_limit]

    def tiny(self) -> "Workload":
        """The same code path on two short cases, for a smoke test."""
        config = dataclasses.replace(
            self.config,
            scale=0.05,
            injection_time_s=8.0,
            durations_s=(2.0,),
            mission_ids=self.config.mission_ids[:2],
        )
        return dataclasses.replace(self, config=config, case_limit=2)


def seed_to_base_seed(seed: int) -> int:
    """Map the benchmark's ``--seed`` onto a pinned campaign base seed.

    Only pinned seeds can be checked row for row, so any seed picks one
    of them: even seeds fly the default campaign, odd seeds the held-out
    one.
    """
    return PINNED_SEEDS[seed % len(PINNED_SEEDS)]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Nominal cruise: the step loop does nearly all the work, and a
        # fork at the injection time has no prefix to share here.
        Workload(
            name="gold_cruise",
            config=CampaignConfig(
                scale=SCALE,
                injection_time_s=INJECTION_TIME_S,
                durations_s=(5.0,),
                mission_ids=tuple(range(1, 11)),
                include_gold=True,
                workers=1,
                fault_scope=FaultScope.ALL,
                mitigation=False,
            ),
            gold_only=True,
        ),
        # The paper's fault model on every type x target cell. Gyro and
        # IMU faults crash about 2 s after injection, so per-case setup
        # and the re-flown pre-injection prefix weigh most here.
        Workload(
            name="fault_matrix",
            config=CampaignConfig(
                scale=SCALE,
                injection_time_s=INJECTION_TIME_S,
                durations_s=(5.0,),
                mission_ids=(2,),
                include_gold=False,
                workers=1,
                fault_scope=FaultScope.ALL,
                mitigation=False,
            ),
        ),
        # The only workload with the redundancy voter (three IMUs to
        # sample), black-box dumps, journal fsyncs and a process pool.
        # Two workers: the reference host's CPU count, fixed so the
        # workload does not change with the host.
        Workload(
            name="mitigated_parallel",
            config=CampaignConfig(
                scale=SCALE,
                injection_time_s=INJECTION_TIME_S,
                durations_s=(10.0,),
                mission_ids=(3,),
                include_gold=False,
                workers=2,
                fault_scope=FaultScope.PRIMARY_ONLY,
                mitigation=True,
                imu_redundancy=3,
            ),
            black_boxes=True,
            journal=True,
        ),
    )
}
