"""The closed-loop bench times what it says it times."""

from __future__ import annotations

import pytest

from repro.perf.bench import QUICK_WARMUP_STEPS, WARMUP_STEPS, fault_onset_system, onset_rounds


@pytest.mark.parametrize("warmup", [QUICK_WARMUP_STEPS, WARMUP_STEPS])
def test_under_fault_rounds_time_a_live_vehicle(warmup):
    """Every timed under-fault vehicle is still flying the fault response
    at the end of its round, not idling after a crash."""
    _rate, vehicles = onset_rounds(fault_onset_system(warmup))
    for vehicle in vehicles:
        assert vehicle.injector.is_active(vehicle.physics.time_s)
        assert not vehicle.commander.terminal, vehicle.commander.phase
