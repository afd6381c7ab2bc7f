"""A deep copy of a flying vehicle flies on bit-identically.

Campaign cases fork from a ``copy.deepcopy`` of a shared pre-injection
snapshot, so the copy must keep every array aliasing of the original
(``deepcopy`` turns a stored numpy view into a detached contiguous
array; reprolint COPY001 keeps such views out of the vehicle layers)
and must step to the same bits.
"""

from __future__ import annotations

import copy
import hashlib
from typing import Any, Iterator

import numpy as np
import pytest

from repro.missions import valencia_missions
from repro.obs import MetricsRegistry, Observer
from repro.perf.fingerprint import step_fingerprint
from repro.redundancy import RedundancyConfig
from repro.system import SystemConfig, UavSystem

_SCALARS = (str, bytes, int, float, bool, type(None))


def arrays(root: Any) -> Iterator[tuple[str, np.ndarray]]:
    """Every ndarray reachable from ``root``, with its attribute path.

    An array reached by two paths is listed under both; containers are
    walked once each.
    """
    seen: set[int] = set()
    stack: list[tuple[str, Any]] = [("system", root)]
    while stack:
        path, obj = stack.pop()
        if isinstance(obj, np.ndarray):
            yield path, obj
            continue
        if isinstance(obj, _SCALARS) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend((f"{path}[{k!r}]", v) for k, v in obj.items())
        elif isinstance(obj, (list, tuple)):
            stack.extend((f"{path}[{i}]", v) for i, v in enumerate(obj))
        else:
            fields = dict(getattr(obj, "__dict__", {}))
            for cls in type(obj).__mro__:
                for name in getattr(cls, "__slots__", ()):
                    if hasattr(obj, name):
                        fields[name] = getattr(obj, name)
            stack.extend((f"{path}.{k}", v) for k, v in fields.items())


def shared_pairs(root: Any) -> set[tuple[str, str]]:
    """Path pairs whose arrays share memory."""
    found = sorted(arrays(root), key=lambda item: item[0])
    return {
        (path_a, path_b)
        for i, (path_a, a) in enumerate(found)
        for path_b, b in found[i + 1 :]
        if np.shares_memory(a, b)
    }


def flying_vehicle(configuration: str) -> UavSystem:
    plan = valencia_missions(scale=0.1)[3]
    config = SystemConfig()
    obs = None
    if configuration == "imu-bank":
        config = SystemConfig(redundancy=RedundancyConfig(enabled=True, num_members=3))
    elif configuration == "observer":
        obs = Observer(registry=MetricsRegistry())
    system = UavSystem(plan, config=config, obs=obs)
    system.start_run()
    for _ in range(1000):  # 10 s: climbed out and cruising
        system.step()
    return system


def digest(system: UavSystem, n_steps: int) -> str:
    hasher = hashlib.sha256()
    for _ in range(n_steps):
        system.step()
        hasher.update(step_fingerprint(system))
    return hasher.hexdigest()


@pytest.mark.parametrize("configuration", ["single-imu", "imu-bank", "observer"])
def test_deep_copy_keeps_aliasing_and_flies_on_identically(configuration):
    original = flying_vehicle(configuration)
    clone = copy.deepcopy(original)
    assert shared_pairs(clone) >= shared_pairs(original)
    assert digest(clone, 300) == digest(original, 300)
    assert np.array_equal(clone.ekf.covariance, original.ekf.covariance)
    assert clone.recorder.estimated_distance_m == original.recorder.estimated_distance_m
    assert clone.recorder.rows().tobytes() == original.recorder.rows().tobytes()
    if configuration == "observer":
        assert clone.obs.blackbox.rows().tobytes() == original.obs.blackbox.rows().tobytes()


#: What one stage of a step hands the next, kept on the vehicle.
INTER_STAGE = (
    "_t",
    "_samples",
    "_imu_sample",
    "_est_tilt",
    "_health",
    "_command",
    "_collective",
    "_q_sp",
    "_rate_sp",
    "_torque",
    "_motors",
)


@pytest.mark.parametrize("configuration", ["single-imu", "imu-bank", "observer"])
@pytest.mark.parametrize(
    "after", ["vote", "fuse_mag", "command", "attitude_loop", "mix", "advance_physics"]
)
def test_deep_copy_between_stages_flies_on_identically(configuration, after):
    """A copy taken mid-step, with the inter-stage values in flight,
    finishes the step and flies on to the same bits."""
    original = flying_vehicle(configuration)
    names = [stage.__name__ for stage in UavSystem.STAGES]
    split = names.index(after) + 1
    for stage in UavSystem.STAGES[:split]:
        stage(original)
    clone = copy.deepcopy(original)
    assert shared_pairs(clone) >= shared_pairs(original)
    for name in INTER_STAGE:
        value = getattr(original, name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(getattr(clone, name), value), name
    # The idle command stays shared with the vehicle's idle buffer.
    assert (clone._motors is clone._idle_motors) == (original._motors is original._idle_motors)
    for stage in UavSystem.STAGES[split:]:
        stage(original)
        stage(clone)
    assert digest(clone, 300) == digest(original, 300)


def test_inter_stage_values_exist_before_the_first_step():
    system = flying_vehicle("single-imu")
    fresh = UavSystem(system.plan)
    for name in INTER_STAGE:
        assert hasattr(fresh, name), name


def test_deep_copy_past_leg_one_keeps_its_own_leg_cache():
    """A 0.15-scale vehicle copied after it has advanced past leg 1: the
    copy's navigator holds its own leg cache (equal values, no array
    shared with the original) and flies on to the same bits."""
    system = UavSystem(valencia_missions(scale=0.15)[9])
    system.start_run()
    navigator = system.commander.navigator
    while navigator.active_index < 2:
        system.step()
    clone = copy.deepcopy(system)
    legs = navigator._legs
    clone_legs = clone.commander.navigator._legs
    assert len(clone_legs) == len(legs) > 3
    for mine, theirs in zip(legs[1:], clone_legs[1:]):
        for a, b in zip(mine, theirs):
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b)
                assert not np.shares_memory(a, b)
            else:
                assert a == b
    assert digest(clone, 300) == digest(system, 300)
