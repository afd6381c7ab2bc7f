"""Fixture-based unit tests for every reprolint rule.

Each rule gets at least one known-bad snippet it must flag and one
known-good snippet it must stay silent on. Fixtures are written into a
temporary tree whose subdirectories (``sim/``, ``core/`` …) emulate the
package layout, so path-sensitive rules (DET002, DET004, IO001) see the
layer they would see in the real tree.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.staticcheck import ALL_RULES, all_rules
from repro.staticcheck.engine import ReprolintError, RunReport, run_reprolint
from repro.staticcheck.rules_contracts import RawWriteRule
from repro.staticcheck.rules_copy import StoredViewRule
from repro.staticcheck.rules_determinism import (
    GeneratorInjectionRule,
    GlobalRandomRule,
    SetIterationRule,
    WallClockRule,
)
from repro.staticcheck.rules_faultmodel import ExhaustiveDispatchRule, SpecRoundTripRule
from repro.staticcheck.rules_numerics import (
    BlasDispatchRule,
    FloatEqualityRule,
    NaNComparisonRule,
    UnguardedDivisionRule,
)
from repro.staticcheck.rules_obs import ObsReadOnlyRule


def lint(root: Path, files: dict[str, str], rule_cls=None) -> RunReport:
    """Write ``files`` under ``root`` and run the analyzer over them."""
    for rel, source in files.items():
        dest = root / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(textwrap.dedent(source))
    rules = None if rule_cls is None else [rule_cls()]
    return run_reprolint([root], rules=rules)


def rule_ids(report: RunReport) -> list[str]:
    return [v.rule_id for v in report.violations]


# ---------------------------------------------------------------------------
# DET001 — global RNG draws


def test_det001_fires_on_global_rng(tmp_path):
    report = lint(
        tmp_path,
        {
            "sim/noise.py": """\
                import random
                import numpy as np

                def jitter():
                    return random.random() + np.random.uniform(0.0, 1.0)
            """
        },
        GlobalRandomRule,
    )
    assert rule_ids(report) == ["DET001", "DET001"]


def test_det001_silent_on_injected_generator(tmp_path):
    report = lint(
        tmp_path,
        {
            "sim/noise.py": """\
                import numpy as np

                def jitter(seed):
                    rng = np.random.default_rng(seed)
                    return rng.uniform(0.0, 1.0)
            """
        },
        GlobalRandomRule,
    )
    assert report.clean


# ---------------------------------------------------------------------------
# DET002 — wall-clock reads in simulation layers


def test_det002_fires_in_restricted_package(tmp_path):
    report = lint(
        tmp_path,
        {
            "estimation/timing.py": """\
                import time
                from datetime import datetime

                def stamp():
                    return time.time(), datetime.now()
            """
        },
        WallClockRule,
    )
    assert rule_ids(report) == ["DET002", "DET002"]


def test_det002_silent_in_harness_and_outside(tmp_path):
    report = lint(
        tmp_path,
        {
            # The campaign harness is the sanctioned home of wall clock.
            "core/campaign.py": """\
                import time

                def backoff():
                    return time.monotonic()
            """,
            # Packages outside the simulation loop are unrestricted.
            "telemetry/clock.py": """\
                import time

                def stamp():
                    return time.time()
            """,
        },
        WallClockRule,
    )
    assert report.clean


# ---------------------------------------------------------------------------
# DET003 — iteration over unordered sets


def test_det003_fires_on_set_iteration(tmp_path):
    report = lint(
        tmp_path,
        {
            "core/agg.py": """\
                def labels(rows):
                    seen = {row.name for row in rows}
                    ordered = list(seen)
                    return [x.upper() for x in seen], ordered
            """
        },
        SetIterationRule,
    )
    assert rule_ids(report) == ["DET003", "DET003"]


def test_det003_silent_on_sorted_and_reductions(tmp_path):
    report = lint(
        tmp_path,
        {
            "core/agg.py": """\
                def labels(rows):
                    seen = {row.name for row in rows}
                    total = len(seen)
                    return sorted(seen), total, max(seen | {""})
            """
        },
        SetIterationRule,
    )
    assert report.clean


# ---------------------------------------------------------------------------
# DET004 — generator injection


def test_det004_fires_on_unseeded_generator(tmp_path):
    report = lint(
        tmp_path,
        {
            "telemetry/sampler.py": """\
                import numpy as np

                def make_rng():
                    return np.random.default_rng()
            """
        },
        GeneratorInjectionRule,
    )
    assert rule_ids(report) == ["DET004"]


def test_det004_fires_on_literal_seed_in_sim_layer(tmp_path):
    report = lint(
        tmp_path,
        {
            "sensors/imu.py": """\
                import numpy as np

                def make_rng():
                    return np.random.default_rng(42)
            """
        },
        GeneratorInjectionRule,
    )
    assert rule_ids(report) == ["DET004"]


def test_det004_silent_on_injected_seed(tmp_path):
    report = lint(
        tmp_path,
        {
            "sensors/imu.py": """\
                import numpy as np

                def make_rng(seed):
                    return np.random.default_rng(seed)
            """,
            # Literal seeds are fine outside the simulation layers
            # (tests, analysis scripts, examples).
            "analysisx/demo.py": """\
                import numpy as np

                RNG = np.random.default_rng(7)
            """,
        },
        GeneratorInjectionRule,
    )
    assert report.clean


# ---------------------------------------------------------------------------
# NUM001 — float equality


def test_num001_fires_on_float_equality(tmp_path):
    report = lint(
        tmp_path,
        {
            "control/check.py": """\
                import math

                def at_origin(x, angle):
                    return x == 0.1 or angle != math.pi
            """
        },
        FloatEqualityRule,
    )
    assert rule_ids(report) == ["NUM001", "NUM001"]


def test_num001_silent_on_tolerance_and_ints(tmp_path):
    report = lint(
        tmp_path,
        {
            "control/check.py": """\
                import math

                def at_origin(x, count):
                    return abs(x - 0.1) < 1e-9 and count == 0 and x <= 0.5
            """
        },
        FloatEqualityRule,
    )
    assert report.clean


# ---------------------------------------------------------------------------
# NUM002 — unguarded division


def test_num002_fires_on_unguarded_division(tmp_path):
    report = lint(
        tmp_path / "bad",
        {
            "sim/rates.py": """\
                def mean_rate(total, elapsed):
                    return total / elapsed
            """
        },
        UnguardedDivisionRule,
    )
    assert rule_ids(report) == ["NUM002"]


def test_num002_silent_on_guarded_division(tmp_path):
    report = lint(
        tmp_path / "good",
        {
            "sim/rates.py": """\
                _SCALE = 4.0

                def mean_rate(total, elapsed, floor):
                    if elapsed <= 0.0:
                        raise ValueError("elapsed must be positive")
                    safe = max(floor, 1e-9)
                    return (total / elapsed + total / safe) / _SCALE
            """
        },
        UnguardedDivisionRule,
    )
    assert report.clean


def test_num002_len_of_guarded_collection_is_guarded(tmp_path):
    report = lint(
        tmp_path,
        {
            "core/stats.py": """\
                def mean(values):
                    if not values:
                        raise ValueError("no values")
                    n = len(values)
                    return sum(values) / n
            """
        },
        UnguardedDivisionRule,
    )
    assert report.clean


# ---------------------------------------------------------------------------
# NUM003 — NaN comparisons


def test_num003_fires_on_nan_comparison(tmp_path):
    report = lint(
        tmp_path,
        {
            "estimation/gate.py": """\
                import math

                def broken(x):
                    return x == math.nan or x > float("nan")
            """
        },
        NaNComparisonRule,
    )
    assert rule_ids(report) == ["NUM003", "NUM003"]


def test_num003_silent_on_isnan(tmp_path):
    report = lint(
        tmp_path,
        {
            "estimation/gate.py": """\
                import math

                def detect(x):
                    return math.isnan(x)
            """
        },
        NaNComparisonRule,
    )
    assert report.clean


# ---------------------------------------------------------------------------
# NUM004 — step-loop BLAS calls go through ndarray.dot


def test_num004_fires_on_blas_wrappers_in_the_step_loop(tmp_path):
    report = lint(
        tmp_path,
        {
            "sim/frame.py": """\
                import numpy as np
                from numpy.linalg import norm

                def step(rot, v, out, cov):
                    speed = float(v @ v)
                    np.matmul(rot, v, out=out)
                    cov @= rot
                    return speed + np.dot(v, v) + np.linalg.norm(v) + norm(v)
            """,
            "system.py": """\
                import numpy

                def airspeed(v):
                    return float(numpy.linalg.norm(v))
            """,
        },
        BlasDispatchRule,
    )
    assert rule_ids(report) == ["NUM004"] * 7


def test_num004_silent_on_ndarray_dot_suppressed_lines_and_outside(tmp_path):
    report = lint(
        tmp_path,
        {
            "estimation/filter.py": """\
                import math

                def step(rot, v, out, stack):
                    rot.dot(v, out=out)
                    speed = math.sqrt(float(v.dot(v)))
                    # Batched over members: dot does not broadcast.
                    sq = np.matmul(stack, stack.transpose(0, 2, 1))  # reprolint: disable=NUM004
                    return speed, sq
            """,
            # Analysis code outside the step loop may use any form.
            "core/analysis.py": """\
                import numpy as np

                def spread(a, b):
                    return float(np.linalg.norm(a - b)) + float(a @ b)
            """,
        },
        BlasDispatchRule,
    )
    assert report.clean


# ---------------------------------------------------------------------------
# FM001 — exhaustive enum dispatch

_FIXTURE_ENUM = """\
    import enum

    class Kind(enum.Enum):
        ALPHA = "alpha"
        BETA = "beta"
        GAMMA = "gamma"
"""


def test_fm001_fires_on_missing_elif_branch(tmp_path):
    report = lint(
        tmp_path,
        {
            "core/kinds.py": _FIXTURE_ENUM,
            "core/dispatch.py": """\
                from core.kinds import Kind

                def apply(kind):
                    if kind == Kind.ALPHA:
                        return 1
                    elif kind == Kind.BETA:
                        return 2
                    raise ValueError(kind)
            """,
        },
        ExhaustiveDispatchRule,
    )
    assert rule_ids(report) == ["FM001"]
    assert "Kind.GAMMA" in report.violations[0].message


def test_fm001_fires_on_incomplete_dict_dispatch(tmp_path):
    report = lint(
        tmp_path,
        {
            "core/kinds.py": _FIXTURE_ENUM,
            "core/table.py": """\
                from core.kinds import Kind

                HANDLERS = {Kind.ALPHA: 1, Kind.GAMMA: 3}
            """,
        },
        ExhaustiveDispatchRule,
    )
    assert rule_ids(report) == ["FM001"]
    assert "Kind.BETA" in report.violations[0].message


def test_fm001_fires_on_incomplete_match(tmp_path):
    report = lint(
        tmp_path,
        {
            "core/kinds.py": _FIXTURE_ENUM,
            "core/matcher.py": """\
                from core.kinds import Kind

                def apply(kind):
                    match kind:
                        case Kind.ALPHA | Kind.BETA:
                            return 1
                        case _:
                            raise ValueError(kind)
            """,
        },
        ExhaustiveDispatchRule,
    )
    assert rule_ids(report) == ["FM001"]


def test_fm001_silent_on_exhaustive_dispatch(tmp_path):
    report = lint(
        tmp_path,
        {
            "core/kinds.py": _FIXTURE_ENUM,
            "core/dispatch.py": """\
                from core.kinds import Kind

                TABLE = {Kind.ALPHA: 1, Kind.BETA: 2, Kind.GAMMA: 3}

                def apply(kind):
                    if kind == Kind.ALPHA:
                        return 1
                    if kind == Kind.BETA:
                        return 2
                    if kind == Kind.GAMMA:
                        return 3
                    raise ValueError(kind)
            """,
        },
        ExhaustiveDispatchRule,
    )
    assert report.clean


def test_fm001_membership_subsetting_is_not_dispatch(tmp_path):
    report = lint(
        tmp_path,
        {
            "core/kinds.py": _FIXTURE_ENUM,
            "core/subset.py": """\
                from core.kinds import Kind

                def noisy(kind):
                    return kind in (Kind.ALPHA, Kind.BETA)
            """,
        },
        ExhaustiveDispatchRule,
    )
    assert report.clean


def test_fm001_separate_subjects_do_not_merge(tmp_path):
    # Two different variables each handling a subset must not be
    # mistaken for one exhaustive dispatch over the union.
    report = lint(
        tmp_path,
        {
            "core/kinds.py": _FIXTURE_ENUM,
            "core/two.py": """\
                from core.kinds import Kind

                def apply(first, second):
                    if first == Kind.ALPHA:
                        return 1
                    if second == Kind.BETA:
                        return 2
                    return 0
            """,
        },
        ExhaustiveDispatchRule,
    )
    assert report.clean  # each subject mentions only one member


# ---------------------------------------------------------------------------
# FM002 — FaultSpec round-trip

_FIXTURE_SPEC = """\
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class FaultSpec:
        alpha: int
        beta: float
"""


def test_fm002_fires_when_serializer_drops_a_field(tmp_path):
    report = lint(
        tmp_path,
        {
            "core/spec.py": _FIXTURE_SPEC,
            "core/results.py": """\
                def fault_spec_to_dict(spec):
                    return {"alpha": spec.alpha}

                def fault_spec_from_dict(data):
                    return (data["alpha"], data["beta"])
            """,
        },
        SpecRoundTripRule,
    )
    assert rule_ids(report) == ["FM002"]
    assert "beta" in report.violations[0].message


def test_fm002_fires_when_serializers_are_missing(tmp_path):
    report = lint(
        tmp_path, {"core/spec.py": _FIXTURE_SPEC}, SpecRoundTripRule
    )
    assert rule_ids(report) == ["FM002", "FM002"]


def test_fm002_silent_on_lossless_round_trip(tmp_path):
    report = lint(
        tmp_path,
        {
            "core/spec.py": _FIXTURE_SPEC,
            "core/results.py": """\
                def fault_spec_to_dict(spec):
                    return {"alpha": spec.alpha, "beta": spec.beta}

                def fault_spec_from_dict(data):
                    return (data["alpha"], data["beta"])
            """,
        },
        SpecRoundTripRule,
    )
    assert report.clean


# ---------------------------------------------------------------------------
# IO001 — raw writes outside the atomic helpers


def test_io001_fires_on_raw_writes(tmp_path):
    report = lint(
        tmp_path,
        {
            "missions/dump.py": """\
                from pathlib import Path

                def dump(path, text):
                    with open(path, "w") as fh:
                        fh.write(text)
                    Path(path).write_text(text)
            """
        },
        RawWriteRule,
    )
    assert rule_ids(report) == ["IO001", "IO001"]


def test_io001_silent_on_reads_and_in_atomic_modules(tmp_path):
    report = lint(
        tmp_path,
        {
            "missions/load.py": """\
                def load(path):
                    with open(path) as fh:
                        return fh.read()
            """,
            # The atomic helpers themselves are the sanctioned writers.
            "core/io.py": """\
                def raw(path, text):
                    with open(path, "w") as fh:
                        fh.write(text)
            """,
            "core/atomicio.py": """\
                import os

                def raw(path, text, fd):
                    with os.fdopen(fd, "w") as fh:
                        fh.write(text)
            """,
        },
        RawWriteRule,
    )
    assert report.clean


# ---------------------------------------------------------------------------
# OBS001 — obs code must be read-only and RNG-free


def test_obs001_fires_on_rng_in_obs_package(tmp_path):
    report = lint(
        tmp_path,
        {
            "obs/sampler.py": """\
                import random
                import numpy as np

                def sample_rows(rows):
                    rng = np.random.default_rng(0)
                    return random.choice(rows), rng.integers(10)
            """
        },
        ObsReadOnlyRule,
    )
    # default_rng construction, random.choice, and the rng.integers draw
    # all count — but rng is a local, so only the first two resolve.
    assert rule_ids(report) == ["OBS001", "OBS001"]


def test_obs001_fires_on_parameter_mutation(tmp_path):
    report = lint(
        tmp_path,
        {
            "obs/hooks.py": """\
                def on_step(self, system, fault_active):
                    system.physics.time_s = 0.0
                    system.counts["steps"] += 1
                    system.history.append(fault_active)
                    del system.ekf.bias
            """
        },
        ObsReadOnlyRule,
    )
    assert rule_ids(report) == ["OBS001"] * 4


def test_obs001_fires_in_the_flight_recorder_module(tmp_path):
    """The recorder's row writer is the black box, so the rule covers
    ``telemetry/recorder.py`` but not the rest of ``telemetry/``."""
    mutating = """\
        import random

        def record(self, system, time_s, fault_active):
            system.physics.time_s = time_s
            system.recorded.append(random.random())
    """
    report = lint(
        tmp_path,
        {"telemetry/recorder.py": mutating, "telemetry/other.py": mutating},
        ObsReadOnlyRule,
    )
    assert rule_ids(report) == ["OBS001"] * 3
    assert {v.path for v in report.violations} == {"telemetry/recorder.py"}


def test_obs001_silent_on_self_state_and_outside_obs(tmp_path):
    report = lint(
        tmp_path,
        {
            # Observers own their rings and tables: self-mutation,
            # local mutation, and plain reads are all fine.
            "obs/ring.py": """\
                def record(self, system):
                    self._rows.append(system.physics.time_s)
                    self._codes["phase"] = len(self._codes)
                    copies = []
                    copies.append(system.ekf.quaternion.copy())
                    local = {}
                    local["t"] = system.physics.time_s
                    return copies
            """,
            # The rule is scoped to obs/ — the sim layer has its own
            # rules (DET001/DET004) for randomness.
            "sim/noise.py": """\
                import random

                def jitter(state):
                    state.value = random.random()
            """,
        },
        ObsReadOnlyRule,
    )
    assert report.clean


# ---------------------------------------------------------------------------
# COPY001 — no stored numpy views without a copy hook


def test_copy001_fires_on_stored_views_of_self_arrays(tmp_path):
    report = lint(
        tmp_path,
        {
            "sim/frame.py": """\
                import numpy as np

                class Frame:
                    def __init__(self):
                        self._positions = np.zeros((4, 2))
                        self._lever_x = self._positions[:, 0]
                        self.covariance = np.eye(15)
                        self._diag = self.covariance.ravel()[::16]
                        self._cov_t = self.covariance.T
                        self._flat: np.ndarray = self.covariance.reshape(-1)
            """,
            # The flight stack, U-space, telemetry and mission objects
            # are deep-copied with the vehicle too.
            "telemetry/log.py": """\
                import numpy as np

                class Log:
                    def __init__(self):
                        self._rows = np.zeros((100, 3))
                        self._latest = self._rows[-1, :]
            """,
        },
        StoredViewRule,
    )
    assert rule_ids(report) == ["COPY001"] * 5


def test_copy001_silent_on_hooked_classes_copies_and_locals(tmp_path):
    report = lint(
        tmp_path,
        {
            # A class that re-derives its views on copy may store them.
            "estimation/filter.py": """\
                import copy
                import numpy as np

                class Filter:
                    def __init__(self):
                        self.covariance = np.eye(15)
                        self._diag = self.covariance.ravel()[::16]

                    def __deepcopy__(self, memo):
                        new = copy.copy(self)
                        new.covariance = self.covariance.copy()
                        new._diag = new.covariance.ravel()[::16]
                        return new
            """,
            # Copies, scalar reads and views sliced at the point of use
            # are all fine.
            "sim/frame.py": """\
                import numpy as np

                class Frame:
                    def __init__(self):
                        self._positions = np.zeros((4, 2))
                        self._first = self._positions[0, 0]
                        self._lever_x = self._positions[:, 0].copy()

                    def torque(self, thrusts):
                        lever = self._positions[:, 1]
                        return float(lever @ thrusts)
            """,
            # The rule is scoped to the vehicle layers.
            "core/table.py": """\
                class Table:
                    def __init__(self, rows):
                        self.rows = rows
                        self.head = self.rows[:3]
            """,
        },
        StoredViewRule,
    )
    assert report.clean


# ---------------------------------------------------------------------------
# Framework behaviour


def test_suppression_comment_silences_one_rule(tmp_path):
    report = lint(
        tmp_path,
        {
            "sim/rates.py": """\
                def mean_rate(total, elapsed):
                    return total / elapsed  # reprolint: disable=NUM002
            """
        },
        UnguardedDivisionRule,
    )
    assert report.clean


def test_suppression_does_not_silence_other_rules(tmp_path):
    report = lint(
        tmp_path,
        {
            "sim/rates.py": """\
                def mean_rate(total, elapsed):
                    return total / elapsed  # reprolint: disable=NUM001
            """
        },
        UnguardedDivisionRule,
    )
    assert rule_ids(report) == ["NUM002"]


def test_registry_covers_every_rule_id():
    ids = [cls.rule_id for cls in ALL_RULES]
    assert ids == [
        "DET001",
        "DET002",
        "DET003",
        "DET004",
        "NUM001",
        "NUM002",
        "NUM003",
        "NUM004",
        "FM001",
        "FM002",
        "IO001",
        "OBS001",
        "COPY001",
    ]
    for rule in all_rules():
        assert rule.summary and rule.fixit


def test_unparsable_file_raises_reprolint_error(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    with pytest.raises(ReprolintError):
        run_reprolint([tmp_path])


def test_missing_path_raises_reprolint_error(tmp_path):
    with pytest.raises(ReprolintError):
        run_reprolint([tmp_path / "does-not-exist"])
