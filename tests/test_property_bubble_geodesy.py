"""Property-based tests for bubble formulas and aggregation."""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.core.metrics import failure_analysis, summarize
from repro.core.results import ExperimentResult
from repro.flightstack.commander import MissionOutcome
from repro.uspace import OuterBubble, inner_bubble_radius

positive = st.floats(0.0, 100.0, allow_nan=False)
radii = st.floats(0.1, 50.0, allow_nan=False)
speeds = st.floats(0.0, 30.0, allow_nan=False)
distances = st.floats(0.0, 30.0, allow_nan=False)


# ------------------------------------------------------------------ Eq. 1-3


@given(positive, positive, positive)
def test_inner_bubble_lower_bounds(d_o, d_s, d_m):
    inner = inner_bubble_radius(d_o, d_s, d_m)
    assert inner >= d_o
    assert inner >= max(d_s, d_m)
    assert math.isclose(inner, d_o + max(d_s, d_m))


@given(radii, st.floats(1.0, 5.0), st.lists(st.tuples(speeds, distances), min_size=1, max_size=30))
def test_outer_never_below_inner_and_r_monotone(inner, r, track):
    """Outer >= inner always holds (paper: inner is the minimum)."""
    plain = OuterBubble(inner, 1.0)
    scaled = OuterBubble(inner, r)
    for airspeed, covered in track:
        outer_plain = plain.update(airspeed, covered)
        outer_scaled = scaled.update(airspeed, covered)
        assert outer_plain >= inner - 1e-9
        assert outer_scaled >= outer_plain - 1e-9


@given(radii, st.lists(st.tuples(speeds, distances), min_size=1, max_size=30))
def test_outer_bubble_finite_and_positive(inner, track):
    bubble = OuterBubble(inner)
    for airspeed, covered in track:
        out = bubble.update(airspeed, covered)
        assert math.isfinite(out)
        assert out > 0.0


# ------------------------------------------------------------- Aggregation


outcomes = st.sampled_from(list(MissionOutcome))


def make_result(index, outcome, inner, outer, duration, distance):
    return ExperimentResult(
        experiment_id=index,
        mission_id=1,
        fault_label="Acc Zeros",
        fault_type="zeros",
        target="accel",
        injection_duration_s=2.0,
        outcome=outcome,
        flight_duration_s=duration,
        distance_km=distance,
        inner_violations=inner,
        outer_violations=outer,
        max_deviation_m=0.0,
    )


result_lists = st.lists(
    st.builds(
        make_result,
        st.integers(0, 10_000),
        outcomes,
        st.integers(0, 100),
        st.integers(0, 100),
        st.floats(0.0, 1000.0, allow_nan=False),
        st.floats(0.0, 10.0, allow_nan=False),
    ),
    min_size=1,
    max_size=50,
)


@given(result_lists)
def test_summary_averages_bounded_by_extremes(results):
    row = summarize("x", results)
    inners = [r.inner_violations for r in results]
    assert min(inners) - 1e-9 <= row.inner_violations_avg <= max(inners) + 1e-9
    assert 0.0 <= row.completed_pct <= 100.0
    assert row.runs == len(results)


@given(result_lists)
def test_failure_split_always_sums_to_100_when_failures_exist(results):
    row = failure_analysis("x", results)
    assert 0.0 <= row.failed_pct <= 100.0
    if row.failed_pct > 0.0:
        assert math.isclose(
            row.crash_pct_of_failed + row.failsafe_pct_of_failed, 100.0, abs_tol=1e-6
        )
    else:
        assert row.crash_pct_of_failed == row.failsafe_pct_of_failed == 0.0


@given(result_lists)
def test_completion_consistent_with_failure(results):
    summary = summarize("x", results)
    failure = failure_analysis("x", results)
    assert math.isclose(summary.completed_pct + failure.failed_pct, 100.0, abs_tol=1e-6)
