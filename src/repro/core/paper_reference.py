"""The paper's published results, as data.

Tables II, III, and IV of Khan et al. (DSN 2024), transcribed verbatim.
These are the reference values EXPERIMENTS.md compares against, the
anchors for the shape checks in :mod:`repro.core.analysis`, and a handy
citation-free way for downstream users to query what the paper reported.

Absolute values from this reproduction are *not* expected to match
(different physics substrate, different absolute scale); the orderings
and gross factors are.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PaperSummaryRow:
    """One row of the paper's Table II or Table III."""

    label: str
    inner_violations: float
    outer_violations: float
    completed_pct: float
    duration_s: float
    distance_km: float


@dataclass(frozen=True)
class PaperFailureRow:
    """One row of the paper's Table IV."""

    label: str
    failed_pct: float
    crash_pct: float
    failsafe_pct: float


#: Paper Table II: averages grouped by injection duration.
PAPER_TABLE2: tuple[PaperSummaryRow, ...] = (
    PaperSummaryRow("Gold Run", 0.0, 0.0, 100.0, 491.26, 3.65),
    PaperSummaryRow("2 seconds", 18.30, 17.81, 20.0, 188.87, 0.98),
    PaperSummaryRow("5 seconds", 20.16, 16.79, 15.23, 146.07, 0.81),
    PaperSummaryRow("10 seconds", 20.97, 19.16, 11.42, 151.90, 0.69),
    PaperSummaryRow("30 seconds", 24.47, 21.65, 10.47, 154.70, 0.75),
)

#: Paper Table III: averages grouped by fault type.
PAPER_TABLE3: tuple[PaperSummaryRow, ...] = (
    PaperSummaryRow("Gold Run", 0.0, 0.0, 100.0, 491.26, 3.65),
    PaperSummaryRow("Acc Zeros", 23.36, 17.5, 67.5, 338.67, 2.45),
    PaperSummaryRow("Acc Noise", 25.23, 13.48, 60.0, 306.11, 2.22),
    PaperSummaryRow("Acc Freeze", 23.40, 15.82, 42.5, 244.09, 1.80),
    PaperSummaryRow("Acc Random", 20.13, 16.34, 5.0, 110.76, 0.55),
    PaperSummaryRow("Acc Min", 20.57, 24.25, 5.0, 137.18, 0.51),
    PaperSummaryRow("Acc Max", 41.32, 35.32, 2.5, 103.35, 0.73),
    PaperSummaryRow("Acc Fixed Value", 40.30, 36.51, 2.5, 103.99, 0.75),
    PaperSummaryRow("Gyro Zeros", 18.88, 18.15, 40.0, 223.21, 1.20),
    PaperSummaryRow("Gyro Fixed Value", 17.51, 15.90, 17.5, 159.57, 0.49),
    PaperSummaryRow("Gyro Freeze", 19.11, 21.5, 15.0, 145.92, 0.98),
    PaperSummaryRow("Gyro Noise", 16.01, 20.67, 10.0, 156.43, 0.52),
    PaperSummaryRow("Gyro Random", 16.75, 16.36, 2.5, 169.28, 0.47),
    PaperSummaryRow("Gyro Max", 16.32, 14.13, 2.5, 135.50, 0.44),
    PaperSummaryRow("Gyro Min", 19.73, 14.86, 0.0, 104.41, 0.47),
    PaperSummaryRow("IMU Max", 14.19, 17.34, 17.5, 212.30, 0.46),
    PaperSummaryRow("IMU Zeros", 18.17, 16.55, 2.5, 104.43, 0.52),
    PaperSummaryRow("IMU Noise", 21.19, 17.61, 2.5, 143.73, 0.48),
    PaperSummaryRow("IMU Random", 16.0, 15.03, 2.5, 104.66, 0.53),
    PaperSummaryRow("IMU Fixed Value", 15.67, 14.28, 2.5, 110.45, 0.53),
    PaperSummaryRow("IMU Min", 18.63, 17.61, 0.0, 155.08, 0.46),
    PaperSummaryRow("IMU Freeze", 18.03, 16.71, 0.0, 98.93, 0.46),
)

#: Paper Table IV: mission failure analysis.
PAPER_TABLE4: tuple[PaperFailureRow, ...] = (
    PaperFailureRow("Gold Run", 0.0, 0.0, 0.0),
    PaperFailureRow("2 seconds", 80.0, 73.0, 27.0),
    PaperFailureRow("5 seconds", 84.77, 73.0, 27.0),
    PaperFailureRow("10 seconds", 88.58, 70.0, 30.0),
    PaperFailureRow("30 seconds", 89.53, 34.0, 66.0),
    PaperFailureRow("Acc", 73.22, 77.2, 22.8),
    PaperFailureRow("Gyro", 87.5, 63.1, 36.9),
    PaperFailureRow("IMU", 96.08, 47.2, 52.8),
)


def paper_table3_row(label: str) -> PaperSummaryRow:
    """Look up a Table III row by its label (e.g. ``"Gyro Zeros"``)."""
    for row in PAPER_TABLE3:
        if row.label == label:
            return row
    raise KeyError(f"no such Table III row: {label}")
