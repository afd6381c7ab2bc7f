"""Per-drone specifications used by missions and bubble sizing."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DroneSpec:
    """Physical and operational characteristics of one mission drone.

    These are the quantities the paper's bubble formulas consume:
    ``dimension_m`` is D_o (wingspan incl. props), ``safety_distance_m``
    is the manufacturer-recommended D_s, and ``top_speed_m_s`` produces
    D_m (the maximum distance covered between two tracking instances,
    :func:`repro.uspace.max_track_distance_m`).
    ``mass_kg`` varies per mission to model the scenario's "distinct
    payloads".
    """

    drone_id: int
    name: str
    cruise_speed_m_s: float
    top_speed_m_s: float
    mass_kg: float
    dimension_m: float = 0.6
    safety_distance_m: float = 1.5

    def __post_init__(self) -> None:
        if self.cruise_speed_m_s <= 0.0:
            raise ValueError("cruise_speed_m_s must be positive")
        if self.top_speed_m_s < self.cruise_speed_m_s:
            raise ValueError("top_speed_m_s must be >= cruise_speed_m_s")
        if self.mass_kg <= 0.0:
            raise ValueError("mass_kg must be positive")


def kmh(value_km_h: float) -> float:
    """Convert km/h (the paper's unit for drone speeds) to m/s."""
    return value_km_h / 3.6
