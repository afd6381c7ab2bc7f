"""Mission definitions and the paper's Valencia U-space scenario."""

from repro.missions.spec import DroneSpec
from repro.missions.plan import MissionPlan, Waypoint, route_polyline, polyline_length
from repro.missions.valencia import valencia_missions

__all__ = [
    "DroneSpec",
    "MissionPlan",
    "Waypoint",
    "route_polyline",
    "polyline_length",
    "valencia_missions",
]
