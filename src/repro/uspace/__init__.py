"""U-space separation: the paper's two-layer bubble concept.

The inner bubble (Eq. 1) is a static alert volume sized from the drone's
dimensions and either the manufacturer safety distance or the maximum
distance covered between tracking instances. The outer bubble (Eqs. 2-3)
is a dynamic separation volume that grows with the anticipated distance
the drone will cover, scaled by the airspace risk factor R.
"""

from repro.uspace.bubble import (
    TRACKING_INTERVAL_S,
    inner_bubble_radius,
    max_track_distance_m,
    OuterBubble,
    BubblePair,
)
from repro.uspace.monitor import BubbleMonitor, ViolationCounts
from repro.uspace.conflicts import ConflictDetector, Conflict

__all__ = [
    "TRACKING_INTERVAL_S",
    "inner_bubble_radius",
    "max_track_distance_m",
    "OuterBubble",
    "BubblePair",
    "BubbleMonitor",
    "ViolationCounts",
    "ConflictDetector",
    "Conflict",
]
