"""Campaign configurations shared by the test modules."""

from repro.core.campaign import CampaignConfig

#: The tiny campaign: mission 2 at scale 0.1, 2 s faults injected at
#: 15 s, so one gold case and 21 fault cases. The redundancy golden
#: test pins its results (`tests/data/golden_tiny_campaign.json`).
TINY = CampaignConfig(
    scale=0.1, mission_ids=(2,), durations_s=(2.0,), injection_time_s=15.0
)
