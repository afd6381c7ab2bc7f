#!/usr/bin/env python3
"""Multi-UAV U-space surveillance: 1 Hz tracks and conflicts.

Four drones of the paper's Valencia scenario fly together. Each one's
bubble monitor keeps its 1 Hz track of reported positions, the
surveillance picture U-space holds (Fig. 1). A conflict detector then
checks pairwise outer-bubble separation — the U-space use the two-layer
bubble exists for.

One drone flies with a fault injected into its accelerometer, so its
*reported* track (the EKF estimate U-space sees) deviates, potentially
conflicting with its neighbours' bubbles.

Run: ``python examples/swarm_conflicts.py``. Its stdout must equal
``examples/swarm_conflicts.expected``, which CI diffs it against.
"""

from repro import FaultSpec, FaultTarget, FaultType, UavSystem, valencia_missions
from repro.uspace import ConflictDetector, inner_bubble_radius, max_track_distance_m


def main():
    plans = valencia_missions(scale=0.15)[:4]
    systems = []
    for plan in plans:
        fault = None
        if plan.mission_id == 3:
            fault = FaultSpec(FaultType.NOISE, FaultTarget.ACCEL, 25.0, 10.0)
        systems.append(UavSystem(plan, fault=fault))

    for system in systems:
        system.commander.arm_and_takeoff(system.physics.time_s)

    radii = {
        p.mission_id: inner_bubble_radius(
            p.drone.dimension_m, p.drone.safety_distance_m,
            max_track_distance_m(p.drone.top_speed_m_s),
        )
        for p in plans
    }
    detector = ConflictDetector()

    # Co-simulate all four vehicles at the shared 100 Hz step.
    active = list(systems)
    step = 0
    while active:
        for system in list(active):
            system.step()
            if system.commander.terminal:
                active.remove(system)
        step += 1
        if step % 100 == 0:  # 1 Hz conflict sweep over the latest tracks
            positions = {
                s.plan.mission_id: s.bubble_monitor.history[-1].position_ned
                for s in systems
                if s.bubble_monitor.history
            }
            if len(positions) >= 2:
                for c in detector.check_instant(step / 100.0, positions, radii):
                    print(f"t={c.time_s:6.1f}s  CONFLICT drones {c.drone_a}<->{c.drone_b} "
                          f"distance {c.distance_m:.1f} m < required {c.required_separation_m:.1f} m "
                          f"(severity {c.severity:.2f})")
        if step > 60000:
            break

    print("\nSurveillance summary:")
    for system in systems:
        plan = system.plan
        count = system.bubble_monitor.counts.tracking_instances
        print(f"  drone {plan.mission_id} ({plan.description}): {count} track reports")
    print(f"  total conflict events: {detector.total_conflicts}")


if __name__ == "__main__":
    main()
