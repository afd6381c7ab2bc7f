"""`UavSystem`: one simulated vehicle with its full PX4-like stack.

Wires together, in the paper's architecture (Fig. 1):

    physics (truth) -> sensors -> **fault injector** -> EKF -> outer
    control loops -> attitude loop -> rate loop (raw gyro!) -> mixer ->
    physics

plus the commander/navigator/failsafe vehicle management, the bubble
monitor fed at U-space tracking instances, and the flight recorder. The
flight recorder is the run's 5 Hz flight log; an observer's black box is
the same recorder kept as a ring and written every tick, and both dump
to one format.

The loop runs at a fixed 100 Hz physics/control rate with GPS at 5 Hz,
baro/mag at 20 Hz, and tracking at 1 Hz. One step is the named stages
of :attr:`UavSystem.STAGES`, in order; :func:`fly_fleet` flies several
vehicles stage-major. Every vehicle parameter is a
constant of the module that reads it, as the paper flies PX4 on its
defaults; :class:`SystemConfig` holds the few values a run may set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.control import AttitudeController, Mixer, PositionController, RateController
from repro.core.faults import FaultSpec
from repro.estimation import Ekf, EstimatorHealth
from repro.flightstack import (
    Commander,
    CrashDetector,
    FailsafeEngine,
    FailsafeState,
    FlightPhase,
    IsolationOutcome,
    MissionOutcome,
)
from repro.flightstack.commander import (
    MISSION_TIMEOUT_FACTOR,
    MISSION_TIMEOUT_MIN_S,
    CommanderOutput,
)
from repro.flightstack.params import FD_GYRO_RATE_THRESHOLD_RAD_S, FS_ISOLATION_TIME_S
from repro.mathutils import quat_from_euler
from repro.missions.plan import MissionPlan
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.redundancy import ImuBank, RedundancyConfig, RedundancyManager
from repro.sensors import Barometer, GpsModel, ImuSample, Magnetometer
from repro.sim import (
    PHYSICS_DT_S,
    Environment,
    QuadrotorAirframe,
    QuadrotorPhysics,
    RigidBodyState,
    WindModel,
)
from repro.sim.motors import MAX_THRUST_N
from repro.telemetry import FlightRecorder
from repro.uspace import BubbleMonitor


#: Rate of the flight log, :attr:`UavSystem.recorder`.
FLIGHT_LOG_RATE_HZ = 5.0


@dataclass
class SystemConfig:
    """What one vehicle run may set: its seed and the ablated mechanisms.

    Everything else is a constant of the module that reads it.
    """

    seed: int = 0
    #: The bubble's R factor (Eq. 3 of the paper).
    risk_factor: float = 1.0
    #: Ablation switch: when False the attitude loop always runs at full
    #: gain, ignoring the estimator's attitude confidence.
    confidence_scheduling: bool = True
    #: Ablation switch: when False the EKF never hard-resets a diverged
    #: velocity/position block to the GPS fix (PX4's fusion timeout).
    fusion_reset: bool = True
    #: Failure detection's gyro-rate threshold (PX4's 60 deg/s default).
    fd_gyro_rate_threshold_rad_s: float = FD_GYRO_RATE_THRESHOLD_RAD_S
    #: Sensor-isolation time before the failsafe engages (1.9 s).
    fs_isolation_time_s: float = FS_ISOLATION_TIME_S
    #: Redundant IMU bank + voter; disabled = the paper's single-IMU
    #: vehicle, bit-identical to the pre-redundancy pipeline.
    redundancy: RedundancyConfig = field(default_factory=RedundancyConfig)


@dataclass
class MissionResult:
    """Everything the paper's metrics need from one run."""

    mission_id: int
    outcome: MissionOutcome
    flight_duration_s: float
    distance_km: float
    inner_violations: int
    outer_violations: int
    tracking_instances: int
    max_deviation_m: float
    crash_time_s: float | None
    failsafe_time_s: float | None
    fault_label: str
    failsafe_trigger: str = "none"
    isolation_outcome: str = "not_attempted"
    isolation_succeeded: bool | None = None
    imu_switchovers: int = 0
    #: Path of the black-box dump written by the observer when the run
    #: did not complete (None when obs is off or the run completed).
    blackbox_path: str | None = None

    @property
    def completed(self) -> bool:
        return self.outcome == MissionOutcome.COMPLETED


class UavSystem:
    """One vehicle, one mission, one (optional) fault injection."""

    def __init__(
        self,
        plan: MissionPlan,
        config: SystemConfig | None = None,
        fault: FaultSpec | None = None,
        obs: Observer | None = None,
    ):
        self.plan = plan
        self.config = config or SystemConfig()
        cfg = self.config
        seed = cfg.seed + plan.mission_id * 1009

        airframe = QuadrotorAirframe(plan.drone.mass_kg)
        environment = Environment(wind=WindModel(seed=seed + 1))
        initial_yaw = self._initial_yaw(plan)
        initial = RigidBodyState()
        initial.position_ned = plan.home_ned.copy()
        initial.quaternion = quat_from_euler(0.0, 0.0, initial_yaw)
        self.physics = QuadrotorPhysics(airframe, environment, initial)

        # Member 0 of the bank reuses the historical IMU seed, so a
        # disabled-redundancy vehicle (bank of one) is bit-identical to
        # the original single-IMU pipeline.
        red = cfg.redundancy
        self.imu_bank = ImuBank(
            fault,
            num_members=red.num_members if red.enabled else 1,
            base_seed=seed + 2,
        )
        self.injector = self.imu_bank.injectors[0]
        self.redundancy = RedundancyManager(self.imu_bank.num_members, enabled=red.enabled)
        self.gps = GpsModel(seed=seed + 3)
        self.baro = Barometer(seed=seed + 4)
        self.mag = Magnetometer(seed=seed + 5)
        self.fault = fault

        self.ekf = Ekf(
            initial_position_ned=plan.home_ned,
            initial_yaw_rad=initial_yaw,
            fusion_reset=cfg.fusion_reset,
        )

        self.position_controller = PositionController(
            mass_kg=plan.drone.mass_kg,
            max_total_thrust_n=4.0 * MAX_THRUST_N,
            max_speed_xy_m_s=plan.drone.top_speed_m_s,
        )
        self.attitude_controller = AttitudeController()
        self.rate_controller = RateController()
        self.mixer = Mixer()

        self.commander = Commander(plan)
        self.failsafe = FailsafeEngine(
            cfg.fd_gyro_rate_threshold_rad_s, cfg.fs_isolation_time_s
        )
        self.crash_detector = CrashDetector()
        self.bubble_monitor = BubbleMonitor(plan, risk_factor=cfg.risk_factor)
        # Observability plane: NULL_OBSERVER's hooks and sinks are all
        # no-ops, so an uninstrumented vehicle pays one empty call per
        # step and zero branches. The commander/failsafe/redundancy
        # modules emit into the observer's trace at their transitions;
        # the flight recorder feeds its registry.
        self.obs = obs if obs is not None else NULL_OBSERVER
        self.commander.obs = self.obs.trace
        self.failsafe.obs = self.obs.trace
        self.redundancy.obs = self.obs.trace
        self.recorder = FlightRecorder(
            rate_hz=FLIGHT_LOG_RATE_HZ, registry=self.obs.metrics
        )
        #: The step cap of this run (:meth:`flying`); ``finish_run`` may
        #: set another.
        self.hard_cap_s = max(
            MISSION_TIMEOUT_MIN_S + 60.0,
            plan.estimated_duration_s() * (MISSION_TIMEOUT_FACTOR + 0.5),
        )
        # The attitude sigma read by the last step (the recorders log it).
        self._last_attitude_std = self.ekf.attitude_std_rad
        # Idle motor command, shared read-only (MotorBank clips into its
        # own buffer).
        self._idle_motors = np.zeros(4)
        # Inter-stage values: what one stage of a step hands the next.
        # Each is written by its stage before any later stage of the
        # same step reads it. The recorders log the selected sample's
        # gyro.
        self._t = 0.0
        self._samples: list[ImuSample] = []
        self._imu_sample = ImuSample(0.0, np.zeros(3), np.zeros(3))
        self._est_tilt = 0.0
        self._health = EstimatorHealth(False, False, False)
        self._command = CommanderOutput(np.zeros(3), np.zeros(3), 0.0, 0.0, thrust_idle=True)
        self._collective = 0.0
        self._q_sp = np.array([1.0, 0.0, 0.0, 0.0])
        self._rate_sp = np.zeros(3)
        self._torque = np.zeros(3)
        self._motors = self._idle_motors

    @staticmethod
    def _initial_yaw(plan: MissionPlan) -> float:
        """Face the first leg before takeoff, like a pre-armed PX4 vehicle."""
        first = plan.waypoints[0].array
        second = plan.waypoints[1].array
        return math.atan2(second[1] - first[1], second[0] - first[0])

    # ------------------------------------------------------------------
    # The step, as named stages. Each stage reads what the stages before
    # it left on the vehicle (the ``_``-prefixed inter-stage values set
    # in ``__init__``), so a fleet can run one stage over every vehicle
    # before the next (:func:`fly_fleet`) and fly the same bits.

    def step(self) -> None:
        """Advance the whole system by one physics tick: every stage of
        :attr:`STAGES`, in order."""
        for stage in self.STAGES:
            stage(self)

    def sample_imu(self) -> None:
        """Sense: every bank member's IMU sample, through its injector."""
        physics = self.physics
        t = self._t = physics.time_s
        self._samples = self.imu_bank.sample(
            t, physics.specific_force_body, physics.state.angular_rate_body, PHYSICS_DT_S
        )

    def vote(self) -> None:
        """Pick the bank member that feeds the stack.

        Switchover is only allowed while the failsafe is isolating.
        """
        t = self._t
        selection = self.redundancy.select(
            t,
            self._samples,
            PHYSICS_DT_S,
            isolating=self.failsafe.state == FailsafeState.ISOLATING,
        )
        if selection.switched:
            # New physical sensor: re-seed the estimator's delta-state
            # and give the failsafe a fresh isolation window.
            self.ekf.reseed_after_imu_switch()
            self.failsafe.report_isolation(t, IsolationOutcome.SWITCHED)
        elif selection.exhausted:
            self.failsafe.report_isolation(t, IsolationOutcome.EXHAUSTED)
        self._imu_sample = selection.sample

    def predict(self) -> None:
        """Propagate the EKF on the selected IMU sample."""
        self.ekf.predict(self._imu_sample, PHYSICS_DT_S)

    def fuse_gps(self) -> None:
        truth = self.physics.state
        fix = self.gps.maybe_sample(self._t, truth.position_ned, truth.velocity_ned)
        if fix is not None:
            self.ekf.update_gps(fix)

    def fuse_baro(self) -> None:
        alt = self.baro.maybe_sample(self._t, self.physics.state.altitude_m)
        if alt is not None:
            self.ekf.update_baro(alt)

    def fuse_mag(self) -> None:
        """Magnetometer yaw, then the gravity-tilt blend."""
        imu_sample = self._imu_sample
        yaw = self.mag.maybe_sample(self._t, self.physics.state.quaternion)
        if yaw is not None:
            self.ekf.update_mag_yaw(yaw)
            self.ekf.update_gravity_tilt(imu_sample.accel, imu_sample.gyro)
        elif self.redundancy.degraded:
            # No healthy bank member left: the gyro-integrated attitude
            # is drifting on faulty data, so run the complementary
            # gravity-tilt blend every tick instead of at the mag rate.
            self.ekf.update_gravity_tilt(imu_sample.accel, imu_sample.gyro, PHYSICS_DT_S)

    def assess_health(self) -> None:
        """The estimate's tilt, attitude sigma and health for this tick."""
        ekf = self.ekf
        self._est_tilt = self._estimated_tilt()
        # Read once: the health check, the attitude loop's gain schedule
        # and the recorders all use it, and nothing below touches the
        # filter.
        attitude_std = self._last_attitude_std = ekf.attitude_std_rad
        self._health = EstimatorHealth.from_monitor(
            ekf.monitor,
            attitude_std_rad=attitude_std,
            imu_stale=ekf.imu_stale_latched,
        )

    def detect_failures(self) -> None:
        """Failure detection and failsafe, then crash assessment."""
        physics = self.physics
        # Failure detection arms only clear of the ground: takeoff and
        # touchdown transients produce legitimate rate spikes (PX4
        # equally suppresses failure detection while landed).
        airborne = not physics.on_ground and physics.state.altitude_m > 2.0
        self.failsafe.update(
            self._t,
            self._imu_sample.gyro,
            self._est_tilt,
            self._health,
            in_flight=self.commander.in_flight and airborne,
        )
        landing_expected = self.commander.phase in (
            FlightPhase.LANDING,
            FlightPhase.FAILSAFE_LAND,
        )
        self.crash_detector.assess_contact(physics.last_contact, landing_expected)

    def command(self) -> None:
        """The commander's setpoints for the control cascade."""
        self._command = self.commander.update(
            self._t,
            self.ekf.position_ned,
            on_ground=self.physics.on_ground,
            failsafe_engaged=self.failsafe.engaged,
            crashed=self.crash_detector.crashed,
        )

    # The four cascade stages do nothing while the commander idles the
    # thrust; the mixer stage then hands physics the idle command.

    def position_loop(self) -> None:
        """Position and velocity loops: collective thrust and attitude
        setpoint."""
        out = self._command
        if out.thrust_idle:
            return
        ekf = self.ekf
        position_controller = self.position_controller
        vel_sp = position_controller.velocity_setpoint(
            out.position_sp_ned,
            ekf.position_ned,
            feedforward_ned=out.velocity_ff_ned,
            cruise_speed_m_s=out.cruise_speed_m_s or None,
        )
        accel_sp = position_controller.acceleration_setpoint(
            vel_sp, ekf.velocity_ned, PHYSICS_DT_S
        )
        self._collective, self._q_sp = position_controller.thrust_and_attitude(
            accel_sp, out.yaw_sp_rad
        )

    def attitude_loop(self) -> None:
        """Attitude loop, gain-scheduled on the estimate's confidence."""
        if self._command.thrust_idle:
            return
        confidence = (
            Ekf.confidence_from_std(self._last_attitude_std)
            if self.config.confidence_scheduling
            else 1.0
        )
        self._rate_sp = self.attitude_controller.rate_setpoint(
            self.ekf.quaternion, self._q_sp, confidence=confidence
        )

    def rate_loop(self) -> None:
        """Rate loop on the raw (selected) gyro."""
        if self._command.thrust_idle:
            return
        self._torque = self.rate_controller.torque_command(
            self._rate_sp, self._imu_sample.gyro, PHYSICS_DT_S
        )

    def mix(self) -> None:
        if self._command.thrust_idle:
            self._motors = self._idle_motors
        else:
            self._motors = self.mixer.mix(self._collective, self._torque)

    def advance_physics(self) -> None:
        self.physics.step(self._motors, PHYSICS_DT_S)

    def surveil(self) -> None:
        """Bubble tracking and the flight log (reported = estimated state).

        The airspeed and the fault flag are only computed on the ticks
        where the 1 Hz bubble monitor / 5 Hz recorder actually consume
        them. A flight-log row carries the step's start time and end
        state.
        """
        t = self._t
        ekf = self.ekf
        if self.bubble_monitor.due(t):
            velocity = ekf.velocity_ned
            airspeed = math.sqrt(float(velocity.dot(velocity)))
            self.bubble_monitor.maybe_track(t, ekf.position_ned, airspeed)
        if self.recorder.due(t):
            self.recorder.maybe_record(self, t, self.injector.is_active(t))

    def observe(self) -> None:
        self.obs.on_step(self)

    #: The stages of one :meth:`step`, in order: sense, vote, estimate,
    #: manage, the control cascade, physics, surveil and observe.
    STAGES: tuple[Callable[["UavSystem"], None], ...] = (
        sample_imu,
        vote,
        predict,
        fuse_gps,
        fuse_baro,
        fuse_mag,
        assess_health,
        detect_failures,
        command,
        position_loop,
        attitude_loop,
        rate_loop,
        mix,
        advance_physics,
        surveil,
        observe,
    )

    def _estimated_tilt(self) -> float:
        """Tilt angle of the EKF attitude estimate."""
        w, x, y, z = self.ekf.quaternion.tolist()
        cos_tilt = 1.0 - 2.0 * (x * x + y * y)
        return math.acos(min(1.0, max(-1.0, cos_tilt)))

    # ------------------------------------------------------------------

    def run(self, max_time_s: float | None = None) -> MissionResult:
        """Fly the mission to a terminal verdict and compute the metrics."""
        self.start_run()
        return self.finish_run(max_time_s)

    def start_run(self) -> None:
        """Open the run: the observer's run span, then arm and take off."""
        self.obs.on_run_start(self)
        self.commander.arm_and_takeoff(self.physics.time_s)

    def flying(self, until_s: float | None = None) -> bool:
        """Whether the vehicle flies another step.

        It does while it has no terminal verdict and is under its hard
        cap; with ``until_s``, also only while the step ends before
        ``until_s`` (:meth:`fly_until`).
        """
        time_s = self.physics.time_s
        return (
            not self.commander.terminal
            and time_s < self.hard_cap_s
            and (until_s is None or time_s + PHYSICS_DT_S < until_s)
        )

    def fly_until(self, time_s: float) -> None:
        """Fly every step that ends before ``time_s``.

        A step reads the fault window at its start time (injector,
        recorder) and at its end time (the observer's ``on_step``), so a
        vehicle flown this far has not yet seen a fault starting at
        ``time_s`` anywhere. Stops early on the same conditions as
        :meth:`finish_run` (a terminal verdict or the hard cap), so
        ``fly_until`` then ``finish_run`` flies exactly the steps of one
        ``finish_run``.
        """
        _fly_alone(Flight(self, until_s=time_s))

    def arm_fault(self, fault: FaultSpec | None) -> None:
        """Swap the vehicle's fault for ``fault`` before it starts.

        Every bank member's injector is rebuilt from the spec, exactly
        as the constructor builds it, and the observer relabels its run.
        Valid only before the new fault's window opens (see
        :meth:`fly_until`): a fresh injector has drawn nothing from its
        behaviour seeds, which holds for the vehicle that carried
        ``fault`` from the start only until then.
        """
        if fault is not None and self.physics.time_s > fault.start_time_s:
            raise ValueError(
                f"cannot arm a fault starting at {fault.start_time_s} s on a "
                f"vehicle already at {self.physics.time_s} s"
            )
        self.fault = fault
        self.imu_bank.arm(fault)
        self.injector = self.imu_bank.injectors[0]
        self.obs.on_fault_armed(self)

    def finish_run(self, max_time_s: float | None = None) -> MissionResult:
        """Fly on to a terminal verdict (or the hard cap); the metrics."""
        if max_time_s:
            self.hard_cap_s = max_time_s
        _fly_alone(Flight(self))
        return self.end_run()

    def end_run(self) -> MissionResult:
        """Close a run that stopped flying (:meth:`flying`): the timeout
        verdict if it has none, the observer's run end, the metrics."""
        if not self.commander.terminal:
            self.commander.outcome = MissionOutcome.TIMEOUT
            self.commander.end_time_s = self.physics.time_s

        blackbox_path = self.obs.on_run_end(self)
        takeoff = self.commander.takeoff_time_s or 0.0
        end = self.commander.end_time_s or self.physics.time_s
        counts = self.bubble_monitor.counts
        return MissionResult(
            mission_id=self.plan.mission_id,
            outcome=self.commander.outcome,
            flight_duration_s=end - takeoff,
            distance_km=self.recorder.estimated_distance_m / 1000.0,
            inner_violations=counts.inner,
            outer_violations=counts.outer,
            tracking_instances=counts.tracking_instances,
            max_deviation_m=counts.max_deviation_m,
            crash_time_s=(
                self.crash_detector.report.time_s if self.crash_detector.report else None
            ),
            failsafe_time_s=self.failsafe.engaged_time_s,
            fault_label=self.fault.label if self.fault else "Gold Run",
            failsafe_trigger=self.failsafe.trigger.value,
            isolation_outcome=self.failsafe.isolation_outcome.value,
            isolation_succeeded=self.failsafe.isolation_succeeded,
            imu_switchovers=len(self.redundancy.events),
            blackbox_path=blackbox_path,
        )


@dataclass(eq=False)
class Flight:
    """A vehicle in a fleet, flown while ``system.flying(until_s)``."""

    system: UavSystem
    #: ``None`` flies to the verdict (:meth:`UavSystem.finish_run`); a
    #: time flies the steps that end before it (:meth:`UavSystem.fly_until`).
    until_s: float | None = None
    #: What a stage of this vehicle raised, if one did.
    error: Exception | None = None


def fly_fleet(flights: Iterable[Flight]) -> Iterator[Flight]:
    """Fly vehicles stage-major; yield each flight as it leaves.

    Every tick runs one stage of :attr:`UavSystem.STAGES` over every
    live vehicle before it starts the next stage, so each stage's code
    and data stay in cache across the fleet (DESIGN.md §11). A flight
    leaves when its stop condition holds, or when one of its stages
    raises: it then runs no further stage and carries the exception on
    ``error``. Vehicles share no state, so each flies exactly the steps
    and the bits it would fly alone. A lone vehicle flies by
    :meth:`UavSystem.step`.

    The fleet drops a flight before it yields it, so the caller decides
    when its vehicle is freed.
    """
    live = list(flights)
    while len(live) > 1:
        stays = [f.system.flying(f.until_s) for f in live]
        if all(stays):
            if not _fly_tick(live):
                continue
            stays = [f.error is None for f in live]
        # Out of ``live`` before it is yielded: once the caller resumes,
        # no list or local of the fleet holds a flight it was handed.
        kept = 0
        for stay in stays:
            if stay:
                kept += 1
            else:
                yield live.pop(kept)
    for flight in live:
        system = flight.system
        try:
            while system.flying(flight.until_s):
                system.step()
        except Exception as exc:
            flight.error = exc
        yield flight


def _fly_tick(live: list[Flight]) -> bool:
    """Run one step of every flight of ``live``, stage-major; whether a
    stage raised. A flight whose stage raised carries the exception on
    ``error`` and runs no further stage."""
    systems = [f.system for f in live]
    errors: dict[UavSystem, Exception] = {}
    for stage in UavSystem.STAGES:
        for system in systems:
            try:
                stage(system)
            except Exception as exc:
                errors[system] = exc
        if errors:
            systems = [s for s in systems if s not in errors]
    if not errors:
        return False
    for flight in live:
        flight.error = errors.get(flight.system)
    return True


def _fly_alone(flight: Flight) -> None:
    """Fly a one-vehicle fleet; re-raise what its stage raised."""
    for flown in fly_fleet([flight]):
        if flown.error is not None:
            raise flown.error
