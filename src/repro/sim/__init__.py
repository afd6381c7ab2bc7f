"""Quadrotor physics simulation — the Gazebo substitute.

This package owns *ground truth*: the true rigid-body state of each
vehicle, integrated at a fixed step from motor commands, aerodynamic
forces, wind, and ground contact. Nothing in here ever sees sensor data
or fault injection; faults live entirely in the sensing path
(:mod:`repro.sensors` + :mod:`repro.core.injector`), exactly as in the
paper's PX4 setup where the injector corrupts sensor output, not physics.
"""

from repro.sim.state import RigidBodyState
from repro.sim.environment import Environment, WindModel, GRAVITY_M_S2
from repro.sim.motors import MotorBank
from repro.sim.airframe import QuadrotorAirframe
from repro.sim.dynamics import PHYSICS_DT_S, QuadrotorPhysics, GroundContact

__all__ = [
    "RigidBodyState",
    "Environment",
    "WindModel",
    "GRAVITY_M_S2",
    "MotorBank",
    "QuadrotorAirframe",
    "QuadrotorPhysics",
    "GroundContact",
    "PHYSICS_DT_S",
]
