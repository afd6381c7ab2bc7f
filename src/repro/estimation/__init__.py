"""State estimation — the PX4 EKF2 substitute.

A 15-error-state extended Kalman filter fuses (possibly fault-injected)
IMU data with GPS, barometer, and magnetometer aiding. The paper's whole
causal chain runs through this filter: corrupted accelerometer samples
bend the velocity/position estimate (trajectory deviation, bubble
violations), while corrupted gyroscope samples destroy attitude
knowledge and destabilise the vehicle (crash / failsafe).
"""

from repro.estimation.ekf import Ekf
from repro.estimation.health import EstimatorHealth, InnovationMonitor

__all__ = ["Ekf", "EstimatorHealth", "InnovationMonitor"]
