"""World environment: gravity, air density, and a stochastic wind model."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Standard gravitational acceleration (m/s^2), positive magnitude.
GRAVITY_M_S2 = 9.80665

#: Sea-level air density (kg/m^3) used by the drag model.
AIR_DENSITY_KG_M3 = 1.225


class WindModel:
    """Constant wind plus Ornstein-Uhlenbeck gusts.

    Each axis of the gust vector follows an OU process
    ``dg = -g/tau * dt + sigma * sqrt(2*dt/tau) * N(0,1)``, giving
    band-limited turbulence with stationary standard deviation ``sigma``.
    The model is deterministic for a given seed, which the campaign
    runner relies on for reproducible experiments.
    """

    def __init__(
        self,
        mean_wind_ned: np.ndarray | None = None,
        gust_sigma_m_s: float = 0.25,
        gust_tau_s: float = 3.0,
        seed: int = 0,
    ):
        self.mean_wind_ned = (
            np.zeros(3) if mean_wind_ned is None else np.asarray(mean_wind_ned, dtype=float)
        )
        if gust_sigma_m_s < 0.0:
            raise ValueError("gust_sigma_m_s must be non-negative")
        if gust_tau_s <= 0.0:
            raise ValueError("gust_tau_s must be positive")
        self.gust_sigma_m_s = gust_sigma_m_s
        self.gust_tau_s = gust_tau_s
        self._rng = np.random.default_rng(seed)
        self._gust = np.zeros(3)
        # Hot-loop work buffers: the RNG draws into `_noise`, and `step`
        # returns `_wind`.
        self._noise = np.zeros(3)
        self._wind = np.zeros(3)

    def step(self, dt: float) -> np.ndarray:
        """Advance the gust process and return the current wind (NED m/s).

        The returned array is a reused buffer; copy it to keep it across
        steps.
        """
        g0, g1, g2 = self._gust.tolist()
        if self.gust_sigma_m_s > 0.0:
            decay = dt / self.gust_tau_s
            self._rng.standard_normal(out=self._noise)
            n0, n1, n2 = self._noise.tolist()
            # Float form of
            #   gust += -gust * decay + sigma * sqrt(2 * decay) * noise
            # keeping the exact operation order of the numpy original.
            neg_decay = -decay
            scale = self.gust_sigma_m_s * math.sqrt(2.0 * decay)
            g0 = g0 + (g0 * neg_decay + n0 * scale)
            g1 = g1 + (g1 * neg_decay + n1 * scale)
            g2 = g2 + (g2 * neg_decay + n2 * scale)
            gust = self._gust
            gust[0] = g0
            gust[1] = g1
            gust[2] = g2
        m0, m1, m2 = self.mean_wind_ned.tolist()
        wind = self._wind
        wind[0] = m0 + g0
        wind[1] = m1 + g1
        wind[2] = m2 + g2
        return wind

    @property
    def current_wind_ned(self) -> np.ndarray:
        """Wind vector from the most recent :meth:`step` (NED m/s).

        Returns a reused buffer; copy it to keep it across steps.
        """
        np.add(self.mean_wind_ned, self._gust, out=self._wind)
        return self._wind


@dataclass
class Environment:
    """The conditions one simulation run flies in: its wind.

    Gravity and air density are the module constants above.
    """

    wind: WindModel = field(default_factory=WindModel)
