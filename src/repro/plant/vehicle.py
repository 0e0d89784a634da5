"""Volvo XC90 longitudinal dynamics (paper S5.7, Fig. 10).

A standard point-mass longitudinal model:

    m * dv/dt = F_engine - F_drag - F_roll
    F_engine  = throttle * min(P_max / max(v, v_eps), m * a_max)
    F_drag    = 0.5 * rho * Cd * A * v^2
    F_roll    = Crr * m * g

with the XC90 parameters the paper cites: 235 kW peak power and a maximum
acceleration of 4.96 m/s^2 (the physical property that limits the damage an
attacker can do during the recovery window -- the "window of opportunity"
of S5.7).  Curb mass, drag area, and rolling resistance come from public
T6 specifications.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class VehicleParams:
    """Longitudinal-model parameters."""

    mass_kg: float
    power_w: float
    max_accel_ms2: float
    drag_coefficient: float
    frontal_area_m2: float
    rolling_resistance: float
    air_density: float = 1.225
    gravity: float = 9.81


XC90_PARAMS = VehicleParams(
    mass_kg=2_109.0,          # XC90 T6 curb weight
    power_w=235_000.0,        # paper S5.7: 235 kW
    max_accel_ms2=4.96,       # paper S5.7: 4.96 m/s^2
    drag_coefficient=0.33,
    frontal_area_m2=2.75,
    rolling_resistance=0.010,
)

MPH_PER_MS = 2.23693629


class VehicleModel:
    """Forward-integrated longitudinal vehicle state.

    Args:
        params: physical parameters.
        initial_speed_ms: starting speed in m/s.
    """

    def __init__(self, params: VehicleParams = XC90_PARAMS, initial_speed_ms: float = 0.0):
        self.params = params
        self.speed_ms = initial_speed_ms
        self.throttle = 0.0  # commanded throttle in [0, 1]
        self.history = [(0.0, initial_speed_ms)]
        self._time = 0.0

    @property
    def speed_mph(self) -> float:
        return self.speed_ms * MPH_PER_MS

    def set_throttle(self, throttle: float) -> None:
        self.throttle = max(0.0, min(1.0, throttle))

    def step(self, dt: float) -> float:
        """Advance the model by ``dt`` seconds; returns the new speed."""
        p = self.params
        v = max(self.speed_ms, 0.1)
        engine_force = self.throttle * min(p.power_w / v, p.mass_kg * p.max_accel_ms2)
        drag = 0.5 * p.air_density * p.drag_coefficient * p.frontal_area_m2 * v * v
        rolling = p.rolling_resistance * p.mass_kg * p.gravity
        accel = (engine_force - drag - rolling) / p.mass_kg
        accel = max(-p.max_accel_ms2, min(p.max_accel_ms2, accel))
        self.speed_ms = max(0.0, self.speed_ms + accel * dt)
        self._time += dt
        self.history.append((self._time, self.speed_ms))
        return self.speed_ms

    def steady_state_throttle(self, speed_ms: float) -> float:
        """Throttle that holds ``speed_ms`` on level ground (feed-forward)."""
        p = self.params
        v = max(speed_ms, 0.1)
        drag = 0.5 * p.air_density * p.drag_coefficient * p.frontal_area_m2 * v * v
        rolling = p.rolling_resistance * p.mass_kg * p.gravity
        engine_cap = min(p.power_w / v, p.mass_kg * p.max_accel_ms2)
        return max(0.0, min(1.0, (drag + rolling) / engine_cap))

