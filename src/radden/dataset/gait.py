"""Parametric walking-human point-scatterer model.

Five scatterers (torso, two arms, two legs): the torso translates along a
straight ground-plane trajectory, the limbs add sinusoidal micro-motion at the
stride frequency.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

__all__ = ["GaitParams", "ScattererTrack", "gait_trajectory"]

# the fixed body, in track order: torso, left arm, right arm, left leg, right leg
BODY_HEIGHTS = (1.0, 1.1, 1.1, 0.5, 0.5)  # m above the ground
REFLECTIVITIES = (1.0, 0.3, 0.3, 0.5, 0.5)


@dataclass
class ScattererTrack:
    times: np.ndarray          # (T,)
    ranges_3d: np.ndarray      # (B, T) Euclidean distance from radar, m
    ranges_ground: np.ndarray  # (B, T) ground-plane distance, m
    reflectivity: np.ndarray   # (B,)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.ranges_3d = np.atleast_2d(np.asarray(self.ranges_3d, dtype=float))
        self.ranges_ground = np.atleast_2d(np.asarray(self.ranges_ground, dtype=float))
        self.reflectivity = np.atleast_1d(np.asarray(self.reflectivity, dtype=float))
        B, T = self.ranges_3d.shape
        if self.ranges_ground.shape != (B, T) or self.reflectivity.shape != (B,):
            raise ConfigError("inconsistent track array shapes")
        if self.times.shape != (T,):
            raise ConfigError("time axis does not match range arrays")
        if np.any(self.reflectivity <= 0):
            raise ConfigError("reflectivities must be > 0")
        if np.any(self.ranges_ground < 0) or np.any(self.ranges_3d + 1e-12 < self.ranges_ground):
            raise ConfigError("need r_b(t) >= rho_b(t) >= 0")
        if T > 1:
            dt = np.diff(self.times)
            if not np.allclose(dt, dt[0], rtol=1e-9, atol=1e-12):
                raise ConfigError("time samples must be uniformly spaced")

    @property
    def count(self):
        return self.ranges_3d.shape[0]


@dataclass
class GaitParams:
    speed: float = 1.0            # m/s along the trajectory direction
    stride_hz: float = 2.0
    arm_swing: float = 0.3        # m, sinusoidal amplitude along the walk direction
    leg_swing: float = 0.4
    start_xz: tuple[float, float] = (-3.0, 3.0)
    direction: tuple[float, float] = (1.0, 0.0)


def gait_trajectory(gait: GaitParams, radar_xz, duration, sample_rate):
    """Scatterer track of a walking human against a radar at ground height.

    Body-part ground positions are offset from the torso along the walk
    direction; arms swing in antiphase, legs at the stride frequency with a
    half-cycle offset between left and right.
    """
    if duration <= 0 or sample_rate <= 0:
        raise ConfigError("duration and sample_rate must be > 0")
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    d = np.asarray(gait.direction, dtype=float)
    norm = np.linalg.norm(d)
    if norm == 0:
        raise ConfigError("direction must be non-zero")
    d = d / norm
    start = np.asarray(gait.start_xz, dtype=float)
    radar = np.asarray(radar_xz, dtype=float)
    torso = start[:, None] + gait.speed * d[:, None] * t[None, :]  # (2, T)

    phase = 2 * np.pi * gait.stride_hz * t
    offsets = [
        np.zeros(n),                       # torso
        gait.arm_swing * np.sin(phase),    # left arm
        -gait.arm_swing * np.sin(phase),   # right arm
        gait.leg_swing * np.sin(phase),    # left leg
        gait.leg_swing * np.sin(phase + np.pi),  # right leg
    ]
    rho = np.empty((5, n))
    r3 = np.empty((5, n))
    for b, (off, h) in enumerate(zip(offsets, BODY_HEIGHTS)):
        pos = torso + d[:, None] * off[None, :]
        rho[b] = np.hypot(pos[0] - radar[0], pos[1] - radar[1])
        r3[b] = np.sqrt(rho[b] ** 2 + h ** 2)
    return ScattererTrack(t, r3, rho, np.asarray(REFLECTIVITIES, dtype=float))
