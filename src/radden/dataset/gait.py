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

# the slow-time grid of every track: 6 s at 500 Hz
SAMPLE_RATE_HZ = 500.0
TIME_GRID = np.arange(3000) / SAMPLE_RATE_HZ
TIME_GRID.flags.writeable = False
RADAR_XZ = (0.5, 0.0)  # m, the radar's ground position, at ground height

# the fixed body, in track order: torso, left arm, right arm, left leg, right leg
BODY_HEIGHTS = (1.0, 1.1, 1.1, 0.5, 0.5)  # m above the ground
REFLECTIVITIES = (1.0, 0.3, 0.3, 0.5, 0.5)


@dataclass
class ScattererTrack:
    ranges_3d: np.ndarray      # (B, T) Euclidean distance from radar, m
    ranges_ground: np.ndarray  # (B, T) ground-plane distance, m
    reflectivity: np.ndarray   # (B,)

    def __post_init__(self):
        self.ranges_3d = np.atleast_2d(np.asarray(self.ranges_3d, dtype=float))
        self.ranges_ground = np.atleast_2d(np.asarray(self.ranges_ground, dtype=float))
        self.reflectivity = np.atleast_1d(np.asarray(self.reflectivity, dtype=float))
        B, T = self.ranges_3d.shape
        if self.ranges_ground.shape != (B, T) or self.reflectivity.shape != (B,):
            raise ConfigError("inconsistent track array shapes")
        if T != TIME_GRID.size:
            raise ConfigError(f"a track needs one range per time-grid sample, not {T}")
        if np.any(self.reflectivity <= 0):
            raise ConfigError("reflectivities must be > 0")
        if np.any(self.ranges_ground < 0) or np.any(self.ranges_3d + 1e-12 < self.ranges_ground):
            raise ConfigError("need r_b(t) >= rho_b(t) >= 0")

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


def gait_trajectory(gait: GaitParams):
    """Scatterer track of a walking human against the radar at RADAR_XZ.

    Body-part ground positions are offset from the torso along the walk
    direction; arms swing in antiphase, legs at the stride frequency with a
    half-cycle offset between left and right.
    """
    t = TIME_GRID
    d = np.asarray(gait.direction, dtype=float)
    norm = np.linalg.norm(d)
    if norm == 0:
        raise ConfigError("direction must be non-zero")
    d = d / norm
    start = np.asarray(gait.start_xz, dtype=float)
    torso = start[:, None] + gait.speed * d[:, None] * t[None, :]  # (2, T)

    phase = 2 * np.pi * gait.stride_hz * t
    swing = np.sin(phase)
    offsets = np.stack([                              # (5, T), in track order
        np.zeros_like(swing),                         # torso
        gait.arm_swing * swing,                       # left arm
        -gait.arm_swing * swing,                      # right arm
        gait.leg_swing * swing,                       # left leg
        gait.leg_swing * np.sin(phase + np.pi),       # right leg
    ])
    pos = torso[:, None, :] + d[:, None, None] * offsets  # (2, 5, T)
    rho = np.hypot(pos[0] - RADAR_XZ[0], pos[1] - RADAR_XZ[1])
    r3 = np.sqrt(rho ** 2 + np.square(BODY_HEIGHTS)[:, None])
    return ScattererTrack(r3, rho, np.asarray(REFLECTIVITIES, dtype=float))
