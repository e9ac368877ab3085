"""Parametric multipath surrogate for the wall propagation channel.

The channel is a sum of a (possibly attenuated) direct term, exponentially
decaying in-wall ringing taps, and lateral-wall image reflections.  Stochastic
realizations perturb tap gains and delays with seeded Gaussian jitter so each
realization index is deterministic and independent.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DomainError

__all__ = ["ChannelModel", "WallClass", "channel_response", "SPEED_OF_LIGHT"]

SPEED_OF_LIGHT = 3.0e8  # m/s, radar convention

# how far (in units of the last place of the largest |f|) a frequency may sit
# off the arithmetic grid through its end points
_GRID_ULPS = 64


class WallClass(enum.Enum):
    FREE_SPACE = "free_space"
    LOW_CONDUCTIVITY = "low"
    MEDIUM_CONDUCTIVITY = "medium"
    HIGH_CONDUCTIVITY = "high"

    @classmethod
    def _missing_(cls, value):
        names = ", ".join(w.value for w in cls)
        raise ConfigError(f"unknown wall class {value!r} (expected one of {names})")


# the wall surrogate's fixed geometry; only the wall class varies
EPSILON_R = 4.0
WALL_THICKNESS = 0.2        # m
RELATIVE_SPREAD = 0.3       # std of the per-realization gain and delay jitter
TAP_COUNT = 4               # in-wall ringing taps behind a wall
IMAGE_OFFSETS = (1.0, 2.0)  # lateral wall distances, m

# per class: direct-path gain, ringing decay, one gain per image offset
_WALLS = {
    WallClass.FREE_SPACE: (1.0, 0.0, ()),
    WallClass.LOW_CONDUCTIVITY: (0.35, 0.55, (0.15, 0.08)),
    WallClass.MEDIUM_CONDUCTIVITY: (0.05, 0.3, (0.55, 0.35)),
    WallClass.HIGH_CONDUCTIVITY: (0.0, 0.0, (0.85, 0.5)),
}


@dataclass
class ChannelModel:
    """The wall channel of one class: free space has no taps and no images,
    every wall has `TAP_COUNT` taps and one image per `IMAGE_OFFSETS` entry."""
    wall_class: WallClass = WallClass.FREE_SPACE
    realizations: int = 1
    seed: int = 0

    def __post_init__(self):
        self.wall_class = WallClass(self.wall_class)
        if self.realizations < 1:
            raise ConfigError("realization count M must be >= 1")
        self.direct_gain, self.tap_decay, self.image_gains = _WALLS[self.wall_class]
        self.tap_count = 0 if self.wall_class is WallClass.FREE_SPACE else TAP_COUNT
        self.image_count = len(self.image_gains)
        self.image_offsets = IMAGE_OFFSETS

    @property
    def ring_delay_step(self):
        """In-wall round-trip delay: 2 * thickness * sqrt(eps_r) / c."""
        return 2.0 * WALL_THICKNESS * np.sqrt(EPSILON_R) / SPEED_OF_LIGHT

    def _jitter(self, eta):
        """Per-realization multiplicative gain and additive delay jitter.

        Deterministic in (seed, eta); realization 0 of the stream is never
        used so free-space stays exactly analytic.
        """
        n_terms = 1 + self.tap_count + self.image_count
        rng = np.random.default_rng([self.seed, int(eta)])
        gains = 1.0 + RELATIVE_SPREAD * rng.standard_normal(n_terms)
        delays = RELATIVE_SPREAD * self.ring_delay_step * rng.standard_normal(n_terms)
        return gains, delays


def _frequency_grid(f):
    """(f0, step, count) of `f`, a scalar or an arithmetic grid along its
    last axis: f[..., k] = f0 + k * step.

    The step is the span over count - 1, which tracks a direct evaluation
    more closely than f[1] - f[0].  A last axis of length 1 (or a scalar)
    is its own start, with no step.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim == 0 or f.shape[-1] <= 1:
        return f, 0.0, 1
    count = f.shape[-1]
    f0 = f[..., :1]
    step = (f[..., -1:] - f0) / (count - 1)
    tol = _GRID_ULPS * np.finfo(float).eps * np.abs(f).max(axis=-1, keepdims=True)
    if not np.all(np.abs(f - (f0 + step * np.arange(count))) <= tol):
        raise ConfigError("frequencies must be a scalar or an arithmetic grid "
                          "along the last axis")
    return f0, step, count


def _phasor(grid, d, gain=1.0):
    """gain * exp(-j 2 pi f d) on a `_frequency_grid`, for delays `d` in
    seconds and gains that broadcast with them.

    Along the grid the phasor is geometric, gain * exp(-j 2 pi f0 d) * z**k
    with z = exp(-j 2 pi step d), so each delay takes two `exp` calls and one
    running product over the frequency axis.  Rows are independent.
    """
    f0, step, count = grid
    d = np.asarray(d, dtype=float)
    start = gain * np.exp(-2j * np.pi * f0 * d)
    if count == 1:
        return start
    if d.ndim and d.shape[-1] != 1:
        raise ConfigError("ranges and delays must not vary along the frequency axis")
    out = np.empty(start.shape[:-1] + (count,), dtype=complex)
    out[..., :1] = start
    out[..., 1:] = np.exp(-2j * np.pi * step * d)
    return np.cumprod(out, axis=-1, out=out)


def channel_response(channel: ChannelModel, rho, f, eta):
    """Complex one-way channel response H at ground range rho and frequency f.

    Free space is exactly exp(-j 2 pi f rho / c) / sqrt(rho); walls add the
    ringing taps and lateral-image terms of the surrogate model.  `rho` and
    `f` broadcast together.  `f` is a scalar or an arithmetic grid along its
    last axis (anything else raises `ConfigError`), along which `rho` must
    be constant; every phasor is a recurrence along that grid (`_phasor`).
    """
    rho = np.asarray(rho, dtype=float)
    grid = _frequency_grid(f)
    if np.any(rho <= 0):
        raise DomainError("ground range rho must be > 0")
    if not (1 <= int(eta) <= channel.realizations):
        raise ConfigError(
            f"realization index {eta} outside 1..{channel.realizations}"
        )
    c = SPEED_OF_LIGHT
    direct = _phasor(grid, rho / c, 1.0 / np.sqrt(rho))
    if channel.wall_class is WallClass.FREE_SPACE:
        return direct
    gains, delays = channel._jitter(eta)
    # a ringing tap is the direct path delayed: direct * g_k exp(-j 2 pi f delay_k)
    taps = channel.direct_gain * gains[0]
    step = channel.ring_delay_step
    for k in range(1, channel.tap_count + 1):
        g = channel.direct_gain * channel.tap_decay ** k * gains[k]
        taps = taps + g * _phasor(grid, k * step + delays[k])
    H = direct * taps
    for m in range(channel.image_count):
        idx = 1 + channel.tap_count + m
        path = np.hypot(rho, 2.0 * channel.image_offsets[m])
        g = channel.image_gains[m] * gains[idx] / np.sqrt(path)
        H = H + _phasor(grid, path / c + delays[idx], g)
    return H
