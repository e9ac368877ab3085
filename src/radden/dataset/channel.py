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


# per-class defaults: direct-path gain, ringing decay, image-reflection gains
_CLASS_DEFAULTS = {
    WallClass.FREE_SPACE: dict(direct_gain=1.0, tap_decay=0.0, image_gains=()),
    WallClass.LOW_CONDUCTIVITY: dict(direct_gain=0.35, tap_decay=0.55,
                                     image_gains=(0.15, 0.08)),
    WallClass.MEDIUM_CONDUCTIVITY: dict(direct_gain=0.05, tap_decay=0.3,
                                        image_gains=(0.55, 0.35)),
    WallClass.HIGH_CONDUCTIVITY: dict(direct_gain=0.0, tap_decay=0.0,
                                      image_gains=(0.85, 0.5)),
}


@dataclass
class ChannelModel:
    wall_class: WallClass = WallClass.FREE_SPACE
    epsilon_r: float = 4.0
    relative_spread: float = 0.3
    tap_count: int = 4
    image_count: int = 2
    realizations: int = 1
    seed: int = 0
    wall_thickness: float = 0.2
    image_offsets: tuple[float, ...] = (1.0, 2.0)  # lateral wall distances, m
    # explicit overrides; None picks the wall-class default
    direct_gain: float | None = None
    tap_decay: float | None = None
    image_gains: tuple[float, ...] | None = None

    def __post_init__(self):
        if isinstance(self.wall_class, str):
            self.wall_class = WallClass(self.wall_class)
        if self.realizations < 1:
            raise ConfigError("realization count M must be >= 1")
        if self.relative_spread < 0:
            raise ConfigError("relative_spread must be >= 0")
        defaults = _CLASS_DEFAULTS[self.wall_class]
        if self.direct_gain is None:
            self.direct_gain = defaults["direct_gain"]
        if self.tap_decay is None:
            self.tap_decay = defaults["tap_decay"]
        if self.image_gains is None:
            self.image_gains = defaults["image_gains"]
        if self.wall_class is WallClass.FREE_SPACE:
            self.tap_count = 0
            self.image_count = 0
        self.image_count = min(self.image_count, len(self.image_gains),
                               len(self.image_offsets))
        if self.wall_class is WallClass.LOW_CONDUCTIVITY and self.tap_count < 1:
            raise ConfigError("low-conductivity walls need at least one ringing tap")

    @property
    def ring_delay_step(self):
        """In-wall round-trip delay: 2 * thickness * sqrt(eps_r) / c."""
        return 2.0 * self.wall_thickness * np.sqrt(self.epsilon_r) / SPEED_OF_LIGHT

    def _jitter(self, eta):
        """Per-realization multiplicative gain and additive delay jitter.

        Deterministic in (seed, eta); realization 0 of the stream is never
        used so free-space stays exactly analytic.
        """
        n_terms = 1 + self.tap_count + self.image_count
        rng = np.random.default_rng([self.seed, int(eta)])
        gains = 1.0 + self.relative_spread * rng.standard_normal(n_terms)
        delays = self.relative_spread * self.ring_delay_step * rng.standard_normal(n_terms)
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
