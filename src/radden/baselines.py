"""Comparison denoisers: truncated-SVD subspace filtering and Haar wavelet
coefficient thresholding."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "SvdFilterConfig",
    "WaveletFilterConfig",
    "haar_analysis",
    "haar_synthesis",
    "svd_denoise",
    "wavelet_denoise",
]

_SQRT2 = np.sqrt(2.0)


@dataclass
class SvdFilterConfig:
    rank: int | None = None
    energy_fraction: float | None = None  # smallest rank capturing this spectral energy

    def __post_init__(self):
        if self.rank is not None and self.energy_fraction is not None:
            raise ConfigError("choose either rank or energy_fraction, not both")
        if self.rank is None and self.energy_fraction is None:
            self.energy_fraction = 0.95
        if self.rank is not None and self.rank < 1:
            raise ConfigError("rank must be >= 1")
        if self.energy_fraction is not None and not (0.0 < self.energy_fraction <= 1.0):
            raise ConfigError("energy_fraction must lie in (0, 1]")


@dataclass
class WaveletFilterConfig:
    levels: int = 2
    keep_fraction: float = 0.1  # fraction of largest-magnitude coefficients retained

    def __post_init__(self):
        if self.levels < 1:
            raise ConfigError("levels must be >= 1")
        if not (0.0 < self.keep_fraction <= 1.0):
            raise ConfigError("keep_fraction must lie in (0, 1]")


def svd_denoise(X, cfg: SvdFilterConfig | None = None):
    """Best low-rank approximation of X, or of each image of an (N, rows,
    cols) stack; the retained rank is either fixed or the smallest one
    holding the configured fraction of squared singular values."""
    cfg = cfg or SvdFilterConfig()
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ConfigError("input contains non-finite entries")
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    n = s.shape[-1]
    if cfg.rank is not None:
        if cfg.rank > n:
            raise ConfigError(f"rank {cfg.rank} exceeds min dimension {n}")
        k = cfg.rank
    else:
        energy = np.cumsum(s * s, axis=-1)
        target = cfg.energy_fraction * energy[..., -1:]
        k = np.sum(energy < target, axis=-1, keepdims=True) + 1
    kept = np.where(np.arange(n) < k, s, 0.0)
    return (U * kept[..., None, :]) @ Vt


def _haar_fwd_1d(x, axis):
    a = np.take(x, range(0, x.shape[axis], 2), axis=axis)
    b = np.take(x, range(1, x.shape[axis], 2), axis=axis)
    return (a + b) / _SQRT2, (a - b) / _SQRT2


def _haar_inv_1d(lo, hi, axis):
    """Interleave the synthesized even and odd samples along a negative axis."""
    out_shape = list(lo.shape)
    out_shape[axis] *= 2
    return np.stack([(lo + hi) / _SQRT2, (lo - hi) / _SQRT2],
                    axis=axis).reshape(out_shape)


def _check_divisible(x, levels):
    n = 2 ** levels
    if x.shape[-2] % n or x.shape[-1] % n:
        raise ConfigError(f"dimensions {x.shape[-2:]} not divisible by 2^{levels}")


def haar_analysis(img, levels):
    """Orthonormal 2-D Haar transform over the last two axes, coefficients in
    quadrant (Mallat) layout.

    Both image dimensions must be divisible by 2**levels.
    """
    img = np.asarray(img, dtype=float)
    _check_divisible(img, levels)
    coef = img.copy()
    r, c = img.shape[-2:]
    for _ in range(levels):
        lo_r, hi_r = _haar_fwd_1d(coef[..., :r, :c], axis=-2)
        stacked = np.concatenate([lo_r, hi_r], axis=-2)
        lo_c, hi_c = _haar_fwd_1d(stacked, axis=-1)
        coef[..., :r, :c] = np.concatenate([lo_c, hi_c], axis=-1)
        r //= 2
        c //= 2
    return coef


def haar_synthesis(coef, levels):
    coef = np.asarray(coef, dtype=float)
    _check_divisible(coef, levels)
    out = coef.copy()
    rows, cols = coef.shape[-2:]
    for level in reversed(range(levels)):
        r, c = rows >> level, cols >> level
        block = out[..., :r, :c]
        stacked = _haar_inv_1d(block[..., : c // 2], block[..., c // 2:], axis=-1)
        out[..., :r, :c] = _haar_inv_1d(stacked[..., : r // 2, :],
                                        stacked[..., r // 2:, :], axis=-2)
    return out


def wavelet_denoise(img, cfg: WaveletFilterConfig | None = None):
    """Keep the top keep_fraction of Haar coefficients by magnitude, zero the
    rest, and synthesize; each image of an (N, rows, cols) stack has its own
    cut-off.  Non-divisible sizes are padded reflectively."""
    cfg = cfg or WaveletFilterConfig()
    img = np.asarray(img, dtype=float)
    rows, cols = img.shape[-2:]
    n = 2 ** cfg.levels
    if cfg.levels > int(np.log2(min(rows, cols))):
        raise ConfigError(f"too many levels {cfg.levels} for image {img.shape[-2:]}")
    pad = [(0, 0)] * (img.ndim - 2) + [(0, (-rows) % n), (0, (-cols) % n)]
    coef = haar_analysis(np.pad(img, pad, mode="reflect"), cfg.levels)
    size = coef.shape[-2] * coef.shape[-1]
    keep = max(1, int(np.ceil(cfg.keep_fraction * size)))
    if keep < size:
        mags = np.abs(coef)
        flat = mags.reshape(*coef.shape[:-2], size)
        cutoff = np.partition(flat, size - keep, axis=-1)[..., size - keep]
        coef = np.where(mags >= cutoff[..., None, None], coef, 0.0)
    out = haar_synthesis(coef, cfg.levels)
    return out[..., :rows, :cols]
