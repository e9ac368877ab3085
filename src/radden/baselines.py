"""Comparison denoisers: truncated-SVD subspace filtering and Haar wavelet
coefficient thresholding."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from ._parallel import _map_blocks

__all__ = [
    "SvdFilterConfig",
    "WaveletFilterConfig",
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


def _denoise_stack(kernel, x, out):
    """kernel over one image, or over an (N, ..., rows, cols) stack one
    BLOCK_IMAGES block per call; the result goes into out if it is given."""
    if out is not None and out.shape != x.shape:
        raise ConfigError(f"out shape {out.shape} != input shape {x.shape}")
    if x.ndim == 2:
        if out is None:
            return kernel(x)
        out[...] = kernel(x)
        return out
    if out is None:
        out = np.empty_like(x)

    def denoise(block):
        out[block] = kernel(x[block])

    _map_blocks(denoise, len(x))
    return out


def svd_denoise(X, cfg: SvdFilterConfig | None = None, out=None):
    """Best low-rank approximation of X, or of each image of an (N, rows,
    cols) stack; the retained rank is either fixed or the smallest one
    holding the configured fraction of squared singular values.  A stack
    is filtered in blocks (_map_blocks); `out`, if given, receives it."""
    cfg = cfg or SvdFilterConfig()
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ConfigError("input contains non-finite entries")
    n = min(X.shape[-2:])
    if cfg.rank is not None and cfg.rank > n:
        raise ConfigError(f"rank {cfg.rank} exceeds min dimension {n}")
    return _denoise_stack(lambda x: _svd_filter(x, cfg), X, out)


def _svd_filter(X, cfg: SvdFilterConfig):
    """svd_denoise's kernel through the eigendecomposition of the Gram matrix
    on X's smaller side: for a tall or square X, X^T X = V diag(s^2) V^T and
    the result is X V_k V_k^T; for a wide X, U_k U_k^T X from X X^T.  The
    eigenvalues, clamped at 0, are the squared singular values and pick the
    rank.  The Gram matrix's memory then holds the projector."""
    wide = X.shape[-2] < X.shape[-1]
    Xt = X.swapaxes(-1, -2)
    G = X @ Xt if wide else Xt @ X
    s2, V = np.linalg.eigh(G)   # ascending, so the top k are the last k
    n = s2.shape[-1]
    if cfg.rank is not None:
        k = cfg.rank
    else:
        np.maximum(s2, 0.0, out=s2)
        energy = np.cumsum(s2[..., ::-1], axis=-1)
        target = cfg.energy_fraction * energy[..., -1:]
        k = np.sum(energy < target, axis=-1, keepdims=True) + 1
    V *= (np.arange(n) >= n - k)[..., None, :]
    np.matmul(V, V.swapaxes(-1, -2), out=G)
    del V
    return G @ X if wide else X @ G


def _pairs(x, axis):
    """Views of the even and the odd samples of x along a negative axis."""
    rest = (slice(None),) * (-1 - axis)
    return x[(..., slice(0, None, 2)) + rest], x[(..., slice(1, None, 2)) + rest]


def _halves(x, axis):
    """Views of the first and the second half of x along a negative axis."""
    half, rest = x.shape[axis] // 2, (slice(None),) * (-1 - axis)
    return x[(..., slice(None, half)) + rest], x[(..., slice(half, None)) + rest]


def _butterfly(p, q, total, difference):
    np.add(p, q, out=total)
    total /= _SQRT2
    np.subtract(p, q, out=difference)
    difference /= _SQRT2


def _haar_fwd_1d(x, axis, out):
    """Haar averages of x's sample pairs along a negative axis into the
    first half of out along it, and their differences into the second."""
    _butterfly(*_pairs(x, axis), *_halves(out, axis))


def _haar_inv_1d(x, axis, out):
    """Inverse of _haar_fwd_1d: the two halves of x along a negative axis
    synthesize the even and the odd samples of out."""
    _butterfly(*_halves(x, axis), *_pairs(out, axis))


def _analyze(coef, levels, work):
    """Haar analysis of coef in place; work is working space of its shape."""
    r, c = coef.shape[-2:]
    for _ in range(levels):
        _haar_fwd_1d(coef[..., :r, :c], -2, work[..., :r, :c])
        _haar_fwd_1d(work[..., :r, :c], -1, coef[..., :r, :c])
        r //= 2
        c //= 2


def _synthesize(coef, levels, work):
    """Inverse of _analyze, in place."""
    rows, cols = coef.shape[-2:]
    for level in reversed(range(levels)):
        r, c = rows >> level, cols >> level
        _haar_inv_1d(coef[..., :r, :c], -1, work[..., :r, :c])
        _haar_inv_1d(work[..., :r, :c], -2, coef[..., :r, :c])


def wavelet_denoise(img, cfg: WaveletFilterConfig | None = None, out=None):
    """Keep the top keep_fraction of Haar coefficients by magnitude, zero the
    rest, and synthesize; each image of an (N, rows, cols) stack has its own
    cut-off.  Non-divisible sizes are padded reflectively.  A stack is
    filtered in blocks (_map_blocks); `out`, if given, receives the result."""
    cfg = cfg or WaveletFilterConfig()
    img = np.asarray(img, dtype=float)
    rows, cols = img.shape[-2:]
    if cfg.levels > int(np.log2(min(rows, cols))):
        raise ConfigError(f"too many levels {cfg.levels} for image {img.shape[-2:]}")
    return _denoise_stack(lambda x: _wavelet_filter(x, cfg), img, out)


def _wavelet_filter(img, cfg: WaveletFilterConfig):
    rows, cols = img.shape[-2:]
    n = 2 ** cfg.levels
    pad = [(0, 0)] * (img.ndim - 2) + [(0, (-rows) % n), (0, (-cols) % n)]
    coef = np.pad(img, pad, mode="reflect")
    work = np.empty_like(coef)
    _analyze(coef, cfg.levels, work)
    size = coef.shape[-2] * coef.shape[-1]
    keep = max(1, int(np.ceil(cfg.keep_fraction * size)))
    if keep < size:
        # the cut-off partitions the magnitudes in work, which then holds
        # them again, unpartitioned, for the mask
        flat = np.abs(coef, out=work).reshape(*coef.shape[:-2], size)
        flat.partition(size - keep, axis=-1)
        cutoff = flat[..., size - keep, None, None].copy()
        coef[~(np.abs(coef, out=work) >= cutoff)] = 0.0
    _synthesize(coef, cfg.levels, work)
    return coef[..., :rows, :cols]
