"""SSIM and NMSE, used for every before/after-denoising comparison."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

__all__ = ["BLOCK_IMAGES", "SsimParams", "columns_to_images",
           "images_to_columns", "nmse", "ssim", "ssim_stack"]

# Images per stack call in scoring and the baselines.  It bounds the scratch
# stacks of each call: the SVD and wavelet working copies, and SSIM's
# contiguous inputs, window products and five filtered maps.
BLOCK_IMAGES = 128


@dataclass
class SsimParams:
    window_size: int = 11
    window_sigma: float = 1.5
    k1: float = 0.01
    k2: float = 0.03
    data_range: float = 1.0

    def __post_init__(self):
        if self.k1 <= 0 or self.k2 <= 0:
            raise ConfigError("stabilizers k1, k2 must be > 0")
        if self.window_size < 1 or self.window_sigma <= 0:
            raise ConfigError("invalid window")
        if not self.data_range > 0:
            raise ConfigError("data_range must be > 0")


def columns_to_images(columns, image_shape):
    """View a P x Q stack of Fortran-order image columns as Q images."""
    rows, cols = image_shape
    return columns.T.reshape(-1, cols, rows).swapaxes(-1, -2)


def images_to_columns(images):
    """Inverse of columns_to_images: N images as a P x N column stack."""
    return images.reshape(images.shape[0], -1, order="F").T


def _window_matrix(n, params: SsimParams):
    """(n - w + 1) x n banded Toeplitz matrix of the normalized 1-D Gaussian
    taps: M @ x is the `valid` window mean down a length-n axis.  The 2-D
    window is the outer product of the taps, so the local means of an r x c
    image X are _window_matrix(r) @ X @ _window_matrix(c).T."""
    w = params.window_size
    half = (w - 1) / 2.0
    g = np.exp(-0.5 * ((np.arange(w) - half) / params.window_sigma) ** 2)
    band = np.zeros((n - w + 1, n))
    rows = np.arange(n - w + 1)[:, None]
    band[rows, rows + np.arange(w)] = g / g.sum()
    return band


def _ssim_images(a, b, params: SsimParams):
    """Mean SSIM of each image pair along the leading axis of two
    (N, rows, cols) stacks."""
    c1 = (params.k1 * params.data_range) ** 2
    c2 = (params.k2 * params.data_range) ** 2
    n = a.shape[0]
    if min(a.shape[-2:]) < params.window_size:
        a, b = a.reshape(n, -1), b.reshape(n, -1)
        mu_a, mu_b = a.mean(axis=-1), b.mean(axis=-1)
        var_a, var_b = a.var(axis=-1), b.var(axis=-1)
        cov = ((a - mu_a[:, None]) * (b - mu_b[:, None])).mean(axis=-1)
    else:
        # separable window: each local mean is R @ x @ C.T, two GEMMs per
        # image; one GEMM per image keeps a stack equal to per-image calls
        R = _window_matrix(a.shape[-2], params)
        Ct = _window_matrix(a.shape[-1], params).T.copy()
        buf = np.empty((n, a.shape[-2], Ct.shape[1]))
        stats = np.empty((5, n, R.shape[0], Ct.shape[1]))
        mu_a, mu_b, aa, bb, ab = stats

        def local_mean(x, out):
            np.matmul(x, Ct, out=buf)
            np.matmul(R, buf, out=out)

        # a strided stack view would take numpy's non-BLAS matmul loop,
        # which rounds differently from the per-image call
        a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
        prod = np.empty_like(a)
        local_mean(a, mu_a)
        local_mean(b, mu_b)
        local_mean(np.multiply(a, a, out=prod), aa)
        local_mean(np.multiply(b, b, out=prod), bb)
        local_mean(np.multiply(a, b, out=prod), ab)
        var_a = aa - mu_a * mu_a
        var_b = bb - mu_b * mu_b
        cov = ab - mu_a * mu_b
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return (num / den).reshape(n, -1).mean(axis=-1)


def ssim(a, b, params: SsimParams | None = None):
    """Mean structural similarity between two images in [0, 1].

    Local Gaussian-window statistics when the image fits the window, a single
    global-statistics comparison otherwise (small frontal-style images stay
    well defined).  Symmetric in its arguments; 1.0 for identical images.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ConfigError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.ndim == 1:
        a = a[:, None]
        b = b[:, None]
    return float(_ssim_images(a[None], b[None], params or SsimParams())[0])


def ssim_stack(stack, ref_stack, image_shape, params: SsimParams | None = None):
    """Column-wise SSIM of two vectorized image stacks; returns the per-column
    array.  Scores BLOCK_IMAGES columns per call, which bounds the scratch
    memory of the window products and filtered maps."""
    stack = np.asarray(stack, dtype=float)
    ref_stack = np.asarray(ref_stack, dtype=float)
    if stack.shape != ref_stack.shape:
        raise ConfigError(f"shape mismatch {stack.shape} vs {ref_stack.shape}")
    rows, cols = image_shape
    if rows * cols != stack.shape[0]:
        raise ConfigError("image_shape inconsistent with stack pixel count")
    params = params or SsimParams()
    a = columns_to_images(stack, image_shape)
    b = columns_to_images(ref_stack, image_shape)
    out = np.empty(stack.shape[1])
    for start in range(0, len(out), BLOCK_IMAGES):
        block = slice(start, start + BLOCK_IMAGES)
        out[block] = _ssim_images(a[block], b[block], params)
    return out


def nmse(a, ref):
    """||a - ref||_F^2 / ||ref||_F^2."""
    a = np.asarray(a, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if a.shape != ref.shape:
        raise ConfigError(f"shape mismatch {a.shape} vs {ref.shape}")
    denom = float(np.sum(ref * ref))
    if denom == 0.0:
        raise DomainError("reference has zero energy")
    diff = a - ref
    return float(np.sum(diff * diff)) / denom
