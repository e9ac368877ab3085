"""SSIM and NMSE, used for every before/after-denoising comparison."""
from __future__ import annotations

import numpy as np

from ._parallel import BLOCK_IMAGES, _map_blocks
from .errors import ConfigError, DomainError

__all__ = ["BLOCK_IMAGES", "columns_to_images",
           "images_to_columns", "nmse", "ssim", "ssim_stack"]

# SSIM's scratch grows with the pixels it scores at once, so a block is
# scored in chunks of at most the pixels of one block of 31 x 31 (frontal)
# images
_SSIM_CHUNK_PIXELS = BLOCK_IMAGES * 31 * 31


# SSIM's Gaussian window (size and sigma in pixels), its stabilizers k1 and
# k2, and the data range of the images
_WINDOW_SIZE = 11
_WINDOW_SIGMA = 1.5
_K1 = 0.01
_K2 = 0.03
_DATA_RANGE = 1.0


def columns_to_images(columns, image_shape):
    """View a P x Q stack of Fortran-order image columns as Q images."""
    rows, cols = image_shape
    return columns.T.reshape(-1, cols, rows).swapaxes(-1, -2)


def images_to_columns(images):
    """Inverse of columns_to_images: N images as a P x N column stack."""
    return images.reshape(images.shape[0], -1, order="F").T


def _window_matrix(n):
    """(n - w + 1) x n banded Toeplitz matrix of the normalized 1-D Gaussian
    taps: M @ x is the `valid` window mean down a length-n axis.  The 2-D
    window is the outer product of the taps, so the local means of an r x c
    image X are _window_matrix(r) @ X @ _window_matrix(c).T."""
    w = _WINDOW_SIZE
    half = (w - 1) / 2.0
    g = np.exp(-0.5 * ((np.arange(w) - half) / _WINDOW_SIGMA) ** 2)
    band = np.zeros((n - w + 1, n))
    rows = np.arange(n - w + 1)[:, None]
    band[rows, rows + np.arange(w)] = g / g.sum()
    return band


def _ssim_images(a, b):
    """Mean SSIM of each image pair along the leading axis of two
    (N, rows, cols) stacks."""
    c1 = (_K1 * _DATA_RANGE) ** 2
    c2 = (_K2 * _DATA_RANGE) ** 2
    n = a.shape[0]
    if min(a.shape[-2:]) < _WINDOW_SIZE:
        a, b = a.reshape(n, -1), b.reshape(n, -1)
        mu_a, mu_b = a.mean(axis=-1), b.mean(axis=-1)
        var_a, var_b = a.var(axis=-1), b.var(axis=-1)
        cov = ((a - mu_a[:, None]) * (b - mu_b[:, None])).mean(axis=-1)
        num, den = np.empty((2, n))
    else:
        # separable window: each local mean is R @ x @ C.T, one GEMM per
        # image and side, so that a stack equals per-image calls
        R = _window_matrix(a.shape[-2])
        Ct = _window_matrix(a.shape[-1]).T.copy()
        buf = np.empty((n, a.shape[-2], Ct.shape[1]))
        stats = np.empty((5, n, R.shape[0], Ct.shape[1]))
        mu_a, mu_b, var_a, var_b, cov = stats

        def local_mean(stack, out):
            np.matmul(stack, Ct, out=buf)
            np.matmul(R, buf, out=out)

        # contiguous copies, as a strided view would take numpy's non-BLAS
        # matmul and round otherwise; they then hold the products in turn
        x, y = np.empty((2,) + a.shape)
        np.copyto(x, a)
        np.copyto(y, b)
        local_mean(x, mu_a)
        local_mean(y, mu_b)
        local_mean(np.multiply(x, y, out=y), cov)
        local_mean(np.multiply(b, b, out=y), var_b)
        local_mean(np.multiply(x, x, out=x), var_a)
        # the working copies are free now and hold the last two maps
        num = x.reshape(-1)[:mu_a.size].reshape(mu_a.shape)
        den = y.reshape(-1)[:mu_a.size].reshape(mu_a.shape)
        var_a -= np.multiply(mu_a, mu_a, out=den)
        var_b -= np.multiply(mu_b, mu_b, out=den)
        cov -= np.multiply(mu_a, mu_b, out=den)
    # SSIM's formula in place, each operation in the formula's order
    np.multiply(mu_a, mu_a, out=den)
    den += np.multiply(mu_b, mu_b, out=num)
    den += c1
    var_a += var_b
    var_a += c2
    den *= var_a
    np.multiply(2, mu_a, out=num)
    num *= mu_b
    num += c1
    cov *= 2
    cov += c2
    num *= cov
    num /= den
    return num.reshape(n, -1).mean(axis=-1)


def ssim(a, b):
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
    return float(_ssim_images(a[None], b[None])[0])


def ssim_stack(stack, ref_stack, image_shape):
    """Column-wise SSIM of two vectorized image stacks; returns the per-column
    array.  Scores BLOCK_IMAGES columns per block (_map_blocks), and at most
    _SSIM_CHUNK_PIXELS pixels per kernel call, which bounds the temporary
    memory of the window products and filtered maps."""
    stack = np.asarray(stack, dtype=float)
    ref_stack = np.asarray(ref_stack, dtype=float)
    if stack.shape != ref_stack.shape:
        raise ConfigError(f"shape mismatch {stack.shape} vs {ref_stack.shape}")
    rows, cols = image_shape
    if rows * cols != stack.shape[0]:
        raise ConfigError("image_shape inconsistent with stack pixel count")
    a = columns_to_images(stack, image_shape)
    b = columns_to_images(ref_stack, image_shape)
    out = np.empty(stack.shape[1])
    chunk = max(1, _SSIM_CHUNK_PIXELS // (rows * cols))

    def score(block):
        start, stop, _ = block.indices(len(out))
        for lo in range(start, stop, chunk):
            part = slice(lo, min(lo + chunk, stop))
            out[part] = _ssim_images(a[part], b[part])

    _map_blocks(score, len(out))
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
