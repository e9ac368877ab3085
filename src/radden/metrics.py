"""SSIM and NMSE, used for every before/after-denoising comparison."""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigError, DomainError

__all__ = ["BLOCK_IMAGES", "columns_to_images",
           "images_to_columns", "nmse", "ssim", "ssim_stack"]

# Images per stack call in scoring and the baselines, and the unit of work
# that _map_blocks hands to a thread.  It bounds the temporary stacks of each
# call: the SVD and wavelet working copies, and SSIM's contiguous inputs,
# window products and filtered maps.
BLOCK_IMAGES = 128
# SSIM's scratch grows with the pixels it scores at once, so a block is
# scored in chunks of at most the pixels of one block of 31 x 31 (frontal)
# images
_SSIM_CHUNK_PIXELS = BLOCK_IMAGES * 31 * 31


def _core_count():
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _blas_thread_functions():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None.

    numpy's wheels link OpenBLAS into `_multiarray_umath`, and its handle
    finds the library's symbols: `scipy_openblas_*_num_threads64_` in numpy 2
    wheels, the plain `openblas_*_num_threads` in older ones."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:   # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
        get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = (), ctypes.c_int
            set_.argtypes, set_.restype = (ctypes.c_int,), None
            return get, set_
    return None


# the open _one_blas_thread blocks of all threads, and the thread count and
# setter that the last of them to close restores
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_threads, _pin_set = 1, None


@contextlib.contextmanager
def _one_blas_thread(functions):
    """This process's BLAS on one thread for the block, through `functions`,
    a (get, set) pair from _blas_thread_functions.  Yields the thread count
    the process had before; yields 1 and changes nothing when `functions`
    is None.

    The count is process-wide, so the blocks of all threads share one pin:
    the first to open sets 1 and the last to close restores the count, and
    blocks opened in between, nested or on other threads, set nothing and
    yield the count the first one found."""
    global _pin_depth, _pin_threads, _pin_set
    with _pin_lock:
        if _pin_depth == 0:
            _pin_threads, _pin_set = 1, None
            if functions is not None:
                get, _pin_set = functions
                _pin_threads = get()
                _pin_set(1)
        _pin_depth += 1
        threads = _pin_threads
    try:
        yield threads
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0 and _pin_set is not None:
                _pin_set(_pin_threads)


def _map_blocks(fn, count):
    """Call fn(block) for every BLOCK_IMAGES slice of range(count).

    The calling thread and one pool thread per further core take blocks in
    turn until none is left; fn must write only its own block's outputs.  The
    pool is created and shut down inside the call, so no thread outlives it
    (a forked process-pool child inherits none).  fn runs on pool threads, so
    it must call only private kernels: the benchmark's tracer keeps one span
    stack and wraps the public entry points.

    Every block runs with BLAS on one thread (_one_blas_thread), pooled or
    not, and the call restores the thread count on exit, also when a block
    raises.  These kernels' small GEMMs and factorizations gain nothing from
    BLAS threads, and threads of both kinds would oversubscribe the cores.
    They round alike at one BLAS thread and at more, so a stack's outputs
    stay bitwise equal to one call per image at the process's count (the
    tests check both where this pin changes the count and where it is 1).
    """
    blocks = iter([slice(start, start + BLOCK_IMAGES)
                   for start in range(0, count, BLOCK_IMAGES)])
    workers = min(_core_count(), -(-count // BLOCK_IMAGES)) - 1
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                block = next(blocks, None)
            if block is None:
                return
            fn(block)

    with _one_blas_thread(_blas_thread_functions()):
        if workers < 1:
            drain()
            return
        with ThreadPoolExecutor(max_workers=workers) as pool:
            shares = [pool.submit(drain) for _ in range(workers)]
            drain()
            for share in shares:
                share.result()


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
        # separable window: each local mean is R @ x @ C.T, two GEMMs per
        # image; one GEMM per image keeps a stack equal to per-image calls
        R = _window_matrix(a.shape[-2])
        Ct = _window_matrix(a.shape[-1]).T.copy()
        buf = np.empty((n, a.shape[-2], Ct.shape[1]))
        stats = np.empty((5, n, R.shape[0], Ct.shape[1]))
        mu_a, mu_b, var_a, var_b, cov = stats

        def local_mean(stack, out):
            np.matmul(stack, Ct, out=buf)
            np.matmul(R, buf, out=out)

        # a strided stack view would take numpy's non-BLAS matmul loop,
        # which rounds differently from the per-image call: x and y are
        # contiguous copies of a and b, then hold the products in turn
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
    # (2 mu_a mu_b + c1)(2 cov + c2) / ((mu_a^2 + mu_b^2 + c1)(var_a + var_b
    # + c2)) in place, each operation in the order of that formula
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
    array.  Scores BLOCK_IMAGES columns per block on every core (_map_blocks),
    and at most _SSIM_CHUNK_PIXELS pixels per kernel call, which bounds the
    temporary memory of the window products and filtered maps."""
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
