"""Correctness checks on the outputs of a benchmark operation.

Each check recomputes what the program should have produced with code of its
own (plain numpy, no radden import) or tests a property the README promises,
and raises CheckFailed with a reason when the output disagrees.  None of them
compares against a stored copy of an earlier output.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class CheckFailed(AssertionError):
    """An output of the program disagrees with its independent check."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _activate(kind, v):
    if kind == "linear":
        return v
    if kind == "tanh":
        return np.tanh(v)
    return 1.0 / (1.0 + np.exp(-v))


def check_infer(weights, corrupt, denoised):
    """`infer` output equals the explicit composition of the returned weight
    matrices, clipped to [0, 1]."""
    M = weights.matrices
    kind = weights.activation.kind
    if weights.variant == "stacked_sdae":
        h = corrupt
        for name in ("W11", "W12", "W21"):
            h = _activate(kind, M[name] @ h)
        expected = M["W22"] @ h
    else:
        expected = M["W2"] @ _activate(kind, M["W1"] @ corrupt)
    expected = np.clip(expected, 0.0, 1.0)
    err = float(np.max(np.abs(np.asarray(denoised) - expected)))
    require(err <= 1e-9, f"{weights.variant}: infer differs from the "
                          f"composition of its weights by {err:.3g}")


def check_objective_trace(name, objectives, scale):
    """Every objective trace is finite and non-increasing.

    A step may rise by the acceptance suite's 1e-8 of the previous value, or
    by 1e-12 of `scale` (the clean training energy ||X||_F^2): a model that
    interpolates its training set reaches an objective near 1e-14, and the
    trace then moves by rounding alone.
    """
    objs = np.asarray(objectives, dtype=float)
    require(objs.size >= 1, f"{name}: empty objective trace")
    require(bool(np.all(np.isfinite(objs))),
            f"{name}: non-finite objective trace {objs.tolist()}")
    rises = objs[1:] - objs[:-1]
    bad = np.nonzero(rises > 1e-8 * np.abs(objs[:-1]) + 1e-12 * scale)[0]
    require(bad.size == 0, f"{name}: objective rose at outer iterations "
                           f"{(bad + 1).tolist()}: {objs.tolist()}")


def gaussian_ssim(a, b, size=11, sigma=1.5, k1=0.01, k2=0.03, data_range=1.0):
    """Mean SSIM of two images by explicit sliding windows (no FFT).

    Images smaller than the window fall back to one global comparison, as the
    README specifies for small frontal-style images.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2
    if min(a.shape) < size:
        mu_a, mu_b = a.mean(), b.mean()
        var_a, var_b = a.var(), b.var()
        cov = np.mean((a - mu_a) * (b - mu_b))
    else:
        g = np.exp(-0.5 * ((np.arange(size) - (size - 1) / 2.0) / sigma) ** 2)
        w = np.outer(g, g)
        w /= w.sum()

        def local_mean(img):
            return np.einsum("ijkl,kl->ij", sliding_window_view(img, w.shape), w)

        mu_a, mu_b = local_mean(a), local_mean(b)
        var_a = local_mean(a * a) - mu_a ** 2
        var_b = local_mean(b * b) - mu_b ** 2
        cov = local_mean(a * b) - mu_a * mu_b
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def check_ssim(values, stack, ref, shape, columns):
    """On the sampled columns, `ssim_stack` agrees with `gaussian_ssim`."""
    for q in columns:
        mine = gaussian_ssim(stack[:, q].reshape(shape, order="F"),
                             ref[:, q].reshape(shape, order="F"))
        require(abs(values[q] - mine) <= 1e-7,
                f"ssim_stack column {q}: {values[q]!r} vs independent {mine!r}")


def check_nmse(value, stack, ref):
    """The reported mean NMSE is the mean over columns of
    ||column - reference||^2 / ||reference||^2."""
    mine = float(np.mean(np.sum((stack - ref) ** 2, axis=0)
                         / np.sum(ref ** 2, axis=0)))
    require(abs(value - mine) <= 1e-9 * abs(mine),
            f"mean NMSE {value!r} vs independent {mine!r}")


def check_svd(image, raw, output, energy_fraction):
    """`svd_denoise` meets Eckart-Young against numpy.linalg.svd.

    `raw` is svd_denoise(image); `output` is the column the operation
    produced from the same image, which is `raw` clipped to [0, 1].  The
    retained rank k is the smallest holding `energy_fraction` of the squared
    singular values, `raw` has rank at most k, and its squared error equals
    the energy of the discarded singular values, the Eckart-Young minimum.
    """
    s = np.linalg.svd(image, compute_uv=False)
    energy = np.cumsum(s * s)
    target = energy_fraction * energy[-1]
    s_raw = np.linalg.svd(raw, compute_uv=False)
    k = int(np.sum(s_raw > 1e-9 * s[0]))
    require(k >= 1 and energy[k - 1] >= target * (1 - 1e-12),
            f"svd kept rank {k}, which holds less than {energy_fraction} "
            f"of the energy")
    require(k == 1 or energy[k - 2] < target * (1 + 1e-12),
            f"svd kept rank {k}, but rank {k - 1} already holds "
            f"{energy_fraction} of the energy")
    tail = float(energy[-1] - energy[k - 1])
    err = float(np.sum((image - raw) ** 2))
    require(abs(err - tail) <= 1e-9 * float(energy[-1]),
            f"svd error {err!r} is not the rank-{k} Eckart-Young minimum {tail!r}")
    diff = float(np.max(np.abs(np.clip(raw, 0.0, 1.0) - output)))
    require(diff <= 1e-12, f"svd column differs from its denoised image by {diff:.3g}")


def _haar_matrix(n):
    """One level of the orthonormal Haar transform: sums on top, differences below."""
    H = np.zeros((n, n))
    i = np.arange(n // 2)
    H[i, 2 * i] = H[i, 2 * i + 1] = np.sqrt(0.5)
    H[n // 2 + i, 2 * i] = np.sqrt(0.5)
    H[n // 2 + i, 2 * i + 1] = -np.sqrt(0.5)
    return H


def haar_threshold(image, levels, keep_fraction):
    """Orthonormal Haar thresholding by explicit transform matrices.

    Returns (denoised image, slack): slack bounds how much the result may
    differ from another correct implementation because of coefficients whose
    magnitude ties the cut-off to within rounding.
    """
    rows, cols = image.shape
    n = 2 ** levels
    padded = np.pad(image, ((0, (-rows) % n), (0, (-cols) % n)), mode="reflect")
    coef = padded.copy()
    r, c = padded.shape
    bases = []
    for _ in range(levels):
        Hr, Hc = _haar_matrix(r), _haar_matrix(c)
        coef[:r, :c] = Hr @ coef[:r, :c] @ Hc.T
        bases.append((r, c, Hr, Hc))
        r //= 2
        c //= 2
    mags = np.abs(coef).ravel()
    keep = max(1, int(np.ceil(keep_fraction * mags.size)))
    slack = 0.0
    if keep < mags.size:
        cutoff = np.sort(mags)[mags.size - keep]
        near = np.abs(mags - cutoff) <= 1e-9 * max(cutoff, 1e-300)
        slack = float(np.sum(mags[near]))
        coef = np.where(np.abs(coef) >= cutoff, coef, 0.0)
    for r, c, Hr, Hc in reversed(bases):
        coef[:r, :c] = Hr.T @ coef[:r, :c] @ Hc
    return coef[:rows, :cols], slack


def check_wavelet(image, output, levels, keep_fraction):
    """The denoised column agrees with independent Haar thresholding, clipped
    to [0, 1]."""
    expected, slack = haar_threshold(image, levels, keep_fraction)
    diff = float(np.max(np.abs(np.clip(expected, 0.0, 1.0) - output)))
    require(diff <= 1e-9 + slack,
            f"wavelet output differs from Haar thresholding by {diff:.3g}")


def check_denoises(name, ssim_ad, ssim_bd):
    """An autoencoder's mean SSIM after denoising exceeds the corrupt input's."""
    require(ssim_ad > ssim_bd,
            f"{name}: SSIM after denoising {ssim_ad:.4f} does not exceed "
            f"the corrupt input's {ssim_bd:.4f}")
