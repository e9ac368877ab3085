"""Corruption operators on normalized image stacks: additive noise, discrete
point clutter, and label-mismatch shuffling."""
from __future__ import annotations

import numpy as np

from ..errors import ConfigError, DomainError
from .stack_io import ImageStack, columns_to_images

__all__ = [
    "add_noise",
    "add_point_clutter",
    "shuffle_labels",
    "signal_reference",
]


def signal_reference(stack: ImageStack):
    """Mean power of the nonzero pixels: the SNR/SCR reference level."""
    above = stack.data[stack.data > 0.0]
    if above.size == 0:
        return 0.0
    return float(np.mean(above ** 2))


def add_noise(stack: ImageStack, snr_db, seed, signal_ref=None):
    """Per-pixel additive Gaussian noise of variance N_p, with
    10 log10(signal_ref / N_p) = snr_db, re-clamped to [0, 1].  snr_db =
    +inf is the no-noise sentinel, and -inf, nan or None raise DomainError;
    deterministic under the seed."""
    if snr_db == np.inf:
        return stack.copy()
    if snr_db is None or not np.isfinite(snr_db):
        raise DomainError(f"snr_db must be finite or inf, got {snr_db}")
    if signal_ref is None:
        signal_ref = signal_reference(stack)
    n_p = signal_ref * 10.0 ** (-snr_db / 10.0)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, np.sqrt(n_p), size=stack.data.shape)
    out = np.empty_like(stack.data)   # in the input's memory order
    np.add(stack.data, noise, out=out)
    return stack.copy(data=np.clip(out, 0.0, 1.0, out=out))


CLUTTER_CELLS = 84  # candidate clutter sites per image
CLUTTER_PFA = 0.06  # default site rate, about 5 of the 84 cells


def _cell_grid(rows, cols):
    """Split the image into exactly `CLUTTER_CELLS` rectangular cells,
    choosing the divisor pair closest to the image aspect ratio."""
    best = None
    for gr in range(1, CLUTTER_CELLS + 1):
        if CLUTTER_CELLS % gr:
            continue
        gc = CLUTTER_CELLS // gr
        score = abs(np.log((gr / gc) * (cols / rows)))
        if best is None or score < best[0]:
            best = (score, gr, gc)
    _, gr, gc = best
    if rows < gr or cols < gc:
        raise ConfigError(f"{rows}x{cols} images do not fit {gr}x{gc} cells")
    r_edges = np.linspace(0, rows, gr + 1).astype(int)
    c_edges = np.linspace(0, cols, gc + 1).astype(int)
    return r_edges, c_edges


def add_point_clutter(stack: ImageStack, scr_db, pfa, seed, signal_ref=None):
    """Discrete point clutter: each of the `CLUTTER_CELLS` coarse-grid cells
    of each image independently hosts a clutter site with probability pfa.

    Site amplitudes are complex, uniform phase, Rayleigh magnitude with mean
    square power set by scr_db against the reference level; each site lights a
    uniform pixel of its cell via a complex sum with the signal, magnitude
    re-clamped.  One batched draw: hit mask, rows, columns, magnitudes, phases.
    """
    if not (0.0 <= pfa <= 1.0):
        raise ConfigError("pfa must lie in [0, 1]")
    out = stack.data.copy(order="K")   # in the input's memory order
    if pfa == 0.0:
        return stack.copy(data=out)
    if signal_ref is None:
        signal_ref = signal_reference(stack)
    rayleigh_scale = np.sqrt(signal_ref * 10.0 ** (-scr_db / 10.0) / 2.0)
    r_edges, c_edges = _cell_grid(*stack.image_shape)
    rng = np.random.default_rng(seed)
    hits = rng.random((stack.count, len(r_edges) - 1, len(c_edges) - 1)) < pfa
    img, i, j = np.nonzero(hits)
    r = rng.integers(r_edges[i], r_edges[i + 1])
    c = rng.integers(c_edges[j], c_edges[j + 1])
    mag = rng.rayleigh(rayleigh_scale, size=img.size)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=img.size)
    images = columns_to_images(out, stack.image_shape)   # a view into out
    images[img, r, c] = np.abs(images[img, r, c] + mag * np.exp(1j * phase))
    return stack.copy(data=np.clip(out, 0.0, 1.0, out=out))


def _derangement(rng, k):
    idx = np.arange(k)
    while True:
        perm = rng.permutation(k)
        if not np.any(perm == idx):
            return perm


def shuffle_labels(stack: ImageStack, mismatch_fraction, seed):
    """Break the clean/corrupt pairing for a fraction of the training columns.

    Deranges floor(fraction * Q) randomly chosen columns so none keeps its
    partner.  A single selected column is left untouched (no derangement of
    size one exists).
    """
    if not (0.0 <= mismatch_fraction <= 1.0):
        raise ConfigError("mismatch fraction must lie in [0, 1]")
    out = stack.copy()
    Q = stack.count
    k = int(np.floor(mismatch_fraction * Q))
    if k < 2:
        return out
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(Q, size=k, replace=False))
    perm = _derangement(rng, k)
    out.data[:, chosen] = stack.data[:, chosen[perm]]
    return out
