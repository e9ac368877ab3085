"""Corruption operators on normalized image stacks: additive noise, discrete
point clutter, and label-mismatch shuffling."""
from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .stack_io import ImageStack

__all__ = [
    "add_noise",
    "add_point_clutter",
    "noise_power_for",
    "shuffle_labels",
    "signal_reference",
]


def signal_reference(stack, floor=0.0):
    """Mean power of the above-floor pixels: the SNR/SCR reference level."""
    data = stack.data if isinstance(stack, ImageStack) else np.asarray(stack)
    above = data[data > floor]
    if above.size == 0:
        return 0.0
    return float(np.mean(above ** 2))


def noise_power_for(stack, snr_db, signal_ref=None):
    """Noise variance N_p so that 10 log10(signal_ref / N_p) = snr_db."""
    if signal_ref is None:
        signal_ref = signal_reference(stack)
    return signal_ref * 10.0 ** (-snr_db / 10.0)


def add_noise(stack: ImageStack, snr_db, seed, signal_ref=None):
    """Per-pixel additive Gaussian noise at the requested SNR, re-clamped to
    [0, 1].  An infinite snr_db is the no-noise sentinel; deterministic under
    the seed."""
    if snr_db is None or np.isinf(snr_db):
        return stack.copy()
    n_p = noise_power_for(stack, snr_db, signal_ref)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, np.sqrt(n_p), size=stack.data.shape)
    return stack.copy(data=np.clip(stack.data + noise, 0.0, 1.0))


CLUTTER_CELLS = 84  # candidate clutter sites per image


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
    r_edges = np.linspace(0, rows, gr + 1).astype(int)
    c_edges = np.linspace(0, cols, gc + 1).astype(int)
    return r_edges, c_edges


def add_point_clutter(stack: ImageStack, scr_db, pfa, seed, signal_ref=None):
    """Discrete point clutter: each of the `CLUTTER_CELLS` coarse-grid cells
    independently hosts a clutter site with probability pfa.

    Site amplitudes are complex, uniform phase, Rayleigh magnitude with mean
    square power set by scr_db against the reference level; each site lights a
    single pixel via a complex sum with the signal, magnitude re-clamped.
    """
    if not (0.0 <= pfa <= 1.0):
        raise ConfigError("pfa must lie in [0, 1]")
    if pfa == 0.0:
        return stack.copy()
    if signal_ref is None:
        signal_ref = signal_reference(stack)
    clutter_power = signal_ref * 10.0 ** (-scr_db / 10.0)
    rayleigh_scale = np.sqrt(clutter_power / 2.0)
    rows, cols = stack.image_shape
    r_edges, c_edges = _cell_grid(rows, cols)
    rng = np.random.default_rng(seed)
    out = stack.data.copy()   # C-ordered, so each img below is a view into it
    for q in range(stack.count):
        img = out[:, q].reshape(rows, cols, order="F")
        for i in range(len(r_edges) - 1):
            for j in range(len(c_edges) - 1):
                if rng.random() >= pfa:
                    continue
                r = rng.integers(r_edges[i], max(r_edges[i + 1], r_edges[i] + 1))
                c = rng.integers(c_edges[j], max(c_edges[j + 1], c_edges[j] + 1))
                mag = rng.rayleigh(rayleigh_scale)
                phase = rng.uniform(0.0, 2.0 * np.pi)
                img[r, c] = np.abs(img[r, c] + mag * np.exp(1j * phase))
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
