"""Synthetic frontal phantom images: human-like blob silhouettes standing in
for measured range-enhanced frontal images."""
from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .stack_io import ImageStack

__all__ = ["frontal_phantoms"]

FRONTAL_SHAPE = (31, 31)  # (rows, cols) of every phantom image


def _blob(rows, cols, cy, cx, sy, sx, amp):
    y = np.arange(rows)[:, None]
    x = np.arange(cols)[None, :]
    return amp * np.exp(-0.5 * (((y - cy) / sy) ** 2 + ((x - cx) / sx) ** 2))


def frontal_phantoms(count, seed=0):
    """Clean frontal image stack: torso + head + two arms + two legs blobs
    with per-image jitter in position, scale, and limb spread."""
    if count < 1:
        raise ConfigError("count must be >= 1")
    rows, cols = FRONTAL_SHAPE
    rng = np.random.default_rng(seed)
    data = np.empty((rows * cols, count))
    for q in range(count):
        cy = rows * (0.50 + 0.06 * rng.standard_normal())
        cx = cols * (0.50 + 0.06 * rng.standard_normal())
        scale = 1.0 + 0.15 * rng.standard_normal()
        spread = cols * (0.22 + 0.03 * rng.standard_normal())
        img = _blob(rows, cols, cy, cx, rows * 0.18 * scale, cols * 0.10 * scale, 1.0)
        img += _blob(rows, cols, cy - rows * 0.28, cx, rows * 0.07, cols * 0.07, 0.8)
        for side in (-1.0, 1.0):
            img += _blob(rows, cols, cy - rows * 0.05, cx + side * spread,
                         rows * 0.10, cols * 0.05, 0.5)
            img += _blob(rows, cols, cy + rows * 0.30, cx + side * cols * 0.10,
                         rows * 0.12, cols * 0.05, 0.6)
        img /= img.max()
        data[:, q] = img.ravel(order="F")
    return ImageStack(data=data, image_shape=FRONTAL_SHAPE, role="clean",
                      value_kind="frontal")
