"""Synthetic frontal phantom images: human-like blob silhouettes standing in
for measured range-enhanced frontal images."""
from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .stack_io import ImageStack, images_to_columns

__all__ = ["frontal_phantoms"]

FRONTAL_SHAPE = (31, 31)  # (rows, cols) of every phantom image


def _blob(rows, cols, cy, cx, sy, sx, amp):
    y = np.arange(rows)[:, None]
    x = np.arange(cols)[None, :]
    return amp * np.exp(-0.5 * (((y - cy) / sy) ** 2 + ((x - cx) / sx) ** 2))


def frontal_phantoms(count, seed=0):
    """Clean frontal image stack: torso + head + two arms + two legs blobs
    with per-image jitter in position, scale, and limb spread.  Image q's
    jitter is row q of one (count, 4) standard-normal draw, and its blobs
    are slice q of (count, rows, cols) arrays."""
    if count < 1:
        raise ConfigError("count must be >= 1")
    rows, cols = FRONTAL_SHAPE
    # (count, 1, 1) per-image values broadcast each blob over the stack
    jitter = np.random.default_rng(seed).standard_normal((count, 4))[..., None, None]
    cy = rows * (0.50 + 0.06 * jitter[:, 0])
    cx = cols * (0.50 + 0.06 * jitter[:, 1])
    scale = 1.0 + 0.15 * jitter[:, 2]
    spread = cols * (0.22 + 0.03 * jitter[:, 3])
    images = _blob(rows, cols, cy, cx, rows * 0.18 * scale, cols * 0.10 * scale, 1.0)
    images += _blob(rows, cols, cy - rows * 0.28, cx, rows * 0.07, cols * 0.07, 0.8)
    for side in (-1.0, 1.0):
        images += _blob(rows, cols, cy - rows * 0.05, cx + side * spread,
                        rows * 0.10, cols * 0.05, 0.5)
        images += _blob(rows, cols, cy + rows * 0.30, cx + side * cols * 0.10,
                        rows * 0.12, cols * 0.05, 0.6)
    images /= images.max(axis=(1, 2), keepdims=True)
    return ImageStack(data=images_to_columns(images), image_shape=FRONTAL_SHAPE,
                      role="clean", value_kind="frontal")
