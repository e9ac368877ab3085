"""Summaries and plot-ready exports of sweep results.

The summary mirrors a per-algorithm quantitative table (SSIM/NMSE, before and
after denoising); plot data files are gnuplot-compatible whitespace columns
with one series per algorithm (mean over seeds, spread = max - min).
"""
from __future__ import annotations

from collections import defaultdict
from pathlib import Path

import numpy as np

from ..errors import ConfigError
from .config import SWEEP_AXES

__all__ = ["summarize", "write_plot_data"]


def _finite(rows, field):
    return [getattr(r, field) for r in rows if np.isfinite(getattr(r, field))]


def summarize(rows):
    """Per-algorithm mean-metric table over all non-diverged rows."""
    groups = defaultdict(list)
    for row in rows:
        groups[(row.kind, row.algorithm)].append(row)
    lines = [f"{'kind':<12} {'algorithm':<14} {'ssim_bd':>8} {'ssim_ad':>8} "
             f"{'nmse_bd':>8} {'nmse_ad':>8} {'diverged':>9}"]
    for (kind, algorithm) in sorted(groups):
        g = groups[(kind, algorithm)]
        diverged = sum(r.diverged for r in g)
        cells = []
        for field in ("ssim_bd", "ssim_ad", "nmse_bd", "nmse_ad"):
            vals = _finite(g, field)
            cells.append(f"{np.mean(vals):8.4f}" if vals else f"{'nan':>8}")
        lines.append(f"{kind:<12} {algorithm:<14} " + " ".join(cells)
                     + f" {diverged:>9d}")
    return "\n".join(lines) + "\n"


def write_plot_data(rows, axis, directory):
    """One .dat file per signature kind, <kind>_<axis>_ssim_ad.dat: grid
    value, then per-algorithm mean and spread columns of ssim_ad.  Diverged
    rows are dropped from the aggregation; the dropped count is reported in
    the header comment.  A ConfigError, before any file is written, when
    the rows of one kind vary along another sweep axis: their levels would
    fold into one line under the wrong axis name."""
    field = SWEEP_AXES[axis]
    kinds = sorted({r.kind for r in rows})
    for kind in kinds:
        for other, column in SWEEP_AXES.items():
            levels = sorted({getattr(r, column) for r in rows if r.kind == kind})
            if other != axis and len(levels) > 1:
                raise ConfigError(f"{kind} rows vary along the {other} axis "
                                  f"({column} {levels}); report them with "
                                  f"axis {other}, not {axis}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for kind in kinds:
        kind_rows = [r for r in rows if r.kind == kind]
        algorithms = sorted({r.algorithm for r in kind_rows})
        values = sorted({getattr(r, field) for r in kind_rows})
        dropped = sum(r.diverged for r in kind_rows)
        header = ["# " + f"dropped_diverged={dropped}",
                  "# " + " ".join([axis] + [f"{a}_mean {a}_spread"
                                            for a in algorithms])]
        lines = list(header)
        for value in values:
            cells = [f"{value:g}"]
            for algorithm in algorithms:
                vals = _finite([r for r in kind_rows
                                if r.algorithm == algorithm
                                and getattr(r, field) == value], "ssim_ad")
                if vals:
                    cells.append(f"{np.mean(vals):.6f}")
                    cells.append(f"{max(vals) - min(vals):.6f}")
                else:
                    cells.extend(["nan", "nan"])
            lines.append(" ".join(cells))
        path = directory / f"{kind}_{axis}_ssim_ad.dat"
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    return written
