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


def _axis(kind, kind_rows):
    """The one sweep axis whose column varies among a kind's rows; snr when
    none does.  A ConfigError when two do: their levels would fold into one
    line under either axis name."""
    varying = [axis for axis, column in SWEEP_AXES.items()
               if len({getattr(r, column) for r in kind_rows}) > 1]
    if len(varying) > 1:
        raise ConfigError(f"{kind} rows vary along more than one sweep axis "
                          f"({', '.join(varying)}); report them apart")
    return varying[0] if varying else "snr"


def write_plot_data(rows, directory):
    """One .dat file per signature kind, <kind>_<axis>_ssim_ad.dat, along
    the axis its rows vary on (see _axis): grid value, then per-algorithm
    mean and spread columns of ssim_ad.  Diverged rows are dropped from the
    aggregation; the dropped count is reported in the header comment.  Every
    kind's axis is settled before any file is written."""
    groups = defaultdict(list)
    for row in rows:
        groups[row.kind].append(row)
    axes = {kind: _axis(kind, kind_rows) for kind, kind_rows in groups.items()}
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for kind in sorted(groups):
        kind_rows, axis = groups[kind], axes[kind]
        field = SWEEP_AXES[axis]
        algorithms = sorted({r.algorithm for r in kind_rows})
        values = sorted({getattr(r, field) for r in kind_rows})
        dropped = sum(r.diverged for r in kind_rows)
        lines = [f"# dropped_diverged={dropped}",
                 "# " + " ".join([axis] + [f"{a}_mean {a}_spread"
                                           for a in algorithms])]
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
