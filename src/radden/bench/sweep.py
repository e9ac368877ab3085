"""Grid sweeps: train every algorithm at every grid point and record metrics.

Each (grid value, seed) pair is an independent job, so jobs may run in a
process pool; the CSV is assembled in sorted order regardless of completion
order.  Timing columns are excluded from the reproducibility hash.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .._parallel import _map_blocks, _map_workers, _one_blas_thread, _pooled
from ..autoencoders import (TrainOptions, infer, prepare_pair, train_dae,
                            train_sparse_dae, train_stacked_sdae)
from ..baselines import (SvdFilterConfig, WaveletFilterConfig, svd_denoise,
                         wavelet_denoise)
from ..dataset import WallClass, shuffle_labels
from ..dataset.corrupt import CLUTTER_PFA
from ..errors import ConfigError, DomainError
from ..metrics import columns_to_images, ssim_stack
from ..sparse_solvers import IstaOptions
from .config import AUTOENCODERS, DatasetSpec, ExperimentConfig
from .datasets import generate_pair

__all__ = ["ResultRow", "csv_content_hash", "load_rows", "run_sweep",
           "train_model", "write_rows"]

@dataclass
class ResultRow:
    kind: str
    algorithm: str
    carrier_hz: float
    wall_class: str
    snr_db: float
    scr_db: float
    mismatch_pct: float
    ssim_bd: float
    ssim_ad: float
    nmse_bd: float
    nmse_ad: float
    train_seconds: float
    test_ms: float
    seed: int

    def __post_init__(self):
        for name in ("ssim_bd", "ssim_ad"):
            v = getattr(self, name)
            if np.isfinite(v) and not (-1.0 <= v <= 1.0):
                raise ConfigError(f"{name}={v} outside [-1, 1]")
        if self.train_seconds < 0 or self.test_ms < 0:
            raise ConfigError("times must be >= 0")

    @property
    def diverged(self):
        return not np.isfinite(self.ssim_ad)


CSV_COLUMNS = [f.name for f in fields(ResultRow)]
TIMING_COLUMNS = ("train_seconds", "test_ms")


def _split_columns(Q, split, seed):
    perm = np.random.default_rng([seed, 11]).permutation(Q)
    n_train = int(np.floor(split * Q))
    if n_train < 1 or n_train >= Q:
        raise ConfigError("split leaves an empty train or test set")
    return perm[:n_train], perm[n_train:]


def _mean_nmse(approx, reference):
    """Mean over columns of ||approx_q - reference_q||^2 / ||reference_q||^2,
    summed one BLOCK_IMAGES block of columns at a time (_map_blocks)."""
    count = reference.shape[1]
    energy, error = np.empty(count), np.empty(count)

    def column_sums(block):
        # A one-column slice sums as a contiguous vector (pairwise), where a
        # column of a wider C-ordered stack sums row by row: widen a lone
        # last column by its neighbour so that every column sums as in a
        # single full-width call.
        start, stop, _ = block.indices(count)
        first = max(0, min(start, stop - 2))
        ref = reference[:, first:stop]
        energy[start:stop] = np.sum(ref * ref, axis=0)[start - first:]
        diff = approx[:, first:stop] - ref
        error[start:stop] = np.sum(diff * diff, axis=0)[start - first:]

    _map_blocks(column_sums, count)
    if np.any(energy == 0.0):
        raise DomainError("reference has zero energy")
    return float(np.mean(error / energy))


def train_model(algorithm, clean_tr, corrupt_tr, cfg: ExperimentConfig, seed,
                *, pair=None):
    """Train one autoencoder variant with the options of cfg.train; `pair`,
    if given, is the TrainingPair of clean_tr and corrupt_tr."""
    t = cfg.train
    opts = TrainOptions(
        outer_iterations=t.outer_iterations, outer_tolerance=t.outer_tolerance,
        seed=seed,
        ista=IstaOptions(max_iterations=t.ista_iterations,
                         relative_tolerance=t.ista_tolerance))
    if algorithm == "dae":
        return train_dae(clean_tr, corrupt_tr, t.dae_nodes, lam=t.dae_lambda,
                         opts=opts, pair=pair)
    if algorithm == "sparse_dae":
        return train_sparse_dae(clean_tr, corrupt_tr, t.sparse_nodes,
                                lam=t.sparse_lambda, mu=t.sparse_mu, opts=opts,
                                pair=pair)
    return train_stacked_sdae(clean_tr, corrupt_tr, t.stacked_sizes,
                              mu_layers=t.stacked_mu,
                              lam_layers=t.stacked_lambda, opts=opts, pair=pair)


def _baseline_denoise(algorithm, stack_cols, shape, cfg: ExperimentConfig):
    """SVD or wavelet denoising of every column image, clipped to [0, 1]."""
    b = cfg.baselines
    if algorithm == "svd":
        denoise, filter_cfg = svd_denoise, SvdFilterConfig(
            energy_fraction=b.svd_energy)
    else:
        denoise, filter_cfg = wavelet_denoise, WaveletFilterConfig(
            levels=b.wavelet_levels, keep_fraction=b.wavelet_keep)
    # the input's memory order, which _mean_nmse's sums follow; the images of
    # a C- or F-ordered P x N stack are a writable view of it
    out = np.empty_like(stack_cols)
    denoise(columns_to_images(stack_cols, shape), filter_cfg,
            out=columns_to_images(out, shape))
    return np.clip(out, 0.0, 1.0, out=out)


@dataclass
class _GridData:
    """One grid point's dataset after the column split and label shuffle."""
    spec: DatasetSpec
    mismatch: float
    clean_tr: np.ndarray
    corrupt_tr: np.ndarray
    clean_te: np.ndarray
    corrupt_te: np.ndarray


def _grid_data(cfg: ExperimentConfig, value, seed):
    """Generate, split and (on mismatch) shuffle one grid point's dataset;
    only the split columns outlive the call."""
    spec = replace(cfg.dataset, seed=seed)
    mismatch = cfg.sweep.mismatch
    if cfg.sweep.axis == "snr":
        spec = replace(spec, snr_db=float(value))
    elif cfg.sweep.axis == "scr":
        spec = replace(spec, scr_db=float(value), pfa=max(spec.pfa, CLUTTER_PFA))
    elif cfg.sweep.axis == "mismatch":
        mismatch = float(value)
    clean, corrupt = generate_pair(spec)
    train_idx, test_idx = _split_columns(clean.count, cfg.sweep.split, seed)
    clean_tr = clean.select(train_idx)
    if mismatch > 0.0:
        clean_tr = shuffle_labels(clean_tr, mismatch, seed=[seed, 13])
    return _GridData(spec, mismatch, clean_tr.data, corrupt.data[:, train_idx],
                     clean.data[:, test_idx], corrupt.data[:, test_idx])


def _train_timed(algorithm, data: _GridData, cfg: ExperimentConfig, seed,
                 pair):
    """((weights, trace), wall seconds) of one trainer call on data's
    training columns, whose TrainingPair is `pair`."""
    t0 = time.perf_counter()
    trained = train_model(algorithm, data.clean_tr, data.corrupt_tr, cfg,
                          seed, pair=pair)
    return trained, time.perf_counter() - t0


def _score(denoised, data: _GridData):
    """(mean SSIM, mean NMSE) of denoised test columns."""
    ssim = ssim_stack(denoised, data.clean_te, data.spec.image_shape)
    return float(np.mean(ssim)), _mean_nmse(denoised, data.clean_te)


# the autoencoders that a grid point may train on pool threads, longest first
_POOLED_TRAINERS = ("stacked_sdae", "sparse_dae")


def evaluate_grid_point(cfg: ExperimentConfig, value, seed):
    """Train/evaluate every configured algorithm at one grid point.

    The call runs with BLAS on one thread (radden._parallel); concurrent
    calls on threads of one process share the pin and the running-thread
    cap, and return the rows of serial calls.  The pool threads train
    _POOLED_TRAINERS; the calling thread runs every other step
    in algorithm order, waiting for a pooled trainer when it reaches it.
    The autoencoders share one TrainingPair, built before the loop (the
    first autoencoder's train_seconds include it)."""
    with _one_blas_thread():
        return _evaluate(cfg, value, seed)


def _evaluate(cfg: ExperimentConfig, value, seed):
    """evaluate_grid_point's rows, under its BLAS pin."""
    data = _grid_data(cfg, value, seed)
    spec = data.spec
    ssim_bd, nmse_bd = _score(data.corrupt_te, data)
    algorithms = cfg.sweep.algorithms
    pair, pair_seconds = None, 0.0
    if any(a in AUTOENCODERS for a in algorithms):
        t0 = time.perf_counter()
        pair = prepare_pair(data.clean_tr, data.corrupt_tr)
        pair_seconds = time.perf_counter() - t0
    trainers = [a for a in _POOLED_TRAINERS if a in algorithms]
    rows = []
    with _pooled([functools.partial(_train_timed, a, data, cfg, seed, pair)
                  for a in trainers]) as started:
        pooled = dict(zip(trainers, started))
        for algorithm in algorithms:
            train_seconds, test_ms = 0.0, 0.0
            ssim_ad = nmse_ad = float("nan")   # unless a denoising call runs
            autoencoder = algorithm in AUTOENCODERS
            if autoencoder:
                (weights, trace), train_seconds = (
                    pooled[algorithm].result() if algorithm in pooled
                    else _train_timed(algorithm, data, cfg, seed, pair))
                # the first autoencoder counts the pair
                train_seconds, pair_seconds = train_seconds + pair_seconds, 0.0
            # one timed denoise call, and none for a diverged objective trace
            if not autoencoder or np.all(np.isfinite(trace.objectives)):
                t0 = time.perf_counter()
                denoised = (infer(weights, data.corrupt_te) if autoencoder
                            else _baseline_denoise(algorithm, data.corrupt_te,
                                                   spec.image_shape, cfg))
                test_ms = (time.perf_counter() - t0) * 1e3
                ssim_ad, nmse_ad = _score(denoised, data)
            rows.append(ResultRow(
                kind=spec.kind, algorithm=algorithm,
                carrier_hz=spec.carrier_hz,
                wall_class=WallClass(spec.wall_class).value,
                snr_db=spec.snr_db, scr_db=spec.scr_db,
                mismatch_pct=100.0 * data.mismatch, ssim_bd=ssim_bd,
                ssim_ad=ssim_ad, nmse_bd=nmse_bd, nmse_ad=nmse_ad,
                train_seconds=train_seconds, test_ms=test_ms, seed=seed))
    return rows


def _job(args):
    cfg, value, seed = args
    return evaluate_grid_point(cfg, value, seed)


def run_sweep(cfg: ExperimentConfig, jobs=1):
    """All grid points x seeds, sorted by (kind, algorithm, grid position).
    With jobs > 1 the grid points run on that many worker processes
    (radden._parallel._map_workers)."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    tasks = [(cfg, value, seed) for value in cfg.sweep.values
             for seed in sorted(cfg.sweep.seeds)]
    # tasks are already in (grid position, seed) order; the sort is stable
    rows = [row for chunk in _map_workers(_job, tasks, jobs) for row in chunk]
    rows.sort(key=lambda r: (r.kind, r.algorithm))
    return rows


def write_rows(rows, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([getattr(row, c) for c in CSV_COLUMNS])
    return path


def load_rows(path):
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"results file not found: {path}")
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_COLUMNS:
            raise ConfigError(f"unexpected CSV header in {path}")
        types = get_type_hints(ResultRow)   # str, float or int per column
        for rec in reader:
            rows.append(ResultRow(**{c: types[c](rec[c]) for c in CSV_COLUMNS}))
    return rows


def csv_content_hash(path):
    """SHA-256 of the CSV with the wall-clock timing columns blanked out."""
    skip = [CSV_COLUMNS.index(c) for c in TIMING_COLUMNS]
    digest = hashlib.sha256()
    with open(path, newline="", encoding="utf-8") as fh:
        for record in csv.reader(fh):
            cells = [v for i, v in enumerate(record) if i not in skip]
            digest.update("\x1f".join(cells).encode())
            digest.update(b"\n")
    return digest.hexdigest()
