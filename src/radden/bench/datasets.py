"""Paired clean/corrupt dataset generation for the benchmark harness.

Clean columns are free-space, noise-free signatures; corrupt columns pass the
same target through the configured wall channel (frontal phantoms have none)
and then receive point clutter and additive noise.  Each (interval,
realization) base image is replicated across the configured number of noise
draws, so Q = intervals x realizations x noise_draws.
"""
from __future__ import annotations

import numpy as np

from ..dataset import (ChannelModel, GaitParams, ImageStack, RadarConfig,
                       WallClass, add_noise, add_point_clutter,
                       frontal_phantoms, gait_trajectory, hrrp, radar_returns,
                       signal_reference, spectrogram, to_db_normalize)
from ..dataset.corrupt import CLUTTER_PFA
from ..dataset.gait import TIME_GRID
from ..dataset.signatures import DB_WINDOW
from ..dataset.stack_io import images_to_columns
from ..errors import ConfigError
from .config import DatasetSpec

__all__ = ["generate_pair"]

HEADROOM_DB = 20.0  # dB between each radar image's peak and the window's ceil


def _gait(spec: DatasetSpec, eta):
    """Distinct walker per realization: varied speed, stride, and path keep
    the per-realization signatures dissimilar so pairing actually matters."""
    rng = np.random.default_rng([spec.seed, 1, eta])
    angle = rng.uniform(-0.5, 0.5)
    return GaitParams(
        speed=rng.uniform(0.6, 1.6),
        stride_hz=rng.uniform(1.4, 2.6),
        arm_swing=rng.uniform(0.15, 0.45),
        leg_swing=rng.uniform(0.25, 0.55),
        start_xz=(rng.uniform(-4.0, -2.0), rng.uniform(2.0, 4.0)),
        direction=(np.cos(angle), np.sin(angle)),
    )


def _interval_bounds(spec: DatasetSpec):
    per = TIME_GRID.size // spec.intervals
    return [(i * per, (i + 1) * per) for i in range(spec.intervals)]


def _spectrogram_images(signal, spec: DatasetSpec):
    """One power image per time interval from a narrowband return column."""
    cols = spec.image_shape[1]
    images = []
    for lo, hi in _interval_bounds(spec):
        power, _, _ = spectrogram(signal[lo:hi])
        if power.shape[1] < cols:
            raise ConfigError(f"intervals = {spec.intervals} leaves {power.shape[1]} STFT "
                              f"frames per interval; a spectrogram image needs {cols}")
        images.append(power[:, :cols])
    return images


def _hrrp_images(s_rx, radar, spec: DatasetSpec):
    """One power image per interval from the returns at its kept time samples."""
    rows, cols = spec.image_shape
    power, _ = hrrp(s_rx, radar)
    if power.shape[0] < rows:
        raise ConfigError(f"freq_count = {spec.freq_count} gives {power.shape[0]} range "
                          f"bins; an HRRP image needs {rows}")
    return [power[:rows, i * cols:(i + 1) * cols] for i in range(spec.intervals)]


def _base_power_images(spec: DatasetSpec):
    """Clean and corrupt P x n power columns, n = intervals x realizations.

    Realization eta is its own walker, seen once in free space (clean) and
    once through realization eta of the wall channel (corrupt); its interval
    i lands in column (eta - 1) * intervals + i.
    """
    # an HRRP column needs only its own time sample; the STFT needs them all
    samples = None
    if spec.kind == "hrrp":
        cols = spec.image_shape[1]
        bounds = _interval_bounds(spec)
        per = bounds[0][1] - bounds[0][0]
        if per < cols:   # the image would repeat time samples
            raise ConfigError(f"intervals = {spec.intervals} leaves {per} time "
                              f"samples per interval; an HRRP image needs {cols}")
        samples = np.concatenate([np.linspace(lo, hi - 1, cols).astype(int)
                                  for lo, hi in bounds])
    radar = RadarConfig(carrier_hz=spec.carrier_hz, bandwidth_hz=spec.bandwidth_hz,
                        freq_count=spec.freq_count)
    free = ChannelModel(WallClass.FREE_SPACE)
    wall = ChannelModel(spec.wall_class, realizations=spec.realizations,
                        seed=spec.seed)

    def images_for(track, channel, eta):
        s_rx = radar_returns(track, channel, radar, eta=eta, samples=samples)
        if spec.kind == "spectrogram":
            return _spectrogram_images(s_rx[:, 0], spec)
        return _hrrp_images(s_rx, radar, spec)

    clean, corrupt = [], []
    for eta in range(1, spec.realizations + 1):
        track = gait_trajectory(_gait(spec, eta))
        clean += images_for(track, free, 1)
        corrupt += images_for(track, wall, eta)
    return images_to_columns(np.stack(clean)), images_to_columns(np.stack(corrupt))


def _unit_db(power):
    """Per-image gain control: each column's own peak power is mapped a fixed
    headroom below the dB ceiling, then the clamped dB window is rescaled to
    [0, 1].  Per-image calibration keeps heavily attenuated through-wall
    returns visible instead of letting one bright free-space frame swamp the
    shared scale; the headroom leaves room above the signal peak for additive
    noise before the ceiling clips it."""
    peak = power.max(axis=0)
    if np.any(peak <= 0):
        raise ConfigError("degenerate image: no signal energy")
    scale = 10.0 ** ((DB_WINDOW[1] - HEADROOM_DB) / 10.0) / peak
    return to_db_normalize(power * scale)


def _base_columns(spec: DatasetSpec):
    """Clean and corrupt P x n base columns in [0, 1], before corruption."""
    if spec.kind == "frontal":
        base = frontal_phantoms(spec.intervals * spec.realizations,
                                seed=spec.seed)
        return base.data, base.data
    clean, corrupt = _base_power_images(spec)
    return _unit_db(clean), _unit_db(corrupt)


def generate_pair(spec: DatasetSpec):
    """Build the paired (clean, corrupt) stacks for one dataset config.

    Base column c is replicated across the noise draws, so stack column
    q = c * noise_draws + draw.  The corrupt stack then receives point
    clutter (frontal corruption defaults to `CLUTTER_PFA` when pfa = 0) and
    one independent noise draw per replica, both scaled to the clean stack's
    reference level.
    """
    clean_base, corrupt_base = _base_columns(spec)
    d = spec.noise_draws
    c = np.repeat(np.arange(clean_base.shape[1]), d)
    # the stack format's wall tag is the class's position in WallClass
    tag = list(WallClass).index(WallClass(spec.wall_class))

    def stack(base, role):
        return ImageStack(data=base[:, c], image_shape=spec.image_shape,
                          interval_index=c % spec.intervals,
                          realization=c // spec.intervals + 1,
                          wall_class=np.full(c.size, tag, dtype=np.uint8),
                          role=role, value_kind=spec.kind)

    clean, corrupt = stack(clean_base, "clean"), stack(corrupt_base, "corrupt")
    ref = signal_reference(clean)
    pfa = CLUTTER_PFA if spec.kind == "frontal" and spec.pfa == 0.0 else spec.pfa
    if pfa > 0.0:
        corrupt = add_point_clutter(corrupt, spec.scr_db, pfa,
                                    seed=[spec.seed, 3], signal_ref=ref)
    for draw in range(d):
        cols = np.arange(draw, corrupt.count, d)
        corrupt.data[:, cols] = add_noise(corrupt.select(cols), spec.snr_db,
                                          seed=[spec.seed, 4, draw],
                                          signal_ref=ref).data
    return clean, corrupt
