"""Paired clean/corrupt dataset generation for the benchmark harness.

Clean columns are free-space, noise-free signatures; corrupt columns pass the
same target through the configured wall channel and then receive additive
noise (and, for frontal images, point clutter).  Each (interval, realization)
base image is replicated across the configured number of noise draws, so
Q = intervals x realizations x noise_draws.
"""
from __future__ import annotations

import numpy as np

from ..dataset import (ChannelModel, GaitParams, ImageStack, RadarConfig,
                       WallClass, add_noise, add_point_clutter,
                       frontal_phantoms, gait_trajectory, hrrp, radar_returns,
                       signal_reference, spectrogram)
from ..errors import ConfigError
from .config import DatasetSpec

__all__ = ["generate_pair"]

_WALL_TAGS = {
    WallClass.FREE_SPACE: 0,
    WallClass.LOW_CONDUCTIVITY: 1,
    WallClass.MEDIUM_CONDUCTIVITY: 2,
    WallClass.HIGH_CONDUCTIVITY: 3,
}

_SAMPLE_RATE = 500.0
_DURATION = 6.0
_STFT_WINDOW = 50   # samples (0.1 s)
_STFT_HOP = 5


def _radar_config(spec: DatasetSpec):
    return RadarConfig(carrier_hz=spec.carrier_hz, bandwidth_hz=spec.bandwidth_hz,
                       freq_count=spec.freq_count, sample_rate_hz=_SAMPLE_RATE,
                       duration_s=_DURATION)


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
    per = int(round(_DURATION * _SAMPLE_RATE)) // spec.intervals
    return [(i * per, (i + 1) * per) for i in range(spec.intervals)]


def _spectrogram_images(signal, spec: DatasetSpec):
    """One power image per time interval from a narrowband return column."""
    rows, cols = spec.image_shape
    images = []
    for lo, hi in _interval_bounds(spec):
        power, _, _ = spectrogram(signal[lo:hi], _SAMPLE_RATE,
                                  _STFT_WINDOW / _SAMPLE_RATE,
                                  hop=_STFT_HOP, doppler_bins=rows)
        if power.shape[1] < cols:
            raise ConfigError("interval too short for the requested image width")
        images.append(power[:, :cols])
    return images


def _hrrp_images(s_rx, radar, spec: DatasetSpec):
    """One power image per interval from returns at its `image_cols` samples."""
    rows, cols = spec.image_shape
    power, _ = hrrp(s_rx, radar)
    if power.shape[0] < rows:
        raise ConfigError("too few range bins for the requested image height")
    return [power[:rows, i * cols:(i + 1) * cols] for i in range(spec.intervals)]


def _base_power_images(spec: DatasetSpec):
    """Per-(interval, realization) clean and corrupt power images.

    Returns (clean list, corrupt list, interval indices, realization indices);
    clean images are free-space and realization-independent but replicated so
    both lists line up column for column.
    """
    radar = _radar_config(spec)
    free = ChannelModel(WallClass.FREE_SPACE)
    wall = ChannelModel(spec.wall_class, realizations=spec.realizations,
                        seed=spec.seed)
    # an HRRP column needs only its own time sample; the STFT needs them all
    samples = None
    if spec.kind == "hrrp":
        samples = np.concatenate([np.linspace(lo, hi - 1, spec.image_cols).astype(int)
                                  for lo, hi in _interval_bounds(spec)])

    def images_for(track, channel, eta):
        s_rx = radar_returns(track, channel, radar, eta=eta, samples=samples)
        if spec.kind == "spectrogram":
            return _spectrogram_images(s_rx[:, 0], spec)
        return _hrrp_images(s_rx, radar, spec)

    clean, corrupt, intervals, realizations = [], [], [], []
    for eta in range(1, spec.realizations + 1):
        track = gait_trajectory(_gait(spec, eta), (0.5, 0.0),
                                _DURATION, _SAMPLE_RATE)
        clean_imgs = images_for(track, free, 1)
        wall_imgs = images_for(track, wall, eta)
        for i in range(spec.intervals):
            clean.append(clean_imgs[i])
            corrupt.append(wall_imgs[i])
            intervals.append(i)
            realizations.append(eta)
    return clean, corrupt, intervals, realizations


def _normalize_pair(clean_imgs, corrupt_imgs, spec: DatasetSpec):
    """Per-image gain control: each image's own peak power is mapped a fixed
    headroom below the dB ceiling, then the clamped dB range is rescaled to
    [0, 1].  Per-image calibration keeps heavily attenuated through-wall
    returns visible instead of letting one bright free-space frame swamp the
    shared scale; the headroom leaves room above the signal peak for additive
    noise before the ceiling clips it."""
    span = spec.db_ceil - spec.db_floor
    peak_db = spec.db_ceil - spec.headroom_db

    def to_unit(img):
        peak = float(img.max())
        if peak <= 0:
            raise ConfigError("degenerate image: no signal energy")
        scale = 10.0 ** (peak_db / 10.0) / peak
        with np.errstate(divide="ignore"):
            db = 10.0 * np.log10(img * scale)
        db = np.clip(db, spec.db_floor, spec.db_ceil)
        return (db - spec.db_floor) / span

    return [to_unit(i) for i in clean_imgs], [to_unit(i) for i in corrupt_imgs]


def _stack(images, shape, intervals, realizations, wall_tag, role, kind):
    data = np.column_stack([img.ravel(order="F") for img in images])
    return ImageStack(data=data, image_shape=shape,
                      interval_index=np.asarray(intervals),
                      realization=np.asarray(realizations),
                      wall_class=np.full(len(images), wall_tag, dtype=np.uint8),
                      role=role, value_kind=kind)


def generate_pair(spec: DatasetSpec):
    """Build the paired (clean, corrupt) stacks for one dataset config."""
    if spec.kind == "frontal":
        return _generate_frontal(spec)
    clean_imgs, corrupt_imgs, intervals, realizations = _base_power_images(spec)
    clean_imgs, corrupt_imgs = _normalize_pair(clean_imgs, corrupt_imgs, spec)
    tag = _WALL_TAGS[WallClass(spec.wall_class)]
    d = spec.noise_draws
    clean = _stack([img for img in clean_imgs for _ in range(d)],
                   spec.image_shape,
                   np.repeat(intervals, d), np.repeat(realizations, d),
                   tag, "clean", spec.kind)
    base = _stack([img for img in corrupt_imgs for _ in range(d)],
                  spec.image_shape,
                  np.repeat(intervals, d), np.repeat(realizations, d),
                  tag, "corrupt", spec.kind)
    return clean, _corrupt_draws(base, clean, spec)


def _corrupt_draws(base: ImageStack, clean: ImageStack, spec: DatasetSpec):
    """Apply one independent noise (and clutter) draw to each replica column."""
    ref = signal_reference(clean)
    out = base
    if spec.pfa > 0.0:
        out = add_point_clutter(out, spec.scr_db, spec.pfa,
                                seed=[spec.seed, 3], signal_ref=ref)
    d = spec.noise_draws
    data = out.data.copy()
    for draw in range(d):
        cols = np.arange(draw, out.count, d)
        sub = out.select(cols)
        noisy = add_noise(sub, spec.snr_db, seed=[spec.seed, 4, draw],
                          signal_ref=ref)
        data[:, cols] = noisy.data
    return out.copy(data=data)


def _generate_frontal(spec: DatasetSpec):
    n_base = spec.intervals * spec.realizations
    base = frontal_phantoms(n_base, seed=spec.seed, image_shape=spec.image_shape)
    d = spec.noise_draws
    idx = np.repeat(np.arange(n_base), d)
    tag = _WALL_TAGS[WallClass(spec.wall_class)]
    clean = ImageStack(data=base.data[:, idx], image_shape=spec.image_shape,
                       interval_index=idx % spec.intervals,
                       realization=idx // spec.intervals + 1,
                       wall_class=np.full(idx.size, tag, dtype=np.uint8),
                       role="clean", value_kind="frontal")
    corrupt = clean.copy(role="corrupt")
    if spec.pfa == 0.0:
        # frontal corruption is clutter-driven; default to the 5-sites rate
        corrupt = add_point_clutter(corrupt, spec.scr_db, 0.06,
                                    seed=[spec.seed, 3],
                                    signal_ref=signal_reference(clean))
    return clean, _corrupt_draws(corrupt, clean, spec)
