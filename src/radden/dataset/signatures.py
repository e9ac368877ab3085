"""Radar returns and the image-forming transforms (STFT spectrogram, HRRP)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .channel import (SPEED_OF_LIGHT, ChannelModel, _frequency_grid, _phasor,
                      channel_response)
from .gait import SAMPLE_RATE_HZ, TIME_GRID, ScattererTrack

__all__ = ["RadarConfig", "hrrp", "radar_returns", "spectrogram", "to_db_normalize"]

DB_WINDOW = (-70.0, -20.0)  # (floor, ceil) in dB of every radar image
RADAR_SHAPE = (64, 64)      # (Doppler or range bins, time columns) of a radar image
STFT_WINDOW = 50            # samples (0.1 s) of the periodic Hann window
STFT_HOP = 5
STFT_BINS = RADAR_SHAPE[0]  # zero-padded FFT length: one bin per image row


@dataclass
class RadarConfig:
    carrier_hz: float = 2.4e9
    bandwidth_hz: float = 0.0
    freq_count: int = 1

    def __post_init__(self):
        if self.bandwidth_hz < 0:
            raise ConfigError("bandwidth must be >= 0")
        if self.bandwidth_hz == 0 and self.freq_count != 1:
            raise ConfigError("narrowband operation needs freq_count = 1")
        if self.bandwidth_hz > 0 and self.freq_count < 2:
            raise ConfigError("wideband operation needs freq_count >= 2")

    @property
    def narrowband(self):
        return self.bandwidth_hz == 0.0

    @property
    def frequencies(self):
        """DFT-style grid f_c - beta/2 + k * beta / n, k = 0..n-1."""
        if self.narrowband:
            return np.array([self.carrier_hz])
        n = self.freq_count
        step = self.bandwidth_hz / n
        return self.carrier_hz - self.bandwidth_hz / 2 + step * np.arange(n)

    @property
    def range_resolution(self):
        if self.narrowband:
            raise ConfigError("range resolution undefined for narrowband")
        return SPEED_OF_LIGHT / (2.0 * self.bandwidth_hz)

    @property
    def unambiguous_range(self):
        return self.range_resolution * self.freq_count


def radar_returns(track: ScattererTrack, channel: ChannelModel,
                  radar: RadarConfig, eta=1, samples=None):
    """Complex received signal s_rx(t, f) of the point-scatterer target.

    Coherent sum over scatterers of the two-way channel response squared and
    the 3-D/2-D phase correction term; shape (time samples, frequency
    samples), a single column for narrowband operation.  Integer TIME_GRID
    indices `samples` keep only those rows, bitwise as in the full grid.
    """
    n = TIME_GRID.size
    rows = np.arange(n) if samples is None else np.asarray(samples)
    if rows.ndim != 1 or rows.dtype.kind not in "iu" or np.any((rows < 0) | (rows >= n)):
        raise ConfigError(f"time samples must be integers in [0, {n})")
    f = radar.frequencies[None, :]
    grid = _frequency_grid(f)
    out = np.zeros((rows.size, f.size), dtype=complex)
    for b in range(track.count):
        rho = track.ranges_ground[b][rows][:, None]
        r = track.ranges_3d[b][rows][:, None]
        H = channel_response(channel, rho, f, eta)
        out += H * H * _phasor(grid, 2.0 * (r - rho) / SPEED_OF_LIGHT,
                               track.reflectivity[b])
    return out


def spectrogram(signal):
    """Squared-magnitude STFT of a narrowband complex signal sampled at
    SAMPLE_RATE_HZ, with the STFT_* settings.

    Returns (power, doppler_axis, frame_times); the STFT_BINS rows cover
    -fs/2..+fs/2 after FFT shift.
    """
    signal = np.asarray(signal).ravel()
    if signal.size < STFT_WINDOW:
        raise ConfigError(f"a signal of {signal.size} samples is shorter than "
                          f"the {STFT_WINDOW}-sample STFT window")
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(STFT_WINDOW) / STFT_WINDOW)
    frames = np.lib.stride_tricks.sliding_window_view(signal, STFT_WINDOW)
    frames = frames[::STFT_HOP] * window
    spec = np.fft.fftshift(np.fft.fft(frames, n=STFT_BINS, axis=1), axes=1)
    power = (np.abs(spec) ** 2).T
    doppler = np.fft.fftshift(np.fft.fftfreq(STFT_BINS, d=1.0 / SAMPLE_RATE_HZ))
    frame_times = (np.arange(len(frames)) * STFT_HOP + STFT_WINDOW / 2.0) / SAMPLE_RATE_HZ
    return power, doppler, frame_times


def hrrp(s_rx, radar: RadarConfig):
    """High range resolution profile: inverse DFT across the frequency axis.

    Returns (power, range_axis) with shape (range bins, time samples); range
    bins step by c/(2 beta) up to the unambiguous range.  The inverse DFT
    needs a uniform grid, which RadarConfig.frequencies always is.
    """
    if radar.narrowband:
        raise ConfigError("HRRP requires wideband data (beta > 0)")
    s_rx = np.asarray(s_rx)
    if s_rx.ndim != 2 or s_rx.shape[1] != radar.freq_count:
        raise ConfigError(f"expected (time, {radar.freq_count}) samples, got "
                          f"{s_rx.shape}")
    profile = np.fft.ifft(s_rx, axis=1) * radar.freq_count
    power = (np.abs(profile) ** 2).T
    ranges = np.arange(radar.freq_count) * radar.range_resolution
    return power, ranges


def to_db_normalize(img):
    """Map a power (or complex-amplitude) image to [0, 1] through a clamped
    dB scale: 10 log10 clamped to `DB_WINDOW`, then affine to [0, 1]."""
    floor, ceil = DB_WINDOW
    img = np.asarray(img)
    power = np.abs(img) ** 2 if np.iscomplexobj(img) else np.asarray(img, dtype=float)
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(power)
    db = np.clip(db, floor, ceil)
    return (db - floor) / (ceil - floor)
