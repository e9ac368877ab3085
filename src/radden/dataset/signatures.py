"""Radar returns and the image-forming transforms (STFT spectrogram, HRRP)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .channel import (SPEED_OF_LIGHT, ChannelModel, _frequency_grid, _phasor,
                      channel_response)
from .gait import ScattererTrack

__all__ = ["RadarConfig", "hrrp", "radar_returns", "spectrogram", "to_db_normalize"]

DB_WINDOW = (-70.0, -20.0)  # (floor, ceil) in dB of every radar image


@dataclass
class RadarConfig:
    carrier_hz: float = 2.4e9
    bandwidth_hz: float = 0.0
    freq_count: int = 1
    sample_rate_hz: float = 500.0
    duration_s: float = 6.0

    def __post_init__(self):
        if self.bandwidth_hz < 0:
            raise ConfigError("bandwidth must be >= 0")
        if self.sample_rate_hz <= 0 or self.duration_s <= 0:
            raise ConfigError("sample rate and duration must be > 0")
        if self.bandwidth_hz == 0:
            self.freq_count = 1
        elif self.freq_count < 2:
            raise ConfigError("wideband operation needs freq_count >= 2")

    @property
    def narrowband(self):
        return self.bandwidth_hz == 0.0

    @property
    def time_grid(self):
        n = int(round(self.duration_s * self.sample_rate_hz))
        return np.arange(n) / self.sample_rate_hz

    @property
    def frequencies(self):
        """DFT-style grid f_c - beta/2 + k * beta / n, k = 0..n-1."""
        if self.narrowband:
            return np.array([self.carrier_hz])
        n = self.freq_count
        step = self.bandwidth_hz / n
        return self.carrier_hz - self.bandwidth_hz / 2 + step * np.arange(n)

    @property
    def freq_step(self):
        if self.narrowband:
            raise ConfigError("frequency step undefined for narrowband")
        return self.bandwidth_hz / self.freq_count

    @property
    def range_resolution(self):
        if self.narrowband:
            raise ConfigError("range resolution undefined for narrowband")
        return SPEED_OF_LIGHT / (2.0 * self.bandwidth_hz)

    @property
    def unambiguous_range(self):
        return SPEED_OF_LIGHT / (2.0 * self.freq_step)


def radar_returns(track: ScattererTrack, channel: ChannelModel,
                  radar: RadarConfig, eta=1, samples=None):
    """Complex received signal s_rx(t, f) of the point-scatterer target.

    Coherent sum over scatterers of the two-way channel response squared and
    the 3-D/2-D phase correction term; shape (time samples, frequency
    samples), a single column for narrowband operation.  Integer time-grid
    indices `samples` keep only those rows, bitwise as in the full grid.
    """
    grid = radar.time_grid
    if track.times.shape != grid.shape or not np.allclose(track.times, grid,
                                                          rtol=1e-9, atol=1e-9):
        raise ConfigError("track and radar do not share the same time grid")
    rows = np.arange(grid.size) if samples is None else np.asarray(samples)
    if rows.ndim != 1 or rows.dtype.kind not in "iu" or np.any((rows < 0) | (rows >= grid.size)):
        raise ConfigError(f"time samples must be integers in [0, {grid.size})")
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


def spectrogram(signal, sample_rate, window_s, hop=None, doppler_bins=None):
    """Squared-magnitude STFT of a narrowband complex signal.

    Returns (power, doppler_axis, frame_times); rows cover -fs/2..+fs/2 after
    FFT shift.  A periodic Hann window is used; `hop` defaults to a quarter
    window, `doppler_bins` to the window length.
    """
    signal = np.asarray(signal).ravel()
    win_len = int(round(window_s * sample_rate))
    if win_len < 2 or win_len > signal.size:
        raise ConfigError(f"window of {win_len} samples invalid for signal of "
                          f"{signal.size}")
    hop = hop or max(1, win_len // 4)
    nfft = doppler_bins or win_len
    if nfft < win_len:
        raise ConfigError("doppler_bins must be >= window length")
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(win_len) / win_len)
    frames = np.lib.stride_tricks.sliding_window_view(signal, win_len)[::hop] * window
    spec = np.fft.fftshift(np.fft.fft(frames, n=nfft, axis=1), axes=1)
    power = (np.abs(spec) ** 2).T
    doppler = np.fft.fftshift(np.fft.fftfreq(nfft, d=1.0 / sample_rate))
    frame_times = (np.arange(len(frames)) * hop + win_len / 2.0) / sample_rate
    return power, doppler, frame_times


def hrrp(s_rx, radar: RadarConfig):
    """High range resolution profile: inverse DFT across the frequency axis.

    Returns (power, range_axis) with shape (range bins, time samples); range
    bins step by c/(2 beta) up to the unambiguous range.
    """
    if radar.narrowband:
        raise ConfigError("HRRP requires wideband data (beta > 0)")
    s_rx = np.asarray(s_rx)
    if s_rx.ndim != 2 or s_rx.shape[1] != radar.freq_count:
        raise ConfigError(f"expected (time, {radar.freq_count}) samples, got "
                          f"{s_rx.shape}")
    _frequency_grid(radar.frequencies)  # the inverse DFT needs a uniform grid
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
