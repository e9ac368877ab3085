import numpy as np
import pytest

from radden.bench import DatasetSpec, datasets
from radden.dataset import (SPEED_OF_LIGHT, ChannelModel, GaitParams,
                            RadarConfig, ScattererTrack, WallClass,
                            channel_response, gait_trajectory, hrrp,
                            radar_returns, spectrogram, to_db_normalize)
from radden.dataset.gait import BODY_HEIGHTS
from radden.errors import ConfigError, DomainError

C = SPEED_OF_LIGHT


def radial_track(r0, v, duration, rate, reflectivity=1.0):
    """Single scatterer at ground height moving radially at speed v (m/s)."""
    t = np.arange(int(round(duration * rate))) / rate
    rho = r0 - v * t
    return ScattererTrack(t, rho, rho, [reflectivity])


def _direct_returns(track, ch, radar, eta):
    """radar_returns evaluated one frequency at a time with `np.exp`.

    Also returns the scale of each sample: the same sum with every term
    replaced by its magnitude, which no cancellation between terms shrinks.
    """
    gains, delays = ch._jitter(eta)
    out = np.zeros((track.times.size, radar.freq_count), dtype=complex)
    scale = np.zeros(out.shape)
    for j, f in enumerate(radar.frequencies):
        path = lambda d: np.exp(-2j * np.pi * f * d)  # noqa: E731
        for b in range(track.count):
            rho, r = track.ranges_ground[b], track.ranges_3d[b]
            terms = [path(rho / C) / np.sqrt(rho)]
            if ch.wall_class is not WallClass.FREE_SPACE:
                taps = ch.direct_gain * gains[0]
                for k in range(1, ch.tap_count + 1):
                    g = ch.direct_gain * ch.tap_decay ** k * gains[k]
                    taps = taps + g * path(k * ch.ring_delay_step + delays[k])
                terms[0] = terms[0] * taps
                for m in range(ch.image_count):
                    i = 1 + ch.tap_count + m
                    p = np.hypot(rho, 2.0 * ch.image_offsets[m])
                    g = ch.image_gains[m] * gains[i]
                    terms.append(g * path(p / C + delays[i]) / np.sqrt(p))
            H = sum(terms)
            out[:, j] += track.reflectivity[b] * H * H * path(2.0 * (r - rho) / C)
            scale[:, j] += track.reflectivity[b] * sum(np.abs(t) for t in terms) ** 2
    return out, scale


class TestGait:
    def test_static_geometry(self):
        gait = GaitParams(speed=0.0, arm_swing=0.0, leg_swing=0.0,
                          start_xz=(0.5, 3.0))
        track = gait_trajectory(gait, (0.5, 0.0), duration=1.0, sample_rate=100.0)
        np.testing.assert_allclose(track.ranges_ground[0], 3.0, atol=1e-12)
        np.testing.assert_allclose(track.ranges_3d[0],
                                   np.sqrt(9.0 + BODY_HEIGHTS[0] ** 2), atol=1e-12)

    def test_tangential_pass_symmetry(self):
        gait = GaitParams(speed=1.0, arm_swing=0.0, leg_swing=0.0,
                          start_xz=(-3.0, 3.0), direction=(1.0, 0.0))
        track = gait_trajectory(gait, (0.0, 0.0), duration=6.0, sample_rate=100.0)
        rho = track.ranges_ground[0]
        i_min = np.argmin(rho)
        assert rho[i_min] == pytest.approx(3.0, abs=1e-4)
        half = min(i_min, len(rho) - 1 - i_min)
        np.testing.assert_allclose(rho[i_min - half:i_min],
                                   rho[i_min + half:i_min:-1], atol=1e-9)

    def test_limb_doppler_against_finite_difference(self):
        gait = GaitParams(speed=1.0, stride_hz=2.0, arm_swing=0.3)
        rate = 500.0
        # far-field radar along the walk direction: radial = along-track motion
        track = gait_trajectory(gait, (100.0, 0.0), duration=6.0, sample_rate=rate)
        arm_r = track.ranges_3d[1]
        torso_r = track.ranges_3d[0]
        # arm oscillates at the stride frequency about the torso range
        osc = arm_r - torso_r
        spec = np.abs(np.fft.rfft(osc - osc.mean()))
        f_axis = np.fft.rfftfreq(len(osc), d=1.0 / rate)
        assert f_axis[np.argmax(spec)] == pytest.approx(2.0, abs=0.2)
        # peak radial speed = walk speed + swing amplitude * angular rate
        v_max = np.max(np.abs(np.diff(arm_r))) * rate
        expected = gait.speed + gait.arm_swing * 2 * np.pi * gait.stride_hz
        assert v_max == pytest.approx(expected, rel=1e-2)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            gait_trajectory(GaitParams(), (0, 0), duration=0.0, sample_rate=100.0)
        with pytest.raises(ConfigError):
            gait_trajectory(GaitParams(), (0, 0), duration=1.0, sample_rate=-5.0)

    def test_track_invariants(self):
        track = gait_trajectory(GaitParams(), (0.5, 0.0), 2.0, 200.0)
        assert track.count == 5
        assert np.all(track.ranges_3d >= track.ranges_ground - 1e-12)
        assert np.all(track.reflectivity > 0)


class TestChannel:
    def test_free_space_unit_range_integer_wavelengths(self):
        ch = ChannelModel(WallClass.FREE_SPACE)
        H = channel_response(ch, 1.0, 3.0e8, 1)  # f rho / c = 1
        assert H == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_free_space_spreading(self):
        ch = ChannelModel(WallClass.FREE_SPACE)
        assert abs(channel_response(ch, 4.0, 2.4e9, 1)) == pytest.approx(0.5)

    def test_realization_determinism_and_variation(self):
        ch = ChannelModel(WallClass.LOW_CONDUCTIVITY, realizations=4, seed=3)
        a = channel_response(ch, 3.0, 2.4e9, 2)
        b = channel_response(ch, 3.0, 2.4e9, 2)
        c = channel_response(ch, 3.0, 2.4e9, 3)
        assert a == b
        assert a != c

    def test_wall_class_by_name(self):
        assert ChannelModel("medium") == ChannelModel(WallClass.MEDIUM_CONDUCTIVITY)
        with pytest.raises(ConfigError, match="brick"):
            ChannelModel("brick")

    def test_domain_errors(self):
        ch = ChannelModel(WallClass.FREE_SPACE, realizations=2)
        with pytest.raises(DomainError):
            channel_response(ch, -1.0, 2.4e9, 1)
        with pytest.raises(ConfigError):
            channel_response(ch, 1.0, 2.4e9, 5)

    @pytest.mark.parametrize("rho, f", [
        (3.0, 2.4e9),
        (np.linspace(1.0, 6.0, 7)[:, None], np.linspace(1.4e9, 3.4e9, 5)[None, :]),
        (np.linspace(1.0, 6.0, 7), 2.4e9),
        (2.5, np.linspace(1.4e9, 3.4e9, 5)),
    ], ids=["scalar", "grid", "rho_vector", "f_vector"])
    @pytest.mark.parametrize("wall", [WallClass.LOW_CONDUCTIVITY,
                                      WallClass.MEDIUM_CONDUCTIVITY,
                                      WallClass.HIGH_CONDUCTIVITY])
    def test_factored_taps_match_per_tap_sum(self, wall, rho, f):
        ch = ChannelModel(wall, realizations=3, seed=7)
        gains, delays = ch._jitter(2)
        path = lambda d: np.exp(-2j * np.pi * f * d)  # noqa: E731
        H = ch.direct_gain * gains[0] * path(rho / C) / np.sqrt(rho)
        for k in range(1, ch.tap_count + 1):
            g = ch.direct_gain * ch.tap_decay ** k * gains[k]
            delay = k * ch.ring_delay_step + delays[k]
            H = H + g * path(rho / C + delay) / np.sqrt(rho)
        for m in range(ch.image_count):
            p = np.hypot(rho, 2.0 * ch.image_offsets[m])
            g = ch.image_gains[m] * gains[1 + ch.tap_count + m]
            H = H + g * path(p / C + delays[1 + ch.tap_count + m]) / np.sqrt(p)
        got = channel_response(ch, rho, f, 2)
        assert np.shape(got) == np.broadcast_shapes(np.shape(rho), np.shape(f))
        np.testing.assert_allclose(got, H, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("f", [
        np.array([1.0e9, 1.1e9, 1.3e9]),
        np.geomspace(1.4e9, 3.4e9, 16),
        np.array([[1.0e9, 1.1e9, 1.2e9], [1.0e9, 1.1e9, 1.25e9]]),
        np.array([1.0e9, np.nan, 1.2e9]),
    ], ids=["uneven", "geometric", "one_bad_row", "nan"])
    def test_frequencies_off_an_arithmetic_grid_refused(self, f):
        for wall in (WallClass.FREE_SPACE, WallClass.LOW_CONDUCTIVITY):
            with pytest.raises(ConfigError):
                channel_response(ChannelModel(wall), 3.0, f, 1)

    def test_range_varying_along_the_frequency_grid_refused(self):
        f = np.linspace(1.4e9, 3.4e9, 5)
        with pytest.raises(ConfigError):
            channel_response(ChannelModel(), np.linspace(1.0, 6.0, 5), f, 1)

    def test_wall_classes_differ_in_structure(self):
        low = ChannelModel(WallClass.LOW_CONDUCTIVITY)
        high = ChannelModel(WallClass.HIGH_CONDUCTIVITY)
        assert low.direct_gain > 0
        assert high.direct_gain == 0.0
        assert high.image_gains[0] > low.image_gains[0]


class TestRadarReturns:
    def test_single_static_scatterer(self):
        radar = RadarConfig(carrier_hz=2.4e9, duration_s=1.0, sample_rate_hz=100.0)
        t = radar.time_grid
        track = ScattererTrack(t, np.ones_like(t), np.ones_like(t), [1.0])
        s = radar_returns(track, ChannelModel(), radar)
        expected = np.exp(-4j * np.pi * 2.4e9 / C)
        np.testing.assert_allclose(s[:, 0], expected, atol=1e-12)
        np.testing.assert_allclose(np.abs(s), 1.0, atol=1e-12)

    def test_coherent_sum_of_equal_scatterers(self):
        radar = RadarConfig(duration_s=0.5, sample_rate_hz=100.0)
        t = radar.time_grid
        one = ScattererTrack(t, 2 * np.ones_like(t), 2 * np.ones_like(t), [1.0])
        two = ScattererTrack(t, 2 * np.ones((2, t.size)), 2 * np.ones((2, t.size)),
                             [1.0, 1.0])
        s1 = radar_returns(one, ChannelModel(), radar)
        s2 = radar_returns(two, ChannelModel(), radar)
        np.testing.assert_allclose(np.abs(s2), 2 * np.abs(s1), atol=1e-12)

    def test_linearity_over_scatterer_union(self):
        radar = RadarConfig(duration_s=0.5, sample_rate_hz=100.0)
        t = radar.time_grid
        rng = np.random.default_rng(0)
        r = 3.0 + rng.random((2, t.size))
        a = ScattererTrack(t, r[0], r[0] * 0.9, [0.7])
        b = ScattererTrack(t, r[1], r[1] * 0.8, [1.3])
        both = ScattererTrack(t, r, r * [[0.9], [0.8]], [0.7, 1.3])
        ch = ChannelModel(WallClass.LOW_CONDUCTIVITY, seed=1)
        s = radar_returns(both, ch, radar)
        s_sum = radar_returns(a, ch, radar) + radar_returns(b, ch, radar)
        np.testing.assert_allclose(s, s_sum, rtol=1e-12, atol=1e-15)

    def test_doppler_peak_matches_analytic(self):
        fc = 2.4e9
        rate = 500.0
        v = 5.0  # -> f_D = 2 v fc / c = 80 Hz
        radar = RadarConfig(carrier_hz=fc, duration_s=2.0, sample_rate_hz=rate)
        track = radial_track(100.0, v, 2.0, rate)
        s = radar_returns(track, ChannelModel(), radar)[:, 0]
        spec = np.abs(np.fft.fftshift(np.fft.fft(s)))
        freqs = np.fft.fftshift(np.fft.fftfreq(s.size, d=1 / rate))
        f_peak = freqs[np.argmax(spec)]
        assert f_peak == pytest.approx(2 * v * fc / C, abs=freqs[1] - freqs[0])

    @pytest.mark.parametrize("wideband", [False, True],
                             ids=["narrowband", "wideband"])
    @pytest.mark.parametrize("wall", [WallClass.FREE_SPACE,
                                      WallClass.LOW_CONDUCTIVITY])
    def test_samples_are_rows_of_the_full_grid(self, wall, wideband):
        radar = RadarConfig(bandwidth_hz=2e9 if wideband else 0.0,
                            freq_count=16, duration_s=0.5, sample_rate_hz=100.0)
        track = gait_trajectory(GaitParams(), (0.5, 0.0), 0.5, 100.0)
        ch = ChannelModel(wall, realizations=2, seed=5)
        idx = np.array([0, 7, 7, 3, 49, 20, 0])
        full = radar_returns(track, ch, radar, eta=2)
        np.testing.assert_array_equal(
            radar_returns(track, ch, radar, eta=2, samples=idx), full[idx])

    @pytest.mark.parametrize("freq_count", [2, 133, 1024])
    @pytest.mark.parametrize("wall", [WallClass.FREE_SPACE,
                                      WallClass.LOW_CONDUCTIVITY])
    def test_wideband_matches_per_frequency_exp(self, wall, freq_count):
        radar = RadarConfig(bandwidth_hz=2e9, freq_count=freq_count,
                            duration_s=0.2, sample_rate_hz=100.0)
        track = gait_trajectory(GaitParams(), (0.5, 0.0), 0.2, 100.0)
        ch = ChannelModel(wall, realizations=2, seed=5)
        # relative to each sample's scale: where the scatterers' returns
        # cancel, no evaluation order keeps a 1e-12 elementwise rtol
        ref, scale = _direct_returns(track, ch, radar, 2)
        err = np.abs(radar_returns(track, ch, radar, eta=2) - ref) / scale
        assert err.max() <= 1e-12

    @pytest.mark.parametrize("samples", [[0, 50], [-1, 2], [0.0, 1.0],
                                         np.array([[1, 2]]), [True, False]],
                             ids=["past_end", "negative", "float",
                                  "two_dimensional", "boolean"])
    def test_bad_samples(self, samples):
        radar = RadarConfig(duration_s=0.5, sample_rate_hz=100.0)
        t = radar.time_grid
        track = ScattererTrack(t, np.ones_like(t), np.ones_like(t), [1.0])
        with pytest.raises(ConfigError):
            radar_returns(track, ChannelModel(), radar, samples=samples)

    def test_grid_mismatch(self):
        radar = RadarConfig(duration_s=1.0, sample_rate_hz=100.0)
        t = np.arange(50) / 100.0
        track = ScattererTrack(t, np.ones_like(t), np.ones_like(t), [1.0])
        with pytest.raises(ConfigError):
            radar_returns(track, ChannelModel(), radar)


class TestSpectrogram:
    def test_pure_tone_single_ridge(self):
        rate, f_d = 500.0, 50.0
        t = np.arange(1000) / rate
        sig = np.exp(2j * np.pi * f_d * t)
        power, doppler, _ = spectrogram(sig, rate, window_s=0.1)
        ridge_rows = np.argmax(power, axis=0)
        assert np.all(ridge_rows == ridge_rows[0])
        assert doppler[ridge_rows[0]] == pytest.approx(f_d, abs=doppler[1] - doppler[0])

    def test_silence_hits_db_floor(self):
        power, _, _ = spectrogram(np.zeros(500, dtype=complex), 500.0, 0.1)
        img = to_db_normalize(power, (-70, -20))
        np.testing.assert_array_equal(img, np.zeros_like(img))

    def test_two_tone_power_ratio(self):
        rate = 500.0
        t = np.arange(2000) / rate
        sig = np.exp(2j * np.pi * 100 * t) + 0.5 * np.exp(-2j * np.pi * 100 * t)
        power, doppler, _ = spectrogram(sig, rate, window_s=0.1)
        i_pos = np.argmin(np.abs(doppler - 100.0))
        i_neg = np.argmin(np.abs(doppler + 100.0))
        ratio_db = 10 * np.log10(power[i_pos].mean() / power[i_neg].mean())
        assert ratio_db == pytest.approx(20 * np.log10(2.0), abs=0.05)

    @pytest.mark.parametrize("size, hop, bins", [(300, 5, None), (301, 7, 64),
                                                 (250, 50, 80), (50, 3, 50)])
    def test_matches_per_frame_loop(self, size, hop, bins):
        rng = np.random.default_rng(size)
        sig = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        power, _, times = spectrogram(sig, 500.0, 0.1, hop=hop, doppler_bins=bins)
        win_len, nfft = 50, bins or 50
        window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(win_len) / win_len)
        n_frames = 1 + (size - win_len) // hop
        ref = np.empty((nfft, n_frames))
        for j in range(n_frames):
            seg = sig[j * hop: j * hop + win_len] * window
            ref[:, j] = np.abs(np.fft.fftshift(np.fft.fft(seg, n=nfft))) ** 2
        np.testing.assert_array_equal(power, ref)
        assert times.shape == (n_frames,)

    def test_window_longer_than_signal(self):
        with pytest.raises(ConfigError):
            spectrogram(np.zeros(10, dtype=complex), 500.0, window_s=1.0)


class TestHrrp:
    def wideband(self):
        return RadarConfig(carrier_hz=2.4e9, bandwidth_hz=2.0e9, freq_count=133,
                           duration_s=0.1, sample_rate_hz=100.0)

    def test_resolution_and_unambiguous_range(self):
        radar = self.wideband()
        assert radar.range_resolution == pytest.approx(0.075, rel=1e-12)
        assert radar.unambiguous_range == pytest.approx(10.0, rel=5e-3)

    def test_point_target_in_correct_bin(self):
        radar = self.wideband()
        t = radar.time_grid
        r = 3.0
        track = ScattererTrack(t, np.full_like(t, r), np.full_like(t, r), [1.0])
        s = radar_returns(track, ChannelModel(), radar)
        power, ranges = hrrp(s, radar)
        peaks = np.argmax(power, axis=0)
        assert np.all(peaks == peaks[0])
        assert ranges[peaks[0]] == pytest.approx(r, abs=radar.range_resolution)

    def test_aliasing_beyond_unambiguous_range(self):
        radar = self.wideband()
        t = radar.time_grid
        r = 12.0
        track = ScattererTrack(t, np.full_like(t, r), np.full_like(t, r), [1.0])
        s = radar_returns(track, ChannelModel(), radar)
        power, ranges = hrrp(s, radar)
        r_alias = r % radar.unambiguous_range
        peak = np.argmax(power[:, 0])
        assert ranges[peak] == pytest.approx(r_alias, abs=radar.range_resolution)

    def test_narrowband_rejected(self):
        with pytest.raises(ConfigError):
            hrrp(np.zeros((10, 1), dtype=complex), RadarConfig(bandwidth_hz=0.0))


class TestToDbNormalize:
    def test_upper_clamp(self):
        assert to_db_normalize(np.array([1.0]), (-70, -20))[0] == 1.0

    def test_zero_power_floor(self):
        assert to_db_normalize(np.array([0.0]), (-70, -20))[0] == 0.0

    def test_affine_midpoint(self):
        mid = 10.0 ** (-45.0 / 10.0)
        assert to_db_normalize(np.array([mid]), (-70, -20))[0] == pytest.approx(0.5)

    def test_complex_input_uses_power(self):
        z = np.array([10 ** (-22.5 / 10.0) + 0j])
        assert to_db_normalize(z, (-70, -20))[0] == pytest.approx(0.5)

    def test_bad_range(self):
        with pytest.raises(ConfigError):
            to_db_normalize(np.ones(3), (-20, -20))


def _full_grid_hrrp_images(s_rx, radar, spec):
    """The image columns picked out of the whole time grid's HRRP."""
    power, _ = hrrp(s_rx, radar)
    rows, cols = spec.image_shape
    return [power[:rows, np.linspace(lo, hi - 1, cols).astype(int)]
            for lo, hi in datasets._interval_bounds(spec)]


class TestHrrpDataset:
    @pytest.mark.parametrize("wall", ["low", "high"])
    def test_kept_samples_match_full_grid_synthesis(self, monkeypatch, wall):
        spec = DatasetSpec(kind="hrrp", wall_class=wall, bandwidth_hz=2e9,
                           freq_count=64, intervals=2, realizations=1,
                           noise_draws=2, snr_db=0.0, seed=4)
        clean, corrupt = datasets.generate_pair(spec)
        full_grid = datasets.radar_returns
        monkeypatch.setattr(
            datasets, "radar_returns",
            lambda track, channel, radar, eta, samples: full_grid(
                track, channel, radar, eta=eta))
        monkeypatch.setattr(datasets, "_hrrp_images", _full_grid_hrrp_images)
        ref_clean, ref_corrupt = datasets.generate_pair(spec)
        assert clean.data.shape == (64 * 64, 4)
        np.testing.assert_array_equal(clean.data, ref_clean.data)
        np.testing.assert_array_equal(corrupt.data, ref_corrupt.data)
