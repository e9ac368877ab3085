import functools
import multiprocessing
import os
import threading
from concurrent import futures
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from radden import _parallel, baselines, metrics
from radden import cli as cli_module
from radden.autoencoders import load_weights
from radden.baselines import (SvdFilterConfig, WaveletFilterConfig,
                              svd_denoise, wavelet_denoise)
from radden.bench import (BaselineSpec, DatasetSpec, ExperimentConfig,
                          SweepSpec, TrainSpec, csv_content_hash,
                          evaluate_grid_point, generate_pair, load_config,
                          load_rows, parse_config, run_sweep, summarize,
                          train_model, write_plot_data, write_rows)
from radden.bench import datasets as datasets_module
from radden.bench import sweep as sweep_module
from radden.bench.sweep import ResultRow, _mean_nmse
from radden.cli import main
from radden.dataset import (add_noise, add_point_clutter, frontal_phantoms,
                            signal_reference)
from radden.errors import ConfigError, DomainError
from radden.metrics import (BLOCK_IMAGES, columns_to_images,
                            images_to_columns, ssim_stack)


# configs with a nan setting or -inf dB of SNR, and the key each must name
NON_FINITE_SETTINGS = [
    pytest.param("[dataset]\nsnr_db = nan\n", "snr_db", id="snr_nan"),
    pytest.param("[dataset]\nsnr_db = -inf\n", "snr_db", id="snr_minus_inf"),
    pytest.param("[dataset]\ncarrier_hz = nan\n", "carrier_hz", id="carrier_nan"),
    pytest.param("[dataset]\nkind = hrrp\nbandwidth_hz = nan\n"
                 "freq_count = 133\n", "bandwidth_hz", id="bandwidth_nan"),
    pytest.param("[dataset]\nkind = frontal\nscr_db = nan\n", "scr_db",
                 id="frontal_scr_nan"),
    pytest.param("[dataset]\npfa = nan\n", "pfa", id="pfa_nan"),
    pytest.param("[sweep]\naxis = scr\nvalues = 0 nan\n", "values",
                 id="scr_grid_nan"),
    pytest.param("[sweep]\naxis = snr\nvalues = -inf 0\n", "values",
                 id="snr_grid_minus_inf"),
]


def tiny_config(**sweep_kw):
    sweep = dict(axis="snr", values=(0.0,), seeds=(0,),
                 algorithms=("dae", "wavelet"), split=0.7)
    sweep.update(sweep_kw)
    return ExperimentConfig(
        dataset=DatasetSpec(kind="spectrogram", realizations=2, intervals=8,
                            noise_draws=2),
        sweep=SweepSpec(**sweep),
        train=TrainSpec(dae_nodes=32, sparse_nodes=24, outer_iterations=3,
                        ista_iterations=10, stacked_sizes=(32, 16, 8)))


def count_qr(monkeypatch):
    """The shapes of the matrices np.linalg.qr factors from now on."""
    calls, qr = [], np.linalg.qr

    def counting(A, *args, **kwargs):
        calls.append(np.shape(A))
        return qr(A, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "qr", counting)
    return calls


def make_row(**kw):
    base = dict(kind="spectrogram", algorithm="dae", carrier_hz=2.4e9,
                wall_class="low", snr_db=0.0, scr_db=0.0, mismatch_pct=0.0,
                ssim_bd=0.1, ssim_ad=0.8, nmse_bd=2.0, nmse_ad=0.2,
                train_seconds=1.0, test_ms=5.0, seed=0)
    base.update(kw)
    return ResultRow(**base)


class TestConfigParsing:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.dataset.kind == "spectrogram"
        assert cfg.sweep.split == 0.7
        assert cfg.output_dir == "results"

    def test_all_sections_parsed(self):
        cfg = parse_config(
            "[dataset]\nkind = hrrp\nbandwidth_hz = 2e9\nfreq_count = 133\n"
            "wall_class = high\nnoise_draws = 3\n"
            "[sweep]\naxis = mismatch\nvalues = 0 0.25 0.5\nseeds = 1 2 3\n"
            "algorithms = stacked_sdae svd\nsplit = 0.8\n"
            "[train]\nstacked_sizes = 128 64 32\nouter_iterations = 7\n"
            "[baselines]\nwavelet_keep = 0.2\n"
            "[output]\ndirectory = /tmp/x\n")
        assert cfg.dataset.kind == "hrrp"
        assert cfg.dataset.wall_class == "high"
        assert cfg.sweep.values == (0.0, 0.25, 0.5)
        assert cfg.sweep.seeds == (1, 2, 3)
        assert cfg.train.stacked_sizes == (128, 64, 32)
        assert cfg.baselines.wavelet_keep == 0.2
        assert cfg.output_dir == "/tmp/x"

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[nonsense]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[dataset]\nkindd = spectrogram\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[dataset]\nrealizations = two\n")

    def test_invalid_split(self):
        with pytest.raises(ConfigError):
            parse_config("[sweep]\nsplit = 1.5\n")

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(values=())

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[sweep]\nalgorithms = dae perceptron\n")

    def test_unknown_wall_class_rejected(self):
        with pytest.raises(ConfigError, match="brick"):
            parse_config("[dataset]\nwall_class = brick\n")

    @pytest.mark.parametrize("path", sorted(
        (Path(__file__).parents[1] / "configs").glob("*.ini")),
        ids=lambda p: p.name)
    def test_shipped_config_loads(self, path):
        assert isinstance(load_config(path), ExperimentConfig)

    @pytest.mark.parametrize("key", ["image_rows", "image_cols", "db_floor",
                                     "db_ceil", "headroom_db"])
    def test_fixed_image_setting_rejected(self, key):
        # image sizes, the dB window and the headroom are not settable
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(f"[dataset]\nkind = frontal\n{key} = 32\n")

    def test_wideband_spectrogram_rejected(self):
        # the STFT would read only f0 = carrier - bandwidth / 2
        with pytest.raises(ConfigError, match="bandwidth_hz"):
            parse_config("[dataset]\nkind = spectrogram\n"
                         "bandwidth_hz = 2e9\nfreq_count = 133\n")

    @pytest.mark.parametrize("key, value", [("wall_class", "high"),
                                            ("carrier_hz", "1e9"),
                                            ("bandwidth_hz", "2e9"),
                                            ("freq_count", "133")])
    def test_frontal_radar_setting_rejected(self, key, value):
        # phantoms have no wall and no radar; the rows would record the key
        with pytest.raises(ConfigError, match=key):
            parse_config(f"[dataset]\nkind = frontal\n{key} = {value}\n")
        default = getattr(DatasetSpec(), key)
        cfg = parse_config(f"[dataset]\nkind = frontal\n{key} = {default}\n")
        assert getattr(cfg.dataset, key) == default

    def test_narrowband_spectrogram_takes_one_frequency(self):
        # the images at freq_count = 133 were bitwise those at 1
        with pytest.raises(ConfigError,
                           match="spectrogram images take no freq_count"):
            parse_config("[dataset]\nkind = spectrogram\nfreq_count = 133\n")

    @pytest.mark.parametrize("kind, extra", [
        ("spectrogram", ""), ("hrrp", "bandwidth_hz = 2e9\nfreq_count = 133\n")],
        ids=["spectrogram", "hrrp"])
    def test_scr_without_clutter_rejected(self, kind, extra):
        # radar images draw no clutter at pfa = 0, so scr_db is never read
        head = f"[dataset]\nkind = {kind}\n{extra}"
        with pytest.raises(ConfigError, match="scr_db at pfa = 0"):
            parse_config(head + "scr_db = 5\n")
        assert parse_config(head + "scr_db = 5\npfa = 0.05\n").dataset.scr_db == 5
        # frontal corruption draws clutter at CLUTTER_PFA when pfa = 0
        cfg = parse_config("[dataset]\nkind = frontal\nscr_db = 5\n")
        assert cfg.dataset.scr_db == 5

    def test_nodes_axis_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(axis="nodes")

    def test_repeated_value_rejected(self):
        # the grid point would run twice and its rows count twice
        with pytest.raises(ConfigError, match="values"):
            parse_config("[sweep]\nvalues = 10 0 10.0\n")

    def test_repeated_seed_rejected(self):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config("[sweep]\nseeds = 1 2 1\n")

    def test_repeated_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="algorithms"):
            parse_config("[sweep]\nalgorithms = dae svd dae\n")

    def test_fixed_mismatch_on_mismatch_axis_rejected(self):
        # the grid values set the mismatch; a fixed one would be ignored
        with pytest.raises(ConfigError, match="mismatch"):
            SweepSpec(axis="mismatch", values=(0.0, 0.5), mismatch=0.25)
        assert SweepSpec(axis="mismatch", values=(0.0, 0.5), mismatch=0.0)
        assert SweepSpec(axis="snr", mismatch=0.25).mismatch == 0.25

    @pytest.mark.parametrize("text, key", NON_FINITE_SETTINGS)
    def test_non_finite_setting_rejected(self, text, key):
        # nan and -inf dB would fail only at generation, or pass as "no noise"
        with pytest.raises(ConfigError, match=key):
            parse_config(text)

    def test_infinite_snr_parses_as_no_noise(self):
        assert parse_config("[dataset]\nsnr_db = inf\n").dataset.snr_db == np.inf
        cfg = parse_config("[sweep]\naxis = snr\nvalues = 0 inf\n")
        assert cfg.sweep.values == (0.0, np.inf)


def _clutter_then_noise(stack, clean, spec, pfa):
    """The corruption contract: clutter at `pfa` with seed [seed, 3], then
    one noise draw per replica with seed [seed, 4, draw], both against the
    clean stack's reference level."""
    ref = signal_reference(clean)
    cluttered = add_point_clutter(stack, spec.scr_db, pfa,
                                  seed=[spec.seed, 3], signal_ref=ref)
    out = cluttered.data.copy()
    d = spec.noise_draws
    for draw in range(d):
        cols = np.arange(draw, stack.count, d)
        out[:, cols] = add_noise(cluttered.select(cols), spec.snr_db,
                                 seed=[spec.seed, 4, draw], signal_ref=ref).data
    return out


# one small spec per kind, and for each DatasetSpec field the values to try
# in its place, in order, the first that differs from the spec's
_SMALL_SPECS = {
    "spectrogram": DatasetSpec(kind="spectrogram", realizations=1,
                               intervals=2, noise_draws=2),
    "hrrp": DatasetSpec(kind="hrrp", bandwidth_hz=2e9, freq_count=64,
                        realizations=1, intervals=2, noise_draws=2),
    "frontal": DatasetSpec(kind="frontal", realizations=1, intervals=2,
                           noise_draws=2),
}
_OTHER_VALUES = {
    "kind": ("spectrogram", "frontal"), "wall_class": ("high",),
    "carrier_hz": (1.4e9,), "bandwidth_hz": (1e9,), "freq_count": (128,),
    "realizations": (2,), "intervals": (3,), "noise_draws": (3,),
    "snr_db": (0.0,), "scr_db": (5.0,), "pfa": (0.05,), "seed": (1,),
}


def _pair_data(spec):
    return tuple((stack.image_shape, stack.data.tobytes())
                 for stack in generate_pair(spec))


@functools.cache
def _small_pair_data(kind):
    return _pair_data(_SMALL_SPECS[kind])


class TestGeneration:
    def test_column_counting(self):
        spec = DatasetSpec(kind="spectrogram", realizations=2, intervals=8,
                           noise_draws=10)
        clean, corrupt = generate_pair(spec)
        assert clean.count == 160 and corrupt.count == 160
        assert clean.metadata_matches(corrupt)
        # metadata covers every (interval, realization) pair, 10 draws each
        pairs = set(zip(clean.interval_index.tolist(),
                        clean.realization.tolist()))
        assert len(pairs) == 16
        assert np.all(np.bincount(clean.interval_index) == 20)

    def test_free_space_no_noise_identical_stacks(self):
        spec = DatasetSpec(kind="spectrogram", wall_class="free_space",
                           realizations=1, intervals=4, noise_draws=2,
                           snr_db=float("inf"))
        clean, corrupt = generate_pair(spec)
        np.testing.assert_array_equal(clean.data, corrupt.data)

    def test_deterministic_generation(self):
        spec = DatasetSpec(kind="spectrogram", realizations=2, intervals=4,
                           noise_draws=2, seed=5)
        a_clean, a_corrupt = generate_pair(spec)
        b_clean, b_corrupt = generate_pair(spec)
        np.testing.assert_array_equal(a_clean.data, b_clean.data)
        np.testing.assert_array_equal(a_corrupt.data, b_corrupt.data)
        c_clean, c_corrupt = generate_pair(
            DatasetSpec(kind="spectrogram", realizations=2, intervals=4,
                        noise_draws=2, seed=6))
        assert not np.array_equal(a_corrupt.data, c_corrupt.data)

    @pytest.mark.parametrize("spec", [
        DatasetSpec(realizations=1, intervals=4, noise_draws=2),
        DatasetSpec(realizations=1, intervals=4, noise_draws=2, pfa=0.1),
        DatasetSpec(kind="hrrp", bandwidth_hz=2e9, freq_count=133,
                    realizations=1, intervals=4, noise_draws=2),
        DatasetSpec(kind="frontal", realizations=2, intervals=2,
                    noise_draws=2)],
        ids=["spectrogram", "spectrogram_clutter", "hrrp", "frontal"])
    def test_memory_order(self, spec):
        # the memory order sets how later reductions round, so it is pinned:
        # replicating the base columns leaves a Fortran-ordered stack, and
        # point clutter (always on for frontal images) writes a C-ordered copy
        clean, corrupt = generate_pair(spec)
        assert clean.data.flags.f_contiguous and not clean.data.flags.c_contiguous
        cluttered = spec.kind == "frontal" or spec.pfa > 0.0
        assert corrupt.data.flags.c_contiguous == cluttered
        assert corrupt.data.flags.f_contiguous == (not cluttered)

    def test_frontal_pair(self):
        spec = DatasetSpec(kind="frontal", realizations=2, intervals=4,
                           noise_draws=2, snr_db=10.0)
        clean, corrupt = generate_pair(spec)
        assert clean.image_shape == (31, 31)
        assert clean.count == 16
        assert not np.array_equal(clean.data, corrupt.data)

    @pytest.mark.parametrize("pfa, rate", [(0.0, 0.06), (0.2, 0.2)])
    def test_frontal_corruption_contract(self, pfa, rate):
        spec = DatasetSpec(kind="frontal", realizations=2, intervals=3,
                           noise_draws=2, snr_db=5.0, scr_db=3.0, pfa=pfa,
                           seed=7)
        clean, corrupt = generate_pair(spec)
        c = np.repeat(np.arange(6), 2)
        base = frontal_phantoms(6, seed=7)
        np.testing.assert_array_equal(clean.data, base.data[:, c])
        np.testing.assert_array_equal(
            corrupt.data, _clutter_then_noise(base.select(c), clean, spec, rate))
        for stack in (clean, corrupt):
            np.testing.assert_array_equal(stack.interval_index, c % 3)
            np.testing.assert_array_equal(stack.realization, c // 3 + 1)

    def test_spectrogram_clutter_then_noise(self):
        spec = DatasetSpec(kind="spectrogram", realizations=2, intervals=2,
                           noise_draws=3, snr_db=0.0, scr_db=5.0, pfa=0.1,
                           seed=2)
        clean, corrupt = generate_pair(spec)
        _, wall_only = generate_pair(replace(spec, snr_db=float("inf"),
                                             pfa=0.0, scr_db=0.0))
        np.testing.assert_array_equal(
            corrupt.data, _clutter_then_noise(wall_only, clean, spec, 0.1))
        c = np.repeat(np.arange(4), 3)
        for stack in (clean, corrupt):
            np.testing.assert_array_equal(stack.interval_index, c % 2)
            np.testing.assert_array_equal(stack.realization, c // 2 + 1)

    def test_too_few_stft_frames_refused(self):
        # 3,000 samples over 9 intervals give 57 frames, not 64
        spec = DatasetSpec(kind="spectrogram", realizations=1, intervals=9,
                           noise_draws=1)
        with pytest.raises(ConfigError, match=r"intervals = 9 .*needs 64"):
            generate_pair(spec)

    def test_too_few_range_bins_refused(self):
        spec = DatasetSpec(kind="hrrp", bandwidth_hz=2e9, freq_count=32,
                           realizations=1, intervals=2, noise_draws=1)
        with pytest.raises(ConfigError, match=r"freq_count = 32 .*needs 64"):
            generate_pair(spec)

    def test_hrrp_intervals_short_of_64_samples_refused(self, monkeypatch):
        # 3,000 samples over 47 intervals leave 63 per interval
        def synthesis(*args, **kwargs):
            raise AssertionError("synthesis started")
        monkeypatch.setattr(datasets_module, "radar_returns", synthesis)
        spec = DatasetSpec(kind="hrrp", bandwidth_hz=2e9, freq_count=64,
                           realizations=1, intervals=47, noise_draws=1)
        with pytest.raises(ConfigError, match=r"intervals = 47 .*needs 64"):
            generate_pair(spec)

    def test_hrrp_46_intervals_keep_64_distinct_samples(self, monkeypatch):
        seen, original = [], datasets_module.radar_returns

        def recording(*args, samples=None, **kwargs):
            seen.append(samples)
            return original(*args, samples=samples, **kwargs)
        monkeypatch.setattr(datasets_module, "radar_returns", recording)
        spec = DatasetSpec(kind="hrrp", bandwidth_hz=2e9, freq_count=64,
                           realizations=1, intervals=46, noise_draws=1)
        clean, _ = generate_pair(spec)
        assert clean.count == 46 and len(seen) == 2
        for samples in seen:
            per_interval = samples.reshape(46, 64)
            assert all(len(set(row)) == 64 for row in per_interval)

    @pytest.mark.parametrize("name", [f.name for f in fields(DatasetSpec)])
    @pytest.mark.parametrize("kind", ["spectrogram", "hrrp", "frontal"])
    def test_every_accepted_setting_is_read(self, kind, name):
        # a setting that a kind's config accepts must change its pair
        base = _SMALL_SPECS[kind]
        value = next(v for v in _OTHER_VALUES[name] if v != getattr(base, name))
        try:
            spec = replace(base, **{name: value})
        except ConfigError:
            return
        assert _pair_data(spec) != _small_pair_data(kind), (
            f"{kind} accepts {name} = {value!r} and ignores it")

    def test_noise_draws_differ(self):
        spec = DatasetSpec(kind="spectrogram", realizations=1, intervals=2,
                           noise_draws=3, snr_db=0.0)
        clean, corrupt = generate_pair(spec)
        # same base image, different draws -> clean equal, corrupt distinct
        np.testing.assert_array_equal(clean.data[:, 0], clean.data[:, 1])
        assert not np.array_equal(corrupt.data[:, 0], corrupt.data[:, 1])


@pytest.mark.parametrize("text", [
    "[train]\nstacked_sizes = 64 32\n",
    "[train]\nstacked_sizes = 64 32 16 8\n",
])
def test_stacked_tuples_need_three_entries(tmp_path, text):
    with pytest.raises(ConfigError):
        parse_config(text)
    ini = tmp_path / "exp.ini"
    ini.write_text(text)
    assert main(["train", "--config", str(ini)]) == 2


@pytest.mark.parametrize("section, key, raw, value", [
    ("train", "dae_lambda", "1", 1.0),
    ("train", "sparse_lambda", "1", 1.0),
    ("train", "sparse_mu", "1", 1.0),
    ("train", "stacked_mu", "1 1 1", (1.0, 1.0, 1.0)),
    ("train", "stacked_mu", "1 1 1 5", (1.0, 1.0, 1.0)),
    ("train", "stacked_lambda", "1 1 3.5", (1.0, 1.0, 3.5)),
    ("train", "stacked_lambda", "1", (1.0, 1.0, 3.5)),
    ("train", "outer_tolerance", "1e-6", 1e-6),
    ("train", "ista_tolerance", "1e-6", 1e-6),
    ("baselines", "svd_energy", "0.95", 0.95),
    ("baselines", "wavelet_levels", "2", 2),
])
def test_fixed_settings_are_not_keys(tmp_path, capsys, section, key, raw,
                                     value):
    # the trainers and baselines read these constants as attributes, but a
    # config may not set them, not even to the value they hold
    spec = {"train": TrainSpec, "baselines": BaselineSpec}[section]
    assert getattr(spec(), key) == value
    assert key not in {f.name for f in fields(spec)}
    text = f"[{section}]\n{key} = {raw}\n"
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config(text)
    ini = tmp_path / "exp.ini"
    ini.write_text(text)
    assert main(["train", "--config", str(ini)]) == 2
    assert key in capsys.readouterr().err


class TestSweep:
    def test_row_counting(self):
        cfg = tiny_config(values=(0.0, 10.0, 20.0), seeds=(0, 1))
        rows = run_sweep(cfg)
        assert len(rows) == 12  # 2 algorithms x 3 SNR points x 2 seeds

    def test_bd_consistent_across_algorithms(self):
        cfg = tiny_config(algorithms=("dae", "svd", "wavelet"))
        rows = run_sweep(cfg)
        bd = {(r.ssim_bd, r.nmse_bd) for r in rows}
        assert len(bd) == 1  # exact equality: same corrupt data measured

    def test_rows_sorted_by_kind_algorithm_grid(self):
        cfg = tiny_config(values=(20.0, 0.0), seeds=(0,))
        rows = run_sweep(cfg)
        keys = [(r.kind, r.algorithm) for r in rows]
        assert keys == sorted(keys)
        # grid order follows the configured value order, not numeric order
        dae = [r.snr_db for r in rows if r.algorithm == "dae"]
        assert dae == [20.0, 0.0]

    def test_csv_round_trip_and_stable_hash(self, tmp_path):
        cfg = tiny_config()
        rows = run_sweep(cfg)
        p1 = write_rows(rows, tmp_path / "a.csv")
        back = load_rows(p1)
        assert [(r.algorithm, r.ssim_ad) for r in back] == \
            [(r.algorithm, r.ssim_ad) for r in rows]
        # rerun: timings differ, content hash (timings excluded) does not
        p2 = write_rows(run_sweep(cfg), tmp_path / "b.csv")
        assert csv_content_hash(p1) == csv_content_hash(p2)

    def test_mismatch_axis(self):
        cfg = tiny_config(axis="mismatch", values=(0.0, 0.5),
                          algorithms=("dae",))
        rows = run_sweep(cfg)
        assert [r.mismatch_pct for r in rows] == [0.0, 50.0]

    def test_grid_point_factors_the_clean_stack_once(self, monkeypatch):
        qr_calls = count_qr(monkeypatch)
        cfg = tiny_config(algorithms=("dae", "sparse_dae", "stacked_sdae",
                                      "svd", "wavelet"))
        rows = evaluate_grid_point(cfg, 0.0, 0)
        assert len(rows) == 5 and len(qr_calls) == 1
        assert evaluate_grid_point(tiny_config(algorithms=("svd",)), 0.0, 0)
        assert len(qr_calls) == 1   # no autoencoder, no factorization
        # a baseline between two autoencoders does not end the sharing
        mixed = tiny_config(algorithms=("svd", "dae", "wavelet", "sparse_dae"))
        rows = evaluate_grid_point(mixed, 0.0, 0)
        assert len(qr_calls) == 2
        assert [r.train_seconds > 0 for r in rows] == [False, True, False, True]

    def test_mismatch_rows_follow_grid_order(self, monkeypatch):
        # 0.014 does not survive the round trip through mismatch_pct / 100
        def rows_for(cfg, value, seed):
            return [make_row(algorithm=a, mismatch_pct=100.0 * value, seed=seed)
                    for a in cfg.sweep.algorithms]
        monkeypatch.setattr(sweep_module, "evaluate_grid_point", rows_for)
        cfg = tiny_config(axis="mismatch", values=(0.014, 0.5), seeds=(1, 0),
                          algorithms=("wavelet", "dae"))
        rows = run_sweep(cfg)
        assert [(r.algorithm, r.mismatch_pct, r.seed) for r in rows] == [
            (a, 100.0 * v, s) for a in ("dae", "wavelet")
            for v in (0.014, 0.5) for s in (0, 1)]

    def test_scores_are_ssim_stack_calls_in_algorithm_order(self,
                                                            monkeypatch):
        # the order of ssim_stack calls that a recorder of the sweep reads:
        # the corrupt test input first, then one call per algorithm
        calls = []
        original = sweep_module.ssim_stack

        def recording(stack, ref, shape):
            values = original(stack, ref, shape)
            calls.append((stack, ref, values))
            return values
        monkeypatch.setattr(sweep_module, "ssim_stack", recording)
        cfg = tiny_config(algorithms=("wavelet", "dae", "svd"))
        rows = evaluate_grid_point(cfg, 5.0, 0)
        clean, corrupt = generate_pair(replace(cfg.dataset, snr_db=5.0,
                                               seed=0))
        _, test = sweep_module._split_columns(clean.count, cfg.sweep.split, 0)
        clean_te, corrupt_te = clean.data[:, test], corrupt.data[:, test]
        shape = cfg.dataset.image_shape
        assert [r.algorithm for r in rows] == list(cfg.sweep.algorithms)
        assert len(calls) == 1 + len(rows)
        np.testing.assert_array_equal(calls[0][0], corrupt_te)
        ssim_bd = float(np.mean(calls[0][2]))
        for row, (stack, ref, values) in zip(rows, calls[1:]):
            np.testing.assert_array_equal(ref, clean_te)
            if row.algorithm != "dae":
                np.testing.assert_array_equal(
                    stack, sweep_module._baseline_denoise(
                        row.algorithm, corrupt_te, shape, cfg))
            assert row.ssim_bd == ssim_bd
            assert row.ssim_ad == float(np.mean(values))
            assert row.nmse_ad == _mean_nmse(stack, clean_te)

    def test_denoising_beats_bd_at_clean_conditions(self):
        cfg = tiny_config(values=(10.0,), algorithms=("dae",))
        cfg.train.outer_iterations = 10
        (row,) = run_sweep(cfg)
        assert row.ssim_ad >= row.ssim_bd

    def test_parallel_run_matches_serial(self, tmp_path):
        cfg = tiny_config(values=(0.0, 10.0))
        serial = write_rows(run_sweep(cfg), tmp_path / "serial.csv")
        parallel = write_rows(run_sweep(cfg, jobs=2), tmp_path / "parallel.csv")
        assert csv_content_hash(parallel) == csv_content_hash(serial)

    def test_grid_points_on_two_threads_match_serial(self):
        # the BLAS pin and the running-thread cap are shared across threads
        cfg = tiny_config(values=(0.0, 5.0),
                          algorithms=("dae", "sparse_dae", "stacked_sdae",
                                      "svd", "wavelet"))

        def content(value):
            return [replace(r, train_seconds=0.0, test_ms=0.0)
                    for r in evaluate_grid_point(cfg, value, 0)]
        serial = [content(v) for v in cfg.sweep.values]
        with futures.ThreadPoolExecutor(2) as pool:
            concurrent = list(pool.map(content, cfg.sweep.values,
                                       timeout=120))
        assert concurrent == serial

    def test_scr_axis(self):
        cfg = tiny_config(axis="scr", values=(0.0, 10.0), algorithms=("wavelet",))
        rows = run_sweep(cfg)
        assert [r.scr_db for r in rows] == [0.0, 10.0]
        # the pfa = 0 input of the same seed: no clutter at all
        _, test = sweep_module._split_columns(cfg.dataset.count, cfg.sweep.split, 0)
        plain = generate_pair(replace(cfg.dataset, seed=0))[1].data[:, test]
        inputs = [sweep_module._grid_data(cfg, v, 0).corrupt_te
                  for v in cfg.sweep.values]
        assert not np.array_equal(inputs[0], plain)
        assert not np.array_equal(inputs[1], plain)
        assert not np.array_equal(inputs[0], inputs[1])


def _no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started")


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("cores, jobs, threads", [(4, 2, "2"), (2, 3, "1")])
def test_sweep_workers_start_with_their_share_of_blas_threads(
        monkeypatch, fake_threads, cores, jobs, threads):
    # the parent's own settings, which a worker must not inherit
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "5")
    fake_threads(cores, cores)
    started = []

    class Probing(futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(kwargs["mp_context"].get_start_method())

        def map(self, fn, *iterables, **kwargs):
            started.append([self.submit(os.getenv, name).result(timeout=120)
                            for name in BLAS_VARIABLES])
            return super().map(fn, *iterables, **kwargs)

    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", Probing)
    rows = run_sweep(tiny_config(algorithms=("wavelet",)), jobs=jobs)
    assert len(rows) == 1
    assert started == ["spawn", [threads] * 3]
    assert [os.environ.get(name) for name in BLAS_VARIABLES] == ["7", None, "5"]


def test_sweep_restores_blas_variables_when_the_pool_fails(monkeypatch,
                                                           fake_threads):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "5")
    fake_threads(4, 4)
    seen = []

    class Failing:
        def __init__(self, *args, **kwargs):
            seen.append([os.environ.get(name) for name in BLAS_VARIABLES])

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, **kwargs):
            raise RuntimeError("a worker died")

    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", Failing)
    with pytest.raises(RuntimeError, match="a worker died"):
        run_sweep(tiny_config(algorithms=("wavelet",)), jobs=2)
    assert seen == [["2"] * 3]
    assert [os.environ.get(name) for name in BLAS_VARIABLES] == ["7", None, "5"]


SNR_SWEEP = Path(__file__).parents[1] / "configs" / "snr_sweep.ini"


def _untimed(rows):
    return [replace(r, train_seconds=0.0, test_ms=0.0) for r in rows]


def test_diverged_trainer_scores_nan(monkeypatch, tmp_path):
    # a SparseDAE whose objective trace holds a NaN is not run on the test
    # columns: its row scores NaN and counts as diverged, every other row is
    # as in an unpatched run, and its plot cells read nan
    cfg = tiny_config(values=(0.0, 10.0), algorithms=("dae", "sparse_dae", "wavelet"))
    expected = [r for v in cfg.sweep.values for r in _untimed(evaluate_grid_point(cfg, v, 0))]
    train = sweep_module.train_sparse_dae

    def diverging(*args, **kwargs):
        weights, trace = train(*args, **kwargs)
        trace.objectives[-1] = float("nan")
        return weights, trace
    monkeypatch.setattr(sweep_module, "train_sparse_dae", diverging)
    rows = [r for v in cfg.sweep.values for r in _untimed(evaluate_grid_point(cfg, v, 0))]
    assert [r.algorithm for r in rows] == [r.algorithm for r in expected]
    for row, unpatched in zip(rows, expected):
        if row.algorithm == "sparse_dae":
            assert np.isnan(row.ssim_ad) and np.isnan(row.nmse_ad) and row.diverged
            assert replace(row, ssim_ad=0.0, nmse_ad=0.0) == \
                replace(unpatched, ssim_ad=0.0, nmse_ad=0.0)
        else:
            assert row == unpatched and not row.diverged
    (path,) = write_plot_data(rows, tmp_path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# dropped_diverged=2"
    assert lines[1] == ("# snr dae_mean dae_spread sparse_dae_mean "
                        "sparse_dae_spread wavelet_mean wavelet_spread")
    for line in lines[2:]:
        cells = line.split()
        assert cells[3:5] == ["nan", "nan"]
        assert "nan" not in cells[:3] + cells[5:]


@pytest.fixture
def process_blas():
    """Set this process's BLAS thread count through the grid point's own
    setter; the count it had is restored after the test."""
    functions = _parallel._blas_thread_functions()
    if functions is None:
        pytest.skip("no BLAS thread setter found")
    get, set_ = functions
    saved = get()
    yield functions
    set_(saved)


def test_grid_point_rows_do_not_depend_on_blas_threads(process_blas):
    # at 2 BLAS threads StackedSDAE's SSIM here read 0.6988211526, at 1
    # 0.6988208410, before the grid point ran BLAS on one thread
    get, set_ = process_blas
    cfg = load_config(SNR_SWEEP)
    rows = {}
    for threads in (2, 1):
        set_(threads)
        rows[threads] = _untimed(evaluate_grid_point(cfg, 5.0, 1))
        assert get() == threads
    assert rows[2] == rows[1]


@pytest.mark.parametrize("cores", [1, 2])
def test_grid_point_restores_blas_threads(monkeypatch, fake_threads, cores):
    blas = fake_threads(cores, 2)
    cfg = tiny_config(algorithms=("dae", "stacked_sdae"))
    assert len(evaluate_grid_point(cfg, 0.0, 0)) == 2
    assert blas.set_to == [1, 2]
    seen = []

    def failing(*args, **kwargs):
        seen.append(blas.threads)
        raise RuntimeError("trainer failed")
    monkeypatch.setattr(sweep_module, "train_stacked_sdae", failing)
    with pytest.raises(RuntimeError, match="trainer failed"):
        evaluate_grid_point(cfg, 0.0, 0)
    assert seen == [1] and blas.set_to == [1, 2, 1, 2]


def test_grid_point_scores_inside_its_own_pin(fake_threads):
    # the scoring and baseline calls' pins nest in the grid point's and set
    # nothing, even with more blocks than one
    blas = fake_threads(2, 2)
    cfg = tiny_config(algorithms=("dae", "svd"), split=0.1)
    cfg = replace(cfg, dataset=replace(cfg.dataset, noise_draws=20))
    assert len(evaluate_grid_point(cfg, 0.0, 0)) == 2   # 288 test columns
    assert blas.set_to == [1, 2]


def _record_threads(monkeypatch):
    """The thread of each trainer call and of each ssim_stack call."""
    threads = {"ssim_stack": []}

    def recording(name, fn):
        def call(*args, **kwargs):
            threads.setdefault(name, []).append(threading.get_ident())
            return fn(*args, **kwargs)
        monkeypatch.setattr(sweep_module, name, call)
    for name in ("train_dae", "train_sparse_dae", "train_stacked_sdae",
                 "ssim_stack"):
        recording(name, getattr(sweep_module, name))
    return threads


def test_grid_point_trains_on_pool_threads_alike(monkeypatch, process_blas):
    process_blas[1](2)   # a budget of min(2, cores)
    cfg = tiny_config(algorithms=("dae", "sparse_dae", "stacked_sdae",
                                  "svd", "wavelet"))
    rows, threads = {}, {}
    for cores in (1, 2):
        monkeypatch.setattr(_parallel, "_core_count", lambda: cores)
        threads[cores] = _record_threads(monkeypatch)
        rows[cores] = _untimed(evaluate_grid_point(cfg, 0.0, 0))
        monkeypatch.undo()
    assert rows[1] == rows[2]
    caller = threading.get_ident()
    assert all(set(calls) == {caller} for calls in threads[1].values())
    assert caller not in threads[2]["train_stacked_sdae"]
    assert set(threads[2]["ssim_stack"]) == {caller}
    assert len(threads[2]["ssim_stack"]) == 1 + len(rows[2])


def test_grid_point_pools_nothing_without_a_blas_setter(monkeypatch,
                                                        fake_threads):
    fake_threads(2, None)
    monkeypatch.setattr(_parallel, "ThreadPoolExecutor", _no_pool)
    threads = _record_threads(monkeypatch)
    cfg = tiny_config(algorithms=("dae", "sparse_dae", "stacked_sdae"))
    assert len(evaluate_grid_point(cfg, 0.0, 0)) == 3
    caller = threading.get_ident()
    assert all(set(calls) == {caller} for calls in threads.values())


def test_block_map_leaves_the_running_trainers_core(monkeypatch, fake_threads):
    # at 2 cores and a budget of 2, StackedSDAE trains on the one pool
    # thread, held there until DAE is scored; DAE's multi-block scoring
    # meanwhile starts no second pool thread
    fake_threads(2, 2)
    pools, scorings = [], []

    class Recording(futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)
    monkeypatch.setattr(_parallel, "ThreadPoolExecutor", Recording)
    dae_scored = threading.Event()
    train, score = sweep_module.train_stacked_sdae, sweep_module._score

    def waiting(*args, **kwargs):
        assert dae_scored.wait(timeout=60), "DAE was never scored"
        return train(*args, **kwargs)

    def recording(denoised, data):
        before = len(pools)
        result = score(denoised, data)
        scorings.append(pools[before:])
        if len(scorings) == 2:   # the corrupt input, then DAE
            dae_scored.set()
        return result
    monkeypatch.setattr(sweep_module, "train_stacked_sdae", waiting)
    monkeypatch.setattr(sweep_module, "_score", recording)
    cfg = tiny_config(algorithms=("dae", "stacked_sdae"), split=0.1)
    cfg = replace(cfg, dataset=replace(cfg.dataset, noise_draws=20))
    assert len(evaluate_grid_point(cfg, 0.0, 0)) == 2   # 288 test columns
    # SSIM and the mean NMSE pool one thread each, when no trainer runs
    assert scorings == [[1, 1], [], [1, 1]]
    assert pools == [1, 1, 1, 1, 1]   # the trainers' pool is the third


def test_run_sweep_rejects_jobs_below_one(monkeypatch):
    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", _no_pool)
    with pytest.raises(ConfigError):
        run_sweep(tiny_config(), jobs=0)


class TestMeanNmse:
    def test_matches_per_column_mean(self):
        rng = np.random.default_rng(0)
        ref = rng.random((20, 5)) + 0.1
        approx = ref + 0.1 * rng.standard_normal((20, 5))
        expected = np.mean([np.sum((approx[:, q] - ref[:, q]) ** 2)
                            / np.sum(ref[:, q] ** 2) for q in range(5)])
        assert _mean_nmse(approx, ref) == pytest.approx(expected, rel=1e-12)

    def test_zero_energy_reference_column(self):
        ref = np.ones((4, 3))
        ref[:, 1] = 0.0
        with pytest.raises(DomainError):
            _mean_nmse(np.ones((4, 3)), ref)


class TestReport:
    def test_single_row_echoed(self):
        row = make_row()
        text = summarize([row])
        assert "0.8000" in text and "0.1000" in text and "dae" in text

    def test_diverged_rows_excluded_and_counted(self):
        rows = [make_row(), make_row(seed=1, ssim_ad=float("nan"),
                                     nmse_ad=float("nan"))]
        text = summarize(rows)
        line = [ln for ln in text.splitlines() if "dae" in ln][0]
        assert line.split()[-1] == "1"       # diverged count
        assert "0.8000" in line              # mean over the finite row only

    def test_plot_data_mean_and_spread(self, tmp_path):
        rows = [make_row(ssim_ad=0.6), make_row(seed=1, ssim_ad=0.8)]
        (path,) = write_plot_data(rows, tmp_path)
        data_line = [ln for ln in path.read_text().splitlines()
                     if not ln.startswith("#")][0]
        cells = data_line.split()
        assert float(cells[1]) == pytest.approx(0.7)   # mean
        assert float(cells[2]) == pytest.approx(0.2)   # max - min

    @pytest.mark.parametrize("axis, column, levels", [
        ("snr", "snr_db", (-10.0, 0.0, 10.0)),
        ("mismatch", "mismatch_pct", (0.0, 25.0, 50.0)),
        ("scr", "scr_db", (0.0, 10.0, 20.0))])
    def test_plot_axis_is_the_varying_column(self, tmp_path, axis, column,
                                             levels):
        rows = [make_row(**{column: v}, ssim_ad=0.1 * i)
                for i, v in enumerate(levels)]
        (path,) = write_plot_data(rows, tmp_path)
        assert path.name == f"spectrogram_{axis}_ssim_ad.dat"
        lines = path.read_text().splitlines()
        assert lines[1] == f"# {axis} dae_mean dae_spread"
        assert [float(ln.split()[0]) for ln in lines[2:]] == list(levels)

    def test_one_value_grid_plots_along_snr(self, tmp_path):
        rows = [make_row(mismatch_pct=50.0), make_row(seed=1, mismatch_pct=50.0)]
        (path,) = write_plot_data(rows, tmp_path)
        assert path.name == "spectrogram_snr_ssim_ad.dat"

    def test_two_axes_in_one_kind_refused_before_writing(self, tmp_path):
        rows = [make_row(kind="frontal", snr_db=v) for v in (0.0, 10.0)]
        rows += [make_row(snr_db=0.0, mismatch_pct=v) for v in (0.0, 50.0)]
        rows += [make_row(snr_db=10.0, mismatch_pct=v) for v in (0.0, 50.0)]
        with pytest.raises(ConfigError, match="spectrogram.*snr, mismatch"):
            write_plot_data(rows, tmp_path / "plots")
        assert not (tmp_path / "plots").exists()

    def test_missing_csv_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_rows(tmp_path / "nope.csv")


class TestCli:
    def test_accept_takes_no_out(self):
        with pytest.raises(SystemExit):
            main(["accept", "--out", "unused"])

    def test_accept_prefers_working_tree_suite(self, tmp_path, monkeypatch):
        suite = tmp_path / "tests" / "test_acceptance.py"
        suite.parent.mkdir()
        suite.write_text("")
        ran = []
        monkeypatch.setattr(pytest, "main", lambda args: ran.append(args) or 0)
        monkeypatch.chdir(tmp_path)
        assert main(["accept"]) == 0
        assert ran == [["-v", str(suite)]]

    def test_accept_falls_back_to_source_checkout(self, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setattr(pytest, "main", lambda args: ran.append(args) or 1)
        monkeypatch.chdir(tmp_path)
        assert main(["accept"]) == 3
        assert ran[0][1].endswith(str(Path("tests", "test_acceptance.py")))
        assert Path(ran[0][1]).exists()

    def test_accept_names_both_places(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli_module, "__file__",
                            str(tmp_path / "site" / "pkg" / "radden" / "cli.py"))
        (tmp_path / "work").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        assert main(["accept"]) == 2
        err = capsys.readouterr().err
        for root in ("work", "site"):
            assert str(tmp_path / root / "tests" / "test_acceptance.py") in err

    @pytest.mark.parametrize("command", ["generate", "train"])
    def test_jobs_only_on_sweep(self, tmp_path, command):
        with pytest.raises(SystemExit):
            main([command, "--config", str(tmp_path / "no.ini"),
                  "--jobs", "2"])

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_sweep_rejects_jobs_below_one(self, tmp_path, monkeypatch, jobs):
        monkeypatch.setattr(_parallel, "ProcessPoolExecutor", _no_pool)
        ini = tmp_path / "exp.ini"
        ini.write_text("[sweep]\nalgorithms = wavelet\n"
                       f"[output]\ndirectory = {tmp_path / 'out'}\n")
        assert main(["sweep", "--config", str(ini), "--jobs", str(jobs)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, key", NON_FINITE_SETTINGS)
    def test_non_finite_setting_exit_code(self, tmp_path, capsys, text, key):
        ini = tmp_path / "exp.ini"
        ini.write_text(text + f"[output]\ndirectory = {tmp_path / 'out'}\n")
        assert main(["sweep", "--config", str(ini)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_error_exit_code(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "no.ini")]) == 2

    def test_bad_key_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[dataset]\nbogus = 1\n")
        assert main(["generate", "--config", str(bad)]) == 2

    def test_unknown_wall_class_exit_code(self, tmp_path, capsys):
        ini = tmp_path / "brick.ini"
        ini.write_text("[dataset]\nwall_class = brick\n"
                       f"[output]\ndirectory = {tmp_path / 'out'}\n")
        assert main(["generate", "--config", str(ini)]) == 2
        assert capsys.readouterr().err.startswith("error: unknown wall class 'brick'")
        assert not (tmp_path / "out").exists()

    def test_wideband_spectrogram_exit_code(self, tmp_path, capsys):
        ini = tmp_path / "wide.ini"
        ini.write_text("[dataset]\nkind = spectrogram\nbandwidth_hz = 2e9\n"
                       "freq_count = 133\n"
                       f"[output]\ndirectory = {tmp_path / 'out'}\n")
        assert main(["generate", "--config", str(ini)]) == 2
        assert capsys.readouterr().err.startswith("error: spectrogram")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    def test_frontal_wall_exit_code(self, tmp_path, capsys, command):
        ini = tmp_path / "wall.ini"
        ini.write_text("[dataset]\nkind = frontal\nwall_class = high\n"
                       f"[output]\ndirectory = {tmp_path / 'out'}\n")
        assert main([command, "--config", str(ini)]) == 2
        assert capsys.readouterr().err.startswith("error: frontal images "
                                                  "take no wall_class")
        assert not (tmp_path / "out").exists()

    def test_generate_writes_dataset(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[dataset]\nkind = frontal\nrealizations = 1\nintervals = 2\n"
            "noise_draws = 2\nsnr_db = 10\n"
            f"[output]\ndirectory = {tmp_path / 'out'}\n")
        assert main(["generate", "--config", str(ini)]) == 0
        assert (tmp_path / "out" / "clean.rdae").exists()
        assert (tmp_path / "out" / "corrupt.rdae").exists()
        assert (tmp_path / "out" / "manifest.txt").exists()

    def test_sweep_and_report(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[dataset]\nkind = frontal\nrealizations = 2\nintervals = 4\n"
            "noise_draws = 2\nsnr_db = 10\n"
            "[sweep]\nvalues = 10\nseeds = 0\nalgorithms = wavelet\n"
            f"[output]\ndirectory = {tmp_path / 'out'}\n")
        assert main(["sweep", "--config", str(ini)]) == 0
        csv_path = tmp_path / "out" / "sweep.csv"
        assert csv_path.exists()
        assert main(["report", str(csv_path), "--out",
                     str(tmp_path / "plots")]) == 0
        assert (tmp_path / "plots" / "frontal_snr_ssim_ad.dat").exists()

    @pytest.mark.parametrize("axis, values", [("snr", "10 20"),
                                              ("mismatch", "0 0.5"),
                                              ("scr", "0 10")])
    def test_sweep_writes_report_plot_data(self, tmp_path, capsys, axis, values):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[dataset]\nkind = frontal\nrealizations = 2\nintervals = 4\n"
            "noise_draws = 2\nsnr_db = 10\n"
            f"[sweep]\naxis = {axis}\nvalues = {values}\nseeds = 0 1\n"
            "algorithms = wavelet svd\n"
            f"[output]\ndirectory = {tmp_path / 'out'}\n")
        assert main(["sweep", "--config", str(ini)]) == 0
        name = f"frontal_{axis}_ssim_ad.dat"
        plot = tmp_path / "out" / "plots" / name
        assert f"wrote {plot}" in capsys.readouterr().out
        assert main(["report", str(tmp_path / "out" / "sweep.csv"), "--out",
                     str(tmp_path / "report")]) == 0
        assert plot.read_bytes() == (tmp_path / "report" / name).read_bytes()

    def test_report_plots_each_kind_along_its_own_axis(self, tmp_path):
        snr = [make_row(snr_db=v, seed=s) for v in (0.0, 10.0) for s in (0, 1)]
        mismatch = [make_row(kind="hrrp", mismatch_pct=v) for v in (0.0, 50.0)]
        a = write_rows(snr, tmp_path / "a.csv")
        b = write_rows(mismatch, tmp_path / "b.csv")
        assert main(["report", str(a), str(b), "--out",
                     str(tmp_path / "report")]) == 0
        assert sorted(p.name for p in (tmp_path / "report").iterdir()) == [
            "hrrp_mismatch_ssim_ad.dat", "spectrogram_snr_ssim_ad.dat"]
        for kind, rows in (("spectrogram", snr), ("hrrp", mismatch)):
            (alone,) = write_plot_data(rows, tmp_path / kind)
            assert (tmp_path / "report" / alone.name).read_bytes() == \
                alone.read_bytes()

    def test_report_refuses_a_kind_on_two_axes(self, tmp_path, capsys):
        # a mismatch sweep reported together with the same sweep at another
        # snr would fold both levels into one line under either axis
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[dataset]\nkind = frontal\nrealizations = 2\nintervals = 4\n"
            "noise_draws = 2\nsnr_db = 10\n"
            "[sweep]\naxis = mismatch\nvalues = 0 0.5\nseeds = 0\n"
            "algorithms = wavelet\n"
            f"[output]\ndirectory = {tmp_path / 'out'}\n")
        assert main(["sweep", "--config", str(ini)]) == 0
        csv_path = tmp_path / "out" / "sweep.csv"
        shifted = write_rows([replace(r, snr_db=20.0)
                              for r in load_rows(csv_path)],
                             tmp_path / "shifted.csv")
        capsys.readouterr()
        assert main(["report", str(csv_path), str(shifted), "--out",
                     str(tmp_path / "report")]) == 2
        assert "more than one sweep axis" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()
        assert main(["report", str(csv_path), "--out",
                     str(tmp_path / "report")]) == 0
        assert (tmp_path / "report" / "frontal_mismatch_ssim_ad.dat").exists()

    def test_train_saves_the_seeded_model(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[dataset]\nkind = frontal\nrealizations = 1\nintervals = 4\n"
            "noise_draws = 2\nsnr_db = 10\n"
            "[train]\ndae_nodes = 6\nouter_iterations = 3\n"
            f"[output]\ndirectory = {tmp_path / 'unused'}\n")
        out = tmp_path / "weights"
        assert main(["train", "--config", str(ini), "--algorithm", "dae",
                     "--seed", "3", "--out", str(out)]) == 0
        assert not (tmp_path / "unused").exists()
        saved = load_weights(out / "dae.weights")
        cfg = load_config(ini)
        clean, corrupt = generate_pair(replace(cfg.dataset, seed=3))
        expected, _ = train_model("dae", clean.data, corrupt.data, cfg, 3)
        assert saved.matrices.keys() == expected.matrices.keys()
        for name, M in expected.matrices.items():
            np.testing.assert_array_equal(saved.matrices[name], M)


def serial_baseline(algorithm, stack_cols, shape, cfg):
    """_baseline_denoise as one filter call per BLOCK_IMAGES block, each on
    this thread (a block is one unit of work, never split)."""
    b = cfg.baselines
    if algorithm == "svd":
        filter_cfg = SvdFilterConfig(energy_fraction=b.svd_energy)
        denoise = svd_denoise
    else:
        filter_cfg = WaveletFilterConfig(levels=b.wavelet_levels,
                                         keep_fraction=b.wavelet_keep)
        denoise = wavelet_denoise
    images = columns_to_images(stack_cols, shape)
    out = np.empty_like(stack_cols)
    for start in range(0, out.shape[1], BLOCK_IMAGES):
        block = slice(start, start + BLOCK_IMAGES)
        out[:, block] = images_to_columns(denoise(images[block], filter_cfg))
    return np.clip(out, 0.0, 1.0)


def serial_mean_nmse(approx, reference):
    """The mean NMSE as one full-width computation."""
    energy = np.sum(reference * reference, axis=0)
    diff = approx - reference
    return float(np.mean(np.sum(diff * diff, axis=0) / energy))


def multi_block_pair(extra, order="C", seed=0):
    """(corrupt, clean) 31x31 column stacks of 2 BLOCK_IMAGES + extra columns."""
    rng = np.random.default_rng(seed)
    shape = (31 * 31, 2 * BLOCK_IMAGES + extra)
    clean = rng.random(shape)
    corrupt = np.clip(clean + 0.3 * rng.standard_normal(shape), 0.0, 1.0)
    return np.asarray(corrupt, order=order), np.asarray(clean, order=order)


def _score_in_child():
    corrupt, clean = multi_block_pair(5)
    return ssim_stack(corrupt, clean, (31, 31)), _mean_nmse(corrupt, clean)


class TestBlocksOnEveryCore:
    """The evaluation layer's blocks run on the calling thread and a pool
    thread per further core; every output equals the serial block loop."""

    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("extra", [1, 5])
    @pytest.mark.parametrize("algorithm", ["svd", "wavelet"])
    def test_baselines_equal_serial_blocks(self, fake_threads, algorithm,
                                           extra, order, cores):
        fake_threads(cores, cores)
        corrupt, _ = multi_block_pair(extra, order)
        cfg = ExperimentConfig()
        expected = serial_baseline(algorithm, corrupt, (31, 31), cfg)
        got = sweep_module._baseline_denoise(algorithm, corrupt, (31, 31), cfg)
        np.testing.assert_array_equal(got, expected)
        # the memory order decides how _mean_nmse sums each column
        assert got.flags.f_contiguous == expected.flags.f_contiguous

    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("extra", [1, 5])
    def test_mean_nmse_equals_full_width(self, fake_threads, extra, order,
                                         cores):
        fake_threads(cores, cores)
        corrupt, clean = multi_block_pair(extra, order)
        assert _mean_nmse(corrupt, clean) == serial_mean_nmse(corrupt, clean)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_lone_last_column_sums_as_in_full_width(self, order):
        # only the last column, a block of its own, has an error, so the mean
        # shows the rounding of that column's sums alone
        for seed in range(3):
            corrupt, clean = multi_block_pair(1, order, seed)
            approx = np.array(clean, order=order)
            approx[:, -1] = corrupt[:, -1]
            assert _mean_nmse(approx, clean) == serial_mean_nmse(approx, clean)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_zero_energy_column_in_last_block(self, fake_threads, cores):
        fake_threads(cores, cores)
        corrupt, clean = multi_block_pair(5)
        clean[:, -1] = 0.0
        with pytest.raises(DomainError):
            _mean_nmse(corrupt, clean)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_forked_child_scores_after_parent(self, fake_threads):
        # the parent runs a pool first, as a sweep job's parent process may;
        # a pool thread that outlived its call would hang the forked child
        fake_threads(2, 2)
        expected = _score_in_child()
        pool = futures.ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("fork"))
        try:
            values, nmse = pool.submit(_score_in_child).result(timeout=120)
        except futures.TimeoutError:
            for process in pool._processes.values():  # shutdown would wait
                process.kill()
            raise
        finally:
            pool.shutdown()
        np.testing.assert_array_equal(values, expected[0])
        assert nmse == expected[1]

    def test_traced_entry_points_run_on_calling_thread(self, monkeypatch,
                                                       fake_threads):
        fake_threads(3, 3)
        entered = []

        def recording(name, fn):
            def call(*args, **kwargs):
                entered.append((name, threading.get_ident()))
                return fn(*args, **kwargs)
            return call

        for module, name in ((baselines, "svd_denoise"),
                             (baselines, "wavelet_denoise"),
                             (metrics, "ssim_stack")):
            for holder in (module, sweep_module):
                monkeypatch.setattr(holder, name,
                                    recording(name, getattr(holder, name)))
        cfg = tiny_config(algorithms=("svd", "wavelet"), split=0.1)
        cfg = replace(cfg, dataset=replace(cfg.dataset, noise_draws=20))
        rows = evaluate_grid_point(cfg, 0.0, 0)   # 288 test columns
        assert len(rows) == 2
        assert {name for name, _ in entered} == {
            "svd_denoise", "wavelet_denoise", "ssim_stack"}
        assert {ident for _, ident in entered} == {threading.get_ident()}

    @staticmethod
    def score_and_filter_blocks():
        corrupt, clean = multi_block_pair(5)
        ssim_stack(corrupt, clean, (31, 31))
        for algorithm in ("svd", "wavelet"):
            sweep_module._baseline_denoise(algorithm, corrupt, (31, 31),
                                           ExperimentConfig())

    @pytest.mark.parametrize("blas", [None, 1, 2])
    def test_blocks_pool_on_every_core_at_any_blas_count(
            self, monkeypatch, fake_threads, blas):
        # None and 1 give the pin a budget of 1, as in a sweep worker at
        # --jobs 2 on 2 cores; the block map still pools on the second core
        fake_threads(2, blas)
        pools = []

        class Recording(futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)
        monkeypatch.setattr(_parallel, "ThreadPoolExecutor", Recording)
        self.score_and_filter_blocks()
        assert pools == [1, 1, 1]
