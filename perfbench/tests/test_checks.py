"""Each check passes the program's real output and fails a deliberately wrong one."""
import numpy as np
import pytest

import checks
from checks import CheckFailed
from radden.autoencoders import (TrainOptions, infer, train_dae,
                                 train_stacked_sdae)
from radden.baselines import (SvdFilterConfig, WaveletFilterConfig,
                              svd_denoise, wavelet_denoise)
from radden.metrics import nmse, ssim_stack


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(0)
    clean = rng.random((64, 40))
    corrupt = np.clip(clean + 0.3 * rng.standard_normal(clean.shape), 0, 1)
    return clean, corrupt


@pytest.fixture(scope="module", params=["dae", "stacked_sdae"])
def trained(request, pair):
    clean, corrupt = pair
    opts = TrainOptions(outer_iterations=4, seed=1)
    if request.param == "dae":
        return train_dae(clean, corrupt, 16, opts=opts)
    return train_stacked_sdae(clean, corrupt, (24, 12, 6), opts=opts)


def image(seed, shape):
    rng = np.random.default_rng(seed)
    smooth = np.outer(np.hanning(shape[0]), np.hanning(shape[1]))
    return np.clip(smooth + 0.2 * rng.standard_normal(shape), 0, 1)


class TestInfer:
    def test_accepts_infer_output(self, trained, pair):
        weights, _ = trained
        checks.check_infer(weights, pair[1], infer(weights, pair[1]))

    def test_rejects_perturbed_output(self, trained, pair):
        weights, _ = trained
        wrong = infer(weights, pair[1]).copy()
        wrong[3, 5] += 1e-6
        with pytest.raises(CheckFailed):
            checks.check_infer(weights, pair[1], wrong)

    def test_rejects_unclipped_output(self, trained, pair):
        weights, _ = trained
        raw = infer(weights, 3.0 * pair[1], clamp=False)
        assert raw.max() > 1.0 or raw.min() < 0.0
        with pytest.raises(CheckFailed):
            checks.check_infer(weights, 3.0 * pair[1], raw)


class TestObjectiveTrace:
    def test_accepts_training_trace(self, trained):
        checks.check_objective_trace("model", trained[1].objectives, 1.0)

    @pytest.mark.parametrize("trace", [[3.0, 2.0, 2.5], [3.0, float("nan")],
                                       [float("inf"), 1.0], []])
    def test_rejects_bad_trace(self, trace):
        with pytest.raises(CheckFailed):
            checks.check_objective_trace("model", trace, 1.0)


class TestSsim:
    @pytest.mark.parametrize("shape", [(64, 64), (31, 31), (8, 8)])
    def test_accepts_ssim_stack(self, shape):
        clean = np.column_stack([image(s, shape).ravel(order="F") for s in range(3)])
        noisy = np.column_stack([image(s + 9, shape).ravel(order="F") for s in range(3)])
        values = ssim_stack(noisy, clean, shape)
        checks.check_ssim(values, noisy, clean, shape, range(3))

    def test_rejects_wrong_value(self):
        shape = (31, 31)
        clean = image(0, shape).ravel(order="F")[:, None]
        noisy = image(1, shape).ravel(order="F")[:, None]
        values = ssim_stack(noisy, clean, shape) + 1e-5
        with pytest.raises(CheckFailed):
            checks.check_ssim(values, noisy, clean, shape, [0])

    def test_identical_images_score_one(self):
        img = image(2, (31, 31))
        assert checks.gaussian_ssim(img, img) == pytest.approx(1.0, abs=1e-12)


class TestNmse:
    def test_accepts_mean_of_column_nmse(self, pair):
        clean, corrupt = pair
        value = float(np.mean([nmse(corrupt[:, q], clean[:, q])
                               for q in range(clean.shape[1])]))
        checks.check_nmse(value, corrupt, clean)

    def test_rejects_whole_stack_nmse(self, pair):
        clean, corrupt = pair
        clean = clean.copy()
        clean[:, 0] *= 3.0  # columns of unequal energy tell the two apart
        with pytest.raises(CheckFailed):
            checks.check_nmse(nmse(corrupt, clean), corrupt, clean)


class TestSvd:
    def test_accepts_svd_denoise(self):
        img = image(3, (64, 64))
        raw = svd_denoise(img, SvdFilterConfig(energy_fraction=0.95))
        checks.check_svd(img, raw, np.clip(raw, 0, 1), 0.95)

    @pytest.mark.parametrize("offset", [-1, 1])
    def test_rejects_wrong_rank(self, offset):
        img = image(3, (64, 64))
        s = np.linalg.svd(img, compute_uv=False)
        energy = np.cumsum(s * s)
        k = int(np.searchsorted(energy, 0.95 * energy[-1])) + 1
        raw = svd_denoise(img, SvdFilterConfig(rank=k + offset))
        with pytest.raises(CheckFailed):
            checks.check_svd(img, raw, np.clip(raw, 0, 1), 0.95)

    def test_rejects_suboptimal_rank_k_output(self):
        img = image(3, (64, 64))
        raw = svd_denoise(img, SvdFilterConfig(energy_fraction=0.95))
        U, s, Vt = np.linalg.svd(raw)
        k = int(np.sum(s > 1e-9 * s[0]))
        wrong = (U[:, :k] * (s[:k] * 0.99)) @ Vt[:k]
        with pytest.raises(CheckFailed):
            checks.check_svd(img, wrong, np.clip(wrong, 0, 1), 0.95)

    def test_rejects_output_of_another_column(self):
        img = image(3, (64, 64))
        raw = svd_denoise(img, SvdFilterConfig(energy_fraction=0.95))
        other = np.clip(svd_denoise(image(4, (64, 64))), 0, 1)
        with pytest.raises(CheckFailed):
            checks.check_svd(img, raw, other, 0.95)


class TestWavelet:
    @pytest.mark.parametrize("shape", [(64, 64), (31, 31)])
    def test_accepts_wavelet_denoise(self, shape):
        img = image(5, shape)
        out = wavelet_denoise(img, WaveletFilterConfig(levels=2, keep_fraction=0.1))
        checks.check_wavelet(img, np.clip(out, 0, 1), 2, 0.1)

    def test_rejects_other_keep_fraction(self):
        img = image(5, (64, 64))
        out = wavelet_denoise(img, WaveletFilterConfig(levels=2, keep_fraction=0.2))
        with pytest.raises(CheckFailed):
            checks.check_wavelet(img, np.clip(out, 0, 1), 2, 0.1)

    def test_rejects_other_level_count(self):
        img = image(5, (64, 64))
        out = wavelet_denoise(img, WaveletFilterConfig(levels=1, keep_fraction=0.1))
        with pytest.raises(CheckFailed):
            checks.check_wavelet(img, np.clip(out, 0, 1), 2, 0.1)

    def test_keeping_everything_reconstructs(self):
        img = image(6, (31, 31))
        out, slack = checks.haar_threshold(img, 2, 1.0)
        assert slack == 0.0
        assert np.max(np.abs(out - img)) <= 1e-12


class TestDenoises:
    def test_accepts_improvement(self):
        checks.check_denoises("dae", 0.5, 0.2)

    @pytest.mark.parametrize("after", [0.2, 0.1])
    def test_rejects_no_improvement(self, after):
        with pytest.raises(CheckFailed):
            checks.check_denoises("dae", after, 0.2)


def test_trace_slack_scales_with_training_energy():
    at_rounding_floor = [9.049802486657095e-15, 9.049804461516923e-15]
    checks.check_objective_trace("dae", at_rounding_floor, 6e3)
    with pytest.raises(CheckFailed):
        checks.check_objective_trace("dae", [1.0, 1.0 + 1e-6], 6e3)
