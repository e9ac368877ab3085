import numpy as np
import pytest

from radden.baselines import (SvdFilterConfig, WaveletFilterConfig,
                              haar_analysis, haar_synthesis, svd_denoise,
                              wavelet_denoise)
from radden.errors import ConfigError


def assert_stack_matches_per_image(denoise, images):
    stacked = denoise(images)
    for img, out in zip(images, stacked):
        np.testing.assert_array_equal(out, denoise(img))


def haar4_matrix():
    """Explicit orthonormal 1-level Haar analysis matrix for length 4."""
    s = 1.0 / np.sqrt(2.0)
    # rows: two averages then two details, matching the quadrant layout
    return np.array([
        [s, s, 0, 0],
        [0, 0, s, s],
        [s, -s, 0, 0],
        [0, 0, s, -s],
    ])


class TestSvdDenoise:
    def test_rank_one_input_exact(self):
        u = np.arange(1.0, 7.0)[:, None]
        v = np.linspace(0.5, 2.0, 5)[None, :]
        X = u @ v
        np.testing.assert_allclose(svd_denoise(X, SvdFilterConfig(rank=1)), X,
                                   atol=1e-10)

    def test_full_rank_identity(self):
        X = np.random.default_rng(0).standard_normal((6, 6))
        np.testing.assert_allclose(svd_denoise(X, SvdFilterConfig(rank=6)), X,
                                   atol=1e-10)

    def test_residual_matches_singular_spectrum(self):
        X = np.random.default_rng(1).standard_normal((10, 10))
        s = np.linalg.svd(X, compute_uv=False)
        out = svd_denoise(X, SvdFilterConfig(rank=3))
        expected = np.sqrt(np.sum(s[3:] ** 2))
        assert np.linalg.norm(X - out) == pytest.approx(expected, abs=1e-8)

    def test_residual_monotone_in_rank(self):
        X = np.random.default_rng(2).standard_normal((8, 12))
        residuals = [np.linalg.norm(X - svd_denoise(X, SvdFilterConfig(rank=k)))
                     for k in range(1, 9)]
        assert all(a >= b - 1e-12 for a, b in zip(residuals, residuals[1:]))

    def test_energy_fraction_default(self):
        X = np.diag([10.0, 1.0, 0.1, 0.01])
        out = svd_denoise(X, SvdFilterConfig())  # 95% energy -> rank 1 here
        assert np.linalg.matrix_rank(out, tol=1e-8) == 1

    def test_rank_too_large(self):
        with pytest.raises(ConfigError):
            svd_denoise(np.ones((3, 3)), SvdFilterConfig(rank=4))

    def test_stack_energy_mode_keeps_rank_per_image(self):
        rng = np.random.default_rng(10)
        scales = [np.diag([10.0, 1.0, 0.1, 0.01, 0.0]),
                  np.diag([1.0, 1.0, 1.0, 1.0, 0.1])]
        images = np.stack([rng.standard_normal((6, 5)) @ s @
                           rng.standard_normal((5, 5)) for s in scales])
        ranks = [np.linalg.matrix_rank(svd_denoise(img), tol=1e-8)
                 for img in images]
        assert ranks[0] < ranks[1]
        assert_stack_matches_per_image(svd_denoise, images)

    def test_stack_rank_mode(self):
        images = np.random.default_rng(11).standard_normal((4, 9, 7))
        assert_stack_matches_per_image(
            lambda x: svd_denoise(x, SvdFilterConfig(rank=2)), images)

    def test_both_modes_rejected(self):
        with pytest.raises(ConfigError):
            SvdFilterConfig(rank=2, energy_fraction=0.9)


def svd_reference(X, cfg):
    """Truncated SVD of one image by np.linalg.svd: the reconstruction, the
    rank kept by cfg's rule, and the singular values."""
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    k = cfg.rank
    if k is None:
        energy = np.cumsum(s * s)
        k = int(np.sum(energy < cfg.energy_fraction * energy[-1])) + 1
    return (U[:, :k] * s[:k]) @ Vt[:k], k, s


def reference_images():
    rng = np.random.default_rng(21)
    return {
        "tall": rng.standard_normal((12, 7)),
        "wide": rng.standard_normal((7, 12)),
        "square": rng.standard_normal((9, 9)),
        # rank 3 on both sides of the Gram matrix's choice
        "rank_deficient": rng.standard_normal((10, 3)) @ rng.standard_normal((3, 8)),
        "rank_deficient_wide": rng.standard_normal((6, 3)) @ rng.standard_normal((3, 11)),
        "zero": np.zeros((6, 5)),
    }


class TestSvdAgainstReference:
    """svd_denoise, computed from the Gram matrix's eigendecomposition, keeps
    the rank and gives the reconstruction of the truncated np.linalg.svd."""

    @pytest.mark.parametrize("cfg", [SvdFilterConfig(),
                                     SvdFilterConfig(energy_fraction=1.0),
                                     SvdFilterConfig(rank=2)],
                             ids=["energy_0.95", "energy_1", "rank_2"])
    @pytest.mark.parametrize("name", list(reference_images()))
    def test_matches_truncated_svd(self, name, cfg):
        X = reference_images()[name]
        expected, k, s = svd_reference(X, cfg)
        out = svd_denoise(X, cfg)
        assert np.max(np.abs(out - expected), initial=0.0) <= 1e-12
        # the rank kept: what the rule keeps of X's own rank
        kept = min(k, np.linalg.matrix_rank(X))
        assert np.linalg.matrix_rank(out, tol=1e-8) == kept
        # Eckart-Young: the residual energy is the dropped squared spectrum
        energy = np.sum(X * X)
        assert abs(np.sum((X - out) ** 2) - np.sum(s[k:] ** 2)) <= 1e-9 * energy


class TestHaar:
    def test_round_trip(self):
        x = np.random.default_rng(3).standard_normal((16, 16))
        for levels in (1, 2, 3):
            np.testing.assert_allclose(
                haar_synthesis(haar_analysis(x, levels), levels), x, atol=1e-10)

    def test_parseval(self):
        x = np.random.default_rng(4).standard_normal((32, 32))
        c = haar_analysis(x, 2)
        assert np.sum(c * c) == pytest.approx(np.sum(x * x), abs=1e-10)

    def test_single_level_matches_explicit_matrix(self):
        x = np.random.default_rng(5).standard_normal((4, 4))
        H = haar4_matrix()
        # separable transform with the quadrant-ordered matrix... one level on
        # a 4x4 image transforms the whole image once along each axis
        top = x[0::2] + x[1::2]
        bot = x[0::2] - x[1::2]
        rows = np.vstack([top, bot]) / np.sqrt(2.0)
        left = rows[:, 0::2] + rows[:, 1::2]
        right = rows[:, 0::2] - rows[:, 1::2]
        expected = np.hstack([left, right]) / np.sqrt(2.0)
        np.testing.assert_allclose(haar_analysis(x, 1), expected, atol=1e-12)
        np.testing.assert_allclose(H @ x @ H.T, expected, atol=1e-12)


class TestWaveletDenoise:
    def test_keep_all_is_lossless(self):
        x = np.random.default_rng(6).standard_normal((16, 16))
        out = wavelet_denoise(x, WaveletFilterConfig(levels=2, keep_fraction=1.0))
        np.testing.assert_allclose(out, x, atol=1e-10)

    def test_constant_image_exact(self):
        x = np.full((8, 8), 0.7)
        out = wavelet_denoise(x, WaveletFilterConfig(levels=2, keep_fraction=1 / 64))
        np.testing.assert_allclose(out, x, atol=1e-10)

    def test_hand_worked_4x4_oracle(self):
        x = np.array([
            [4.0, 2.0, 1.0, 1.0],
            [2.0, 4.0, 1.0, 1.0],
            [1.0, 1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0, 0.0],
        ])
        H = haar4_matrix()
        coef = H @ x @ H.T
        flat = np.abs(coef).ravel()
        cutoff = np.sort(flat)[-4]  # keep = 0.25 of 16 coefficients
        kept = np.where(np.abs(coef) >= cutoff, coef, 0.0)
        expected = H.T @ kept @ H
        out = wavelet_denoise(x, WaveletFilterConfig(levels=1, keep_fraction=0.25))
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_energy_never_increases(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.standard_normal((16, 16))
            out = wavelet_denoise(x, WaveletFilterConfig(levels=2, keep_fraction=0.2))
            assert np.sum(out * out) <= np.sum(x * x) + 1e-10

    def test_idempotent_for_fixed_support(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((16, 16))
        cfg = WaveletFilterConfig(levels=2, keep_fraction=0.2)
        once = wavelet_denoise(x, cfg)
        twice = wavelet_denoise(once, cfg)
        np.testing.assert_allclose(twice, once, atol=1e-10)

    def test_reflect_padding_for_odd_sizes(self):
        x = np.random.default_rng(9).standard_normal((10, 14))
        out = wavelet_denoise(x, WaveletFilterConfig(levels=2, keep_fraction=1.0))
        assert out.shape == x.shape
        np.testing.assert_allclose(out, x, atol=1e-10)

    def test_stack_matches_per_image(self):
        # 31x31 needs reflect padding; each image keeps its own cut-off
        images = np.random.default_rng(12).random((5, 31, 31))
        images[1] *= 10.0
        assert_stack_matches_per_image(wavelet_denoise, images)

    def test_too_many_levels(self):
        with pytest.raises(ConfigError):
            wavelet_denoise(np.ones((4, 4)), WaveletFilterConfig(levels=3))


def take_haar_analysis(img, levels):
    """Haar analysis by per-level np.take copies and concatenations."""
    def fwd(x, axis):
        a = np.take(x, range(0, x.shape[axis], 2), axis=axis)
        b = np.take(x, range(1, x.shape[axis], 2), axis=axis)
        return (a + b) / np.sqrt(2.0), (a - b) / np.sqrt(2.0)

    coef = img.copy()
    r, c = img.shape[-2:]
    for _ in range(levels):
        lo, hi = fwd(coef[..., :r, :c], -2)
        lo, hi = fwd(np.concatenate([lo, hi], axis=-2), -1)
        coef[..., :r, :c] = np.concatenate([lo, hi], axis=-1)
        r //= 2
        c //= 2
    return coef


def stack_haar_synthesis(coef, levels):
    """Haar synthesis that interleaves samples by np.stack and reshape."""
    def inv(lo, hi, axis):
        shape = list(lo.shape)
        shape[axis] *= 2
        return np.stack([(lo + hi) / np.sqrt(2.0), (lo - hi) / np.sqrt(2.0)],
                        axis=axis).reshape(shape)

    out = coef.copy()
    rows, cols = coef.shape[-2:]
    for level in reversed(range(levels)):
        r, c = rows >> level, cols >> level
        block = out[..., :r, :c]
        half = inv(block[..., :c // 2], block[..., c // 2:], -1)
        out[..., :r, :c] = inv(half[..., :r // 2, :], half[..., r // 2:, :], -2)
    return out


class TestStridedHaar:
    """The strided-slice Haar steps give the bits of the copy-based ones."""

    @pytest.mark.parametrize("shape", [(31, 31), (64, 64)])
    def test_wavelet_stack_equals_copy_based_transform(self, shape):
        rng = np.random.default_rng(11)
        images = rng.random((6,) + shape)
        cfg = WaveletFilterConfig()
        n = 2 ** cfg.levels
        padded = np.pad(images, [(0, 0), (0, -shape[0] % n), (0, -shape[1] % n)],
                        mode="reflect")
        coef = take_haar_analysis(padded, cfg.levels)
        np.testing.assert_array_equal(haar_analysis(padded, cfg.levels), coef)
        np.testing.assert_array_equal(haar_synthesis(coef, cfg.levels),
                                      stack_haar_synthesis(coef, cfg.levels))
        size = coef.shape[-2] * coef.shape[-1]
        keep = int(np.ceil(cfg.keep_fraction * size))
        flat = np.abs(coef).reshape(len(images), size)
        cutoff = np.partition(flat, size - keep, axis=-1)[:, size - keep]
        kept = np.where(np.abs(coef) >= cutoff[:, None, None], coef, 0.0)
        expected = stack_haar_synthesis(kept, cfg.levels)[:, :shape[0], :shape[1]]
        np.testing.assert_array_equal(wavelet_denoise(images, cfg), expected)

    def test_out_receives_the_stack(self):
        images = np.random.default_rng(12).random((3, 16, 16))
        out = np.empty_like(images)
        assert wavelet_denoise(images, out=out) is out
        np.testing.assert_array_equal(out, wavelet_denoise(images))
        with pytest.raises(ConfigError):
            svd_denoise(images, out=np.empty((3, 16, 15)))
