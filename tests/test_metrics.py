import ctypes
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from radden import _parallel, baselines, metrics
from radden.errors import ConfigError, DomainError
from radden.metrics import (BLOCK_IMAGES, columns_to_images,
                            images_to_columns, nmse, ssim, ssim_stack)


def reference_global_ssim(a, b, k1=0.01, k2=0.03, data_range=1.0):
    """Direct single-window evaluation of the SSIM formula."""
    c1, c2 = (k1 * data_range) ** 2, (k2 * data_range) ** 2
    mu_a, mu_b = a.mean(), b.mean()
    va, vb = a.var(), b.var()
    cov = ((a - mu_a) * (b - mu_b)).mean()
    return ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a ** 2 + mu_b ** 2 + c1) * (va + vb + c2))


def reference_window_ssim(a, b, w=11, sigma=1.5, k1=0.01, k2=0.03,
                          data_range=1.0):
    """Direct sliding-window evaluation: every 'valid' window position is
    weighted by the full 2-D Gaussian window, independently of the separable
    GEMM form used by the metric."""
    g = np.exp(-0.5 * ((np.arange(w) - (w - 1) / 2.0) / sigma) ** 2)
    window = np.outer(g, g)
    window /= window.sum()

    def local_mean(x):
        return np.einsum("ijkl,kl->ij", sliding_window_view(x, (w, w)), window)

    c1, c2 = (k1 * data_range) ** 2, (k2 * data_range) ** 2
    mu_a, mu_b = local_mean(a), local_mean(b)
    va = local_mean(a * a) - mu_a ** 2
    vb = local_mean(b * b) - mu_b ** 2
    cov = local_mean(a * b) - mu_a * mu_b
    return float(np.mean(((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a ** 2 + mu_b ** 2 + c1) * (va + vb + c2))))


class TestSsim:
    def test_identical_images_give_exactly_one(self):
        rng = np.random.default_rng(0)
        x = rng.random((32, 32))
        assert ssim(x, x) == 1.0

    def test_inverted_half_block_image(self):
        x = np.zeros((8, 8))
        x[:, 4:] = 1.0
        # small image -> global statistics path; compare to the direct formula
        got = ssim(x, 1.0 - x)
        expected = reference_global_ssim(x, 1.0 - x)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got < 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.random((24, 24))
            b = rng.random((24, 24))
            assert abs(ssim(a, b) - ssim(b, a)) < 1e-12

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = ssim(rng.random((16, 16)), rng.random((16, 16)))
            assert -1.0 <= v <= 1.0

    def test_luminance_shift_stability(self):
        rng = np.random.default_rng(3)
        a = 0.8 * rng.random((32, 32))
        b = 0.8 * rng.random((32, 32))
        for c in (0.02, 0.05, 0.1):
            assert abs(ssim(a + c, b + c) - ssim(a, b)) < 0.02

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            ssim(np.zeros((4, 4)), np.zeros((5, 4)))

    def test_small_image_fallback_matches_global_formula(self):
        rng = np.random.default_rng(4)
        a = rng.random((7, 7))
        b = rng.random((7, 7))
        assert ssim(a, b) == pytest.approx(reference_global_ssim(a, b), abs=1e-12)

    def test_stack_matches_per_column(self):
        rng = np.random.default_rng(5)
        # the 31x31, 64x64 and 40x23 cases span more than one block of columns
        for shape, count in (((12, 12), 3), ((11, 11), 7),
                             ((31, 31), BLOCK_IMAGES + 5),
                             ((64, 64), BLOCK_IMAGES + 5),
                             ((40, 23), BLOCK_IMAGES + 5)):
            a = rng.random((shape[0] * shape[1], count))
            b = rng.random((shape[0] * shape[1], count))
            per = ssim_stack(a, b, shape)
            for q in range(count):
                img_a = a[:, q].reshape(shape, order="F")
                img_b = b[:, q].reshape(shape, order="F")
                assert per[q] == ssim(img_a, img_b)

    # non-square images catch swapped row and column window matrices
    @pytest.mark.parametrize("shape", [(31, 31), (64, 64), (40, 23), (11, 30)])
    def test_window_path_matches_sliding_window_reference(self, shape):
        rng = np.random.default_rng(11)
        for noise in (0.05, 0.3, 1.0):
            a = rng.random(shape)
            b = np.clip(a + noise * rng.standard_normal(shape), 0.0, 1.0)
            assert ssim(a, b) == pytest.approx(
                reference_window_ssim(a, b), rel=0, abs=1e-12)

    def test_small_image_stack_matches_per_column(self):
        # global-statistics path: both reduce over the same flattened image
        rng = np.random.default_rng(10)
        a = rng.random((70, 6))
        b = rng.random((70, 6))
        per = ssim_stack(a, b, (7, 10))
        for q in range(6):
            assert per[q] == ssim(a[:, q].reshape(7, 10, order="F"),
                                  b[:, q].reshape(7, 10, order="F"))

    def test_column_image_round_trip(self):
        cols = np.arange(24.0).reshape(6, 4)
        images = columns_to_images(cols, (2, 3))
        assert images.shape == (4, 2, 3)
        np.testing.assert_array_equal(images[1], cols[:, 1].reshape(2, 3, order="F"))
        np.testing.assert_array_equal(images_to_columns(images), cols)


class TestNmse:
    def test_identical(self):
        x = np.random.default_rng(6).random((10, 10))
        assert nmse(x, x) == 0.0

    def test_scaling_identity(self):
        x = np.random.default_rng(7).random((10, 10)) + 0.1
        assert nmse(2 * x, x) == pytest.approx(1.0, abs=1e-12)

    def test_known_error_energy(self):
        rng = np.random.default_rng(8)
        x = rng.random((20, 20)) + 0.1
        e = rng.standard_normal((20, 20))
        e *= 0.2 * np.linalg.norm(x) / np.linalg.norm(e)
        assert nmse(x + e, x) == pytest.approx(0.04, abs=1e-12)

    def test_zero_reference(self):
        with pytest.raises(DomainError):
            nmse(np.ones((3, 3)), np.zeros((3, 3)))

    @given(st.floats(0.0, 4.0))
    def test_scale_quadratic_in_error(self, alpha):
        rng = np.random.default_rng(9)
        x = rng.random(50) + 0.1
        e = rng.standard_normal(50)
        assert nmse(x + alpha * e, x) == pytest.approx(
            alpha ** 2 * nmse(x + e, x), rel=1e-9, abs=1e-12)


class TestMapBlocks:
    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(31, 31), (7, 10)])
    def test_multi_block_stack_matches_per_column(self, fake_threads, shape,
                                                  cores):
        fake_threads(cores, cores)
        rng = np.random.default_rng(13)
        count = 2 * BLOCK_IMAGES + 5
        a = rng.random((shape[0] * shape[1], count))
        b = np.clip(a + 0.2 * rng.standard_normal(a.shape), 0.0, 1.0)
        per = ssim_stack(a, b, shape)
        for q in range(count):
            assert per[q] == ssim(a[:, q].reshape(shape, order="F"),
                                  b[:, q].reshape(shape, order="F"))

    @pytest.mark.parametrize("cores", [1, 2, 8])
    def test_every_block_once_and_no_thread_left(self, fake_threads, cores):
        # more threads than cores and a short switch interval: a block handed
        # out twice or skipped would show in the list of blocks run
        fake_threads(cores, cores)
        before = threading.active_count()
        count = 40 * BLOCK_IMAGES + 1
        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _parallel._map_blocks(seen.append, count)
        finally:
            sys.setswitchinterval(interval)
        assert sorted((b.start, b.stop) for b in seen) == [
            (s, s + BLOCK_IMAGES) for s in range(0, count, BLOCK_IMAGES)]
        assert threading.active_count() == before

    def test_block_error_reaches_the_caller(self, fake_threads):
        fake_threads(2, 2)

        def fail_last(block):
            if block.start == 2 * BLOCK_IMAGES:
                raise DomainError("last block")

        with pytest.raises(DomainError):
            _parallel._map_blocks(fail_last, 2 * BLOCK_IMAGES + 5)

    def test_concurrent_maps_share_the_cores(self, fake_threads):
        # eight threads map at once on 4 cores, at a short switch interval:
        # the pool threads running a call never outnumber the other cores,
        # and a lost update of their count would show at the end
        fake_threads(4, 4)
        seen = []

        def maps():
            for _ in range(20):
                _parallel._map_blocks(
                    lambda block: seen.append(_parallel._pool_running),
                    4 * BLOCK_IMAGES)
        threads = [threading.Thread(target=maps) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8 * 20 * 4
        assert 0 <= min(seen) and max(seen) <= 3
        assert _parallel._pool_running == 0


class TestBlasPin:
    """_map_blocks runs its blocks at one BLAS thread and restores the count;
    pins that nest or overlap set it once and restore it once."""

    @pytest.fixture
    def blas(self, fake_threads):
        return fake_threads(2, 2)

    def recording(self, monkeypatch, module, name, blas):
        """Record the BLAS thread count at each call of module.name."""
        seen, fn = [], getattr(module, name)

        def call(*args, **kwargs):
            seen.append(blas.threads)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, call)
        return seen

    @pytest.mark.parametrize("cores", [1, 2])
    def test_multi_block_calls_run_at_one_thread(self, monkeypatch,
                                                 fake_threads, cores):
        blas = fake_threads(cores, 2)
        scored = self.recording(monkeypatch, metrics, "_ssim_images", blas)
        filtered = self.recording(monkeypatch, baselines, "_svd_filter", blas)
        count = 2 * BLOCK_IMAGES + 5
        a = np.random.default_rng(3).random((31 * 31, count))
        ssim_stack(a, a, (31, 31))
        assert blas.set_to == [1, 2]
        baselines.svd_denoise(columns_to_images(a, (31, 31)))
        assert blas.set_to == [1, 2, 1, 2]
        assert len(filtered) == 3 and len(scored) >= 3
        assert set(scored) == set(filtered) == {1}

    def test_restores_when_a_pool_block_raises(self, blas):
        caller = threading.get_ident()
        # each thread takes one block before either goes on, so the pool
        # thread surely runs one
        both = threading.Barrier(2)
        seen = []

        def fail_on_pool_thread(block):
            if block.start < 2 * BLOCK_IMAGES:
                both.wait(timeout=30)
            seen.append(blas.threads)
            if threading.get_ident() != caller:
                raise DomainError("pool block")

        with pytest.raises(DomainError, match="pool block"):
            _parallel._map_blocks(fail_on_pool_thread, 2 * BLOCK_IMAGES + 5)
        assert set(seen) == {1}
        assert blas.set_to == [1, 2] and blas.threads == 2

    def test_pooled_blocks_run_at_one_real_blas_thread(self, blas):
        # the fake passes the pin on to this process's own setter, so the
        # tests' pooled blocks run under the real pin
        if blas.real is None:
            pytest.skip("no BLAS thread setter found")
        get = blas.real[0]
        before, seen = get(), []
        _parallel._map_blocks(lambda block: seen.append(get()),
                              2 * BLOCK_IMAGES + 5)
        assert seen == [1, 1, 1] and get() == before

    def test_overlapping_callers_set_and_restore_once(self, monkeypatch,
                                                      blas):
        # two threads score at once: each kernel call waits until the other
        # thread's runs too, so both pins are open together
        both = threading.Barrier(2)
        kernel, seen = metrics._ssim_images, []

        def meeting(a, b):
            both.wait(timeout=30)
            seen.append(blas.threads)
            return kernel(a, b)
        monkeypatch.setattr(metrics, "_ssim_images", meeting)
        a = np.random.default_rng(4).random((31 * 31, 8))
        scores = []
        other = threading.Thread(
            target=lambda: scores.append(ssim_stack(a, a, (31, 31))))
        other.start()
        scores.append(ssim_stack(a, a, (31, 31)))
        other.join(timeout=60)
        assert not other.is_alive()
        assert len(scores) == 2 and seen == [1, 1]
        assert blas.set_to == [1, 2] and blas.threads == 2

    def test_pins_from_many_threads(self, blas):
        # more threads than cores and a short switch interval: a lost update
        # of the reference count would leave the count at 1, restore it
        # while a pin is open, or set it twice
        seen = []

        def pin_often():
            for _ in range(200):
                with _parallel._one_blas_thread() as threads:
                    seen.append((threads, blas.threads))

        workers = [threading.Thread(target=pin_often) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(seen) == 8 * 200 and set(seen) == {(2, 1)}
        assert blas.threads == 2 and len(blas.set_to) % 2 == 0
        assert set(blas.set_to[0::2]) == {1} and set(blas.set_to[1::2]) == {2}


class TestBlasSetterLookup:
    """_blas_thread_functions finds the setter in the library that numpy's
    `_multiarray_umath` loads, here a fake one."""

    @pytest.fixture(autouse=True)
    def uncached(self):
        _parallel._blas_thread_functions.cache_clear()
        yield
        _parallel._blas_thread_functions.cache_clear()

    def load(self, monkeypatch, **symbols):
        monkeypatch.setattr(ctypes, "CDLL",
                            lambda path: types.SimpleNamespace(**symbols))
        monkeypatch.setattr(_parallel, "_core_count", lambda: 2)

    # numpy 1.22-1.26 wheels bundle an ILP64 OpenBLAS with the suffix 64_;
    # an OpenBLAS built without a suffix exports the plain names
    @pytest.mark.parametrize("suffix", ["", "64_"], ids=["plain", "ilp64"])
    def test_openblas_names_are_found(self, monkeypatch, suffix):
        threads, set_to = [3], []

        def get():
            return threads[0]

        def set_(count):
            threads[0] = count
            set_to.append(count)
        self.load(monkeypatch, **{f"openblas_get_num_threads{suffix}": get,
                                  f"openblas_set_num_threads{suffix}": set_})
        assert _parallel._blas_thread_functions() == (get, set_)
        assert get.restype is ctypes.c_int
        assert set_.argtypes == (ctypes.c_int,)
        with _parallel._one_blas_thread() as budget:
            assert budget == 2 and threads == [1]
        assert set_to == [1, 3]

    # a library with only one of the two functions has no setter either
    @pytest.mark.parametrize("symbols", [
        {}, {"openblas_get_num_threads": lambda: 2}])
    def test_no_setter_gives_a_budget_of_one(self, monkeypatch, symbols):
        self.load(monkeypatch, **symbols)
        assert _parallel._blas_thread_functions() is None
        with _parallel._one_blas_thread() as budget:
            assert budget == 1

    def test_finds_numpys_bundled_openblas(self):
        # the OpenBLAS that the installed numpy wheel bundles, if any,
        # through the real lookup
        libs = Path(np.__file__).parents[1] / "numpy.libs"
        if not (any(libs.glob("libopenblas*"))
                or any(libs.glob("libscipy_openblas*"))):
            pytest.skip("numpy bundles no OpenBLAS here")
        functions = _parallel._blas_thread_functions()
        assert functions is not None
        get, set_ = functions
        saved = get()
        try:
            set_(1)
            assert get() == 1
        finally:
            set_(saved)
        assert get() == saved
