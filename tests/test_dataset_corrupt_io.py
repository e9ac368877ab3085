import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radden.dataset import (ImageStack, add_noise, add_point_clutter,
                            frontal_phantoms, load_dataset, load_stack,
                            noise_power_for, save_dataset, save_stack,
                            shuffle_labels, signal_reference)
from radden.dataset.corrupt import CLUTTER_CELLS
from radden.errors import ConfigError, FormatError


def make_stack(P=4096, Q=20, seed=0, shape=(64, 64), role="clean"):
    rng = np.random.default_rng(seed)
    return ImageStack(
        data=rng.random((P, Q)),
        image_shape=shape,
        interval_index=np.arange(Q) % 8,
        realization=np.arange(Q) % 5,
        wall_class=np.arange(Q) % 4,
        role=role,
    )


class TestSignalReference:
    def test_known_values(self):
        stack = ImageStack(np.array([[0.0, 0.5], [1.0, 0.0]]), (2, 1))
        # above-floor pixels are 0.5 and 1.0 -> mean power (0.25 + 1) / 2
        assert signal_reference(stack) == pytest.approx(0.625)

    def test_floor_excludes_low_pixels(self):
        stack = ImageStack(np.array([[0.1, 0.8]]).T, (2, 1))
        assert signal_reference(stack, floor=0.5) == pytest.approx(0.64)

    def test_all_below_floor(self):
        assert signal_reference(ImageStack(np.zeros((4, 2)), (2, 2))) == 0.0

    def test_snr_inversion(self):
        stack = make_stack(Q=4)
        ref = signal_reference(stack)
        for snr in (-10.0, 0.0, 10.0):
            n_p = noise_power_for(stack, snr)
            assert 10 * np.log10(ref / n_p) == pytest.approx(snr, abs=1e-9)


class TestAddNoise:
    def test_matches_reconstructed_noise_stream(self):
        stack = make_stack()
        snr, seed = 10.0, 7
        noisy = add_noise(stack, snr, seed)
        n_p = noise_power_for(stack, snr)
        noise = np.random.default_rng(seed).normal(0.0, np.sqrt(n_p),
                                                   size=stack.data.shape)
        np.testing.assert_array_equal(noisy.data,
                                      np.clip(stack.data + noise, 0.0, 1.0))
        # injected-noise sample variance tracks the target power
        assert np.var(noise) == pytest.approx(n_p, rel=0.05)

    def test_infinite_snr_is_identity(self):
        stack = make_stack(Q=3)
        out = add_noise(stack, np.inf, seed=0)
        np.testing.assert_array_equal(out.data, stack.data)
        assert out.metadata_matches(stack)

    def test_deterministic_in_seed(self):
        stack = make_stack(Q=3)
        a = add_noise(stack, 0.0, seed=5)
        b = add_noise(stack, 0.0, seed=5)
        c = add_noise(stack, 0.0, seed=6)
        np.testing.assert_array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_output_stays_in_unit_interval(self):
        stack = make_stack(Q=5)
        out = add_noise(stack, -10.0, seed=1)  # heavy noise
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0


class TestAddPointClutter:
    def test_pfa_zero_is_identity(self):
        stack = make_stack(Q=3)
        out = add_point_clutter(stack, 10.0, 0.0, seed=0)
        np.testing.assert_array_equal(out.data, stack.data)

    def test_site_count_tracks_cell_probability(self):
        Q, pfa = 50, 0.1
        stack = ImageStack(np.zeros((4096, Q)), (64, 64))
        out = add_point_clutter(stack, 20.0, pfa, seed=3, signal_ref=1.0)
        changed = int(np.count_nonzero(out.data != stack.data))
        expect = CLUTTER_CELLS * pfa * Q
        sigma = np.sqrt(CLUTTER_CELLS * pfa * (1 - pfa) * Q)
        assert abs(changed - expect) <= 4 * sigma

    def test_per_image_site_count_bounded_by_cells(self):
        stack = ImageStack(np.zeros((4096, 4)), (64, 64))
        out = add_point_clutter(stack, 20.0, 1.0, seed=0, signal_ref=1.0)
        per_image = np.count_nonzero(out.data != 0.0, axis=0)
        assert np.all(per_image <= CLUTTER_CELLS)

    def test_clutter_power_against_ratio(self):
        # zero signal + explicit reference: changed pixels are pure clutter
        scr_db = 20.0
        stack = ImageStack(np.zeros((4096, 50)), (64, 64))
        out = add_point_clutter(stack, scr_db, 0.1, seed=11, signal_ref=1.0)
        vals = out.data[out.data > 0.0]
        assert vals.size > 200
        expected_power = 10.0 ** (-scr_db / 10.0)
        assert np.mean(vals ** 2) == pytest.approx(expected_power, rel=0.15)

    def test_deterministic_in_seed(self):
        stack = make_stack(Q=4)
        a = add_point_clutter(stack, 10.0, 0.2, seed=9)
        b = add_point_clutter(stack, 10.0, 0.2, seed=9)
        np.testing.assert_array_equal(a.data, b.data)

    def test_bad_pfa(self):
        with pytest.raises(ConfigError):
            add_point_clutter(make_stack(Q=2), 10.0, 1.5, seed=0)


class TestShuffleLabels:
    def test_zero_fraction_identity(self):
        stack = make_stack(Q=10)
        out = shuffle_labels(stack, 0.0, seed=0)
        np.testing.assert_array_equal(out.data, stack.data)

    def test_single_column_is_left_alone(self):
        stack = make_stack(Q=10)
        out = shuffle_labels(stack, 0.15, seed=0)  # floor(1.5) = 1 column
        np.testing.assert_array_equal(out.data, stack.data)

    def test_derangement_moves_every_chosen_column(self):
        stack = make_stack(Q=40)
        out = shuffle_labels(stack, 0.5, seed=2)
        same = [np.array_equal(out.data[:, q], stack.data[:, q])
                for q in range(40)]
        assert sum(same) == 20  # exactly the unchosen half survives

    def test_column_multiset_preserved(self):
        stack = make_stack(Q=30)
        out = shuffle_labels(stack, 0.8, seed=4)
        before = sorted(stack.data[:, q].tobytes() for q in range(30))
        after = sorted(out.data[:, q].tobytes() for q in range(30))
        assert before == after

    def test_bad_mode_and_fraction(self):
        with pytest.raises(ConfigError):
            shuffle_labels(make_stack(Q=4), 1.2, seed=0)

    @settings(max_examples=25, deadline=None)
    @given(fraction=st.floats(0.0, 1.0), seed=st.integers(0, 1000))
    def test_total_multiset_invariant(self, fraction, seed):
        stack = make_stack(P=36, Q=12, shape=(6, 6), seed=99)
        out = shuffle_labels(stack, fraction, seed=seed)
        np.testing.assert_array_equal(np.sort(out.data, axis=None),
                                      np.sort(stack.data, axis=None))


class TestStackIo:
    def test_round_trip_bit_exact(self, tmp_path):
        stack = make_stack(P=64, Q=7, shape=(8, 8), role="corrupt")
        path = tmp_path / "s.rdae"
        save_stack(stack, path)
        back = load_stack(path)
        np.testing.assert_array_equal(back.data, stack.data)
        assert back.metadata_matches(stack)
        assert back.role == "corrupt"
        assert back.value_kind == stack.value_kind
        assert back.image_shape == (8, 8)

    @staticmethod
    def record_bytes(stack):
        """Column records and values, as they follow the header."""
        out = b""
        for q in range(stack.count):
            out += struct.pack("<HHB", int(stack.interval_index[q]),
                               int(stack.realization[q]),
                               int(stack.wall_class[q]))
        return out + stack.data.astype("<f8").tobytes(order="F")

    def test_bytes_match_record_by_record_layout(self, tmp_path):
        stack = make_stack(P=16, Q=9, shape=(2, 8), role="corrupt")
        stack.interval_index[2] = 65535
        stack.realization[5] = 4097
        stack.wall_class[8] = 255
        path = tmp_path / "s.rdae"
        save_stack(stack, path)
        expected = (b"RDAE2" + struct.pack("<IIIIBB", 16, 9, 2, 8, 0, 1)
                    + self.record_bytes(stack))
        assert path.read_bytes() == expected
        assert load_stack(path).metadata_matches(stack)

    def test_round_trip_nonsquare_stack(self, tmp_path):
        stack = make_stack(P=64 * 48, Q=3, shape=(64, 48))
        path = tmp_path / "s.rdae"
        save_stack(stack, path)
        back = load_stack(path)
        assert back.image_shape == (64, 48)
        np.testing.assert_array_equal(back.data, stack.data)
        assert back.metadata_matches(stack)

    def test_header_shape_inconsistent_with_pixel_count(self, tmp_path):
        stack = make_stack(P=16, Q=2, shape=(4, 4))
        path = tmp_path / "s.rdae"
        path.write_bytes(b"RDAE2" + struct.pack("<IIIIBB", 16, 2, 4, 5, 0, 0)
                         + self.record_bytes(stack))
        with pytest.raises(FormatError):
            load_stack(path)

    @pytest.mark.parametrize("version_1", [False, True])
    def test_bad_magic(self, tmp_path, version_1):
        path = tmp_path / "junk.rdae"
        if version_1:   # an intact RDAE1 stack, whose header has no shape
            stack = make_stack(P=16, Q=3, shape=(4, 4))
            path.write_bytes(b"RDAE1" + struct.pack("<IIBB", 16, 3, 0, 0)
                             + self.record_bytes(stack))
        else:
            path.write_bytes(b"NOPE!" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_stack(path)

    def test_truncated_payload(self, tmp_path):
        stack = make_stack(P=64, Q=4, shape=(8, 8))
        path = tmp_path / "s.rdae"
        save_stack(stack, path)
        path.write_bytes(path.read_bytes()[:-17])
        with pytest.raises(FormatError):
            load_stack(path)

    def test_trailing_bytes_refused(self, tmp_path):
        stack = make_stack(P=64, Q=4, shape=(8, 8))
        path = tmp_path / "s.rdae"
        save_stack(stack, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_stack(path)

    def test_dataset_round_trip_nonsquare_shape(self, tmp_path):
        clean = make_stack(P=32, Q=5, shape=(8, 4))
        corrupt = clean.copy(role="corrupt")
        corrupt.data[0, 0] = 0.123
        save_dataset(clean, corrupt, tmp_path / "ds", config_text="cfg v1")
        c2, x2 = load_dataset(tmp_path / "ds")
        np.testing.assert_array_equal(c2.data, clean.data)
        np.testing.assert_array_equal(x2.data, corrupt.data)
        assert c2.image_shape == (8, 4) and x2.image_shape == (8, 4)
        assert c2.role == "clean" and x2.role == "corrupt"

    def test_manifest_records_config_hash(self, tmp_path):
        clean = make_stack(P=16, Q=2, shape=(4, 4))
        save_dataset(clean, clean.copy(role="corrupt"), tmp_path / "d",
                     config_text="alpha")
        text = (tmp_path / "d" / "manifest.txt").read_text()
        assert "config_hash=" in text
        save_dataset(clean, clean.copy(role="corrupt"), tmp_path / "e",
                     config_text="beta")
        assert (tmp_path / "e" / "manifest.txt").read_text() != text

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError):
            load_dataset(tmp_path)

    def test_mismatched_pair_rejected(self, tmp_path):
        a = make_stack(P=16, Q=2, shape=(4, 4))
        b = make_stack(P=16, Q=3, shape=(4, 4))
        with pytest.raises(FormatError):
            save_dataset(a, b, tmp_path / "bad")

    @pytest.mark.parametrize("manifest", [
        None, "clean=missing.rdae\ncorrupt=missing.rdae\nimage_shape=64by64\n"],
        ids=["absent", "malformed"])
    def test_manifest_is_not_read(self, tmp_path, manifest):
        clean = make_stack(P=32, Q=3, shape=(8, 4))
        save_dataset(clean, clean.copy(role="corrupt"), tmp_path / "ds")
        path = tmp_path / "ds" / "manifest.txt"
        if manifest is None:
            path.unlink()
        else:
            path.write_text(manifest)
        c2, x2 = load_dataset(tmp_path / "ds")
        np.testing.assert_array_equal(c2.data, clean.data)
        assert c2.image_shape == x2.image_shape == (8, 4)

    @pytest.mark.parametrize("name", ["clean.rdae", "corrupt.rdae"])
    def test_missing_stack_named(self, tmp_path, name):
        clean = make_stack(P=16, Q=2, shape=(4, 4))
        save_dataset(clean, clean.copy(role="corrupt"), tmp_path / "ds")
        (tmp_path / "ds" / name).unlink()
        with pytest.raises(FormatError, match=name):
            load_dataset(tmp_path / "ds")

    def test_headers_must_agree_with_each_other(self, tmp_path):
        clean = make_stack(P=32, Q=3, shape=(8, 4))
        corrupt = replace(clean, role="corrupt", image_shape=(4, 8))
        save_dataset(clean, corrupt, tmp_path / "ds")
        manifest = tmp_path / "ds" / "manifest.txt"
        manifest.write_text("clean=clean.rdae\ncorrupt=corrupt.rdae\n")
        with pytest.raises(FormatError):
            load_dataset(tmp_path / "ds")


class TestFrontalPhantoms:
    def test_shape_and_range(self):
        stack = frontal_phantoms(6, seed=0)
        assert stack.data.shape == (31 * 31, 6)
        assert stack.image_shape == (31, 31)
        assert stack.data.min() >= 0.0
        np.testing.assert_allclose(stack.data.max(axis=0), 1.0, atol=1e-12)

    def test_deterministic_and_varied(self):
        a = frontal_phantoms(4, seed=1)
        b = frontal_phantoms(4, seed=1)
        c = frontal_phantoms(4, seed=2)
        np.testing.assert_array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)
        # per-image jitter: no two phantoms identical within a stack
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(a.data[:, i], a.data[:, j])

    def test_count_validation(self):
        with pytest.raises(ConfigError):
            frontal_phantoms(0)
