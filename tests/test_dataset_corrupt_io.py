import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radden.dataset import (ImageStack, add_noise, add_point_clutter,
                            frontal_phantoms, load_dataset, load_stack,
                            save_dataset, save_stack, shuffle_labels,
                            signal_reference)
from radden.dataset.corrupt import CLUTTER_CELLS, _cell_grid
from radden.dataset.stack_io import columns_to_images
from radden.errors import ConfigError, DomainError, FormatError


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


def assert_same_metadata(a, b):
    """The two stacks' column records are equal, column by column."""
    for name in ("interval_index", "realization", "wall_class"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestImageStack:
    @pytest.mark.parametrize("kwargs, message", [
        pytest.param(dict(data=np.zeros(4)), "P x Q matrix", id="not_2d"),
        pytest.param(dict(image_shape=(3, 3)), "image shape", id="shape_vs_P"),
        pytest.param(dict(data=np.full((4, 2), np.nan)), "non-finite", id="nan"),
        pytest.param(dict(data=np.full((4, 2), 1.5)), r"\[0, 1\]", id="above_1"),
        pytest.param(dict(role="noisy"), "unknown role", id="role"),
        pytest.param(dict(value_kind="sonar"), "unknown value kind", id="kind"),
        pytest.param(dict(interval_index=np.zeros(3)), "one entry per column",
                     id="records")])
    def test_refusals(self, kwargs, message):
        valid = dict(data=np.zeros((4, 2)), image_shape=(2, 2))
        with pytest.raises(ConfigError, match=message):
            ImageStack(**(valid | kwargs))


class TestSignalReference:
    def test_known_values(self):
        stack = ImageStack(np.array([[0.0, 0.5], [1.0, 0.0]]), (2, 1))
        # above-floor pixels are 0.5 and 1.0 -> mean power (0.25 + 1) / 2
        assert signal_reference(stack) == pytest.approx(0.625)

    def test_all_below_floor(self):
        assert signal_reference(ImageStack(np.zeros((4, 2)), (2, 2))) == 0.0


class TestAddNoise:
    def test_matches_reconstructed_noise_stream(self):
        stack = make_stack()
        snr, seed = 10.0, 7
        noisy = add_noise(stack, snr, seed)
        n_p = signal_reference(stack) * 10 ** (-snr / 10)
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
        assert_same_metadata(out, stack)

    @pytest.mark.parametrize("snr", [-np.inf, np.nan, None])
    def test_only_plus_inf_is_the_sentinel(self, snr):
        # -inf dB, or None, would otherwise pass as "no noise"
        with pytest.raises(DomainError, match="snr_db"):
            add_noise(make_stack(Q=3), snr, seed=0)

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

    @pytest.mark.parametrize("snr", [10.0, np.inf])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_keeps_the_input_memory_order(self, order, snr):
        # the same noisy values, in the input's memory order
        stack = make_stack(P=256, Q=6, shape=(16, 16), seed=2)
        ordered = stack.copy(data=np.asarray(stack.data, order=order))
        out = add_noise(ordered, snr, seed=9)
        np.testing.assert_array_equal(out.data,
                                      add_noise(stack, snr, seed=9).data)
        assert out.data.flags["C_CONTIGUOUS" if order == "C" else "F_CONTIGUOUS"]


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

    @pytest.mark.parametrize("shape", [(64, 64), (31, 31), (7, 12)])
    def test_one_site_per_cell(self, shape):
        # at pfa = 1 every cell holds exactly one lit pixel, inside its edges
        rows, cols = shape
        stack = ImageStack(np.zeros((rows * cols, 3)), shape)
        out = add_point_clutter(stack, 0.0, 1.0, seed=4, signal_ref=1.0)
        r_edges, c_edges = _cell_grid(rows, cols)
        for image in columns_to_images(out.data, shape):
            lit = image > 0.0
            assert np.count_nonzero(lit) == CLUTTER_CELLS
            for r0, r1 in zip(r_edges[:-1], r_edges[1:]):
                for c0, c1 in zip(c_edges[:-1], c_edges[1:]):
                    assert np.count_nonzero(lit[r0:r1, c0:c1]) == 1
        if shape == (7, 12):
            assert np.all(out.data > 0.0)

    def test_sites_independent_across_images_and_cells(self):
        # per-image site counts are Binomial(84, pfa): a mask shared across
        # images gives variance 0, one shared across cells counts 0 or 84
        Q, pfa = 2000, 0.3
        stack = ImageStack(np.zeros((31 * 31, Q)), (31, 31))
        out = add_point_clutter(stack, 0.0, pfa, seed=5, signal_ref=1.0)
        counts = np.count_nonzero(out.data > 0.0, axis=0)
        n, q = CLUTTER_CELLS, 1.0 - pfa
        var = n * pfa * q
        assert abs(counts.mean() - n * pfa) <= 4 * np.sqrt(var / Q)
        mu4 = var * (1.0 + 3.0 * (n - 2) * pfa * q)   # central 4th moment
        var_spread = np.sqrt((mu4 - var ** 2 * (Q - 3) / (Q - 1)) / Q)
        assert abs(counts.var(ddof=1) - var) <= 4 * var_spread

    def test_images_smaller_than_the_cell_grid(self):
        # 4x4 images have fewer rows and columns than the 7x12 cells
        stack = make_stack(P=16, Q=3, shape=(4, 4))
        with pytest.raises(ConfigError, match="4x4 images do not fit"):
            add_point_clutter(stack, 10.0, 0.1, seed=0)
        out = add_point_clutter(stack, 10.0, 0.0, seed=0)
        np.testing.assert_array_equal(out.data, stack.data)

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

    @pytest.mark.parametrize("pfa", [0.0, 0.2])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_keeps_the_input_memory_order(self, order, pfa):
        # the same sites on the same pixels, in the input's memory order
        stack = make_stack(P=256, Q=6, shape=(16, 16), seed=2)
        ordered = stack.copy(data=np.asarray(stack.data, order=order))
        out = add_point_clutter(ordered, 10.0, pfa, seed=9)
        np.testing.assert_array_equal(
            out.data, add_point_clutter(stack, 10.0, pfa, seed=9).data)
        assert out.data.flags["C_CONTIGUOUS" if order == "C" else "F_CONTIGUOUS"]

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

    @pytest.mark.parametrize("fraction", [0.0, 0.5])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_keeps_the_input_memory_order(self, order, fraction):
        stack = make_stack(P=36, Q=12, shape=(6, 6), seed=3)
        ordered = stack.copy(data=np.asarray(stack.data, order=order))
        out = shuffle_labels(ordered, fraction, seed=4)
        np.testing.assert_array_equal(out.data,
                                      shuffle_labels(stack, fraction, seed=4).data)
        assert out.data.flags["C_CONTIGUOUS" if order == "C" else "F_CONTIGUOUS"]

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
        assert_same_metadata(back, stack)
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
        assert_same_metadata(load_stack(path), stack)

    def test_round_trip_nonsquare_stack(self, tmp_path):
        stack = make_stack(P=64 * 48, Q=3, shape=(64, 48))
        path = tmp_path / "s.rdae"
        save_stack(stack, path)
        back = load_stack(path)
        assert back.image_shape == (64, 48)
        np.testing.assert_array_equal(back.data, stack.data)
        assert_same_metadata(back, stack)

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

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "s.rdae"
        path.write_bytes(b"RDAE2" + struct.pack("<III", 16, 2, 4))
        with pytest.raises(FormatError, match="truncated header"):
            load_stack(path)

    @pytest.mark.parametrize("kind_tag, role_tag", [(9, 0), (0, 2)],
                             ids=["kind", "role"])
    def test_unknown_tag(self, tmp_path, kind_tag, role_tag):
        stack = make_stack(P=16, Q=2, shape=(4, 4))
        path = tmp_path / "s.rdae"
        path.write_bytes(b"RDAE2"
                         + struct.pack("<IIIIBB", 16, 2, 4, 4, kind_tag, role_tag)
                         + self.record_bytes(stack))
        with pytest.raises(FormatError, match="unknown kind/role tag"):
            load_stack(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1.5, -0.5])
    def test_pixel_no_stack_holds_refused(self, tmp_path, value):
        # a valid header and size; the last pixel is not finite or not in [0, 1]
        stack = make_stack(P=16, Q=2, shape=(4, 4))
        path = tmp_path / "s.rdae"
        save_stack(stack, path)
        path.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", value))
        with pytest.raises(FormatError, match="s.rdae") as info:
            load_stack(path)
        assert isinstance(info.value.__cause__, ConfigError)

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

    def test_stacks_must_agree_on_their_column_count(self, tmp_path):
        directory = tmp_path / "ds"
        directory.mkdir()
        save_stack(make_stack(P=16, Q=3, shape=(4, 4)), directory / "clean.rdae")
        save_stack(make_stack(P=16, Q=2, shape=(4, 4), role="corrupt"),
                   directory / "corrupt.rdae")
        with pytest.raises(FormatError, match=r"disagree on \(P, Q\)"):
            load_dataset(directory)

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

    @pytest.mark.parametrize("count, seed", [(1, 0), (5, 3), (64, 0)])
    def test_matches_per_image_loop(self, count, seed):
        # the reference draws each image's four normals in turn and builds
        # the image blob by blob; the stack must equal it bit for bit, and
        # keep its memory order
        rows, cols = 31, 31
        y, x = np.arange(rows)[:, None], np.arange(cols)[None, :]

        def blob(cy, cx, sy, sx, amp):
            return amp * np.exp(-0.5 * (((y - cy) / sy) ** 2 + ((x - cx) / sx) ** 2))
        rng = np.random.default_rng(seed)
        expected = np.empty((rows * cols, count))
        for q in range(count):
            cy = rows * (0.50 + 0.06 * rng.standard_normal())
            cx = cols * (0.50 + 0.06 * rng.standard_normal())
            scale = 1.0 + 0.15 * rng.standard_normal()
            spread = cols * (0.22 + 0.03 * rng.standard_normal())
            img = blob(cy, cx, rows * 0.18 * scale, cols * 0.10 * scale, 1.0)
            img += blob(cy - rows * 0.28, cx, rows * 0.07, cols * 0.07, 0.8)
            for side in (-1.0, 1.0):
                img += blob(cy - rows * 0.05, cx + side * spread,
                            rows * 0.10, cols * 0.05, 0.5)
                img += blob(cy + rows * 0.30, cx + side * cols * 0.10,
                            rows * 0.12, cols * 0.05, 0.6)
            img /= img.max()
            expected[:, q] = img.ravel(order="F")
        data = frontal_phantoms(count, seed=seed).data
        assert data.tobytes() == expected.tobytes()
        assert data.flags.c_contiguous
