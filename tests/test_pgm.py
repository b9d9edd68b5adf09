import numpy as np
import pytest

from axialtrack.attention import passthrough_attention_params
from axialtrack.errors import DimensionError
from axialtrack.heatmaps import axial_fields, dump_attention_heatmaps, normalize_heatmap
from axialtrack.pgm import dump_tube_set, load_tube_set, mask_to_u8, read_pgm, write_pgm
from axialtrack.segmenter import Tube


class TestPgmRoundTrip:
    def test_write_read(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(5, 7)).astype(np.uint8)
        path = tmp_path / "x.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)

    def test_comment_lines_tolerated(self, tmp_path):
        path = tmp_path / "c.pgm"
        with open(path, "wb") as fh:
            fh.write(b"P5\n# a comment\n2 2\n255\n\x00\x40\x80\xff")
        img = read_pgm(path)
        assert img.shape == (2, 2)
        assert img[1, 1] == 255

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        with open(path, "wb") as fh:
            fh.write(b"P5\n4 4\n255\n\x00")
        with pytest.raises(Exception):
            read_pgm(path)

    @pytest.mark.parametrize("data", [
        b"P5\n4 x\n255\n\x00",        # non-integer token
        b"P5\n4 4",                      # missing maxval
        b"P5\n-1 -1\n255\n\x00",      # negative size
        b"P512 3 255\n" + bytes(36),   # no separator after the magic number
    ])
    def test_bad_header_names_file(self, tmp_path, data):
        path = tmp_path / "h.pgm"
        path.write_bytes(data)
        with pytest.raises(DimensionError, match=str(path)):
            read_pgm(path)


class TestMaskQuantization:
    def test_half_stays_below_threshold(self):
        # floor(0.5 * 255) = 127 -> 127/255 < 0.5 after the round trip
        q = mask_to_u8(np.array([[0.5]]))
        assert q[0, 0] == 127
        assert q[0, 0] / 255.0 < 0.5

    def test_extremes(self):
        q = mask_to_u8(np.array([[0.0, 1.0]]))
        assert q[0, 0] == 0 and q[0, 1] == 255


class TestTubeDumps:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        tubes = [
            Tube((rng.uniform(size=(3, 4, 4)) > 0.5).astype(float), np.array([1.0, 0.0]), 0),
            Tube((rng.uniform(size=(3, 4, 4)) > 0.5).astype(float), np.array([0.0, 1.0]), 1),
        ]
        dump_tube_set(tubes, [0, 1], tmp_path / "set")
        masks, class_ids, track_ids = load_tube_set(tmp_path / "set")
        assert class_ids == [0, 1]
        assert track_ids == [0, 1]
        for loaded, tube in zip(masks, tubes):
            assert np.array_equal(np.round(loaded), tube.masks)


class TestHeatmaps:
    def test_uniform_weights_constant_gray(self, tmp_path):
        paths = dump_attention_heatmaps(np.full((2, 4), 1 / 4), np.full((2, 3), 1 / 3), tmp_path)
        assert len(paths) == 2
        for path in paths:
            img = read_pgm(path)
            assert img.shape == (4, 3)
            assert img.min() == img.max()
            assert 0 < img[0, 0] < 255

    def test_singleton_axes_white_pixel(self, tmp_path):
        for path in dump_attention_heatmaps(np.ones((2, 1)), np.ones((2, 1)), tmp_path):
            img = read_pgm(path)
            assert img.shape == (1, 1)
            assert img[0, 0] == 255

    def test_dump_writes_readable_files(self, tmp_path):
        rng = np.random.default_rng(2)
        f = rng.normal(size=(2, 4, 4, 4))
        p = passthrough_attention_params(4)
        rows_h, rows_w = axial_fields(f, p, p, ([0], [1], [2]))
        paths = dump_attention_heatmaps(rows_h[0], rows_w[0], tmp_path / "maps")
        assert len(paths) == 2
        for u, path in enumerate(paths):
            img = read_pgm(path)
            assert img.shape == (4, 4)
            assert np.array_equal(img, normalize_heatmap(np.outer(rows_h[0, u], rows_w[0, u])))

    def test_out_of_range_reference(self):
        p = passthrough_attention_params(4)
        with pytest.raises(DimensionError):
            axial_fields(np.zeros((2, 4, 3, 4)), p, p, ([0], [5], [0]))
