import math
import tracemalloc

import numpy as np
import pytest

from axialtrack.attention import LN_EPS, prenorm
from axialtrack.errors import ConfigError, DimensionError
from axialtrack.tensor import (
    atrous_conv1d,
    bilinear_sample,
    softmax_last,
    sorted_sum,
)

from oracles import naive_atrous_conv1d, naive_bilinear_point, naive_prenorm


class TestSoftmax:
    def test_all_equal_logits(self):
        np.testing.assert_allclose(softmax_last([0.0, 0.0, 0.0]), [1 / 3] * 3, atol=1e-15)

    def test_analytic(self):
        np.testing.assert_allclose(
            softmax_last([0.0, math.log(2.0)]), [1 / 3, 2 / 3], atol=1e-15
        )

    def test_shift_invariance(self):
        out = softmax_last([1000.0, 1001.0])
        assert np.all(np.isfinite(out))
        assert np.array_equal(out, softmax_last([0.0, 1.0]))

    def test_distribution_property(self):
        rng = np.random.default_rng(4)
        x = rng.normal(scale=5.0, size=(7, 3, 9))
        out = softmax_last(x)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_monotone_in_logits(self):
        x = np.array([0.3, -1.0, 2.0])
        bumped = x.copy()
        bumped[1] += 0.5
        assert softmax_last(bumped)[1] > softmax_last(x)[1]

    def test_empty_axis_rejected(self):
        with pytest.raises(DimensionError):
            softmax_last(np.zeros((2, 0)))

    def test_keeps_exponential_order(self):
        x = np.array([[2.0, -1.0, 0.5, 3.0], [0.0, 4.0, -2.0, 1.0]])
        ex = np.exp(x - x.max(axis=-1, keepdims=True))
        want = ex / np.sort(ex, axis=-1).sum(axis=-1, keepdims=True)
        got = softmax_last(x)
        assert np.array_equal(got, want)
        assert np.array_equal(np.argsort(got, axis=-1), np.argsort(x, axis=-1))


class TestLayerNorm:
    """`attention.prenorm`, the one (parameter-free) layer norm."""

    def test_constant_slice_collapses_to_beta(self):
        # With no shift parameter, a constant slice normalizes to zero.
        x = np.full((4, 5), 3.7)
        out = prenorm(x)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_already_normalized(self):
        # Zero mean and unit variance: only the fixed epsilon remains.
        out = prenorm(np.array([1.0, -1.0]))
        assert LN_EPS == 1e-5
        assert np.array_equal(out, np.array([1.0, -1.0]) / np.sqrt(1.0 + LN_EPS))

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 8))
        np.testing.assert_allclose(prenorm(x), naive_prenorm(x), atol=1e-12)

    def test_empty_trailing_axis_rejected(self):
        for shape in ((), (3, 0)):
            with pytest.raises(DimensionError, match="non-empty trailing axis"):
                prenorm(np.zeros(shape))


class TestAtrousConv:
    def test_center_tap_identity(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 3))
        kernel = np.zeros((3, 3, 3))
        kernel[1] = np.eye(3)
        for rate in (1, 2, 3):
            assert np.array_equal(atrous_conv1d(x, kernel, rate), x)

    def test_hand_sum_with_zero_pad(self):
        x = np.array([[1.0], [2.0], [3.0]])
        kernel = np.ones((3, 1, 1))
        np.testing.assert_allclose(
            atrous_conv1d(x, kernel, 1), [[3.0], [6.0], [5.0]], atol=0
        )

    def test_dilated_matches_naive(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(9, 4))
        kernel = rng.normal(size=(3, 4, 4))
        got = atrous_conv1d(x, kernel, 2)
        np.testing.assert_allclose(got, naive_atrous_conv1d(x, kernel, 2), atol=1e-12)

    @pytest.mark.parametrize("rate", [3, 4, 5, 9, 10 ** 13])
    def test_taps_past_the_ends_match_naive(self, rate):
        # Five taps over nine rows: from rate 3 the outer taps, and from
        # rate 9 every tap but the centre, reach past the sequence for some
        # output rows or all of them.
        rng = np.random.default_rng(11)
        x = rng.normal(size=(9, 4))
        kernel = rng.normal(size=(5, 4, 4))
        got = atrous_conv1d(x, kernel, rate)
        np.testing.assert_allclose(got, naive_atrous_conv1d(x, kernel, rate), atol=1e-12)

    def test_huge_rate_allocates_no_padding(self):
        # A zero-padded copy at rate 10^13 would need 8 * 4 * 10^13 bytes per
        # channel; the output and one tap's product are all that is held.
        x = np.random.default_rng(9).normal(size=(256, 3, 4))
        kernel = np.random.default_rng(10).normal(size=(5, 4, 4))
        tracemalloc.start()
        try:
            got = atrous_conv1d(x, kernel, 10 ** 13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * x.nbytes
        centre = np.einsum("l...e,de->l...d", x, kernel[2], optimize=False)
        assert np.array_equal(got, np.zeros_like(got) + centre)

    @pytest.mark.parametrize("batch", [(5,), (1,), (3, 4)])
    def test_batch_axes_equal_per_slice_calls(self, batch):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(7,) + batch + (6,))
        kernel = rng.normal(size=(3, 5, 6))
        for rate in (1, 2, 3):
            got = atrous_conv1d(x, kernel, rate)
            assert got.shape == (7,) + batch + (5,)
            for idx in np.ndindex(*batch):
                seq = x[(slice(None),) + idx]
                assert np.array_equal(got[(slice(None),) + idx], atrous_conv1d(seq, kernel, rate))

    def test_even_taps_rejected(self):
        with pytest.raises(ConfigError):
            atrous_conv1d(np.zeros((4, 2)), np.zeros((2, 2, 2)), 1)

    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigError):
            atrous_conv1d(np.zeros((4, 2)), np.zeros((3, 2, 2)), 0)


class TestBilinearSample:
    def test_integer_grid_point_exact(self):
        rng = np.random.default_rng(8)
        feat = rng.normal(size=(3, 4, 5))
        out = bilinear_sample(feat, [(2.0, 3.0)])
        assert np.array_equal(out[0], feat[:, 2, 3])

    def test_midpoint_average(self):
        rng = np.random.default_rng(9)
        feat = rng.normal(size=(2, 3, 3))
        out = bilinear_sample(feat, [(1.0, 0.5)])
        np.testing.assert_allclose(out[0], 0.5 * (feat[:, 1, 0] + feat[:, 1, 1]), atol=1e-15)

    def test_far_outside_is_zero(self):
        rng = np.random.default_rng(10)
        feat = rng.normal(size=(4, 6, 6))
        out = bilinear_sample(feat, [(-5.0, -5.0)])
        assert np.array_equal(out[0], np.zeros(4))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        feat = rng.normal(size=(3, 5, 7))
        pts = rng.uniform(-2.0, 8.0, size=(20, 2))
        got = bilinear_sample(feat, pts)
        want = np.stack([naive_bilinear_point(feat, y, x) for y, x in pts])
        np.testing.assert_allclose(got, want, atol=1e-12)


    @pytest.mark.parametrize("batch", [(3,), (2, 2)])
    def test_batch_matches_stacked_single_maps(self, batch):
        rng = np.random.default_rng(30)
        c, h, w = 4, 5, 7
        feat = rng.normal(size=batch + (c, h, w))
        edges = [
            (h - 1, 2.0), (h - 1, w - 1), (1.0, w - 1), (0.0, 0.0),  # last row and column
            (-2.5, 3.0), (h + 1.5, 3.0), (2.0, -3.0), (2.0, w + 2.0),  # > 1 pixel outside
            (-0.3, -0.7), (-1.0, 2.5), (3.5, -0.25), (-4.0, -9.0),  # negative
        ]
        pts = np.concatenate(
            [np.broadcast_to(edges, batch + (len(edges), 2)),
             rng.uniform(-2.0, 9.0, size=batch + (30, 2))],
            axis=-2,
        )
        got = bilinear_sample(feat, pts)
        assert got.shape == batch + (pts.shape[-2], c)
        for idx in np.ndindex(batch):
            assert np.array_equal(got[idx], bilinear_sample(feat[idx], pts[idx]))
            want = np.stack([naive_bilinear_point(feat[idx], y, x) for y, x in pts[idx]])
            np.testing.assert_allclose(got[idx], want, atol=1e-12)

    @pytest.mark.parametrize("pts_shape", [(2, 5, 2), (5, 2), (3, 5, 3), (1, 3, 5, 2)])
    def test_mismatched_batch_axes_rejected(self, pts_shape):
        with pytest.raises(DimensionError):
            bilinear_sample(np.zeros((3, 2, 4, 4)), np.zeros(pts_shape))


class TestSortedSum:
    def test_permutation_invariant_bitwise(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(5, 17))
        perm = rng.permutation(17)
        assert np.array_equal(sorted_sum(x.copy(), axis=-1), sorted_sum(x[:, perm].copy(), axis=-1))

    @pytest.mark.parametrize("axis", [-1, -2])
    def test_equals_sort_then_sum(self, axis):
        x = np.random.default_rng(13).normal(size=(3, 11, 7, 5))
        want = np.sort(x, axis=axis).sum(axis=axis)
        assert np.array_equal(sorted_sum(x, axis=axis), want)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_short_axis_matches_sorted_path(self, axis):
        # One or two terms are summed unsorted; IEEE addition commutes, so
        # the bits and the sign of zero match the sorted sum.
        values = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 1e308, -1e308,
                  5e-324, -5e-324, 0.1, -0.3]
        pairs = np.array([(a, b) for a in values for b in values])  # (144, 2)
        for x in (pairs, pairs[:, :1]):
            x = np.ascontiguousarray(x if axis == 1 else x.T)
            with np.errstate(over="ignore"):  # 1e308 + 1e308
                want = np.sort(x, axis=axis).sum(axis=axis)
                got = sorted_sum(x.copy(), axis=axis)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_contiguous_input_left_sorted(self):
        x = np.random.default_rng(14).normal(size=(4, 9, 6))
        want = np.sort(x, axis=-2)
        sorted_sum(x, axis=-2)
        assert np.array_equal(x, want)

    @pytest.mark.parametrize("kind", ["strided", "read-only", "integer"])
    @pytest.mark.parametrize("axis", [-1, -2])
    def test_copied_inputs_unchanged(self, kind, axis):
        rng = np.random.default_rng(15)
        if kind == "strided":
            x = rng.normal(size=(6, 10, 8))[:, ::2].transpose(2, 0, 1)
        elif kind == "read-only":
            x = rng.normal(size=(6, 10, 8))
            x.flags.writeable = False
        else:
            x = rng.integers(-50, 50, size=(6, 10, 8))
        before = x.copy()
        want = np.sort(x, axis=axis).sum(axis=axis)
        assert np.array_equal(sorted_sum(x, axis=axis), want)
        assert np.array_equal(x, before)
