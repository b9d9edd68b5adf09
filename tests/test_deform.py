import re

import numpy as np
import pytest

from axialtrack import deform
from axialtrack.attention import attention_params, axial_trajectory_h, axial_trajectory_w
from axialtrack.deform import (
    DeformParams,
    FeaturePyramid,
    LevelDeformParams,
    WithinClipBlock,
    build_pyramid,
    deform_params,
    identity_deform_params,
    msdeform_simplified,
    sampling_peak,
    within_clip_blocks,
    within_clip_forward,
)
from axialtrack.errors import DimensionError

from oracles import every_level_within_clip_forward, naive_msdeform
from traced import traced_peak


def _pyramid(rng, t=2, d=4, hw=8):
    h, w = hw if isinstance(hw, tuple) else (hw, hw)
    return build_pyramid(rng.normal(size=(t, d, h, w)))


def _randomized_params(d, k, seed):
    # Real predictor values, so offsets reach past the borders and weights matter.
    params = deform_params(d, k, np.random.default_rng(seed))
    gen = np.random.default_rng(seed + 1)
    for lp in params.levels:
        lp.w_query = gen.normal(0.0, 0.5, size=lp.w_query.shape)
        lp.w_offset = gen.normal(0.0, 0.5, size=lp.w_offset.shape)
        lp.w_weight = gen.normal(0.0, 0.5, size=lp.w_weight.shape)
    return params


def _every_level(pyr, params):
    return [msdeform_simplified(pyr, params, m) for m in range(3)]


def _aligned_identity_params(d, k):
    # Zero offsets/weights with identity query and output projections.
    levels = [
        LevelDeformParams(
            w_query=np.eye(d),
            w_offset=np.zeros((2 * k, d)),
            w_weight=np.zeros((3 * k, d)),
            w_out=np.eye(d),
        )
        for _ in range(3)
    ]
    return DeformParams(levels=levels, points=k)


class TestPyramid:
    def test_build_shapes(self):
        rng = np.random.default_rng(0)
        pyr = _pyramid(rng, hw=8)
        assert [lvl.shape[2] for lvl in pyr.levels] == [2, 4, 8]
        pyr.validate()

    def test_level_count_enforced(self):
        with pytest.raises(DimensionError):
            FeaturePyramid([np.zeros((1, 2, 2, 2))] * 2).validate()

    def test_doubling_enforced(self):
        levels = [np.zeros((1, 2, 2, 2)), np.zeros((1, 2, 4, 4)), np.zeros((1, 2, 6, 6))]
        with pytest.raises(DimensionError):
            FeaturePyramid(levels).validate()

    def test_indivisible_extent_rejected(self):
        # 6 is even, so the half level would pool; the refusal names the input.
        for shape in ((1, 2, 6, 8), (4, 8, 6, 8)):
            with pytest.raises(DimensionError, match=re.escape(str(shape))):
                build_pyramid(np.zeros(shape))


class TestMsDeform:
    def test_constant_pyramid_doubles(self):
        # Uniform weights average K aligned copies of the same constant from
        # each level; identity output projection adds that constant back.
        pyr = FeaturePyramid([np.full((2, 1, s, s), 3.0) for s in (2, 4, 8)])
        params = _aligned_identity_params(1, 4)
        for m in range(3):
            np.testing.assert_allclose(msdeform_simplified(pyr, params, m), 6.0, atol=1e-12)

    def test_frames_never_mix(self):
        rng = np.random.default_rng(1)
        pyr = _pyramid(rng)
        params = deform_params(4, 2, np.random.default_rng(2))
        base = _every_level(pyr, params)
        bumped_levels = [lvl.copy() for lvl in pyr.levels]
        bumped_levels[2][0] += 10.0  # perturb frame 0 of the finest level
        bumped = _every_level(FeaturePyramid(bumped_levels), params)
        for lvl_a, lvl_b in zip(base, bumped):
            assert np.array_equal(lvl_a[1:], lvl_b[1:])
            assert not np.array_equal(lvl_a[0], lvl_b[0])

    def test_matches_naive_oracle(self):
        for t, d, hw, k in [(2, 3, 4, 2), (3, 3, (8, 12), 1), (3, 3, (8, 12), 4)]:
            pyr = _pyramid(np.random.default_rng(3), t=t, d=d, hw=hw)
            params = _randomized_params(d, k, 4)
            got = _every_level(pyr, params)
            want = naive_msdeform(pyr.levels, params)
            for lvl, ref in zip(got, want):
                np.testing.assert_allclose(lvl, ref, atol=1e-10)

    @pytest.mark.parametrize("k", [1, 4])
    def test_clip_matches_single_frames_bitwise(self, k):
        pyr = _pyramid(np.random.default_rng(14), t=3, d=4, hw=(8, 12))
        params = _randomized_params(4, k, 15)
        got = _every_level(pyr, params)
        frames = [_every_level(FeaturePyramid([lvl[ti:ti + 1] for lvl in pyr.levels]), params)
                  for ti in range(3)]
        for m, lvl in enumerate(got):
            assert np.array_equal(lvl, np.concatenate([f[m] for f in frames]))

    def test_identity_params_are_identity(self):
        rng = np.random.default_rng(6)
        pyr = _pyramid(rng)
        out = _every_level(pyr, identity_deform_params(4, 4))
        for lvl_a, lvl_b in zip(out, pyr.levels):
            assert np.array_equal(lvl_a, lvl_b)


class TestWithinClipForward:
    def test_zero_blocks_is_identity(self):
        f = np.random.default_rng(7).normal(size=(2, 4, 8, 8))
        assert within_clip_forward(f, []) is f

    def test_shape_preservation_two_blocks(self):
        f = np.random.default_rng(8).normal(size=(2, 4, 8, 8))
        blocks = within_clip_blocks(4, 4, 2, np.random.default_rng(9))
        out = within_clip_forward(f, blocks)
        assert out.shape == f.shape
        assert np.all(np.isfinite(out))

    def test_deterministic(self):
        f = np.random.default_rng(10).normal(size=(2, 4, 8, 8))
        blocks = within_clip_blocks(4, 2, 2, np.random.default_rng(11))
        assert np.array_equal(within_clip_forward(f, blocks), within_clip_forward(f, blocks))

    def test_axial_passes_do_not_mix_levels(self):
        # With identity sampling the coarse levels never reach the finest:
        # two blocks give the finest level's own H and W passes, in order.
        f = np.random.default_rng(12).normal(size=(2, 4, 8, 8))
        rng = np.random.default_rng(13)
        blocks = [WithinClipBlock(identity_deform_params(4, 2), attention_params(4, rng, std=0.3),
                                  attention_params(4, rng, std=0.3)) for _ in range(2)]
        want = f
        for blk in blocks:
            want = axial_trajectory_w(axial_trajectory_h(want, blk.attn_h), blk.attn_w)
        assert np.array_equal(within_clip_forward(f, blocks), want)

    def test_finite_across_seeds(self):
        for seed in range(20):
            f = np.random.default_rng(seed).normal(size=(2, 4, 4, 4))
            blocks = within_clip_blocks(4, 2, 2, np.random.default_rng(100 + seed))
            out = within_clip_forward(f, blocks)
            assert out.shape == f.shape
            assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("n_w", [1, 2, 3])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_passes_only_the_levels_read_later(self, monkeypatch, n_w, heads):
        # Each block but the last samples and passes all 3 query levels and
        # the last only the finest, each query level sampling the 3 value
        # levels; the finest level's bits are those of every level.
        stack = np.random.default_rng(30).normal(size=(2, 2, 4, 8, 12))  # a 2-clip stack
        blocks = within_clip_blocks(4, 2, n_w, np.random.default_rng(31), heads=heads)
        for blk in blocks:
            blk.deform = _randomized_params(4, 2, 32)
        want = every_level_within_clip_forward(stack, blocks)
        calls = {"h": 0, "w": 0, "sample": 0}
        query_levels = []

        def counted(name, fn):
            def run(*args):
                calls[name] += 1
                return fn(*args)
            return run

        def sampler(pyr, params, level):
            query_levels.append(level)
            return msdeform_simplified(pyr, params, level)

        monkeypatch.setattr(deform, "axial_trajectory_h", counted("h", axial_trajectory_h))
        monkeypatch.setattr(deform, "axial_trajectory_w", counted("w", axial_trajectory_w))
        monkeypatch.setattr(deform, "bilinear_sample", counted("sample", deform.bilinear_sample))
        monkeypatch.setattr(deform, "msdeform_simplified", sampler)
        got = within_clip_forward(stack, blocks)
        levels = 3 * (n_w - 1) + 1
        assert calls == {"h": levels, "w": levels, "sample": 3 * levels}
        assert query_levels == [0, 1, 2] * (n_w - 1) + [2]
        assert np.array_equal(got, want)


def _assert_stacked(got, per_clip):
    """`got` equals the per-clip results stacked on a leading axis, bit for bit."""
    want = np.stack(per_clip)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestLeadingAxes:
    """A (K, T, D, H, W) stack of clips gives each clip its own bits."""

    @staticmethod
    def _stack():
        rng = np.random.default_rng(21)
        stack = rng.normal(size=(3, 2, 4, 8, 12))
        stack[1, 1] = stack[0, 1]                 # a frame tied across clips
        stack[2, :, :, 5] = stack[2, :, :, 3]     # tied rows within a clip
        stack[2, :, :, 6:8, 4:8] = -0.0           # signed-zero rows, pooled to -0.0
        stack[0, 0, 1] = -0.0                     # a signed-zero channel
        return stack

    def test_stack_matches_per_clip_calls_bitwise(self):
        stack = self._stack()
        pyr = build_pyramid(stack)
        clips = [build_pyramid(clip) for clip in stack]
        for m, lvl in enumerate(pyr.levels):
            _assert_stacked(lvl, [c.levels[m] for c in clips])
        params = _randomized_params(4, 2, 22)
        out = _every_level(pyr, params)
        outs = [_every_level(c, params) for c in clips]
        for m, lvl in enumerate(out):
            _assert_stacked(lvl, [o[m] for o in outs])
        rng = np.random.default_rng(23)
        for heads in (1, 2):
            for axial in (axial_trajectory_h, axial_trajectory_w):
                p = attention_params(4, rng, heads=heads, std=0.3)
                _assert_stacked(axial(stack, p), [axial(clip, p) for clip in stack])

    def test_mismatched_leading_axes_rejected(self):
        pyr = build_pyramid(self._stack())
        levels = [pyr.levels[0], pyr.levels[1][:2], pyr.levels[2]]
        with pytest.raises(DimensionError, match="leading axes"):
            msdeform_simplified(FeaturePyramid(levels), _randomized_params(4, 2, 22), 2)


def traced_sampling(finest: tuple, points: int, levels) -> int:
    """Traced peak of sampling the query `levels` in turn, keeping their
    outputs, of the pyramid of a (..., T, D, H, W) finest level."""
    rng = np.random.default_rng(0)
    params = deform_params(finest[-3], points, rng)
    for level in params.levels:  # points off the grid, so every corner weight is live
        level.w_offset[:] = rng.normal(0.0, 1.0, level.w_offset.shape)
        level.w_weight[:] = rng.normal(0.0, 1.0, level.w_weight.shape)
    pyr = build_pyramid(rng.normal(0.0, 1.0, finest))

    def sample():
        return [msdeform_simplified(pyr, params, m) for m in levels]

    sample()  # one-time set-up is no array of the stage
    return traced_peak(sample)


# (F, D, H, W) finest levels and points: the last is `track_many`'s group of 16 two-frame clips.
@pytest.mark.parametrize("levels", [range(3), (2,)], ids=["every_level", "finest"])
@pytest.mark.parametrize("shape, points", [
    ((3, 6, 32, 48), 5), ((2, 8, 64, 64), 4), ((4, 16, 32, 32), 1), ((32, 16, 8, 8), 4),
], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else f"k{v}")
def test_sampling_peak_bounds_the_traced_peak(shape, points, levels):
    # A block samples every query level when a later block reads the coarse
    # ones, else the finest alone; either stays within the finest level's
    # count, which is at most a quarter above the traced peak.
    peak = traced_sampling(shape, points, levels)
    assert peak <= sampling_peak(shape, points) <= 1.25 * peak
