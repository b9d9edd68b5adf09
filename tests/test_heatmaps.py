import itertools
import tracemalloc

import numpy as np
import pytest

from axialtrack.config import ModelConfig
from axialtrack.heatmaps import axial_fields, outer_argmax, trajectory_hit_rate
from axialtrack.segmenter import split_into_clips
from axialtrack.synthetic import (
    build_oracle_params,
    demo_video_spec,
    generate_synthetic,
    random_pipeline_params,
)

from oracles import naive_hit_rate


class TestHitRate:
    @pytest.mark.parametrize("params", ["oracle", "random"])
    @pytest.mark.parametrize("shape", [
        dict(l=8, t=2),
        dict(l=7, t=3),   # the last clip pads two frames
        dict(l=9, t=2, heads=2),
    ])
    def test_matches_per_reference_maps(self, monkeypatch, params, shape):
        cfg = ModelConfig(seed=3, h=16, w=16, **shape)
        spec = demo_video_spec(cfg)
        video, gt = generate_synthetic(spec)
        if params == "oracle":
            bundle = build_oracle_params(spec, cfg)
        else:
            bundle = random_pipeline_params(cfg)
        masks = [t.masks for t in gt.tubes]
        _check(monkeypatch, video, masks, [v != (0, 0) for v in spec.velocities], cfg.t, bundle, (1, 5, 9))

    @pytest.mark.parametrize("moving", [[True, True, False], [False, False, False]],
                             ids=["overlapping", "none_moving"])
    def test_overlapping_or_no_moving_objects(self, monkeypatch, moving):
        # Two moving squares share pixels at every frame, so each shared pixel
        # is one reference of both; with no moving object only the probe is read.
        cfg = ModelConfig(seed=5, l=5, t=2, h=16, w=16)
        video = np.random.default_rng(5).normal(size=(cfg.l, cfg.d, cfg.h, cfg.w))
        masks = np.zeros((3, cfg.l, cfg.h, cfg.w))
        for f in range(cfg.l):
            masks[0, f, 2:8, f:f + 6] = 1.0
            masks[1, f, 4:10, f + 2:f + 8] = 1.0
        masks[2, :, 12:, 12:] = 1.0
        rate = _check(monkeypatch, video, list(masks), moving, cfg.t, random_pipeline_params(cfg), (1, 3, 4))
        if not any(moving):
            assert rate == 1.0

    def test_next_clip_starts_without_the_last_clips_argmax(self, monkeypatch):
        # Every pixel is on a moving object, so a clip's (n, T) argmax covers
        # n = T*H*W references (393 kB at this shape). The second clip's H pass
        # starts beside clip 0's probe rows and small objects only.
        from axialtrack import heatmaps

        cfg = ModelConfig(t=4, h=48, w=32, d=2, heads=2, n_w=1)
        clips = np.random.default_rng(0).normal(0.0, 1.0, (2, cfg.t, cfg.d, cfg.h, cfg.w))
        args = [np.ones((2 * cfg.t, cfg.h, cfg.w))], [True], clips, random_pipeline_params(cfg).within_blocks[0]
        trajectory_hit_rate(*args, (0, 0, 0))  # one-time set-up is no array of the hit rate
        starts = []

        def recording(seq, params):
            starts.append(tracemalloc.get_traced_memory()[0])
            return pass_1d(seq, params)

        pass_1d = heatmaps.trajectory_pass_1d
        monkeypatch.setattr(heatmaps, "trajectory_pass_1d", recording)
        tracemalloc.start()
        try:
            trajectory_hit_rate(*args, (0, 0, 0))
        finally:
            tracemalloc.stop()
        probe_rows = 8 * cfg.t * (cfg.h + cfg.w)
        assert len(starts) == 2 and starts[1] <= starts[0] + probe_rows + 2 ** 12


def _check(monkeypatch, video, masks, moving, t, bundle, probe):
    """`trajectory_hit_rate` equals the per-reference brute force, reads each
    clip's rows once, at the union of its moving on-mask pixels (with the
    probe in clip 0), and returns the probe's rows; returns the rate."""
    from axialtrack import heatmaps

    block = bundle.within_blocks[0]
    clips = split_into_clips(video, t)
    read = []

    def recording(clip, params_h, params_w, refs):
        read.append(np.ravel_multi_index(refs, (t,) + clip.shape[2:]))
        return axial_fields(clip, params_h, params_w, refs)

    monkeypatch.setattr(heatmaps, "axial_fields", recording)
    rate, (rows_h, rows_w) = trajectory_hit_rate(masks, moving, clips, block, probe)
    monkeypatch.undo()
    assert rate == naive_hit_rate(masks, moving, clips, block)
    for k, at in enumerate(read):
        frames = np.minimum(k * t + np.arange(t), len(video) - 1)
        on = np.zeros((t,) + video.shape[2:], dtype=bool)
        for mask in itertools.compress(masks, moving):
            on |= mask[frames] != 0
        on[probe] |= k == 0
        assert np.array_equal(at, np.flatnonzero(on))
    assert len(read) == len(clips)
    every = np.indices(on.shape).reshape(3, -1)
    whole_h, whole_w = axial_fields(clips[0], block.attn_h, block.attn_w, every)
    at = np.ravel_multi_index(probe, on.shape)
    assert np.array_equal(rows_h, whole_h[at]) and np.array_equal(rows_w, whole_w[at])
    return rate


def _brute(a, b):
    return divmod(int(np.argmax(np.outer(a, b))), b.size)


class TestOuterArgmax:
    def test_ties_zeros_ulps_and_underflow(self):
        below = np.nextafter(1.0, 0.0)
        cases = [
            ([0.5, 0.5, 0.2], [0.3, 0.1, 0.3]),        # exact ties: first row, first column
            ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),        # all zero
            ([0.0, 0.0, 0.0], [0.2, 0.9, 0.9]),
            ([0.2, 0.7, 0.0], [0.0, 0.0, 0.0]),
            ([below, 1.0, 1.0], [1.0, below, 1.0]),    # 1 ulp below the maximum
            ([1e-300, 3e-300, 1e-300], [1e-300, 2e-300, 5e-301]),  # every product underflows
            ([1e-160, 3e-160, 2e-160], [1e-160, 5e-161, 3e-160]),  # subnormal products
        ]
        for a, b in cases:
            a = np.array(a)
            b = np.array(b)
            row, col = outer_argmax(a, b)
            assert (int(row), int(col)) == _brute(a, b), (a, b)

    def test_batched_matches_outer_argmax(self):
        # Values from a small pool make exact and rounding ties common.
        rng = np.random.default_rng(0)
        below = np.nextafter(1.0, 0.0)
        pool = np.array([0.0, 1e-300, 2e-300, 1e-160, 3e-160, 0.25, 0.5, below, 1.0])
        a = rng.choice(pool, size=(400, 3, 5))
        b = rng.choice(pool, size=(400, 3, 4)) * rng.choice([1.0, below, 1e-10], size=(400, 3, 1))
        rows, cols = outer_argmax(a, b)
        assert rows.shape == cols.shape == (400, 3)
        for i in range(400):
            for u in range(3):
                assert (rows[i, u], cols[i, u]) == _brute(a[i, u], b[i, u])
