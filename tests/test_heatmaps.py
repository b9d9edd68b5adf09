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
    def test_matches_per_reference_maps(self, params, shape):
        cfg = ModelConfig(seed=3, h=16, w=16, **shape)
        spec = demo_video_spec(cfg)
        video, gt = generate_synthetic(spec)
        if params == "oracle":
            bundle = build_oracle_params(spec, cfg)
        else:
            bundle = random_pipeline_params(cfg)
        block = bundle.within_blocks[0]
        maps = [axial_fields(clip, block.attn_h, block.attn_w) for clip in split_into_clips(video, cfg.t)]
        args = ([t.masks for t in gt.tubes], [v != (0, 0) for v in spec.velocities], maps)
        assert trajectory_hit_rate(*args) == naive_hit_rate(*args)


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
