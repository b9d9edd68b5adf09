import numpy as np
import pytest

from axialtrack.attention import (
    _project,
    _stage_one,
    _stage_two,
    attention_params,
    prenorm,
)
from axialtrack.config import ModelConfig
from axialtrack.crossclip import (
    AsppParams,
    CrossClipBlock,
    aspp_params,
    cross_clip_blocks,
    cross_clip_forward,
    identity_aspp_params,
    offline_inference,
    query_trajectory_attention,
    temporal_aspp,
    temporal_class_head,
)
from axialtrack.errors import ConfigError
from axialtrack.segmenter import near_online_inference
from axialtrack.synthetic import build_oracle_params, demo_video_spec, generate_synthetic
from axialtrack.tensor import softmax_last, sorted_sum

from oracles import naive_query_attention, stage_one_field


def _attn(d, seed, std=0.3, scale=None):
    return attention_params(d, np.random.default_rng(seed), std=std, scale=scale)


class TestQueryTrajectoryAttention:
    def test_single_clip_degeneracy(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(1, 4, 6))
        p = _attn(6, 1)
        out = query_trajectory_attention(z, p)
        ytil = _stage_one(prenorm(z[None]), p)
        w2 = _stage_two(ytil, p, softmax_last, sorted_sum, _project)["w2"].mean(axis=1)
        assert np.array_equal(w2, np.ones_like(w2))
        assert out.shape == z.shape

    def test_zero_keys_uniform_stage1(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(3, 5, 4))
        p = _attn(4, 3)
        p.stage1.w_k = np.zeros((4, 4))
        np.testing.assert_allclose(stage_one_field(prenorm(z[None]), p), 1.0 / 5.0, atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(3, 4, 8))
        p = _attn(8, 5, scale=1.0)
        out = query_trajectory_attention(z, p)
        np.testing.assert_allclose(out, naive_query_attention(z, p), atol=1e-10)

    def test_track_permutation_equivariance_bitwise(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(3, 6, 4))
        p = _attn(4, 7)
        perm = rng.permutation(6)
        out = query_trajectory_attention(z, p)
        out_p = query_trajectory_attention(z[:, perm], p)
        assert np.array_equal(out[:, perm], out_p)


class TestTemporalAspp:
    def test_center_tap_identity_kernels(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(4, 3, 5))
        d = 5
        kernels = []
        for _ in range(3):
            kern = np.zeros((3, d, d))
            kern[1] = np.eye(d)
            kernels.append(kern)
        params = AsppParams(
            kernels=kernels,
            rates=(1, 2, 3),
            fuse=np.eye(d),
        )
        out = temporal_aspp(z, params)
        want = z + prenorm(3.0 * z)
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_single_clip_padding_degeneracy(self):
        # With one clip, every non-center tap reads zero padding at any rate.
        rng = np.random.default_rng(9)
        z = rng.normal(size=(1, 2, 4))
        params = aspp_params(4, np.random.default_rng(10))
        out = temporal_aspp(z, params)
        center = sum(
            np.einsum("ne,de->nd", z[0], kern[1], optimize=False) for kern in params.kernels
        )
        fused = np.einsum("ne,de->nd", center, params.fuse, optimize=False)
        want = z[0] + prenorm(fused)
        np.testing.assert_allclose(out[0], want, atol=1e-12)

    def test_track_independence(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=(4, 3, 5))
        params = aspp_params(5, np.random.default_rng(12))
        base = temporal_aspp(z, params)
        bumped = z.copy()
        bumped[:, 1] += 3.0
        out = temporal_aspp(bumped, params)
        assert np.array_equal(base[:, 0], out[:, 0])
        assert np.array_equal(base[:, 2], out[:, 2])
        assert not np.array_equal(base[:, 1], out[:, 1])

    def test_rates_must_increase(self):
        with pytest.raises(ConfigError):
            identity_aspp_params(4, rates=(1, 3, 2)).validate(4)


class TestCrossClipForward:
    def test_zero_blocks_identity(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=(3, 4, 6))
        assert np.array_equal(cross_clip_forward(z, []), z)

    def test_four_blocks_shape_preserved(self):
        rng = np.random.default_rng(14)
        z = rng.normal(size=(3, 4, 8))
        blocks = cross_clip_blocks(8, 4, np.random.default_rng(15))
        out = cross_clip_forward(z, blocks)
        assert out.shape == z.shape
        assert np.all(np.isfinite(out))

    def test_deterministic(self):
        rng = np.random.default_rng(16)
        z = rng.normal(size=(2, 3, 4))
        blocks = cross_clip_blocks(4, 2, np.random.default_rng(17))
        assert np.array_equal(cross_clip_forward(z, blocks), cross_clip_forward(z, blocks))

    def test_track_permutation_equivariance_bitwise(self):
        rng = np.random.default_rng(18)
        z = rng.normal(size=(3, 5, 4))
        blocks = cross_clip_blocks(4, 3, np.random.default_rng(19))
        perm = rng.permutation(5)
        out = cross_clip_forward(z, blocks)
        out_p = cross_clip_forward(z[:, perm], blocks)
        assert np.array_equal(out[:, perm], out_p)


class TestTemporalClassHead:
    def test_constant_queries_match_single_clip(self):
        rng = np.random.default_rng(20)
        q = rng.normal(size=(3, 4))
        head = rng.normal(size=(4, 5))
        many = temporal_class_head(np.stack([q] * 6), head)
        single = temporal_class_head(q[None], head)
        np.testing.assert_allclose(many, single, atol=1e-12)

    def test_single_clip_center_tap_exact(self):
        rng = np.random.default_rng(21)
        q = rng.normal(size=(3, 4))
        head = rng.normal(size=(4, 5))
        out = temporal_class_head(q[None], head)
        want = softmax_last(np.einsum("nd,dc->nc", q, head, optimize=False))
        assert np.array_equal(out, want)

    def test_clip_mean_of_logits(self):
        # Each clip's logits count equally; no neighbouring clip is mixed in.
        rng = np.random.default_rng(23)
        z = rng.normal(size=(5, 3, 4))
        head = rng.normal(size=(4, 6))
        per_clip = [np.einsum("nd,dc->nc", zk, head, optimize=False) for zk in z]
        want = softmax_last(sum(per_clip) / len(per_clip))
        np.testing.assert_allclose(temporal_class_head(z, head), want, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(22)
        z = rng.normal(size=(4, 6, 5))
        out = temporal_class_head(z, rng.normal(size=(5, 7)))
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)


class TestOfflineInference:
    def _setup(self, **kwargs):
        cfg = ModelConfig(**kwargs)
        spec = demo_video_spec(cfg)
        video, gt = generate_synthetic(spec)
        params = build_oracle_params(spec, cfg)
        return cfg, video, gt, params

    def test_zero_cross_blocks_reproduces_near_online_masks(self):
        _, video, _, params = self._setup(n_c=0, seed=1)
        near = near_online_inference(video, params)
        off = offline_inference(video, params)
        for a, b in zip(near, off):
            assert np.array_equal(a.masks, b.masks)

    def test_single_clip_with_blocks_gives_full_span(self):
        _, video, _, params = self._setup(l=2, n_c=4, seed=2)
        tubes = offline_inference(video, params)
        assert all(t.masks.shape[0] == 2 for t in tubes)
        for tube in tubes:
            tube.validate()

    def test_padding_dropped(self):
        _, video, _, params = self._setup(l=5, seed=3)
        tubes = offline_inference(video, params)
        assert all(t.masks.shape[0] == 5 for t in tubes)
