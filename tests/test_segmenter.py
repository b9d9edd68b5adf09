import numpy as np
import pytest

from axialtrack.attention import ProjectionWeights
from axialtrack.config import ModelConfig
from axialtrack.errors import ConfigError, DimensionError
from axialtrack.segmenter import (
    ClipQuerySet,
    DecoderLayerParams,
    DecoderParams,
    Tube,
    associate_clips,
    decode_clip_queries,
    decoder_params,
    near_online_inference,
    predict_clip_tubes,
    split_into_clips,
)
from axialtrack.synthetic import build_oracle_params, demo_video_spec, generate_synthetic
from axialtrack.tensor import logistic

from oracles import naive_decode


class TestSplitIntoClips:
    def test_even_split(self):
        video = np.arange(4 * 2 * 2 * 2, dtype=float).reshape(4, 2, 2, 2)
        clips = split_into_clips(video, 2)
        assert len(clips) == 2
        assert np.array_equal(clips[0], video[:2])
        assert np.array_equal(clips[1], video[2:])

    def test_last_frame_duplicated(self):
        video = np.arange(3 * 1 * 2 * 2, dtype=float).reshape(3, 1, 2, 2)
        clips = split_into_clips(video, 2)
        assert len(clips) == 2
        assert np.array_equal(clips[1][0], video[2])
        assert np.array_equal(clips[1][1], video[2])

    def test_single_clip_identity(self):
        video = np.arange(2 * 1 * 2 * 2, dtype=float).reshape(2, 1, 2, 2)
        clips = split_into_clips(video, 2)
        assert len(clips) == 1
        assert np.array_equal(clips[0], video)

    def test_short_clip_length_rejected(self):
        with pytest.raises(ConfigError):
            split_into_clips(np.zeros((4, 1, 2, 2)), 1)


class TestDecodeClipQueries:
    def test_zero_layers_unchanged(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(2, 4, 2, 2))
        init = ClipQuerySet(rng.normal(size=(3, 4)), 0)
        out = decode_clip_queries(f, init, DecoderParams([]))
        assert np.array_equal(out.queries, init.queries)

    def test_zero_key_cross_attention_adds_mean_feature(self):
        rng = np.random.default_rng(1)
        d = 4
        f = rng.normal(size=(2, d, 2, 2))
        init = ClipQuerySet(rng.normal(size=(3, d)), 0)
        eye = np.eye(d)
        layer = DecoderLayerParams(
            cross=ProjectionWeights(eye.copy(), np.zeros((d, d)), eye.copy()),
            self_attn=ProjectionWeights(eye.copy(), eye.copy(), np.zeros((d, d))),
            ffn_w1=np.zeros((4 * d, d)),
            ffn_w2=np.zeros((d, 4 * d)),
            scale=1.0,
        )
        out = decode_clip_queries(f, init, DecoderParams([layer]))
        mean_feat = f.transpose(0, 2, 3, 1).reshape(-1, d).mean(axis=0)
        np.testing.assert_allclose(out.queries, init.queries + mean_feat, atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=(2, 4, 2, 2))
        init = ClipQuerySet(rng.normal(size=(3, 4)), 0)
        decoder = decoder_params(4, np.random.default_rng(3), n_layers=2, std=0.3)
        out = decode_clip_queries(f, init, decoder)
        want = naive_decode(f, init.queries, decoder)
        np.testing.assert_allclose(out.queries, want, atol=1e-10)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            decode_clip_queries(
                np.zeros((2, 4, 2, 2)),
                ClipQuerySet(np.zeros((3, 5)), 0),
                DecoderParams([]),
            )


class TestPredictClipTubes:
    def test_orthogonal_query_gives_half_masks(self):
        f = np.zeros((2, 4, 3, 3))
        f[:, 0] = 1.0
        queries = ClipQuerySet(np.array([[0.0, 0.0, 0.0, 7.0]]), 0)
        tubes = predict_clip_tubes(queries, f, np.eye(4))
        np.testing.assert_allclose(tubes[0].masks, 0.5, atol=0)

    def test_plus_minus_ten_logits(self):
        # Object pixels carry color 0, background color 1; the query
        # 10*(e0 - e1) produces logits +10 on the object and -10 off it.
        d = 4
        f = np.zeros((2, d, 4, 4))
        f[:, 1] = 1.0
        f[:, 1, 1:3, 1:3] = 0.0
        f[:, 0, 1:3, 1:3] = 1.0
        q = np.zeros((1, d))
        q[0, 0] = 10.0
        q[0, 1] = -10.0
        tubes = predict_clip_tubes(ClipQuerySet(q, 0), f, np.eye(d))
        on = tubes[0].masks[:, 1:3, 1:3]
        off = tubes[0].masks[:, 0, :]
        hi = float(logistic(np.array(10.0)))
        lo = float(logistic(np.array(-10.0)))
        np.testing.assert_allclose(on, hi, atol=1e-12)
        np.testing.assert_allclose(off, lo, atol=1e-12)
        assert hi > 0.99 and lo < 0.01

    def test_class_probs_normalized(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=(2, 4, 2, 2))
        queries = ClipQuerySet(rng.normal(size=(5, 4)), 0)
        tubes = predict_clip_tubes(queries, f, rng.normal(size=(4, 6)))
        for tube in tubes:
            tube.validate()
            np.testing.assert_allclose(tube.class_probs.sum(), 1.0, atol=1e-12)


class TestAssociateClips:
    def test_identical_sets_give_identity(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=(4, 8))
        out = associate_clips(ClipQuerySet(q, 0), ClipQuerySet(q.copy(), 1))
        assert out.pairs == tuple((i, i) for i in range(4))

    def test_recovers_permutation(self):
        rng = np.random.default_rng(6)
        q = rng.normal(size=(5, 8))
        perm = rng.permutation(5)
        out = associate_clips(ClipQuerySet(q, 0), ClipQuerySet(q[perm], 1))
        mapping = out.col_of_row()
        for i in range(5):
            assert perm[mapping[i]] == i

    def test_stable_under_small_noise(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        noise = rng.normal(size=q.shape)
        noise *= 0.009 / np.linalg.norm(noise)
        out = associate_clips(ClipQuerySet(q, 0), ClipQuerySet(q + noise, 1))
        assert out.pairs == tuple((i, i) for i in range(6))

    def test_zero_norm_query_is_orthogonal(self):
        prev = ClipQuerySet(np.eye(3), 0)
        nxt = ClipQuerySet(np.vstack([np.zeros(3), np.eye(3)[1:]]), 1)
        out = associate_clips(prev, nxt)
        assert out.pairs == ((0, 0), (1, 1), (2, 2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            associate_clips(ClipQuerySet(np.eye(3), 0), ClipQuerySet(np.eye(4), 1))


class TestNearOnlineInference:
    def _setup(self, length=8, seed=0):
        cfg = ModelConfig(l=length, seed=seed)
        spec = demo_video_spec(cfg)
        video, gt = generate_synthetic(spec)
        params = build_oracle_params(spec, cfg)
        return cfg, video, gt, params

    def test_single_clip_video(self):
        cfg = ModelConfig(l=2, seed=3)
        spec = demo_video_spec(cfg)
        video, _ = generate_synthetic(spec)
        params = build_oracle_params(spec, cfg)
        tubes = near_online_inference(video, params)
        assert [t.track_id for t in tubes] == list(range(cfg.n))
        assert all(t.masks.shape[0] == 2 for t in tubes)
        # A single-clip video's tubes are exactly the clip tubes.
        from axialtrack.segmenter import run_clip
        clip_tubes = run_clip(video, params, 0).tubes
        for video_tube, clip_tube in zip(tubes, clip_tubes):
            assert np.array_equal(video_tube.masks, clip_tube.masks)
            assert np.array_equal(video_tube.class_probs, clip_tube.class_probs)

    def test_output_length_with_padding(self):
        cfg = ModelConfig(l=7, seed=4)
        spec = demo_video_spec(cfg)
        video, _ = generate_synthetic(spec)
        params = build_oracle_params(spec, cfg)
        tubes = near_online_inference(video, params)
        assert all(t.masks.shape[0] == 7 for t in tubes)

    def test_shuffle_invariance_identical_tubes(self):
        _, video, _, params = self._setup()
        base = near_online_inference(video, params)
        shuffled = near_online_inference(video, params, shuffle_rng=np.random.default_rng(99))
        for a, b in zip(base, shuffled):
            assert a.track_id == b.track_id
            assert np.array_equal(a.masks, b.masks)
            assert np.array_equal(a.class_probs, b.class_probs)

    def test_masks_in_range_and_probs_normalized(self):
        _, video, _, params = self._setup(seed=5)
        for tube in near_online_inference(video, params):
            tube.validate()


class TestTube:
    def test_validation(self):
        with pytest.raises(DimensionError):
            Tube(np.full((1, 2, 2), 1.5), np.array([1.0]), 0).validate()
        with pytest.raises(DimensionError):
            Tube(np.zeros((1, 2, 2)), np.array([0.4, 0.4]), 0).validate()
