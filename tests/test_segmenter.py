import functools
import tracemalloc

import numpy as np
import pytest

from axialtrack import deform, segmenter
from axialtrack.assignment import hungarian
from axialtrack.attention import ProjectionWeights
from axialtrack.config import ModelConfig, clip_group
from axialtrack.deform import build_pyramid, within_clip_forward
from axialtrack.errors import ConfigError, DimensionError, NumericError
from axialtrack.segmenter import (
    DecoderLayerParams,
    Tube,
    associate_clips,
    decode_clip_queries,
    decoder_params,
    link_video,
    near_online_inference,
    predict_clip_tubes,
    run_clip,
    run_clips,
    split_into_clips,
)
from axialtrack.crossclip import offline_inference
from axialtrack.synthetic import (
    build_oracle_params,
    demo_video_spec,
    generate_synthetic,
    random_pipeline_params,
)
from axialtrack.tensor import logistic

from oracles import naive_decode, naive_near_online_tubes


def _oracle_video(**kwargs):
    cfg = ModelConfig(**kwargs)
    spec = demo_video_spec(cfg)
    video, _ = generate_synthetic(spec)
    return video, build_oracle_params(spec, cfg)


def _random_video(**kwargs):
    cfg = ModelConfig(**kwargs)
    video = np.random.default_rng((cfg.seed, 1)).normal(size=(cfg.l, cfg.d, cfg.h, cfg.w))
    return video, random_pipeline_params(cfg)


# Random-parameter configs, by the clips per within-clip group that each one
# runs. A group of more than one clip must not raise the run peak: in the
# last two, the cross-clip pass over 15 and 12 clips sets it.
_GROUPINGS = {
    1: dict(l=7, t=3, h=16, w=16, seed=8),  # three groups of one clip
    # Two groups of six clips, then a short group of three ending in the padded clip.
    6: dict(l=29, t=2, h=4, w=4, d=8, n=4, c=3, n_w=1, n_c=1, k_sample=4, seed=6),
    # One group of all twelve clips, the last padded.
    12: dict(l=23, t=2, h=4, w=4, d=8, n=16, c=3, n_w=1, n_c=1, k_sample=2, seed=5),
}


def _grouped_video(g, heads):
    """A random video and parameters whose clips run `g` per within-clip group."""
    cfg = ModelConfig(**_GROUPINGS[g], heads=heads)
    assert clip_group(cfg) == g
    return _random_video(**_GROUPINGS[g], heads=heads)


_GROUPED_INPUTS = [
    pytest.param(functools.partial(_grouped_video, g, heads), id=f"g{g}-heads{heads}")
    for g in _GROUPINGS for heads in (1, 2)
]


def _shuffled_link(video, params, seed):
    """The link of `video`'s clip runs with queries offered in a seeded random order."""
    return link_video(run_clips(video, params), shuffle_rng=np.random.default_rng(seed))


def _assert_same_tubes(got, want):
    assert [t.track_id for t in got] == [t.track_id for t in want]
    for a, b in zip(got, want):
        assert a.masks.dtype == b.masks.dtype and np.array_equal(a.masks, b.masks)
        assert a.class_probs.dtype == b.class_probs.dtype
        assert np.array_equal(a.class_probs, b.class_probs)


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
        init = rng.normal(size=(3, 4))
        out = decode_clip_queries(f, init, [])
        assert np.array_equal(out, init)

    def test_zero_key_cross_attention_adds_mean_feature(self):
        rng = np.random.default_rng(1)
        d = 4
        f = rng.normal(size=(2, d, 2, 2))
        init = rng.normal(size=(3, d))
        eye = np.eye(d)
        layer = DecoderLayerParams(
            cross=ProjectionWeights(eye.copy(), np.zeros((d, d)), eye.copy()),
            self_attn=ProjectionWeights(eye.copy(), eye.copy(), np.zeros((d, d))),
            ffn_w1=np.zeros((4 * d, d)),
            ffn_w2=np.zeros((d, 4 * d)),
            scale=1.0,
        )
        out = decode_clip_queries(f, init, [layer])
        mean_feat = f.transpose(0, 2, 3, 1).reshape(-1, d).mean(axis=0)
        np.testing.assert_allclose(out, init + mean_feat, atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=(2, 4, 2, 2))
        init = rng.normal(size=(3, 4))
        decoder = decoder_params(4, np.random.default_rng(3), n_layers=2, std=0.3)
        out = decode_clip_queries(f, init, decoder)
        want = naive_decode(f, init, decoder)
        np.testing.assert_allclose(out, want, atol=1e-10)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            decode_clip_queries(np.zeros((2, 4, 2, 2)), np.zeros((3, 5)), [])


class TestPredictClipTubes:
    def test_orthogonal_query_gives_half_masks(self):
        f = np.zeros((2, 4, 3, 3))
        f[:, 0] = 1.0
        queries = np.array([[0.0, 0.0, 0.0, 7.0]])
        masks, _ = predict_clip_tubes(queries, f, np.eye(4))
        np.testing.assert_allclose(masks[0], 0.5, atol=0)

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
        masks, _ = predict_clip_tubes(q, f, np.eye(d))
        on = masks[0, :, 1:3, 1:3]
        off = masks[0, :, 0, :]
        hi = float(logistic(np.array(10.0)))
        lo = float(logistic(np.array(-10.0)))
        np.testing.assert_allclose(on, hi, atol=1e-12)
        np.testing.assert_allclose(off, lo, atol=1e-12)
        assert hi > 0.99 and lo < 0.01

    def test_class_probs_normalized(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=(2, 4, 2, 2))
        queries = rng.normal(size=(5, 4))
        masks, probs = predict_clip_tubes(queries, f, rng.normal(size=(4, 6)))
        assert masks.shape == (5, 2, 2, 2) and probs.shape == (5, 6)
        for i in range(5):
            Tube(masks[i], probs[i], track_id=i).validate()
            np.testing.assert_allclose(probs[i].sum(), 1.0, atol=1e-12)


    @pytest.mark.parametrize("f, head, match", [
        pytest.param(np.ones((2, 4, 3)), np.eye(4), r"clip features must be \(T, D, H, W\)",
                     id="3d-features"),
        pytest.param(np.ones((2, 4, 3, 3)), np.ones((4, 4, 1)), r"class head must be \(D, C\)",
                     id="3d-head"),
    ])
    def test_malformed_features_or_head_rejected(self, f, head, match):
        with pytest.raises(DimensionError, match=match):
            predict_clip_tubes(np.ones((2, 4)), f, head)


class TestAssociateClips:
    def test_identical_sets_give_identity(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=(4, 8))
        out = associate_clips(q, q.copy())
        assert out.pairs == tuple((i, i) for i in range(4))

    def test_recovers_permutation(self):
        rng = np.random.default_rng(6)
        q = rng.normal(size=(5, 8))
        perm = rng.permutation(5)
        out = associate_clips(q, q[perm])
        mapping = dict(out.pairs)
        for i in range(5):
            assert perm[mapping[i]] == i

    def test_stable_under_small_noise(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        noise = rng.normal(size=q.shape)
        noise *= 0.009 / np.linalg.norm(noise)
        out = associate_clips(q, q + noise)
        assert out.pairs == tuple((i, i) for i in range(6))

    def test_zero_norm_query_is_orthogonal(self):
        prev = np.eye(3)
        nxt = np.vstack([np.zeros(3), np.eye(3)[1:]])
        out = associate_clips(prev, nxt)
        assert out.pairs == ((0, 0), (1, 1), (2, 2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            associate_clips(np.eye(3), np.eye(4))


def _queries_with(value):
    """(3, 4) queries with one entry set to `value`."""
    q = np.ones((3, 4))
    q[1, 2] = value
    return q


# Each entry point that takes (N, D) queries, with the queries in one argument.
_QUERY_ENTRY_POINTS = [
    pytest.param(lambda q: decode_clip_queries(np.ones((2, 4, 2, 2)), q, []), id="decode"),
    pytest.param(lambda q: predict_clip_tubes(q, np.ones((2, 4, 2, 2)), np.eye(4)), id="predict"),
    pytest.param(lambda q: associate_clips(q, np.ones((3, 4))), id="associate-prev"),
    pytest.param(lambda q: associate_clips(np.ones((3, 4)), q), id="associate-next"),
]


@pytest.mark.parametrize("entry", _QUERY_ENTRY_POINTS)
@pytest.mark.parametrize("queries, error, match", [
    pytest.param(np.ones(4), DimensionError, r"\(N, D\) with N >= 1", id="1d"),
    pytest.param(np.ones((0, 4)), DimensionError, r"\(N, D\) with N >= 1", id="empty"),
    pytest.param(_queries_with(np.nan), NumericError, "clip queries", id="nan"),
    pytest.param(_queries_with(np.inf), NumericError, "clip queries", id="inf"),
    pytest.param(_queries_with(-np.inf), NumericError, "clip queries", id="-inf"),
])
def test_every_entry_point_checks_its_queries(entry, queries, error, match):
    with pytest.raises(error, match=match):
        entry(queries)


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
        # A single-clip video's tubes are exactly the clip's masks and classes.
        feats = within_clip_forward(video, params.within_blocks)
        _, masks, class_probs = run_clip(feats[None], params, 0)
        for i, video_tube in enumerate(tubes):
            assert np.array_equal(video_tube.masks, masks[i])
            assert np.array_equal(video_tube.class_probs, class_probs[i])

    def test_output_length_with_padding(self):
        cfg = ModelConfig(l=7, seed=4)
        spec = demo_video_spec(cfg)
        video, _ = generate_synthetic(spec)
        params = build_oracle_params(spec, cfg)
        tubes = near_online_inference(video, params)
        assert all(t.masks.shape[0] == 7 for t in tubes)

    def test_shuffle_invariance_identical_tubes(self):
        # The oracle queries tie in association; the random ones do not.
        _, video, _, params = self._setup()
        for video, params in ((video, params), _random_video(l=7, t=3, h=16, w=16, seed=8)):
            base = near_online_inference(video, params)
            shuffled = near_online_inference(_shuffled_link(video, params, 99), params)
            for a, b in zip(base, shuffled):
                assert a.track_id == b.track_id
                assert np.array_equal(a.masks, b.masks)
                assert np.array_equal(a.class_probs, b.class_probs)

    @pytest.mark.parametrize("inputs", [
        pytest.param(lambda: _oracle_video(seed=0), id="oracle-demo"),
        pytest.param(lambda: _oracle_video(l=7, t=3, seed=4), id="oracle-padding"),
        pytest.param(lambda: _oracle_video(l=2, seed=3), id="oracle-one-clip"),
        pytest.param(lambda: _random_video(n=6, heads=2, h=16, w=16, seed=9), id="random-n6-heads2"),
        *_GROUPED_INPUTS,
    ])
    def test_matches_naive_relinking_bitwise(self, inputs):
        video, params = inputs()
        _assert_same_tubes(near_online_inference(video, params), naive_near_online_tubes(video, params))
        _assert_same_tubes(
            near_online_inference(_shuffled_link(video, params, 5), params),
            naive_near_online_tubes(video, params, shuffle_rng=np.random.default_rng(5)),
        )

    def test_empty_video_rejected_by_both_modes(self):
        video, params = _oracle_video(l=2, seed=0)
        empty = video[:0]
        for infer in (near_online_inference, offline_inference):
            with pytest.raises(DimensionError, match=r"\(0, 8, 32, 32\)"):
                infer(empty, params)

    def test_masks_in_range_and_probs_normalized(self):
        _, video, _, params = self._setup(seed=5)
        for tube in near_online_inference(video, params):
            tube.validate()


_SEAM_INPUTS = [
    # The golden random-parameter config: five frames in clips of two.
    pytest.param(lambda: _random_video(l=5, t=2, h=8, w=8, d=8, n=5, c=3, n_w=1, n_c=2, heads=2,
                                       atrous_rates=(1, 2, 4), seed=5), id="random-padded"),
    pytest.param(lambda: _oracle_video(seed=0), id="oracle-demo"),
    *_GROUPED_INPUTS,
]


def _linked_modes(runs, params):
    """Near-online and offline tubes from one link of `runs`, then the
    near-online tubes of a shuffled link of the same runs."""
    linked = link_video(runs)
    shuffled = link_video(runs, shuffle_rng=np.random.default_rng(5))
    return (
        near_online_inference(linked, params)
        + offline_inference(linked, params)
        + near_online_inference(shuffled, params)
    )


class TestClipRuns:
    @pytest.mark.parametrize("inputs", _SEAM_INPUTS)
    def test_runs_give_the_frames_tubes_bitwise(self, inputs):
        video, params = inputs()
        got = _linked_modes(run_clips(video, params), params)
        want = (
            near_online_inference(video, params)
            + offline_inference(video, params)
            + naive_near_online_tubes(video, params, shuffle_rng=np.random.default_rng(5))
        )
        _assert_same_tubes(got, want)
        for a, b in zip(got, want):
            assert np.array_equal(np.signbit(a.masks), np.signbit(b.masks))
            assert np.array_equal(np.signbit(a.class_probs), np.signbit(b.class_probs))

    @pytest.mark.parametrize("inputs", _SEAM_INPUTS)
    def test_links_leave_the_runs_unchanged(self, inputs):
        video, params = inputs()
        runs = run_clips(video, params)
        arrays = (runs.queries, runs.masks, runs.class_probs, runs.features)
        before = [a.copy() for a in arrays]
        _linked_modes(runs, params)
        assert runs.length == video.shape[0]
        for got, want in zip(arrays, before):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("g, heads", [(1, 1), (6, 2), (12, 1)])
    def test_within_clip_runs_once_per_group(self, monkeypatch, g, heads):
        # Consecutive clips go through the within-clip blocks g at a time, as
        # (g, T, D, H, W) views of the padded video; the last group may be short.
        video, params = _grouped_video(g, heads)
        groups = []
        forward = segmenter.within_clip_forward

        def recording_forward(f, blocks):
            groups.append(f)
            return forward(f, blocks)

        monkeypatch.setattr(segmenter, "within_clip_forward", recording_forward)
        runs = run_clips(video, params)
        t, clips = params.clip_len, len(runs.features)
        assert [grp.shape[0] for grp in groups] == [min(g, clips - lo) for lo in range(0, clips, g)]
        padded = groups[0].base  # the one padded copy of the video
        assert padded.shape == (clips * t,) + video.shape[1:]
        for lo, grp in zip(range(0, clips, g), groups):
            assert grp.shape[1:] == (t,) + video.shape[1:]
            assert grp.base is padded
            assert np.array_equal(grp.reshape((-1,) + video.shape[1:])[:video.shape[0] - lo * t],
                                  video[lo * t:(lo + len(grp)) * t])

    def test_unmixed_clip_features_are_views_of_the_video(self):
        # No within-clip block and no padding: every clip's features are the video's frames.
        video, params = _random_video(l=8, t=2, h=8, w=8, n_w=0, n_c=1, seed=4)
        features = run_clips(video, params).features
        assert np.shares_memory(features, video)
        assert np.array_equal(features, video.reshape((4, 2) + video.shape[1:]))

    @pytest.mark.parametrize("inputs", [
        *_GROUPED_INPUTS,
        pytest.param(lambda: _random_video(l=8, t=2, h=8, w=8, n_w=0, n_c=1, seed=4), id="unmixed"),
        pytest.param(lambda: _random_video(l=7, t=2, h=8, w=8, n_w=0, n_c=1, seed=4), id="unmixed-padded"),
    ])
    def test_clip_features_are_slices_of_one_array(self, inputs):
        # Every clip's finest-level features are a slice of one (K, T, D, H, W)
        # array, beside the (K, N, ...) run arrays; with no within-clip block
        # it is the clip stack itself.
        video, params = inputs()
        runs = run_clips(video, params)
        t, (_, d, h, w) = params.clip_len, video.shape
        k, (n, c) = -(-len(video) // t), (len(params.init_queries), params.class_head.shape[1])
        assert runs.features.shape == (k, t, d, h, w)
        assert runs.features.flags.c_contiguous
        assert runs.queries.shape == (k, n, d) and runs.class_probs.shape == (k, n, c)
        assert runs.masks.shape == (k, n, t, h, w)
        if not params.within_blocks:
            frames = runs.features.reshape((-1,) + video.shape[1:])
            assert np.array_equal(frames[:len(video)], video)
            assert np.shares_memory(runs.features, video) == (len(frames) == len(video))

    @pytest.mark.parametrize("n_w", [0, 1])
    def test_pyramid_only_for_within_clip_blocks(self, monkeypatch, n_w):
        # Nothing reads a pyramid's coarse levels without a within-clip block.
        built = []
        monkeypatch.setattr(deform, "build_pyramid", lambda f: built.append(f) or build_pyramid(f))
        values = dict(l=7, t=2, h=8, w=8, n_w=n_w, n_c=1, seed=4)
        video, params = _random_video(**values)
        run_clips(video, params)
        assert len(built) == (-(-4 // clip_group(ModelConfig(**values))) if n_w else 0)  # 4 clips

    def test_offline_holds_no_feature_stack(self):
        # D >> N: a copy of the (K, T, D, H, W) features would be 8 times the
        # (N, K, T, H, W) masks; the offline mode reads the runs' array itself.
        video, params = _random_video(l=8, t=2, h=32, w=32, d=16, n=2, n_w=1, n_c=1, seed=2)
        linked = link_video(run_clips(video, params))
        mask_bytes = 8 * 2 * 8 * 32 * 32  # (N, K, T, H, W) float64
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            offline_inference(linked, params)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 4 * mask_bytes

    def test_link_holds_runs_and_track_rows_only(self):
        video, params = _random_video(l=7, t=2, h=8, w=8, n=5, n_w=1, n_c=1, seed=3)
        runs = run_clips(video, params)
        linked = link_video(runs)
        assert linked.runs is runs
        assert linked.rows.shape == (4, 5) and linked.rows.dtype.kind == "i"
        assert np.array_equal(linked.rows[0], np.arange(5))
        for row in linked.rows:
            assert sorted(row) == list(range(5))

    def test_near_online_holds_no_feature_stack(self):
        # D >> N: a (K, T, D, H, W) feature stack would be 8 times the masks.
        video, params = _random_video(l=8, t=2, h=32, w=32, d=16, n=2, n_w=0, n_c=0, seed=2)
        linked = link_video(run_clips(video, params))
        mask_bytes = 8 * 2 * 8 * 32 * 32  # (N, K, T, H, W) float64
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            near_online_inference(linked, params)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= mask_bytes + 64 * 1024

    def test_frames_link_once_per_mode(self, monkeypatch):
        # Frames still run and link in each mode: 2 (K - 1) association solves.
        video, params = _random_video(l=7, t=2, h=8, w=8, n=5, n_w=1, n_c=1, seed=3)
        solves = []

        def counting_hungarian(cost):
            solves.append(cost.shape)
            return hungarian(cost)

        monkeypatch.setattr(segmenter, "hungarian", counting_hungarian)
        near_online_inference(video, params)
        offline_inference(video, params)
        assert solves == [(5, 5)] * 2 * (4 - 1)


class TestTube:
    def test_validation(self):
        with pytest.raises(DimensionError):
            Tube(np.full((1, 2, 2), 1.5), np.array([1.0]), 0).validate()
        with pytest.raises(DimensionError):
            Tube(np.zeros((1, 2, 2)), np.array([0.4, 0.4]), 0).validate()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_refused(self, value):
        masks = np.zeros((1, 2, 2))
        masks[0, 1, 0] = value
        with pytest.raises(NumericError, match="tube masks"):
            Tube(masks, np.array([1.0]), 0).validate()
        with pytest.raises(NumericError, match="class probabilities"):
            Tube(np.zeros((1, 2, 2)), np.array([value, 0.5]), 0).validate()
