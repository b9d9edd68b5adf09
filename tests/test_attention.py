import re
import tracemalloc

import numpy as np
import pytest

from axialtrack.attention import (
    AttentionParams,
    ProjectionWeights,
    attention_params,
    axial_trajectory_h,
    axial_trajectory_w,
    _project,
    _stage_one,
    _stage_two,
    from_sequence,
    full_trajectory_reference,
    pass_peak,
    passthrough_attention_params,
    prenorm,
    stage_one_footprint,
    stage_one_scratch_bytes,
    stage_one_weights,
    to_sequence,
    trajectory_pass_1d,
)
from axialtrack.errors import MEMORY_LIMIT, DimensionError, NumericError, ResourceGuardError
from axialtrack.tensor import SMALL_BYTES, softmax_last, sorted_sum

from oracles import naive_axial_h, naive_axial_w, naive_full_reference, naive_pass1d, stage_one_field
from traced import traced_peak


def _params(d, seed, std=0.3, scale=None, heads=1):
    rng = np.random.default_rng(seed)
    return attention_params(d, rng, heads=heads, scale=scale, std=std)


def _state(x, p):
    """The pass's head-mean stage-one weights (B, T, S, U, R), head-mean
    stage-two weights (B, T, S, U) and trajectory points (B, T, U, S, D)."""
    ytil = _stage_one(x, p)
    w2 = _stage_two(ytil, p, softmax_last, sorted_sum, _project)["w2"]
    return stage_one_field(x, p), w2.mean(axis=1), ytil


class TestTrajectoryPass:
    def test_single_frame_degeneracy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 1, 4, 3))
        p = _params(3, 1)
        out = trajectory_pass_1d(x, p)
        _, w2, ytil = _state(x, p)
        assert np.array_equal(w2, np.ones_like(w2))
        # With one frame the output is the re-projected within-frame pooling.
        expected = np.einsum("btuse,de->btusd", ytil, p.stage2.w_v)[:, 0, 0]
        np.testing.assert_allclose(out[:, 0], expected, atol=1e-12)

    def test_single_position_degeneracy(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 1, 4))
        p = _params(4, 3)
        out = trajectory_pass_1d(x, p)
        w1, _, ytil = _state(x, p)
        assert np.array_equal(w1, np.ones_like(w1))
        v = np.einsum("btse,de->btsd", x, p.stage1.w_v)
        # Trajectory points collapse to the raw per-frame values.
        for t in range(3):
            assert np.array_equal(ytil[:, t], v)
        assert out.shape == x.shape

    def test_matches_naive_loop_oracle_unit_scale(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 2, 3, 4))
        p = _params(4, 5, scale=1.0)
        out = trajectory_pass_1d(x, p)
        got_w1, got_w2, got_ytil = _state(x, p)
        want, w1, w2, ytil = naive_pass1d(x, p)
        np.testing.assert_allclose(out, want, atol=1e-10)
        np.testing.assert_allclose(got_w1, w1, atol=1e-10)
        np.testing.assert_allclose(got_w2, w2, atol=1e-10)
        np.testing.assert_allclose(got_ytil, ytil, atol=1e-10)

    def test_matches_naive_with_default_scale(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 3, 2, 4))
        p = _params(4, 7)
        out = trajectory_pass_1d(x, p)
        want, _, _, _ = naive_pass1d(x, p)
        np.testing.assert_allclose(out, want, atol=1e-10)

    def test_weight_normalization(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 4, 6))
        w1, w2, _ = _state(x, _params(6, 9))
        np.testing.assert_allclose(w1.sum(axis=-1), 1.0, atol=1e-9)
        np.testing.assert_allclose(w2.sum(axis=-1), 1.0, atol=1e-9)

    def test_convexity_with_identity_values(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 2, 5, 4))
        p = _params(4, 11)
        p.stage1.w_v = np.eye(4)
        ytil = _stage_one(x, p)
        # Every pooled channel stays inside the attended frame's value range.
        lo = x.min(axis=2, keepdims=True)
        hi = x.max(axis=2, keepdims=True)
        for t in range(2):
            for u in range(2):
                vals = ytil[:, t, u]  # (B,S,D)
                assert np.all(vals >= lo[:, u] - 1e-12)
                assert np.all(vals <= hi[:, u] + 1e-12)

    def test_multi_head_shapes_and_normalization(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 2, 3, 8))
        p = _params(8, 13, heads=2)
        out = trajectory_pass_1d(x, p)
        assert out.shape == x.shape
        np.testing.assert_allclose(stage_one_field(x, p).sum(axis=-1), 1.0, atol=1e-9)

    def test_dimension_mismatch(self):
        x = np.zeros((1, 2, 2, 4))
        with pytest.raises(DimensionError):
            trajectory_pass_1d(x, _params(6, 14))

    @pytest.mark.parametrize("shape", [(1, 2, 0, 4), (1, 0, 3, 4), (0, 2, 3, 4)])
    def test_empty_axis_refused_naming_the_shape(self, shape):
        with pytest.raises(DimensionError, match=re.escape(str(shape))):
            trajectory_pass_1d(np.zeros(shape), _params(4, 16))
        with pytest.raises(DimensionError, match=re.escape(str(shape))):
            stage_one_weights(np.zeros(shape), _params(4, 16), ([0], [0], [0]))

    def test_non_finite_rejected(self):
        x = np.zeros((1, 2, 2, 4))
        x[0, 0, 0, 0] = np.inf
        with pytest.raises(NumericError):
            trajectory_pass_1d(x, _params(4, 15))

    def test_scale_invariance_of_stage1_argmax(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(2, 2, 5, 4))
        p = _params(4, 17)
        scaled = AttentionParams(
            stage1=ProjectionWeights(3.0 * p.stage1.w_q, 3.0 * p.stage1.w_k, p.stage1.w_v),
            stage2=p.stage2,
            scale=p.scale,
            heads=1,
        )
        w1, w1_scaled = stage_one_field(x, p), stage_one_field(x, scaled)
        assert np.array_equal(np.argmax(w1, axis=-1), np.argmax(w1_scaled, axis=-1))

    def test_scale_invariance_of_stage2_argmax(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(2, 3, 4, 4))
        p = _params(4, 19)
        scaled = AttentionParams(
            stage1=p.stage1,
            stage2=ProjectionWeights(2.5 * p.stage2.w_q, 2.5 * p.stage2.w_k, p.stage2.w_v),
            scale=p.scale,
            heads=1,
        )
        w1, w2, _ = _state(x, p)
        w1_scaled, w2_scaled, _ = _state(x, scaled)
        assert np.array_equal(w1, w1_scaled)
        assert np.array_equal(np.argmax(w2, axis=-1), np.argmax(w2_scaled, axis=-1))


class TestStageOneWeights:
    @pytest.mark.parametrize("heads", [1, 2])
    def test_matches_naive_loop_oracle(self, heads):
        # Head g of the pass equals the single-head oracle with the query and
        # key channels outside head g projected to zero.
        rng = np.random.default_rng(47)
        x = rng.normal(size=(2, 3, 4, 4))
        p = _params(4, 48, heads=heads)
        c = 4 // heads
        s1 = p.stage1
        want = np.zeros((2, 3, 4, 3, 4))
        for g in range(heads):
            keep = np.zeros(4)
            keep[g * c:(g + 1) * c] = 1.0
            head = AttentionParams(
                stage1=ProjectionWeights(keep[:, None] * s1.w_q, keep[:, None] * s1.w_k, s1.w_v),
                stage2=p.stage2,
                scale=p.scale,
            )
            want += naive_pass1d(x, head)[1]
        np.testing.assert_allclose(stage_one_field(x, p), want / heads, atol=1e-10)

    def test_are_the_passes_weights(self, monkeypatch):
        # The pass multiplies into its product the blocks of weights that the
        # producer hands it; the head mean of those blocks, read at any
        # references (repeats included), is `stage_one_weights`, bit for bit.
        # A two-row scratch puts block boundaries inside the heads of one b row.
        from axialtrack import attention
        produce = attention._stage_one_blocks
        b, t, s, d = 3, 2, 5, 4
        rng = np.random.default_rng(49)
        x = rng.normal(size=(b, t, s, d))
        refs = rng.integers(0, (b, t, s), size=(9, 3))
        refs = np.concatenate([refs, refs[:3], [[1, 0, 2]]]).T  # repeats, and one b row alone
        for heads in (1, 2, 4):
            p = _params(d, 50, heads=heads)
            seen = np.full((b * heads, t * s, t, s), np.nan)

            def recording(qh, kh, scale, nbytes, consume):
                def record(lo, hi, a, w, room):
                    seen[lo:hi, a:a + w.shape[1]] = w
                    consume(lo, hi, a, w, room)
                produce(qh, kh, scale, nbytes, record)

            monkeypatch.setattr(attention, "_stage_one_blocks", recording)
            trajectory_pass_1d(x, p)
            monkeypatch.undo()
            assert not np.any(np.isnan(seen))
            passes = seen.reshape(b, heads, t, s, t, s).mean(axis=1)
            monkeypatch.setattr(attention, "_stage_one_scratch", lambda rows, t, s: (2, t * s))
            for at in (refs, refs[:, -1:]):
                got = stage_one_weights(x, p, at)
                want = passes[tuple(at)]
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
            monkeypatch.undo()

    @pytest.mark.parametrize("refs", [
        ([0, 2], [0, 1], [0, 3]),      # b past the end
        ([0, -1], [0, 1], [0, 3]),     # negative b would wrap to the last row
        ([0, 1], [0, 2], [0, 3]),      # t past the end
        ([0, 1], [0, 1], [-1, 3]),     # negative s
        ([0, 1], [0, 1], [0]),         # unequal lengths
        ([0.0], [0], [0]),             # not integers
        ([[0]], [[0]], [[0]]),         # not one axis
        (0, 0, 0),                     # scalars
    ])
    def test_reference_checks(self, refs):
        x = np.random.default_rng(53).normal(size=(2, 2, 4, 4))
        with pytest.raises(DimensionError, match="references"):
            stage_one_weights(x, _params(4, 54), refs)

    def test_no_references(self):
        x = np.random.default_rng(55).normal(size=(2, 2, 4, 4))
        empty = np.zeros(0, dtype=np.int64)
        assert stage_one_weights(x, _params(4, 56), (empty, empty, empty)).shape == (0, 2, 4)

    def test_validated_like_the_pass(self):
        ref = ([0], [0], [0])
        with pytest.raises(DimensionError):
            stage_one_weights(np.zeros((2, 2, 4)), _params(4, 51), ref)
        with pytest.raises(DimensionError):
            stage_one_weights(np.zeros((1, 2, 2, 4)), _params(6, 51), ref)
        x = np.zeros((1, 2, 2, 4))
        x[0, 1, 1, 2] = np.nan
        with pytest.raises(NumericError):
            stage_one_weights(x, _params(4, 51), ref)

    def test_oversized_refused_before_allocating(self):
        # The weights alone, 8 * B * T^2 * S^2 bytes, would be 2^41 bytes here;
        # each stage-one projection of the 4 MiB input would be 4 MiB.
        x = np.zeros((1, 2, 2 ** 18, 1))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceGuardError, match="stage-one product"):
                stage_one_weights(x, _params(1, 52), ([0], [0], [0]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 21


class TestAxialPasses:
    def test_height_sequence_round_trip(self):
        rng = np.random.default_rng(20)
        f = rng.normal(size=(3, 4, 5, 2))
        seq = to_sequence(f, "h")
        assert seq.shape == (2, 3, 5, 4)
        assert seq.reshape(2, 15, 4).shape == (2, 15, 4)
        assert np.array_equal(from_sequence(seq, "h"), f)

    def test_width_sequence_round_trip(self):
        rng = np.random.default_rng(20)
        f = rng.normal(size=(3, 4, 5, 2))
        seq = to_sequence(f, "w")
        assert seq.shape == (5, 3, 2, 4)
        assert np.array_equal(seq[1, 2, 0], f[2, :, 1, 0])
        assert np.array_equal(from_sequence(seq, "w"), f)

    def test_zero_keys_give_uniform_stage1(self):
        rng = np.random.default_rng(21)
        f = rng.normal(size=(2, 4, 5, 3))
        p = _params(4, 22)
        p.stage1.w_k = np.zeros((4, 4))
        x = prenorm(to_sequence(f, "h"))
        np.testing.assert_allclose(stage_one_field(x, p), 1.0 / 5.0, atol=1e-12)
        # Uniform weights pool each target frame to its spatial mean.
        ytil = _stage_one(x, p)
        v = np.einsum("btse,de->btsd", x, p.stage1.w_v)
        mean = v.mean(axis=2)  # (B,T,D)
        for t in range(2):
            for u in range(2):
                np.testing.assert_allclose(
                    ytil[:, t, u], np.repeat(mean[:, u:u + 1], 5, axis=1), atol=1e-12
                )

    def test_batch_axis_equivariance_bitwise(self):
        rng = np.random.default_rng(23)
        f = rng.normal(size=(2, 4, 3, 6))
        p = _params(4, 24)
        perm = rng.permutation(6)
        out = axial_trajectory_h(f, p)
        out_p = axial_trajectory_h(f[:, :, :, perm], p)
        assert np.array_equal(out[:, :, :, perm], out_p)

    def test_attended_axis_equivariance_bitwise(self):
        rng = np.random.default_rng(25)
        f = rng.normal(size=(2, 4, 6, 3))
        p = _params(4, 26)
        perm = rng.permutation(6)
        out = axial_trajectory_h(f, p)
        out_p = axial_trajectory_h(f[:, :, perm, :], p)
        assert np.array_equal(out[:, :, perm, :], out_p)

    def test_w_pass_is_transposed_h_pass(self):
        rng = np.random.default_rng(27)
        f = rng.normal(size=(2, 4, 3, 5))
        for heads in (1, 2):
            p = _params(4, 28, heads=heads)
            direct = axial_trajectory_w(f, p)
            via_t = axial_trajectory_h(np.swapaxes(f, 2, 3), p)
            assert np.array_equal(direct, np.swapaxes(via_t, 2, 3))
            state = _state(prenorm(to_sequence(f, "w")), p)
            state_t = _state(prenorm(to_sequence(np.swapaxes(f, 2, 3), "h")), p)
            for got, want in zip(state, state_t):
                assert np.array_equal(got, want)

    def test_w_pass_matches_naive(self):
        rng = np.random.default_rng(29)
        f = rng.normal(size=(2, 4, 3, 2))
        p = _params(4, 30, scale=1.0)
        np.testing.assert_allclose(axial_trajectory_w(f, p), naive_axial_w(f, p), atol=1e-10)

    def test_h_pass_matches_naive(self):
        rng = np.random.default_rng(31)
        f = rng.normal(size=(2, 4, 3, 2))
        p = _params(4, 32, scale=1.0)
        np.testing.assert_allclose(axial_trajectory_h(f, p), naive_axial_h(f, p), atol=1e-10)


class TestFullReference:
    def test_width_one_equals_h_pass(self):
        rng = np.random.default_rng(33)
        f = rng.normal(size=(3, 4, 5, 1))
        p = _params(4, 34)
        np.testing.assert_allclose(
            full_trajectory_reference(f, p), axial_trajectory_h(f, p), atol=1e-10
        )

    def test_height_one_equals_w_pass(self):
        rng = np.random.default_rng(35)
        f = rng.normal(size=(3, 4, 1, 6))
        p = _params(4, 36)
        np.testing.assert_allclose(
            full_trajectory_reference(f, p), axial_trajectory_w(f, p), atol=1e-10
        )

    def test_matches_six_loop_oracle(self):
        rng = np.random.default_rng(37)
        f = rng.normal(size=(2, 3, 2, 2))
        p = _params(3, 38, scale=1.0)
        np.testing.assert_allclose(
            full_trajectory_reference(f, p), naive_full_reference(f, p), atol=1e-10
        )

    def test_size_guard(self):
        # The reference's only size rule is its pass's: at (T, D, H, W) =
        # (4, 8, 32, 32) the (1, 4, 1024, 8) pass needs a 2^30-byte product
        # and 393408 bytes of block scratch, refused before either exists.
        f = np.zeros((4, 8, 32, 32))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceGuardError) as exc:
                full_trajectory_reference(f, _params(8, 39))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for part in ("(1, 4, 1024, 8)", "1074135232 bytes", f"{2 ** 30} of stage-one product",
                     "393408 of block scratch"):
            assert part in str(exc.value)
        assert peak < 2 ** 21

    def test_runs_within_its_footprint_above_4096(self):
        # T*H*W = 4160 fits: the pass holds its product and block scratch
        # (139 MB) and no more than a fixed 1 MiB beside them.
        t, d, h, w = 2, 1, 40, 52
        f = np.random.default_rng(40).normal(size=(t, d, h, w))
        p = _params(d, 41)
        full_trajectory_reference(f[:, :, :2, :2], p)  # a first call's one-time allocations stay outside the trace
        tracemalloc.start()
        try:
            full_trajectory_reference(f, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        footprint = stage_one_footprint((1, t, h * w, d), 1)[0]
        assert footprint == 138_844_256
        assert footprint <= peak <= footprint + 2 ** 20


class TestStageOneGuard:
    def test_oversized_pass_refused(self):
        # 8 * B * T^2 * S^2 * D = 8 * 1 * 4 * 2^36 * 1 bytes = 2^41 > limit; an
        # allocation that large fails at once, so a missing guard cannot
        # exhaust memory here.
        x = np.zeros((1, 2, 2 ** 18, 1))
        with pytest.raises(ResourceGuardError) as exc:
            trajectory_pass_1d(x, _params(1, 43))
        msg = str(exc.value)
        assert "(1, 2, 262144, 1)" in msg
        assert str(2 ** 41) in msg and str(MEMORY_LIMIT) in msg

    def test_limit_is_inclusive(self, monkeypatch):
        from axialtrack import errors
        x = np.ones((1, 2, 4, 4))  # stage-one product 8 * 1 * 4 * 16 * 4 = 2048 bytes
        footprint = stage_one_footprint(x.shape, 1)[0]
        assert footprint == 2048 + stage_one_scratch_bytes(x.shape, 1)
        monkeypatch.setattr(errors, "MEMORY_LIMIT", footprint)
        trajectory_pass_1d(x, _params(4, 44))
        monkeypatch.setattr(errors, "MEMORY_LIMIT", footprint - 1)
        with pytest.raises(ResourceGuardError):
            trajectory_pass_1d(x, _params(4, 44))

    def test_scratch_within_scratch_bytes_at_any_accepted_shape(self):
        # Stage one's block scratch holds whole (b, g) rows where two fit and
        # tiles of query rows elsewhere, so at every shape a pass accepts it
        # stays within `tensor.SCRATCH_BYTES`, up to the one-query-row slot
        # of a (b, g) row near the longest that the limit admits, T*S = 11580.
        from axialtrack.errors import check_memory
        from axialtrack.tensor import SCRATCH_BYTES
        named = [((1, 4, 520, 16), 1), ((1, 16, 40, 64), 1), ((1, 16, 130, 16), 1), ((1, 16, 24, 16), 1),
                 ((1, 2, 2080, 1), 1), ((40, 4, 40, 16), 2), ((1, 1, 11580, 1), 1), ((1, 11580, 1, 1), 1)]
        grid = [((b, t, s, d), heads) for b in (1, 2, 40) for t in (1, 2, 4, 16) for d in (1, 16, 64)
                for s in (1, 3, 24, 40, 130, 520, 2080, 8192) for heads in (1, 2, 4) if d % heads == 0]
        accepted = 0
        for shape, heads in named + grid:
            try:
                check_memory("pass", str(shape), *stage_one_footprint(shape, heads))
            except ResourceGuardError:
                assert (shape, heads) not in named
                continue
            accepted += 1
            assert stage_one_scratch_bytes(shape, heads) <= SCRATCH_BYTES, (shape, heads)
        assert accepted > len(named)

    def test_pass_holds_one_stage_one_buffer(self):
        # The product is sorted in place; a second, sorted copy of it would
        # put the traced peak at about twice its size. Stage one's weights w1
        # are never whole: beside the product the pass holds the query, key
        # and value heads (three sequence-sized arrays), the scratch its
        # blocks share and small objects, 0.41 w1 here (0.39 w1 measured).
        b, t, s, d, heads = 16, 4, 24, 16, 2
        rng = np.random.default_rng(45)
        x = rng.normal(size=(b, t, s, d))
        p = _params(d, 46, heads=heads)
        trajectory_pass_1d(x, p)  # a first call's one-time allocations stay outside the trace
        tracemalloc.start()
        try:
            trajectory_pass_1d(x, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        product, w1_bytes = 8 * b * t * t * s * s * d, 8 * b * heads * t * t * s * s
        beside = 3 * x.nbytes + stage_one_scratch_bytes(x.shape, heads) + 2 ** 16
        assert beside <= w1_bytes / 2
        assert peak <= product + beside


# The benchmark's passes: `axial_train`'s H pass at 2 heads; `track_many`'s
# cross-clip pass and its 16-clip group's finest passes; `demo_oracle`'s
# finest, coarser and coarsest passes and its cross-clip pass, whose arrays
# alone are below its traced peak.
@pytest.mark.parametrize("shape, heads", [
    ((40, 4, 40, 16), 2), ((1, 16, 24, 16), 1), ((128, 2, 8, 16), 1), ((32, 2, 32, 8), 1),
    ((16, 2, 16, 8), 1), ((8, 2, 8, 8), 1), ((1, 4, 4, 8), 1),
], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else f"heads{v}")
def test_pass_peak_bounds_the_traced_pass(shape, heads):
    # The declared peak is at least the pass's traced peak, and at most a
    # quarter above it beside a stage's small bytes.
    x = np.random.default_rng(47).normal(size=shape)
    p = _params(shape[-1], 48, heads=heads)
    trajectory_pass_1d(x, p)  # a first call's one-time allocations stay outside the trace
    peak = traced_peak(trajectory_pass_1d, x, p)
    assert peak <= pass_peak(shape, heads) <= 1.25 * peak + SMALL_BYTES


class TestStageOneProduct:
    """The stage-one product: one C-contiguous (B, G, T, S, U, C, R) buffer,
    sorted in place along r and summed pairwise along its last axis."""

    @staticmethod
    def _record(monkeypatch):
        from axialtrack import attention
        calls = []

        def recording_sorted_sum(x, axis=-1):
            out = sorted_sum(x, axis=axis)
            calls.append((x, axis, out))
            return out

        monkeypatch.setattr(attention, "sorted_sum", recording_sorted_sum)
        return calls

    @pytest.mark.parametrize("heads", [1, 2])
    def test_one_contiguous_product_summed_on_last_axis(self, monkeypatch, heads):
        b, t, s, d = 3, 2, 7, 4
        calls = self._record(monkeypatch)
        x = np.random.default_rng(60).normal(size=(b, t, s, d))
        trajectory_pass_1d(x, _params(d, 61, heads=heads))
        size = 8 * b * t * t * s * s * d
        assert [x.nbytes for x, _, _ in calls].count(size) == 1
        prod, axis, summed = max(calls, key=lambda call: call[0].nbytes)
        assert prod.nbytes == size and prod.shape == (b, heads, t, s, t, d // heads, s)
        assert prod.dtype == np.float64 and prod.flags.c_contiguous
        assert axis in (-1, prod.ndim - 1)
        # Sorted in place: the operand itself is left ascending along r, and
        # the result is the plain (pairwise) sum of those ascending rows.
        assert np.all(prod[..., 1:] >= prod[..., :-1])
        assert np.array_equal(summed, prod.sum(axis=-1))

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("s", [9, 17, 40, 130])
    def test_equivariance_on_tied_and_signed_zero_rows(self, monkeypatch, s, heads):
        # S = 9 and 17 take numpy's 8-accumulator pairwise sum with a tail,
        # 130 its split above 128 terms. A large score scale drives many
        # weights to exact zeros, whose products with negative values are
        # -0.0 beside +0.0 ones; the last value channel is exactly zero.
        b, t, d = 3, 3, 4
        rng = np.random.default_rng(64 + s)
        x = rng.normal(size=(b, t, s, d))
        x[:, :, 1::3] = x[:, :, :1]  # tied rows
        x[:, :, 2::4, 0] = -0.0
        p = _params(d, 65, scale=700.0, heads=heads)
        p.stage1.w_v[-1] = 0.0
        calls = self._record(monkeypatch)
        out = trajectory_pass_1d(x, p)
        prod = max(calls, key=lambda call: call[0].nbytes)[0]
        monkeypatch.undo()
        zeros = prod == 0.0
        assert np.any(zeros & np.signbit(prod)) and np.any(zeros & ~np.signbit(prod))
        del calls, prod, zeros
        for axis in (0, 1, 2):  # B, T, S
            perm = rng.permutation(x.shape[axis])
            got = trajectory_pass_1d(np.take(x, perm, axis=axis), p)
            want = np.take(out, perm, axis=axis)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("b, t, s, d, heads", [(3, 2, 130, 16, 2), (2, 4, 130, 16, 1), (4, 2, 65, 32, 2)])
def test_equivariance_at_wide_channels(b, t, s, d, heads):
    # At 16 and 32 channels, scores from a BLAS gemm change bits when rows
    # move within their matrix; the pass's must not, for any S, B or T order.
    rng = np.random.default_rng(s + d + heads)
    x = rng.normal(size=(b, t, s, d))
    p = _params(d, 66, heads=heads)
    out = trajectory_pass_1d(x, p)
    for axis in (0, 1, 2, 2):  # B, T and two S orders
        perm = rng.permutation(x.shape[axis])
        got = trajectory_pass_1d(np.take(x, perm, axis=axis), p)
        want = np.take(out, perm, axis=axis)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestPassthroughParams:
    def test_residual_pass_is_identity(self):
        rng = np.random.default_rng(40)
        f = rng.normal(size=(2, 4, 4, 4))
        p = passthrough_attention_params(4)
        assert np.array_equal(axial_trajectory_h(f, p), f)
        assert np.array_equal(axial_trajectory_w(f, p), f)
