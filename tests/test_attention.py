import tracemalloc

import numpy as np
import pytest

from axialtrack.attention import (
    AttentionParams,
    ProjectionWeights,
    attention_params,
    axial_trajectory_h,
    axial_trajectory_w,
    STAGE_ONE_BYTES_LIMIT,
    _axial_pass,
    from_sequence,
    full_trajectory_reference,
    passthrough_attention_params,
    to_sequence,
    trajectory_pass_1d,
)
from axialtrack.errors import DimensionError, NumericError, ResourceGuardError

from oracles import naive_axial_h, naive_axial_w, naive_full_reference, naive_pass1d


def _params(d, seed, std=0.3, scale=None, heads=1, bias=False):
    rng = np.random.default_rng(seed)
    return attention_params(d, rng, heads=heads, scale=scale, std=std, bias=bias)


class TestTrajectoryPass:
    def test_single_frame_degeneracy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 1, 4, 3))
        p = _params(3, 1)
        out, field = trajectory_pass_1d(x, p)
        assert np.array_equal(field.stage2, np.ones_like(field.stage2))
        # With one frame the output is the re-projected within-frame pooling.
        expected = np.einsum("btuse,de->btusd", field.values, p.stage2.w_v)[:, 0, 0]
        np.testing.assert_allclose(out[:, 0], expected, atol=1e-12)

    def test_single_position_degeneracy(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 1, 4))
        p = _params(4, 3)
        out, field = trajectory_pass_1d(x, p)
        assert np.array_equal(field.stage1, np.ones_like(field.stage1))
        v = np.einsum("btse,de->btsd", x, p.stage1.w_v)
        # Trajectory points collapse to the raw per-frame values.
        for t in range(3):
            assert np.array_equal(field.values[:, t], v)
        assert out.shape == x.shape

    def test_matches_naive_loop_oracle_unit_scale(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 2, 3, 4))
        p = _params(4, 5, scale=1.0)
        out, field = trajectory_pass_1d(x, p)
        want, w1, w2, ytil = naive_pass1d(x, p)
        np.testing.assert_allclose(out, want, atol=1e-10)
        np.testing.assert_allclose(field.stage1, w1, atol=1e-10)
        np.testing.assert_allclose(field.stage2, w2, atol=1e-10)
        np.testing.assert_allclose(field.values, ytil, atol=1e-10)

    def test_matches_naive_with_default_scale_and_bias(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 3, 2, 4))
        p = _params(4, 7, bias=True)
        out, _ = trajectory_pass_1d(x, p)
        want, _, _, _ = naive_pass1d(x, p)
        np.testing.assert_allclose(out, want, atol=1e-10)

    def test_weight_normalization(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 4, 6))
        _, field = trajectory_pass_1d(x, _params(6, 9))
        np.testing.assert_allclose(field.stage1.sum(axis=-1), 1.0, atol=1e-9)
        np.testing.assert_allclose(field.stage2.sum(axis=-1), 1.0, atol=1e-9)

    def test_convexity_with_identity_values(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 2, 5, 4))
        p = _params(4, 11)
        p.stage1.w_v = np.eye(4)
        p.stage1.b_v = None
        _, field = trajectory_pass_1d(x, p)
        # Every pooled channel stays inside the attended frame's value range.
        lo = x.min(axis=2, keepdims=True)
        hi = x.max(axis=2, keepdims=True)
        for t in range(2):
            for u in range(2):
                vals = field.values[:, t, u]  # (B,S,D)
                assert np.all(vals >= lo[:, u] - 1e-12)
                assert np.all(vals <= hi[:, u] + 1e-12)

    def test_multi_head_shapes_and_normalization(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 2, 3, 8))
        p = _params(8, 13, heads=2)
        out, field = trajectory_pass_1d(x, p)
        assert out.shape == x.shape
        np.testing.assert_allclose(field.stage1.sum(axis=-1), 1.0, atol=1e-9)

    def test_dimension_mismatch(self):
        x = np.zeros((1, 2, 2, 4))
        with pytest.raises(DimensionError):
            trajectory_pass_1d(x, _params(6, 14))

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
        _, f1 = trajectory_pass_1d(x, p)
        _, f2 = trajectory_pass_1d(x, scaled)
        assert np.array_equal(np.argmax(f1.stage1, axis=-1), np.argmax(f2.stage1, axis=-1))

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
        _, f1 = trajectory_pass_1d(x, p)
        _, f2 = trajectory_pass_1d(x, scaled)
        assert np.array_equal(f1.stage1, f2.stage1)
        assert np.array_equal(np.argmax(f1.stage2, axis=-1), np.argmax(f2.stage2, axis=-1))


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
        p.stage1.b_k = None
        _, field = _axial_pass(f, p, "h")
        np.testing.assert_allclose(field.stage1, 1.0 / 5.0, atol=1e-12)
        # Uniform weights pool each target frame to its spatial mean.
        x = to_sequence(f, "h")
        from axialtrack.attention import prenorm
        v = np.einsum("btse,de->btsd", prenorm(x), p.stage1.w_v)
        mean = v.mean(axis=2)  # (B,T,D)
        for t in range(2):
            for u in range(2):
                np.testing.assert_allclose(
                    field.values[:, t, u], np.repeat(mean[:, u:u + 1], 5, axis=1), atol=1e-12
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
        for heads, bias in ((1, False), (2, False), (1, True), (2, True)):
            p = _params(4, 28, heads=heads, bias=bias)
            direct, fld = _axial_pass(f, p, "w")
            via_t, fld_t = _axial_pass(np.swapaxes(f, 2, 3), p, "h")
            assert np.array_equal(direct, np.swapaxes(via_t, 2, 3))
            for name in ("values", "stage1", "stage2"):
                assert np.array_equal(getattr(fld, name), getattr(fld_t, name))

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
        f = np.zeros((2, 2, 8, 8))
        with pytest.raises(ResourceGuardError):
            full_trajectory_reference(f, _params(2, 39), cap=100)


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
        assert str(2 ** 41) in msg and str(STAGE_ONE_BYTES_LIMIT) in msg

    def test_limit_is_inclusive(self, monkeypatch):
        from axialtrack import attention
        x = np.ones((1, 2, 4, 4))  # stage-one product 8 * 1 * 4 * 16 * 4 = 2048 bytes
        monkeypatch.setattr(attention, "STAGE_ONE_BYTES_LIMIT", 2048)
        trajectory_pass_1d(x, _params(4, 44))
        monkeypatch.setattr(attention, "STAGE_ONE_BYTES_LIMIT", 2047)
        with pytest.raises(ResourceGuardError):
            trajectory_pass_1d(x, _params(4, 44))

    def test_pass_holds_one_stage_one_buffer(self):
        # The product is sorted in place; a second, sorted copy of it would
        # put the traced peak at about twice its size.
        b, t, s, d = 16, 4, 24, 16
        rng = np.random.default_rng(45)
        x = rng.normal(size=(b, t, s, d))
        p = _params(d, 46, heads=2)
        tracemalloc.start()
        try:
            trajectory_pass_1d(x, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (8 * b * t * t * s * s * d)


class TestPassthroughParams:
    def test_residual_pass_is_identity(self):
        rng = np.random.default_rng(40)
        f = rng.normal(size=(2, 4, 4, 4))
        p = passthrough_attention_params(4)
        assert np.array_equal(axial_trajectory_h(f, p), f)
        assert np.array_equal(axial_trajectory_w(f, p), f)
