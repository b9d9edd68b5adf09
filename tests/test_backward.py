import copy
import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest

from axialtrack import attention, backward, tensor
from axialtrack.attention import (
    ProjectionWeights,
    attention_params,
    axial_trajectory_h,
    axial_trajectory_w,
)
from axialtrack.backward import trajectory_backward
from axialtrack.errors import DimensionError, ResourceGuardError

EPS = 1e-4
TOL = 1e-5


def _params(d, seed, std=0.3, heads=1):
    return attention_params(d, np.random.default_rng(seed), heads=heads, std=std)


def _loss(f, ph, pw, upstream):
    return float(np.sum(upstream * axial_trajectory_w(axial_trajectory_h(f, ph), pw)))


def _fd_input(f, ph, pw, upstream):
    grad = np.zeros_like(f)
    for idx in np.ndindex(f.shape):
        fp = f.copy()
        fp[idx] += EPS
        fm = f.copy()
        fm[idx] -= EPS
        grad[idx] = (_loss(fp, ph, pw, upstream) - _loss(fm, ph, pw, upstream)) / (2 * EPS)
    return grad


def _fd_param(f, ph, pw, upstream, which, stage, name):
    base = ph if which == "h" else pw
    target = getattr(getattr(base, stage), name)
    grad = np.zeros_like(target)
    for idx in np.ndindex(target.shape):
        plus = copy.deepcopy(base)
        getattr(getattr(plus, stage), name)[idx] += EPS
        minus = copy.deepcopy(base)
        getattr(getattr(minus, stage), name)[idx] -= EPS
        if which == "h":
            grad[idx] = (_loss(f, plus, pw, upstream) - _loss(f, minus, pw, upstream)) / (2 * EPS)
        else:
            grad[idx] = (_loss(f, ph, plus, upstream) - _loss(f, ph, minus, upstream)) / (2 * EPS)
    return grad


def _rel_err(analytic, fd):
    return float(np.max(np.abs(analytic - fd) / np.maximum(1e-6, np.abs(fd))))


def _first_blocks_overlap(monkeypatch):
    """Make both pieces of every two-piece backward job hold their first
    block at one moment: each waits at a barrier in that block's stage-one
    softmax backward (its second, after stage two's), which has written the
    weights' gradient over its operand, so nothing is held that the block
    does not hold there anyway."""
    barrier, local = threading.Barrier(2, timeout=30), threading.local()
    split_rows, softmax_backward = backward.split_rows, backward._softmax_backward

    def splitting(piece, n, nbytes):
        two = tensor.split_pieces(n, nbytes) == 2

        def counted(lo, hi):
            local.calls = 0 if two else None  # softmax backwards so far in this piece
            piece(lo, hi)

        split_rows(counted, n, nbytes)

    def waiting(w, dw):
        dw = softmax_backward(w, dw)
        if getattr(local, "calls", None) is not None:
            local.calls += 1
            if local.calls == 2:
                barrier.wait()
        return dw

    monkeypatch.setattr(backward, "split_rows", splitting)
    monkeypatch.setattr(backward, "_softmax_backward", waiting)


class TestTrajectoryBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(2, 4, 3, 3))
        g = trajectory_backward(f, _params(4, 1), _params(4, 2), np.zeros_like(f))
        assert np.array_equal(g.d_input, np.zeros_like(f))
        for grads in (g.params_h, g.params_w):
            for stage in (grads.stage1, grads.stage2):
                assert not np.any(stage.w_q)
                assert not np.any(stage.w_k)
                assert not np.any(stage.w_v)

    def test_stage_gradients_are_projection_weights(self):
        rng = np.random.default_rng(23)
        f = rng.normal(size=(2, 4, 2, 3))
        ph, pw = _params(4, 24, heads=2), _params(4, 25)
        g = trajectory_backward(f, ph, pw, rng.normal(size=f.shape))
        for params, grads in ((ph, g.params_h), (pw, g.params_w)):
            for stage in ("stage1", "stage2"):
                got, want = getattr(grads, stage), getattr(params, stage)
                assert type(got) is ProjectionWeights
                for field in dataclasses.fields(ProjectionWeights):
                    assert getattr(got, field.name).shape == getattr(want, field.name).shape

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(2, 4, 3, 3))
        ph, pw = _params(4, 4), _params(4, 5)
        upstream = rng.normal(size=f.shape)
        g = trajectory_backward(f, ph, pw, upstream)
        assert _rel_err(g.d_input, _fd_input(f, ph, pw, upstream)) < TOL

    def test_value_projection_gradients_match(self):
        rng = np.random.default_rng(6)
        f = rng.normal(size=(2, 4, 3, 3))
        ph, pw = _params(4, 7), _params(4, 8)
        upstream = rng.normal(size=f.shape)
        g = trajectory_backward(f, ph, pw, upstream)
        fd_h = _fd_param(f, ph, pw, upstream, "h", "stage1", "w_v")
        fd_w = _fd_param(f, ph, pw, upstream, "w", "stage1", "w_v")
        assert _rel_err(g.params_h.stage1.w_v, fd_h) < TOL
        assert _rel_err(g.params_w.stage1.w_v, fd_w) < TOL

    def test_all_projection_gradients_match(self):
        rng = np.random.default_rng(9)
        f = rng.normal(size=(2, 4, 2, 3))
        ph, pw = _params(4, 10), _params(4, 11)
        upstream = rng.normal(size=f.shape)
        g = trajectory_backward(f, ph, pw, upstream)
        for which, grads in (("h", g.params_h), ("w", g.params_w)):
            for stage in ("stage1", "stage2"):
                for name in ("w_q", "w_k", "w_v"):
                    fd = _fd_param(f, ph, pw, upstream, which, stage, name)
                    analytic = getattr(getattr(grads, stage), name)
                    assert _rel_err(analytic, fd) < TOL, (which, stage, name)

    def test_multi_head_input_gradient(self):
        rng = np.random.default_rng(15)
        f = rng.normal(size=(2, 4, 3, 3))
        ph = _params(4, 16, heads=2)
        pw = _params(4, 17, heads=2)
        upstream = rng.normal(size=f.shape)
        g = trajectory_backward(f, ph, pw, upstream)
        assert _rel_err(g.d_input, _fd_input(f, ph, pw, upstream)) < TOL

    def test_multi_head_projection_gradients(self):
        rng = np.random.default_rng(20)
        f = rng.normal(size=(2, 4, 2, 3))
        ph = _params(4, 21, heads=2)
        pw = _params(4, 22, heads=2)
        upstream = rng.normal(size=f.shape)
        g = trajectory_backward(f, ph, pw, upstream)
        for which, grads in (("h", g.params_h), ("w", g.params_w)):
            for stage in ("stage1", "stage2"):
                for name in ("w_q", "w_k", "w_v"):
                    fd = _fd_param(f, ph, pw, upstream, which, stage, name)
                    analytic = getattr(getattr(grads, stage), name)
                    assert _rel_err(analytic, fd) < TOL, (which, stage, name)

    def test_no_sorted_reduction(self, monkeypatch):
        # Sorted order only serves the forward's permutation equivariance.
        def sorted_call(*args, **kwargs):
            raise AssertionError("the backward called a sorted reduction")

        for module in (attention, tensor):
            monkeypatch.setattr(module, "sorted_sum", sorted_call)
            monkeypatch.setattr(module, "softmax_last", sorted_call)
        f = np.random.default_rng(23).normal(size=(2, 4, 3, 2))
        trajectory_backward(f, _params(4, 24, heads=2), _params(4, 25, heads=2), f)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("shape", [(2, 4, 40, 40), (4, 16, 24, 24)], ids=["2x4x40x40", "4x16x24x24"])
    def test_never_sets_the_train_step_peak(self, monkeypatch, workers, shape):
        # The backward holds no pass's state, only whole Gram operands and its
        # blocks, so its traced peak stays below that of the forward pair whose
        # gradients it takes. A backward holding a pass's (B, G, U, T*S, R)
        # stage-one weights reads 15.9 MB at (2, 4, 40, 40) against 9.2 MB.
        monkeypatch.setattr(tensor, "_WORKERS", workers)
        rng = np.random.default_rng(26)
        f = rng.normal(size=shape)
        ph, pw = _params(shape[1], 27, heads=2), _params(shape[1], 28, heads=2)
        upstream = rng.normal(size=shape)
        peaks = []
        for run in (lambda: axial_trajectory_w(axial_trajectory_h(f, ph), pw),
                    lambda: trajectory_backward(f, ph, pw, upstream)):
            run()  # a first call's one-time allocations stay outside the trace
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        forward, backward_peak = peaks
        assert backward_peak < forward

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("shape, heads", [((4, 16, 24, 24), 2), ((2, 2, 40, 40), 2), ((3, 8, 32, 16), 4)],
                             ids=["4x16x24x24-heads2", "2x2x40x40-heads2", "3x8x32x16-heads4"])
    def test_footprint_bounds_the_traced_peak(self, monkeypatch, workers, shape, heads):
        # The footprint counts a block in flight in each piece, so the pieces'
        # first blocks are made to overlap, however the threads are scheduled.
        monkeypatch.setattr(tensor, "_WORKERS", workers)
        _first_blocks_overlap(monkeypatch)
        rng = np.random.default_rng(29)
        f = rng.normal(size=shape)
        ph, pw = _params(shape[1], 30, heads=heads), _params(shape[1], 31, heads=heads)
        upstream = rng.normal(size=shape)
        t, d, h, w = shape
        footprint = max(backward._footprint(seq, heads)[0] for seq in ((w, t, h, d), (h, t, w, d)))
        trajectory_backward(f, ph, pw, upstream)
        tracemalloc.start()
        try:
            trajectory_backward(f, ph, pw, upstream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= footprint <= 1.25 * peak

    def test_oversized_refused_before_allocating(self, monkeypatch):
        # One row of the W pass's stage-one weights is 8.6 GB.
        def no_work(*args, **kwargs):
            raise AssertionError("the backward started work on a refused input")

        monkeypatch.setattr(backward, "matmul", no_work)
        f = np.zeros((2, 1, 1, 16384))
        with pytest.raises(ResourceGuardError, match=r"trajectory backward refused: the W pass's "
                                                     r"\(B, T, S, D\) = \(1, 2, 16384, 1\).* need \d+ bytes"):
            trajectory_backward(f, _params(1, 32), _params(1, 33), f)

    @pytest.mark.parametrize("shape", [(2, 4, 4, 5, 6), (2, 3, 4, 5, 6), (4, 5, 6)])
    def test_non_clip_input_refused(self, monkeypatch, shape):
        # A (K, T, D, H, W) stack was read as if T were D.
        def no_work(*args, **kwargs):
            raise AssertionError("the backward started work on a refused input")

        monkeypatch.setattr(backward, "to_sequence", no_work)
        f = np.zeros(shape)
        with pytest.raises(DimensionError, match=r"\(T, D, H, W\)"):
            trajectory_backward(f, _params(4, 18), _params(4, 19), f)

    def test_shape_mismatch_rejected(self):
        f = np.zeros((2, 4, 3, 3))
        with pytest.raises(DimensionError):
            trajectory_backward(f, _params(4, 18), _params(4, 19), np.zeros((2, 4, 3, 2)))
