"""Row-parallel kernels: the same bits for any number of workers.

`tensor.split_rows` cuts a job into pieces of whole leading-axis rows and
runs them on the module pool. These tests swap in pools of 1, 2 and 3
workers with no minimum piece size, so even small inputs are split, and
require outputs equal to the serial ones bit for bit, signs of zero
included.
"""

import importlib.util
import multiprocessing
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from axialtrack import tensor
from axialtrack.attention import attention_params, trajectory_pass_1d
from axialtrack.backward import trajectory_backward
from axialtrack.cli import cli_main
from axialtrack.tensor import softmax_last, sorted_sum, split_rows

BATCHES = [1, 2, 3, 40]
BOOKKEEPING_BYTES = 2 ** 16


@pytest.fixture
def use_workers(monkeypatch):
    """use_workers(n): split every job into up to n pieces on an n-thread pool."""
    pools = []

    def use(n: int) -> None:
        pools.append(ThreadPoolExecutor(n))
        monkeypatch.setattr(tensor, "_WORKERS", n)
        monkeypatch.setattr(tensor, "_POOL", pools[-1])
        monkeypatch.setattr(tensor, "MIN_PIECE_BYTES", 1)

    yield use
    for pool in pools:
        pool.shutdown()


def _each_worker_count(use_workers, fn):
    """fn() under 1, 2 and 3 workers."""
    results = []
    for n in (1, 2, 3):
        use_workers(n)
        results.append(fn())
    return results


def _assert_bitwise_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def _tied_signed_rows(rng, shape):
    """Normal values with whole rows tied along axis 1 and exact +-0.0 entries."""
    x = rng.normal(size=shape)
    x[:, 1::3] = x[:, :1]
    x[..., ::4] = 0.0
    x[..., 2::5] = -0.0
    return x


class TestSplitRows:
    def test_pieces_cover_the_rows_once(self, use_workers):
        use_workers(3)
        seen = []
        lock = threading.Lock()

        def record(lo, hi):
            with lock:
                seen.append((lo, hi))

        split_rows(record, 10, 10)
        assert sorted(seen) == [(0, 3), (3, 6), (6, 10)]

    def test_small_jobs_run_serially(self, use_workers, monkeypatch):
        use_workers(3)
        monkeypatch.setattr(tensor, "MIN_PIECE_BYTES", 100)
        seen = []
        split_rows(lambda lo, hi: seen.append((lo, hi)), 10, 250)  # two pieces of 125
        assert sorted(seen) == [(0, 5), (5, 10)]
        seen.clear()
        split_rows(lambda lo, hi: seen.append((lo, hi)), 10, 199)
        assert seen == [(0, 10)]

    def test_pieces_never_nest(self, use_workers):
        use_workers(2)
        inner = []
        lock = threading.Lock()

        def outer(lo, hi):
            pieces = []
            split_rows(lambda a, b: pieces.append((a, b)), 8, 8)
            with lock:
                inner.append(pieces)

        split_rows(outer, 2, 2)
        assert inner == [[(0, 8)], [(0, 8)]]

    def test_piece_error_raised_after_all_pieces_finish(self, use_workers):
        use_workers(3)
        done = []

        def fail_last(lo, hi):
            if hi == 9:
                raise ValueError("last piece")
            done.append(lo)

        with pytest.raises(ValueError, match="last piece"):
            split_rows(fail_last, 9, 9)
        assert sorted(done) == [0, 3]

    def test_forked_child_gets_a_working_pool(self, use_workers):
        use_workers(2)
        split_rows(lambda lo, hi: None, 2, 2)  # the parent's threads now exist
        child = multiprocessing.get_context("fork").Process(target=_split_and_exit)
        child.start()
        child.join(timeout=60)
        try:
            assert not child.is_alive() and child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join()


def _split_and_exit():
    # A fork copies only the calling thread, so the parent's pool threads
    # are gone here; a split that waited on them would never return.
    seen = []
    split_rows(lambda lo, hi: seen.append((lo, hi)), 4, 4)
    os._exit(0 if sorted(seen) == [(0, 2), (2, 4)] else 1)


class TestSameBitsForAnyWorkerCount:
    @pytest.mark.parametrize("b", BATCHES)
    @pytest.mark.parametrize("axis", [-1, 1])
    def test_sorted_sum(self, use_workers, b, axis):
        x = _tied_signed_rows(np.random.default_rng(b), (b, 7, 11))
        outs = _each_worker_count(use_workers, lambda: sorted_sum(x.copy(), axis=axis))
        for out in outs[1:]:
            _assert_bitwise_equal(out, outs[0])
        _assert_bitwise_equal(outs[0], np.sort(x, axis=axis).sum(axis=axis))

    @pytest.mark.parametrize("b", BATCHES)
    @pytest.mark.parametrize("n", [2, 13])
    def test_softmax_last(self, use_workers, b, n):
        x = _tied_signed_rows(np.random.default_rng(b), (b, 5, n))
        outs = _each_worker_count(use_workers, lambda: softmax_last(x))
        for out in outs[1:]:
            _assert_bitwise_equal(out, outs[0])

    @pytest.mark.parametrize("b", BATCHES)
    @pytest.mark.parametrize("heads", [1, 2])
    def test_trajectory_pass_1d(self, use_workers, b, heads):
        # A large score scale makes exact zero weights, whose products with
        # negative values are -0.0; the last value channel is exactly zero.
        rng = np.random.default_rng(10 + b)
        x = rng.normal(size=(b, 3, 9, 4))
        x[:, :, 1::3] = x[:, :, :1]  # tied positions
        x[:, :, 2::4, 0] = -0.0
        p = attention_params(4, rng, heads=heads, scale=700.0, std=0.5, bias=True)
        p.stage1.w_v[-1] = 0.0
        outs = _each_worker_count(use_workers, lambda: trajectory_pass_1d(x, p))
        for out in outs[1:]:
            _assert_bitwise_equal(out, outs[0])

    @pytest.mark.parametrize("b", BATCHES)
    @pytest.mark.parametrize("heads", [1, 2])
    def test_trajectory_backward(self, use_workers, b, heads):
        # (T, D, H, W) with H = W = b: both passes run over a batch of b rows.
        rng = np.random.default_rng(20 + b)
        f = rng.normal(size=(2, 4, b, b))
        f[:, :, 1::3] = f[:, :, :1]
        f[:, 0, ::2] = -0.0
        up = rng.normal(size=f.shape)
        ph, pw = (attention_params(4, rng, heads=heads, std=0.5, bias=True) for _ in range(2))

        def grads():
            g = trajectory_backward(f, ph, pw, up)
            arrays = [g.d_input]
            for side in (g.params_h, g.params_w):
                for stage in (side.stage1, side.stage2):
                    arrays += [stage.w_q, stage.w_k, stage.w_v, stage.b_q, stage.b_v]
            return arrays

        outs = _each_worker_count(use_workers, grads)
        for arrays in outs[1:]:
            for got, want in zip(arrays, outs[0]):
                _assert_bitwise_equal(got, want)


def test_split_pass_peak_memory_not_above_serial(use_workers):
    # Pieces write into buffers their caller allocated, so splitting adds
    # no array at the pass's peak, only the pool's bookkeeping (futures,
    # work items, frames: about 5 KiB here). A piece that allocated its own
    # temporaries would add at least half of the 1.8 MB stage-one weights.
    rng = np.random.default_rng(30)
    x = rng.normal(size=(12, 4, 24, 16))
    p = attention_params(16, rng, heads=2)
    peaks = []
    for n in (1, 2):
        use_workers(n)
        trajectory_pass_1d(x, p)  # starts the pool's threads outside the trace
        tracemalloc.start()
        try:
            trajectory_pass_1d(x, p)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + BOOKKEEPING_BYTES


@pytest.mark.parametrize("kernel", ["softmax_last", "sorted_sum"])
def test_pieces_allocate_only_the_callers_buffers(use_workers, kernel):
    # softmax_last allocates its output, the sorted copy and one value per
    # row; sorted_sum sorts in place and allocates only its output. Beyond
    # those, each of the two pieces may hold one fixed-size ufunc buffer
    # (for the broadcast row values). A piece with temporaries of its own
    # would add at least half the 1.1 MB operand.
    x = np.random.default_rng(31).normal(size=(512, 7, 40))
    allowed = {"softmax_last": 2 * x.nbytes, "sorted_sum": 0}[kernel] + x.size // 40 * 8
    allowed += 2 * 8 * np.getbufsize()
    use_workers(2)
    fn = getattr(tensor, kernel)
    fn(x.copy())  # starts the pool's threads outside the trace
    operand = x.copy()
    tracemalloc.start()
    try:
        fn(operand)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= allowed + BOOKKEEPING_BYTES


def _perfbench_span_names():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.SPANS


def test_traced_names_entered_only_on_main_thread(use_workers, monkeypatch, tmp_path):
    """Perfbench's span tracer keeps one unlocked stack, so no piece may
    call a function it wraps."""
    use_workers(3)
    entered = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            entered.append((name, threading.current_thread() is threading.main_thread()))
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    modules = [m for key, m in list(sys.modules.items())
               if key == "axialtrack" or key.startswith("axialtrack.")]
    for mod_name, fns in _perfbench_span_names().items():
        home = importlib.import_module(f"axialtrack.{mod_name}")
        for fn_name in fns:
            original = getattr(home, fn_name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, recording(f"{mod_name}.{fn_name}", value))
    piece_threads = set()
    run_piece = tensor._piece

    def recording_piece(fn, lo, hi):
        piece_threads.add(threading.current_thread().name)
        run_piece(fn, lo, hi)

    monkeypatch.setattr(tensor, "_piece", recording_piece)
    assert cli_main(["demo", "--l", "4", "--h", "16", "--w", "16", "--heads", "2",
                     "--out", str(tmp_path / "demo")]) == 0
    assert {name for name, _ in entered} >= {"tensor.sorted_sum", "tensor.softmax_last",
                                             "attention.trajectory_pass_1d"}
    assert all(on_main for _, on_main in entered)
    assert len(piece_threads) > 1  # the pieces did run on pool threads
