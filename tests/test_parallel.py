"""Row-parallel kernels: the same bits for any number of workers.

`tensor.split_rows` cuts a job into pieces of whole leading-axis rows,
runs the first on the calling thread and each other one on a thread it
starts, and joins them all before it returns; no piece splits again.
These tests set 1, 2 and 3 workers with no minimum piece size, so even
small inputs are split, and require outputs equal to the serial ones bit
for bit, signs of zero included.
"""

import importlib.util
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from axialtrack import attention, backward, tensor
from axialtrack.attention import attention_params, stage_one_weights, trajectory_pass_1d
from axialtrack.backward import trajectory_backward
from axialtrack.cli import cli_main
from axialtrack.errors import NumericError
from axialtrack.tensor import matmul, softmax_last, sorted_sum, split_rows

from oracles import whole_stage_one_weights

BATCHES = [1, 2, 3, 40]
BOOKKEEPING_BYTES = 2 ** 16


@pytest.fixture
def use_workers(monkeypatch):
    """use_workers(n): split every job into up to n pieces."""

    def use(n: int) -> None:
        monkeypatch.setattr(tensor, "_WORKERS", n)
        monkeypatch.setattr(tensor, "MIN_PIECE_BYTES", 1)

    return use


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


def _gradient_arrays(g):
    """The input gradient and the twelve projection gradients of a backward."""
    arrays = [g.d_input]
    for side in (g.params_h, g.params_w):
        for stage in (side.stage1, side.stage2):
            arrays += [stage.w_q, stage.w_k, stage.w_v]
    return arrays


def _record_splits(monkeypatch):
    """Wrap `split_rows` at every axialtrack module that binds it. Returns
    a list of whether each call was entered on the main thread, and the set
    of the names of the threads its pieces ran on."""
    entries, piece_threads = [], set()
    split = tensor.split_rows

    def recording(fn, n, nbytes, scratch=None):
        entries.append(threading.current_thread() is threading.main_thread())

        def piece(*args):
            piece_threads.add(threading.current_thread().name)
            fn(*args)

        split(piece, n, nbytes, scratch)

    for key, module in list(sys.modules.items()):
        if key.startswith("axialtrack") and getattr(module, "split_rows", None) is split:
            monkeypatch.setattr(module, "split_rows", recording)
    return entries, piece_threads


def _small_demo(tmp_path):
    assert cli_main(["demo", "--l", "4", "--h", "16", "--w", "16", "--heads", "2",
                     "--out", str(tmp_path / "demo")]) == 0


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

    def test_no_piece_splits_again(self, use_workers, monkeypatch, tmp_path):
        # Every split is a top-level job: with no minimum piece size every
        # job of two rows or more splits, and still each call, at every
        # binding of `split_rows`, is entered on the main thread.
        use_workers(3)
        entries, piece_threads = _record_splits(monkeypatch)
        _small_demo(tmp_path)
        rng = np.random.default_rng(53)
        f = rng.normal(size=(2, 4, 6, 6))
        p = attention_params(4, rng, heads=2)
        trajectory_backward(f, p, p, f)
        refs = (np.array([0, 3, 5]), np.array([1, 0, 1]), np.array([2, 2, 4]))
        stage_one_weights(rng.normal(size=(6, 2, 6, 4)), p, refs)
        assert len(piece_threads) > 1
        assert entries and all(entries)

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

    def test_no_thread_outlives_a_split(self, use_workers):
        use_workers(3)
        before = threading.enumerate()
        split_rows(lambda lo, hi: None, 9, 9)
        assert threading.enumerate() == before

        def fail_middle(lo, hi):
            if lo == 3:
                raise ValueError("middle piece")

        with pytest.raises(ValueError, match="middle piece"):
            split_rows(fail_middle, 9, 9)
        assert threading.enumerate() == before

    def test_forked_child_splits(self, use_workers):
        use_workers(2)
        split_rows(lambda lo, hi: None, 2, 2)  # the parent has split before the fork
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
    # A fork copies only the calling thread; a split that waited on a thread
    # of the parent's would never return.
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
    def test_matmul_one_blas_call(self, use_workers, monkeypatch, b):
        # matmul runs whole, never split: a stack with a broadcast operand
        # and a transposed view gets np.matmul's bits, and an odd-strided
        # operand those of np.matmul on its contiguous copy.
        use_workers(3)
        entries, _ = _record_splits(monkeypatch)
        rng = np.random.default_rng(30 + b)
        x = _tied_signed_rows(rng, (b, 2, 9, 16))
        y = rng.normal(size=(b, 1, 40, 16)).swapaxes(-1, -2)
        _assert_bitwise_equal(matmul(x, y), np.matmul(x, y))
        odd = np.zeros((b, 2, 9, 32))[..., ::2]
        odd[...] = x
        _assert_bitwise_equal(matmul(odd, y), np.matmul(np.ascontiguousarray(odd), y))
        assert entries == []

    @pytest.mark.parametrize("b", BATCHES)
    @pytest.mark.parametrize("heads", [1, 2])
    def test_trajectory_pass_1d(self, use_workers, b, heads):
        # A large score scale makes exact zero weights, whose products with
        # negative values are -0.0; the last value channel is exactly zero.
        rng = np.random.default_rng(10 + b)
        x = rng.normal(size=(b, 3, 9, 4))
        x[:, :, 1::3] = x[:, :, :1]  # tied positions
        x[:, :, 2::4, 0] = -0.0
        p = attention_params(4, rng, heads=heads, scale=700.0, std=0.5)
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
        ph, pw = (attention_params(4, rng, heads=heads, std=0.5) for _ in range(2))
        outs = _each_worker_count(use_workers, lambda: _gradient_arrays(trajectory_backward(f, ph, pw, up)))
        for arrays in outs[1:]:
            for got, want in zip(arrays, outs[0]):
                _assert_bitwise_equal(got, want)

    @pytest.mark.parametrize("rows", [1, 2, "piece"])
    def test_trajectory_backward_blocks(self, use_workers, monkeypatch, rows):
        # Both passes run over 12 b rows. Each of the backward's three jobs
        # (the H output, the W and the H backward) cuts them into pieces that
        # walk blocks of 1 row, of 2 (the least `scratch_rows` gives) or one
        # block per piece, with the same bits as the serial default.
        rng = np.random.default_rng(50)
        f = rng.normal(size=(2, 4, 12, 12))
        f[:, :, 1::3] = f[:, :, :1]
        f[:, 0, ::2] = -0.0
        up = rng.normal(size=f.shape)
        ph, pw = (attention_params(4, rng, heads=2, std=0.5) for _ in range(2))
        want = _gradient_arrays(trajectory_backward(f, ph, pw, up))
        if rows == 1:
            block_rows = backward._block_rows
            monkeypatch.setattr(backward, "_block_rows", lambda shape, heads: (1, block_rows(shape, heads)[1]))
        else:
            monkeypatch.setattr(tensor, "SCRATCH_BYTES", 1 if rows == 2 else 2 ** 40)
        jobs = []
        in_blocks = backward._in_blocks

        def recording(shape, heads, fn):
            job = []
            jobs.append(job)

            def record(lo, hi):
                job.append((lo, hi))
                fn(lo, hi)

            in_blocks(shape, heads, record)

        monkeypatch.setattr(backward, "_in_blocks", recording)
        step = 12 if rows == "piece" else rows
        for n in (1, 2, 3):
            use_workers(n)
            jobs.clear()
            for got, expected in zip(_gradient_arrays(trajectory_backward(f, ph, pw, up)), want):
                _assert_bitwise_equal(got, expected)
            cuts = [12 * i // n for i in range(n + 1)]
            pieces = [[(lo, min(hi, lo + step)) for lo in range(a, hi, step)] for a, hi in zip(cuts, cuts[1:])]
            assert len(jobs) == 3
            assert all(sorted(job) == sorted(sum(pieces, [])) for job in jobs)
            assert all(len(blocks) == 1 if rows == "piece" else len(blocks) > 1 for blocks in pieces)


def test_split_pass_peak_memory_not_above_serial(use_workers):
    # Pieces write into buffers their caller allocated, so splitting adds
    # no array at the pass's peak, only the bookkeeping of the threads each
    # split starts (thread objects, locks, frames: about 7 KiB here). A piece
    # that allocated its own temporaries would add at least half of the
    # 1.8 MB stage-one weights.
    rng = np.random.default_rng(30)
    x = rng.normal(size=(12, 4, 24, 16))
    p = attention_params(16, rng, heads=2)
    peaks = []
    for n in (1, 2):
        use_workers(n)
        trajectory_pass_1d(x, p)  # a first call's one-time allocations stay outside the trace
        tracemalloc.start()
        try:
            trajectory_pass_1d(x, p)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + BOOKKEEPING_BYTES


def test_tiled_pass_allocates_only_its_footprint(use_workers):
    # Two pieces of one b row each walk their (b, g) row in tiles of 101 of
    # its 160 query rows, and a tile's room holds one (U, C, R) value slab:
    # each product chunk is one query row, multiplied by the C-contiguous
    # values themselves. Beside the product, the pass holds the query, key
    # and value heads (three sequence-sized arrays), the block scratch and
    # the bookkeeping of the split. A ufunc on a strided operand would add
    # one numpy buffer (64 KiB) in each piece.
    rng = np.random.default_rng(32)
    x = rng.normal(size=(2, 4, 40, 64))
    p = attention_params(64, rng)
    use_workers(2)
    trajectory_pass_1d(x, p)  # a first call's one-time allocations stay outside the trace
    tracemalloc.start()
    try:
        trajectory_pass_1d(x, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    beside = 3 * x.nbytes + attention.stage_one_scratch_bytes(x.shape, 1)
    assert peak <= attention.stage_one_bytes(x.shape) + beside + BOOKKEEPING_BYTES


@pytest.mark.parametrize("kernel", ["softmax_last", "sorted_sum"])
def test_pieces_allocate_only_the_callers_buffers(use_workers, kernel):
    # softmax_last runs on the calling thread and allocates its output, one
    # value per row and one sort scratch (the 1638 rows that 2^19 bytes
    # hold, not a sorted copy of the whole input); sorted_sum sorts in place
    # and allocates only its output. Neither broadcasts, so numpy adds no
    # ufunc buffer. A piece with temporaries of its own would add at least
    # half the 1.1 MB operand.
    x = np.random.default_rng(31).normal(size=(512, 7, 40))
    scratch = 8 * 40 * tensor.scratch_rows(x.size // 40, 40)
    allowed = {"softmax_last": x.nbytes + scratch, "sorted_sum": 0}[kernel] + x.size // 40 * 8
    use_workers(2)
    fn = getattr(tensor, kernel)
    fn(x.copy())  # a first call's one-time allocations stay outside the trace
    operand = x.copy()
    tracemalloc.start()
    try:
        fn(operand)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= allowed + BOOKKEEPING_BYTES


def _stage_one_heads(rng, b, heads, t, s, c):
    """(B, G, T, S, C) query and key heads with tied positions and exact
    +-0.0 entries."""
    qh, kh = rng.normal(size=(2, b, heads, t, s, c))
    qh[:, :, :, 1::3] = qh[:, :, :, :1]
    kh[:, :, :, 2::3] = kh[:, :, :, :1]
    qh[..., ::4, 0] = 0.0
    kh[..., 1::4, 0] = -0.0
    return qh, kh


class TestStageOneBlocks:
    """The blocked stage one equals the whole-array softmax bit for bit, for
    any block size, tile size and number of pieces."""

    @pytest.mark.parametrize("block", [1, 2, "all"])
    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("s", [9, 17, 40, 130])
    def test_blocks_are_the_whole_array_softmax(self, use_workers, monkeypatch, block, heads, s):
        # S = 9 and 17 take numpy's 8-accumulator pairwise sum with a tail,
        # 130 its split above 128 terms. A large score scale makes exact
        # zero weights.
        b, t = 3, 2
        qh, kh = _stage_one_heads(np.random.default_rng(40 + s + heads), b, heads, t, s, 2)
        want = whole_stage_one_weights(qh, kh, 700.0).reshape(b * heads, t * s, t, s)
        assert np.any(want == 0.0)
        rows = b * heads if block == "all" else block
        monkeypatch.setattr(attention, "_stage_one_scratch", lambda n, t, s: (rows, t * s))
        for n in (1, 2, 3):
            use_workers(n)
            got = np.full(want.shape, np.nan)
            sizes = []

            def consume(lo, hi, a, w, room):
                assert a == 0 and w.shape[1] == t * s
                got[lo:hi] = w
                sizes.append(hi - lo)

            attention._stage_one_blocks(qh, kh, 700.0, want.nbytes, consume)
            _assert_bitwise_equal(got, want)
            assert sum(sizes) == b * heads and max(sizes) <= rows

    @pytest.mark.parametrize("tile", [1, 3, "last"])
    @pytest.mark.parametrize("b, heads", [(1, 1), (3, 1), (3, 2), (2, 4)])
    @pytest.mark.parametrize("s", [17, 130])
    def test_tiles_are_the_whole_array_softmax(self, use_workers, monkeypatch, tile, b, heads, s):
        # One scratch slot per b row, of 1, 3 or T*S - 1 query rows. A piece
        # whose share holds less than a (b, g) row walks each of its rows in
        # tiles of as many query rows as the share holds, the last partial;
        # one that holds more walks whole rows. B*G = 1 is one piece.
        t = 2
        qh, kh = _stage_one_heads(np.random.default_rng(60 + s + b + heads), b, heads, t, s, 2)
        want = whole_stage_one_weights(qh, kh, 700.0).reshape(b * heads, t * s, t, s)
        rows = t * s - 1 if tile == "last" else tile
        monkeypatch.setattr(attention, "_stage_one_scratch", lambda *shape: (b, rows))
        for n in (1, 2, 3):
            use_workers(n)
            pieces = min(n, b)
            fits = {}  # (b, g) row -> query rows its piece's share holds
            for i in range(pieces):
                for j in range(b * i // pieces * heads, b * (i + 1) // pieces * heads):
                    fits[j] = (b * (i + 1) // pieces - b * i // pieces) * rows
            got, visits = np.full(want.shape, np.nan), np.zeros(want.shape[:2], int)

            def consume(lo, hi, a, w, room):
                m = w.shape[1]
                if fits[lo] < t * s:
                    assert hi - lo == 1 and m == min(fits[lo], t * s - a)
                else:
                    assert a == 0 and m == t * s and hi - lo <= fits[lo] // (t * s)
                got[lo:hi, a:a + m] = w
                visits[lo:hi, a:a + m] += 1

            attention._stage_one_blocks(qh, kh, 700.0, want.nbytes, consume)
            _assert_bitwise_equal(got, want)
            assert np.all(visits == 1)

    @pytest.mark.parametrize("tile", [1, 3, "last"])
    @pytest.mark.parametrize("b, heads", [(1, 1), (3, 2), (2, 4)])
    def test_tiles_read_their_references(self, use_workers, monkeypatch, tile, b, heads):
        # `stage_one_weights` head-means each tile at the references whose
        # query row falls in it; references spread over every tile (repeats
        # included) read the whole-array weights' head mean, bit for bit.
        t, s, d = 2, 17, 8
        rng = np.random.default_rng(70 + b + heads)
        x = rng.normal(size=(b, t, s, d))
        x[:, :, 1::3] = x[:, :, :1]
        x[..., ::4, 0] = -0.0
        p = attention_params(d, rng, heads=heads, std=0.5)
        qh, kh, _ = attention._stage_one_heads(x, p, attention._project)
        want = whole_stage_one_weights(qh, kh, p.scale).mean(axis=1)
        refs = rng.integers(0, (b, t, s), size=(40, 3))
        refs = np.concatenate([refs, refs[:5]]).T
        rows = t * s - 1 if tile == "last" else tile
        monkeypatch.setattr(attention, "_stage_one_scratch", lambda *shape: (b, rows))
        for n in (1, 2, 3):
            use_workers(n)
            _assert_bitwise_equal(stage_one_weights(x, p, refs), want[tuple(refs)])

    def test_non_finite_scores_raise_after_all_pieces_finish(self, use_workers):
        # Three pieces of two b rows each: the middle one's scores overflow to
        # inf at once, while the last one is still consuming its blocks.
        use_workers(3)
        heads = 2
        qh, kh = np.ones((2, 6, heads, 2, 5, 2))
        qh[2] = kh[2] = 1e200
        done = []

        def consume(lo, hi, a, w, room):
            if lo >= 4 * heads:
                time.sleep(0.1)
            done.extend(range(lo, hi))

        with pytest.raises(NumericError, match="stage-one scores"):
            attention._stage_one_blocks(qh, kh, 1.0, 6, consume)
        assert sorted(done) == [0, 1, 2, 3, 8, 9, 10, 11]


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
    _, piece_threads = _record_splits(monkeypatch)
    _small_demo(tmp_path)
    f = np.random.default_rng(51).normal(size=(2, 4, 6, 6))
    p = attention_params(4, np.random.default_rng(52), heads=2)
    backward.trajectory_backward(f, p, p, f)
    assert {name for name, _ in entered} >= {"tensor.sorted_sum", "tensor.softmax_last",
                                             "attention.trajectory_pass_1d",
                                             "backward.trajectory_backward"}
    assert all(on_main for _, on_main in entered)
    assert len(piece_threads) > 1  # the pieces did run on threads of their own
