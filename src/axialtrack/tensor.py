"""Deterministic dense-array primitives on float64 numpy arrays.

Every operation has a fixed reduction order, so two calls on identical
inputs are bitwise identical regardless of thread count. Reductions that
feed attention normalizations sum their terms in ascending value order
(`sorted_sum`), which additionally makes them bitwise-invariant under
permutations of the reduced axis. `sorted_sum` takes only a writeable
C-contiguous float64 ndarray and sorts it in place, so callers that still
need the original order pass a copy; every other operation leaves its
inputs alone.

`split_rows` runs the large row-wise kernels (`sorted_sum`, attention's
stage one and the backward's blocks) in contiguous pieces of whole
leading-axis rows, one piece per CPU. Every split is a top-level job: the
calling thread runs the first piece and a thread started for each other
piece runs it, no piece splits again, and all are joined before the call
returns, so no thread and no state outlives a split (a forked child
splits as its parent does). No reduction crosses a piece, and each piece
runs numpy alone and writes its results into buffers its caller
allocated, so the bits of every result are the same for any number of
pieces. A job's scratch (`scratch_rows`, at most `SCRATCH_BYTES` unless
two of its rows need more) is shared out among its pieces, so what they
hold does not grow with the worker count. The backward's pieces are the
exception: each walks its rows in blocks of `scratch_rows` rows in a
scratch of its own, and frees a block's temporaries before the next.

`_softmax_rows` is the one row-softmax kernel: `softmax_last` runs it on
its whole input, and attention's stage one on each block of its scores.
It sorts the rows for their denominators a block at a time in a scratch,
so no sorted copy of the whole input is made.

`matmul` is the one BLAS kernel, for the backward's matrix products, and
runs whole on the calling thread. Its bits are those of the gemm kernel
OpenBLAS picks for the CPU: FMA kernels (Haswell, Zen, SkylakeX) agree to
about 1e-15, not bit for bit. A gemm's bits can depend on a row's place
in its matrix, so the forward, which is bitwise permutation-equivariant,
keeps `np.einsum`.
"""

from __future__ import annotations

import math
import os
import threading
from collections import Counter
from functools import partial

import numpy as np

from .errors import ConfigError, DimensionError, NumericError

# Smallest piece, in bytes of the job's operands, worth handing to a
# thread: a smaller one costs more to hand over than it saves.
MIN_PIECE_BYTES = 2 ** 20
# Bytes of scratch that a job's pieces share: blocks of rows this small
# stay in cache, and the pieces still split any job of two rows or more.
SCRATCH_BYTES = 2 ** 19

_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def split_rows(fn, n: int, nbytes: int, scratch: np.ndarray | None = None) -> None:
    """Run `fn(lo, hi)` over contiguous pieces [lo, hi) that cover range(n).

    There is one piece per CPU in the process affinity, but no piece under
    `MIN_PIECE_BYTES` of the job's `nbytes`; with one piece, `fn(0, n)`
    runs on the calling thread. The calling thread runs the first piece
    while one thread started for each other piece runs it, and the call
    returns once every thread is joined, so none outlives the call; then
    the first error that a piece raised, in piece order, is raised.

    With `scratch`, each piece also gets its own share of it,
    `fn(share, lo, hi)`: the pieces cut its first axis as evenly as they
    cut range(n), and there are no more pieces than it has rows, so each
    share holds at least one.

    `fn` must treat each index as a whole row: no reduction may cross
    rows, so the result does not depend on where the pieces are cut. It
    must run numpy only (no traced or instrumented function), write its
    results only into buffers its caller allocated, and not split again: a
    piece calls neither `split_rows` nor a kernel that does.
    """
    pieces = split_pieces(n, nbytes)
    if scratch is not None:
        pieces = max(1, min(pieces, len(scratch)))
    bounds = [n * i // pieces for i in range(pieces + 1)]
    fns = [fn] * pieces
    if scratch is not None:
        cuts = [len(scratch) * i // pieces for i in range(pieces + 1)]
        fns = [partial(fn, scratch[a:b]) for a, b in zip(cuts, cuts[1:])]
    if pieces == 1:
        fns[0](0, n)
        return
    errors = [None] * pieces

    def run(i: int) -> None:
        try:
            fns[i](bounds[i], bounds[i + 1])
        except BaseException as error:
            errors[i] = error

    threads = []
    try:
        for i in range(1, pieces):
            thread = threading.Thread(target=run, args=(i,))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:  # join all, so no piece outlives its buffers
            thread.join()
    for error in errors:
        if error is not None:
            raise error


def split_pieces(n: int, nbytes: int) -> int:
    """The number of pieces `split_rows` cuts a job of `n` rows and `nbytes`
    into, given no scratch."""
    return max(1, min(_WORKERS, n, nbytes // MIN_PIECE_BYTES))


def scratch_rows(n: int, row_size: int) -> int:
    """Rows of `row_size` float64 values in a scratch of at most n rows: as
    many as `SCRATCH_BYTES` holds, but at least two, so that a `split_rows`
    job still splits."""
    return min(n, max(2, SCRATCH_BYTES // (8 * row_size)))


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b into `out`, a C-contiguous array (a new one if not given), in
    one `np.matmul` call on the calling thread: one BLAS call per matrix of
    a stack (numpy's vector paths where a matrix has an extent of 1).

    An operand that is neither C-contiguous nor a last-two-axes transpose
    of a C-contiguous array (BLAS takes both) is copied once: for other
    strides numpy runs its own loop, with other bits.
    """
    a, b = (x if x.flags.c_contiguous or x.swapaxes(-1, -2).flags.c_contiguous
            else np.ascontiguousarray(x) for x in (a, b))
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1]))
    return np.matmul(a, b, out=out)


def as_array(x) -> np.ndarray:
    """Coerce to a float64 ndarray (no copy when already one)."""
    return np.asarray(x, dtype=np.float64)


def require_finite(x: np.ndarray, what: str = "input", work: np.ndarray | None = None) -> None:
    """Raise NumericError unless every value of `x` is finite; the test mask goes to `work`, if given."""
    if not np.all(np.isfinite(x, out=work)):
        raise NumericError(f"{what} contains non-finite values")


def sorted_sum(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum along `axis` in ascending value order.

    The summand order depends only on the multiset of values, so the
    result is unchanged, bit for bit, when the reduced axis is permuted.
    The sum runs over a C-contiguous array; summation blocking would
    otherwise depend on the strides of the operand. Along the last axis,
    each ascending row is summed with numpy's pairwise sum. An axis of at
    most two terms is summed unsorted: IEEE addition commutes.

    `x` must be a writeable C-contiguous float64 ndarray: an axis of three
    or more terms is sorted in place and left sorted, so no second buffer
    of its size is allocated. Any other input (strided, read-only, another
    dtype, not an ndarray) raises `DimensionError` and is left unchanged;
    a caller with such an input passes a C-contiguous float64 copy. The
    leading axes before `axis` are split into pieces (`split_rows`).
    """
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64
            and x.flags.c_contiguous and x.flags.writeable):
        raise DimensionError("sorted_sum sorts in place: it needs a writeable C-contiguous float64 ndarray")
    shape = x.shape
    if not -len(shape) <= axis < len(shape):
        raise DimensionError(f"axis {axis} is out of range for shape {shape}")
    axis %= len(shape)
    rows, after = math.prod(shape[:axis]), shape[axis + 1:]
    # (rows, terms) for the last axis, where a 2-D sort is the fastest;
    # (rows, terms, the rest) for any other.
    blocks = x.reshape((rows, shape[axis]) + ((math.prod(after),) if after else ()))
    out = np.empty(blocks.shape[:1] + blocks.shape[2:])

    def piece(lo: int, hi: int) -> None:
        _sorted_sums(blocks[lo:hi], out[lo:hi], None)

    split_rows(piece, rows, blocks.nbytes)
    return out.reshape(shape[:axis] + after)


def _sorted_sums(rows: np.ndarray, out: np.ndarray, work: np.ndarray | None) -> None:
    """out = the sums of `rows` over axis 1 in ascending order.

    Rows of three or more terms are sorted first: in place when `work` is
    None, else copied into the leading rows of `work` and sorted there.
    """
    if rows.shape[1] > 2:
        if work is not None:
            work = work[:len(rows)]
            work[...] = rows
            rows = work
        rows.sort(axis=1)
    np.add.reduce(rows, axis=1, out=out)


def softmax_last(x) -> np.ndarray:
    """Softmax over the trailing axis, max-shifted for stability.

    Each trailing slice of the result is a probability vector; the
    denominator sums the exponentials in ascending order, as `sorted_sum`
    does, so the op is equivariant under permutations of the trailing axis.
    It runs on the calling thread, a block of rows at a time in one sort
    scratch (`scratch_rows`).
    """
    x = as_array(x)
    if x.ndim == 0 or x.shape[-1] < 1:
        raise DimensionError(f"softmax needs a non-empty trailing axis, got shape {x.shape}")
    require_finite(x, "softmax input")
    rows = x.reshape(-1, x.shape[-1])
    out = np.empty(rows.shape)
    work = np.empty((scratch_rows(*rows.shape), rows.shape[1]))
    _softmax_rows(rows, out, work, np.empty(rows.shape[0]))
    return out.reshape(x.shape)


def _softmax_rows(x: np.ndarray, out: np.ndarray, work: np.ndarray, per_row: np.ndarray) -> None:
    """out = the softmax of each row of the 2-D `x` (`out` may be `x`
    itself), a block of `work`'s rows at a time. Each denominator, in
    `per_row`, is summed in ascending order after a sort in `work`. The
    row maxima and denominators are spread over `work` before they are
    applied, so no operation broadcasts: numpy then makes no buffer of its
    own, and the kernel allocates nothing."""
    step = len(work)
    for lo in range(0, len(x), step):
        rows, ex, row = x[lo:lo + step], out[lo:lo + step], per_row[lo:lo + step]
        spread = work[:len(rows)]
        np.maximum.reduce(rows, axis=1, out=row)
        np.copyto(spread, row[:, None])
        np.subtract(rows, spread, out=ex)
        np.exp(ex, out=ex)
        _sorted_sums(ex, row, spread)
        np.copyto(spread, row[:, None])
        np.divide(ex, spread, out=ex)


def atrous_conv1d(x, kernel, rate: int) -> np.ndarray:
    """Dilated 1-D convolution over a (length, ..., channels) sequence.

    Axes between the first and the last are batch axes. `kernel` has
    shape (taps, out_channels, in_channels) with an odd tap count. The
    output keeps the input's length, as if the input were zero padded:
    each tap adds its product over the output rows whose shifted input row
    exists, so no padded copy is built and a tap whose offset reaches past
    the sequence adds nothing. Taps are accumulated in index order.
    """
    x = as_array(x)
    kernel = as_array(kernel)
    if x.ndim < 2:
        raise DimensionError(f"atrous_conv1d expects (length, ..., channels), got {x.shape}")
    if kernel.ndim != 3:
        raise DimensionError(f"kernel must be (taps, out, in), got {kernel.shape}")
    taps, dout, din = kernel.shape
    if taps % 2 == 0:
        raise ConfigError(f"kernel tap count must be odd, got {taps}")
    if rate < 1:
        raise ConfigError(f"dilation rate must be >= 1, got {rate}")
    if din != x.shape[-1]:
        raise DimensionError(f"kernel input channels {din} != sequence channels {x.shape[-1]}")
    length = x.shape[0]
    out = np.zeros(x.shape[:-1] + (dout,))
    for j in range(taps):
        off = (j - (taps - 1) // 2) * rate  # output row l reads input row l + off
        if abs(off) >= length:
            continue
        lo, hi = max(0, -off), min(length, length - off)
        out[lo:hi] += np.einsum("l...e,de->l...d", x[lo + off:hi + off], kernel[j], optimize=False)
    return out


def bilinear_sample(feature, points) -> np.ndarray:
    """Sample (..., channels, H, W) maps at continuous (y, x) points (..., N, 2).

    Leading axes are batch axes and must match; a single (channels, H, W)
    map takes (N, 2) points. The four corners are gathered from one
    channels-last copy of the maps with a one-pixel zero border, and
    corner indices are clipped onto that border, so corners outside the
    grid read an exact zero. Returns (..., N, channels).
    """
    feature = as_array(feature)
    pts = as_array(points)
    batch = feature.shape[:-3]
    if feature.ndim < 3 or pts.ndim < 2 or pts.shape[:-2] != batch or pts.shape[-1] != 2:
        raise DimensionError(
            f"bilinear_sample expects (..., channels, H, W) maps and (..., N, 2) points "
            f"with the same leading axes, got {feature.shape} and {pts.shape}"
        )
    c, h, w = feature.shape[-3:]
    padded = np.zeros(batch + (h + 2, w + 2, c))
    padded[..., 1:-1, 1:-1, :] = np.moveaxis(feature, -3, -1)
    rows = padded.reshape(-1, c)
    map_start = np.arange(0, rows.shape[0], (h + 2) * (w + 2)).reshape(batch + (1,))
    low = np.floor(pts).astype(np.int64)  # top-left corner
    fy, fx = np.moveaxis(pts - low, -1, 0)
    out = np.zeros(pts.shape[:-1] + (c,))
    corners = (
        (0, 0, (1.0 - fy) * (1.0 - fx)),
        (0, 1, (1.0 - fy) * fx),
        (1, 0, fy * (1.0 - fx)),
        (1, 1, fy * fx),
    )
    for oy, ox, wt in corners:
        yi = np.clip(low[..., 0] + oy, -1, h) + 1
        xi = np.clip(low[..., 1] + ox, -1, w) + 1
        # Weighted in place and freed before the next gather, so one corner
        # is the only (..., N, channels) array beside the output (IEEE
        # multiplication commutes).
        corner = rows[map_start + yi * (w + 2) + xi]
        corner *= wt[..., None]
        out += corner
        del corner
    return out


def logistic(x) -> np.ndarray:
    """Numerically safe elementwise logistic function: with e = exp(-|x|),
    1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere, in one working array."""
    x = as_array(x)
    e = np.abs(x, out=np.empty_like(x))
    np.exp(np.negative(e, out=e), out=e)
    out = np.add(1.0, e, out=np.empty_like(x))
    pos = x >= 0
    np.divide(1.0, out, out=out, where=pos)
    np.divide(e, out, out=out, where=~pos)
    return out


class MacCounter(Counter):
    """Multiply-accumulate counts keyed by term name: `counter[key] += n`
    adds, and a key never added reads 0."""
