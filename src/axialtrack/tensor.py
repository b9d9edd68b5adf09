"""Deterministic dense-array primitives on float64 numpy arrays.

Every operation has a fixed reduction order, so two calls on identical
inputs are bitwise identical regardless of thread count. Reductions that
feed attention normalizations sum their terms in ascending value order
(`sorted_sum`), which additionally makes them bitwise-invariant under
permutations of the reduced axis. `sorted_sum` sorts a writeable
C-contiguous float64 operand of three or more terms in place, so callers
that still need the original order pass a copy; every other operation
leaves its inputs alone.

`split_rows` runs the large row-wise kernels (`sorted_sum`,
`softmax_last`, and attention's and the backward's batched products) in
contiguous pieces of whole leading-axis rows, one piece per CPU. No
reduction crosses a piece, and each piece runs numpy alone and writes
into buffers its caller allocated, so the bits of every result are the
same for any number of pieces.
"""

from __future__ import annotations

import math
import os
import threading
from functools import partial

import numpy as np

from .errors import ConfigError, DimensionError, NumericError

# Smallest piece, in bytes of the job's operands, worth handing to a
# thread: a smaller one costs more to hand over than it saves.
MIN_PIECE_BYTES = 2 ** 20

_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_IN_PIECE = threading.local()
# The first split creates the pool, so importing this module starts no
# thread and does not load `concurrent.futures` (and `logging`).
_POOL = None
_POOL_LOCK = threading.Lock()


def _pool():
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor
            _POOL = ThreadPoolExecutor(_WORKERS, thread_name_prefix="axialtrack-rows")
        return _POOL


def _forget_pool() -> None:
    """A forked child has none of its parent's threads; it makes a new pool."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def split_rows(fn, n: int, nbytes: int) -> None:
    """Run `fn(lo, hi)` over contiguous pieces [lo, hi) that cover range(n).

    There is one piece per worker of the module pool (one per CPU in the
    process affinity), but no piece under `MIN_PIECE_BYTES` of the job's
    `nbytes`; with one piece, `fn(0, n)` runs on the calling thread. The
    calling thread runs the first piece while the pool runs the others, and
    the call returns once every piece is done.

    `fn` must treat each index as a whole row: no reduction may cross
    rows, so the result does not depend on where the pieces are cut. It
    must run numpy only (no traced or instrumented function) and write only
    into buffers its caller allocated. A call made from inside a piece runs
    serially, so pieces never nest.
    """
    pieces = min(_WORKERS, n, nbytes // MIN_PIECE_BYTES)
    if pieces < 2 or getattr(_IN_PIECE, "active", False):
        fn(0, n)
        return
    bounds = [n * i // pieces for i in range(pieces + 1)]
    pool = _pool()
    futures = [pool.submit(_piece, fn, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        _piece(fn, bounds[0], bounds[1])
    finally:
        for future in futures:  # wait for all, so no piece outlives its buffers
            future.result()


def _piece(fn, lo: int, hi: int) -> None:
    _IN_PIECE.active = True
    try:
        fn(lo, hi)
    finally:
        _IN_PIECE.active = False


def as_array(x) -> np.ndarray:
    """Coerce to a float64 ndarray (no copy when already one)."""
    return np.asarray(x, dtype=np.float64)


def require_finite(x: np.ndarray, what: str = "input") -> None:
    if not np.all(np.isfinite(x)):
        raise NumericError(f"{what} contains non-finite values")


def sorted_sum(x: np.ndarray, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """Sum along `axis` in ascending value order.

    The summand order depends only on the multiset of values, so the
    result is unchanged, bit for bit, when the reduced axis is permuted.
    The sum runs over a C-contiguous array; summation blocking would
    otherwise depend on the strides of the operand. Along the last axis,
    each ascending row is summed with numpy's pairwise sum. An axis of at
    most two terms is summed unsorted: IEEE addition commutes.

    A writeable C-contiguous float64 ndarray `x` of three or more terms is
    sorted in place and is left sorted along `axis`, so no second buffer
    of its size is allocated. Any other input (strided, read-only, another
    dtype, not an ndarray) is left unchanged and one contiguous copy of it
    is sorted. The leading axes before `axis` are split into pieces
    (`split_rows`).
    """
    if (isinstance(x, np.ndarray) and x.dtype == np.float64
            and x.flags.c_contiguous and x.flags.writeable):
        ordered = x
    else:
        ordered = np.array(x, order="C")
    shape = ordered.shape
    if not -len(shape) <= axis < len(shape):
        raise DimensionError(f"axis {axis} is out of range for shape {shape}")
    axis %= len(shape)
    rows, after = math.prod(shape[:axis]), shape[axis + 1:]
    # (rows, terms) for the last axis, where a 2-D sort is the fastest;
    # (rows, terms, the rest) for any other.
    blocks = ordered.reshape((rows, shape[axis]) + ((math.prod(after),) if after else ()))
    # The output has the dtype numpy's sum gives (int64 for an int32 input).
    out = np.empty(blocks.shape[:1] + blocks.shape[2:], dtype=ordered[:0].sum().dtype)
    split_rows(partial(_sorted_sums, blocks, blocks, out), rows, blocks.nbytes)
    return out.reshape(shape[:axis] + ((1,) if keepdims else ()) + after)


def _sorted_sums(src: np.ndarray, work: np.ndarray, out: np.ndarray, lo: int, hi: int) -> None:
    """out[lo:hi] = the sums of src[lo:hi] over axis 1 in ascending order.

    Rows of three or more terms are first sorted in `work`, into which
    they are copied unless it is `src`.
    """
    rows = src[lo:hi]
    if rows.shape[1] > 2:
        if work is not src:
            work[lo:hi] = rows
        rows = work[lo:hi]
        rows.sort(axis=1)
    np.add.reduce(rows, axis=1, out=out[lo:hi])


def softmax_last(x) -> np.ndarray:
    """Softmax over the trailing axis, max-shifted for stability.

    Each trailing slice of the result is a probability vector; the
    denominator sums a sorted copy of the exponentials (the numerator needs
    them unsorted), as `sorted_sum` does, so the op is equivariant under
    permutations of the trailing axis. Rows are split into pieces
    (`split_rows`).
    """
    x = as_array(x)
    if x.ndim == 0 or x.shape[-1] < 1:
        raise DimensionError(f"softmax needs a non-empty trailing axis, got shape {x.shape}")
    require_finite(x, "softmax input")
    rows = x.reshape(-1, x.shape[-1])
    out = np.empty(rows.shape)
    work = np.empty(rows.shape) if rows.shape[1] > 2 else None
    per_row = np.empty(rows.shape[0])
    split_rows(partial(_softmax_rows, rows, out, work, per_row), rows.shape[0], out.nbytes)
    return out.reshape(x.shape)


def _softmax_rows(x, out, work, per_row, lo: int, hi: int) -> None:
    ex, row = out[lo:hi], per_row[lo:hi, None]
    np.maximum.reduce(x[lo:hi], axis=1, out=per_row[lo:hi])
    np.subtract(x[lo:hi], row, out=ex)
    np.exp(ex, out=ex)
    _sorted_sums(out, work, per_row, lo, hi)  # `row` now holds the denominators
    ex /= row


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
        out += wt[..., None] * rows[map_start + yi * (w + 2) + xi]
    return out


def logistic(x) -> np.ndarray:
    """Numerically safe elementwise logistic function."""
    x = as_array(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class MacCounter:
    """Accumulates multiply-accumulate counts keyed by term name."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def get(self, key: str) -> int:
        return self.counts.get(key, 0)

    def total(self) -> int:
        return sum(self.counts.values())
