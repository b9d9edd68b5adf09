"""Deterministic dense-array primitives on float64 numpy arrays.

Every operation has a fixed reduction order, so two calls on identical
inputs are bitwise identical regardless of thread count. Reductions that
feed attention normalizations sum their terms in ascending value order
(`sorted_sum`), which additionally makes them bitwise-invariant under
permutations of the reduced axis. `sorted_sum` sorts a writeable
C-contiguous float64 operand in place, so callers that still need the
original order pass a copy; every other operation leaves its inputs alone.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionError, NumericError


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
    each ascending row is summed with numpy's pairwise sum.

    A writeable C-contiguous float64 ndarray `x` is sorted in place and
    is left sorted along `axis`, so no second buffer of its size is
    allocated. Any other input (strided, read-only, another dtype, not an
    ndarray) is left unchanged and one contiguous copy of it is sorted.
    """
    if (isinstance(x, np.ndarray) and x.dtype == np.float64
            and x.flags.c_contiguous and x.flags.writeable):
        ordered = x
    else:
        ordered = np.array(x, order="C")
    ordered.sort(axis=axis)
    return ordered.sum(axis=axis, keepdims=keepdims)


def softmax_last(x) -> np.ndarray:
    """Softmax over the trailing axis, max-shifted for stability.

    Each trailing slice of the result is a probability vector; the
    denominator is a `sorted_sum` of a copy of the exponentials (the
    numerator needs them unsorted), so the op is equivariant under
    permutations of the trailing axis.
    """
    x = as_array(x)
    if x.ndim == 0 or x.shape[-1] < 1:
        raise DimensionError(f"softmax needs a non-empty trailing axis, got shape {x.shape}")
    require_finite(x, "softmax input")
    shifted = x - np.max(x, axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / sorted_sum(ex.copy(), axis=-1, keepdims=True)


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
