"""Trajectory heatmaps: the height and width stage-one attention rows of a
reference pixel, multiplied into one map per target frame.

`axial_fields` reads a clip's height-pass stage-one rows at chosen (t, h, w)
references, and the width pass's on the height pass's output, with no width
pass run and no whole weight field built. A reference's two rows make its
maps: their outer product at each target frame is the trajectory map that
the dumps write, and the tracking check takes its argmax (`outer_argmax`).
"""

from __future__ import annotations

import itertools
import os

import numpy as np

from .attention import (
    AttentionParams, from_sequence, pass_peak, prenorm, stage_one_scratch_bytes, stage_one_weights, to_sequence,
    trajectory_pass_1d,
)
from .pgm import write_pgm
from .tensor import SMALL_BYTES, as_array, scratch_rows


def axial_fields(
    f, params_h: AttentionParams, params_w: AttentionParams, refs
) -> tuple[np.ndarray, np.ndarray]:
    """Head-mean stage-one rows at n references of the (T, D, H, W) clip,
    given as three index arrays (ts, hs, ws): the height pass's, (n, T, H),
    and the width pass's on the height pass's output, (n, T, W). Runs the
    height pass only; `stage_one_weights` reads the height rows after the
    pass, so they are never scored beside the pass's product."""
    f = as_array(f)
    ts, hs, ws = refs
    x = prenorm(to_sequence(f, "h"))
    mid = f + from_sequence(trajectory_pass_1d(x, params_h), "h")
    rows_h = stage_one_weights(x, params_h, (ws, ts, hs))
    del x
    return rows_h, stage_one_weights(prenorm(to_sequence(mid, "w")), params_w, (hs, ts, ws))


def clip_peak(shape: tuple[int, int, int, int], heads: int) -> int:
    """Bytes that `trajectory_hit_rate` holds at its peak on one (T, D, H, W)
    clip at `heads` heads, with `tensor.SMALL_BYTES`, as if every pixel were
    a reference. At n = T*H*W references, their indices and the clip's
    (n, T) argmax (2 T + 4 a reference) beside the clip's H pass
    (`attention.pass_peak` beside 3 (T, D, H, W) planes), or beside its
    (n, T, H) and (n, T, W) rows, sequences (8 D n) and the block of
    `outer_argmax` tests or the W rows' scratch."""
    t, d, h, w = shape
    refs, long = t * h * w, max(h, w)
    rows = 8 * refs * (t * (h + w) + 8 * d) + SMALL_BYTES + max(
        9 * scratch_rows(t * refs, long) * long, stage_one_scratch_bytes((h, t, w, d), heads))
    return 8 * refs * (2 * t + 4) + max(rows, 24 * refs * d + pass_peak((w, t, h, d), heads))


def outer_argmax(rows_a: np.ndarray, rows_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) of `np.argmax(np.outer(a, b))` per pair of trailing rows of
    weights >= 0. Rounding is monotone, so the top product is max(a) * max(b):
    the first row reaching it, then that row's first column, is the first
    argmax. Pairs go a block of `tensor.scratch_rows` at a time, so the
    products beside the rows stay within about `tensor.SCRATCH_BYTES`."""
    shape = rows_a.shape[:-1]
    rows_a, rows_b = rows_a.reshape(-1, rows_a.shape[-1]), rows_b.reshape(-1, rows_b.shape[-1])
    row, col = np.empty(len(rows_a), dtype=np.intp), np.empty(len(rows_a), dtype=np.intp)
    step = max(1, scratch_rows(len(rows_a), max(rows_a.shape[1], rows_b.shape[1])))
    for lo in range(0, len(rows_a), step):
        a, b = rows_a[lo:lo + step], rows_b[lo:lo + step]
        b_max = b.max(axis=-1, keepdims=True)
        top = a.max(axis=-1, keepdims=True) * b_max
        r = row[lo:lo + step] = np.argmax(a * b_max == top, axis=-1)
        col[lo:lo + step] = np.argmax(np.take_along_axis(a, r[:, None], axis=-1) * b == top, axis=-1)
    return row.reshape(shape), col.reshape(shape)


def normalize_heatmap(frame: np.ndarray) -> np.ndarray:
    """Min-max normalize to 8 bit; a constant map keeps its absolute level."""
    lo = float(frame.min())
    hi = float(frame.max())
    if hi > lo:
        return np.round((frame - lo) / (hi - lo) * 255.0).astype(np.uint8)
    level = int(round(255.0 * min(max(lo, 0.0), 1.0)))
    return np.full(frame.shape, level, dtype=np.uint8)


def dump_attention_heatmaps(rows_h: np.ndarray, rows_w: np.ndarray, out_dir) -> list[str]:
    """Write one normalized P5 PGM per target frame, the outer product of one
    reference's (T, H) height and (T, W) width rows; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for u, frame in enumerate(rows_h[:, :, None] * rows_w[:, None, :]):
        path = os.path.join(out_dir, f"t{u:04d}.pgm")
        write_pgm(path, normalize_heatmap(frame))
        paths.append(path)
    return paths


def trajectory_hit_rate(
    gt_masks: list[np.ndarray], moving: list[bool], clips: np.ndarray, block, probe: tuple[int, int, int]
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Fraction of (reference, target frame) pairs whose multiplied-map
    argmax lands inside the reference object's (L, H, W) mask at the target
    frame, and the (T, H) and (T, W) rows of the `probe` (t, h, w) in clip 0.
    References are every on-mask pixel of every moving object at every
    frame; targets are all frames of the reference's clip. The within-clip
    `block`'s rows are read once per (T, D, H, W) clip (`axial_fields`), at
    the union of its references and, in clip 0, the probe, and dropped
    with the clip's argmax and references before the next clip's are read."""
    hits = total = 0
    for k, clip in enumerate(clips):
        t = len(clip)
        # Each moving mask at the clip's frames; padding frames repeat the last one.
        inside = [mask[np.minimum(k * t + np.arange(t), len(mask) - 1)] != 0
                  for mask in itertools.compress(gt_masks, moving)]
        on = np.any([np.zeros((t,) + clip.shape[2:], dtype=bool)] + inside, axis=0)
        on[probe] |= k == 0  # clip 0 also reads the probe
        at = np.flatnonzero(on)
        rows_h, rows_w = axial_fields(clip, block.attn_h, block.attn_w, np.unravel_index(at, on.shape))
        if k == 0:
            i = np.searchsorted(at, np.ravel_multi_index(probe, on.shape))
            probe_rows = rows_h[i].copy(), rows_w[i].copy()
        by, bx = outer_argmax(rows_h, rows_w)  # (n, T): each reference's map argmax per target frame
        del rows_h, rows_w
        for m in inside:
            sel = m.reshape(-1)[at]  # the references on this mask
            hits += int(np.count_nonzero(m[np.arange(t), by[sel], bx[sel]]))
            total += by[sel].size
        by = bx = sel = m = None  # dropped before the next clip's H pass
    return (hits / total if total else 1.0), probe_rows
