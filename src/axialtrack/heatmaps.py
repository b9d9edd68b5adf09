"""Trajectory heatmaps: the height and width stage-one attention rows of a
reference pixel, multiplied into one map per target frame.

`axial_fields` gives a clip's two weight arrays: the height pass's
stage-one weights, and the width pass's on the height pass's output, with
no width pass run. A reference point (t, h, w) selects the height row at
batch index w and the width row at batch index h; their outer product at
each target frame is the per-frame trajectory map that the dumps write;
the tracking check takes its argmax from the two rows (`outer_argmax`).
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Iterable

import numpy as np

from .attention import (
    AttentionParams, from_sequence, prenorm, stage_one_weights, to_sequence, trajectory_pass_1d,
)
from .errors import DimensionError
from .pgm import write_pgm
from .tensor import as_array


def axial_fields(
    f, params_h: AttentionParams, params_w: AttentionParams
) -> tuple[np.ndarray, np.ndarray]:
    """Head-mean stage-one weights of the height pass on the (T, D, H, W) clip,
    (W, T, H, T, H), and of the width pass on the height pass's output,
    (H, T, W, T, W). Runs the height pass only; `stage_one_weights` gives
    each field, the height one after the pass, so it is never held beside
    the pass's product."""
    f = as_array(f)
    x = prenorm(to_sequence(f, "h"))
    mid = f + from_sequence(trajectory_pass_1d(x, params_h), "h")
    w_h = stage_one_weights(x, params_h)
    del x
    return w_h, stage_one_weights(prenorm(to_sequence(mid, "w")), params_w)


def heatmap_frames(w_h: np.ndarray, w_w: np.ndarray, reference: tuple[int, int, int]) -> np.ndarray:
    """(T, H, W): the outer-product map of each target frame for the reference pixel."""
    t, h, w = reference
    _, n_frames, n_h = w_h.shape[:3]
    n_w = w_w.shape[2]
    if not (0 <= t < n_frames and 0 <= h < n_h and 0 <= w < n_w):
        raise DimensionError(f"reference {reference} outside (T={n_frames}, H={n_h}, W={n_w})")
    rows_h = w_h[w, t, h]  # (T, H)
    rows_w = w_w[h, t, w]  # (T, W)
    return rows_h[:, :, None] * rows_w[:, None, :]


def outer_argmax(rows_a: np.ndarray, rows_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) of `np.argmax(np.outer(a, b))` per pair of trailing rows of
    weights >= 0. Rounding is monotone, so the top product is max(a) * max(b):
    the first row reaching it, then that row's first column, is the first argmax."""
    b_max = rows_b.max(axis=-1, keepdims=True)
    top = rows_a.max(axis=-1, keepdims=True) * b_max
    row = np.argmax(rows_a * b_max == top, axis=-1)
    a_row = np.take_along_axis(rows_a, row[..., None], axis=-1)
    col = np.argmax(a_row * rows_b == top, axis=-1)
    return row, col


def normalize_heatmap(frame: np.ndarray) -> np.ndarray:
    """Min-max normalize to 8 bit; a constant map keeps its absolute level."""
    lo = float(frame.min())
    hi = float(frame.max())
    if hi > lo:
        return np.round((frame - lo) / (hi - lo) * 255.0).astype(np.uint8)
    level = int(round(255.0 * min(max(lo, 0.0), 1.0)))
    return np.full(frame.shape, level, dtype=np.uint8)


def dump_attention_heatmaps(
    w_h: np.ndarray, w_w: np.ndarray, reference: tuple[int, int, int], out_dir
) -> list[str]:
    """Write one normalized P5 PGM per target frame; returns the paths."""
    frames = heatmap_frames(w_h, w_w, reference)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for u, frame in enumerate(frames):
        path = os.path.join(out_dir, f"t{u:04d}.pgm")
        write_pgm(path, normalize_heatmap(frame))
        paths.append(path)
    return paths


def trajectory_hit_rate(
    gt_masks: list[np.ndarray], moving: list[bool], maps: Iterable[tuple[np.ndarray, np.ndarray]]
) -> float:
    """Fraction of (reference, target frame) pairs whose multiplied-map
    argmax lands inside the reference object's (L, H, W) mask at the target
    frame. `maps` yields the `axial_fields` weights of each clip in order.

    References are every on-mask pixel of every moving object at every
    frame; targets are all frames of the reference's clip.
    """
    hits = 0
    total = 0
    for k, (w_h, w_w) in enumerate(maps):
        clip_len = w_h.shape[1]
        for mask in itertools.compress(gt_masks, moving):
            # Video frame of each clip frame; padding frames repeat the last one.
            frames = np.minimum(k * clip_len + np.arange(clip_len), mask.shape[0] - 1)
            ts, ys, xs = np.nonzero(mask[frames])  # every on-mask reference in the clip
            # (n, T, H) height rows and (n, T, W) width rows, one pair per reference
            by, bx = outer_argmax(w_h[xs, ts, ys], w_w[ys, ts, xs])
            hits += int(np.count_nonzero(mask[frames, by, bx]))
            total += by.size
    return hits / total if total else 1.0
