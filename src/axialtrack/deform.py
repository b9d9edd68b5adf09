"""Within-clip feature mixing over a three-level pyramid.

Each block applies multi-scale deformable sampling (spatial mixing, no
temporal exchange; one gather per value level serves every frame) and then
axial-trajectory attention along the height and then the width axis (temporal
mixing, no cross-level exchange), both at every query level a later block
samples: the last block's at the finest alone, the one the decoder reads.

Every stage takes (..., T, D, H, W) levels: axes before T are batch axes,
as in `tensor.bilinear_sample`. The pyramid and the sampler fold them into
frames, and the axial passes into their batch axis. Sampling never mixes
frames and attention never mixes the batch axes, so a stack of clips gives
each clip the bits it gets on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import AttentionParams, attention_params, axial_trajectory_h, axial_trajectory_w
from .errors import DimensionError
from .tensor import as_array, bilinear_sample, softmax_last


@dataclass
class FeaturePyramid:
    """Three (..., T, D, H, W) levels ordered coarse to fine; extents double
    level to level. Leading axes are batch axes and must match."""

    levels: list[np.ndarray]

    def validate(self) -> None:
        if len(self.levels) != 3:
            raise DimensionError(f"pyramid must have exactly 3 levels, got {len(self.levels)}")
        for lvl in self.levels:
            if lvl.ndim < 4:
                raise DimensionError(f"each level must be (..., T, D, H, W), got {lvl.shape}")
            if lvl.shape[:-2] != self.levels[0].shape[:-2]:
                raise DimensionError(
                    f"pyramid levels must share their leading axes, T and D, got "
                    f"{[lvl.shape for lvl in self.levels]}"
                )
        for coarse, fine in zip(self.levels, self.levels[1:]):
            if fine.shape[-2] != 2 * coarse.shape[-2] or fine.shape[-1] != 2 * coarse.shape[-1]:
                raise DimensionError(
                    f"spatial extents must double level to level, got {coarse.shape} -> {fine.shape}"
                )


@dataclass
class LevelDeformParams:
    """Per query level: query projection, offset and weight predictors, output projection.

    The offset predictor maps a query feature to `points` (dy, dx) pairs,
    reused at every sampled level in that level's own pixel units; the
    weight predictor scores all 3 * points samples (level-major order).
    """

    w_query: np.ndarray   # (D, D)
    w_offset: np.ndarray  # (2K, D)
    w_weight: np.ndarray  # (3K, D)
    w_out: np.ndarray     # (D, D)


@dataclass
class DeformParams:
    levels: list[LevelDeformParams]
    points: int

    def validate(self, d: int) -> None:
        if len(self.levels) != 3:
            raise DimensionError(f"deform params must cover 3 levels, got {len(self.levels)}")
        k = self.points
        for lp in self.levels:
            if lp.w_query.shape != (d, d) or lp.w_out.shape != (d, d):
                raise DimensionError("query/output projections must be (D, D)")
            if lp.w_offset.shape != (2 * k, d):
                raise DimensionError(f"offset predictor must be ({2 * k}, {d}), got {lp.w_offset.shape}")
            if lp.w_weight.shape != (3 * k, d):
                raise DimensionError(f"weight predictor must be ({3 * k}, {d}), got {lp.w_weight.shape}")


def _axis_refs(n_from: int, n_to: int) -> np.ndarray:
    # Proportional (corner-aligned) index mapping; pixel centers of the
    # query grid land inside [0, n_to - 1], so zero-offset sampling never
    # reads outside the target level.
    if n_from == 1:
        return np.full(1, (n_to - 1) / 2.0)
    return np.arange(n_from) * ((n_to - 1) / (n_from - 1))


def msdeform_simplified(pyr: FeaturePyramid, params: DeformParams, level: int) -> np.ndarray:
    """Deformable sampling of query level `level` (0 coarse to 2 fine) from all three levels, with residual.

    For every query pixel: predict K offsets and 3K softmax weights from
    the projected query feature, bilinear-sample each level at the mapped
    reference plus offset, blend, project, and add to the input. The query
    level runs once over all frames, leading axes folded into them; frames
    never mix, and no other query level is read. Returns that level's
    (..., T, D, H, W) output.
    """
    pyr.validate()
    lead, d = pyr.levels[0].shape[:-3], pyr.levels[0].shape[-3]
    params.validate(d)
    k, lp = params.points, params.levels[level]
    frames = [lvl.reshape((-1,) + lvl.shape[-3:]) for lvl in pyr.levels]  # (T, D, H, W)
    t, _, hq, wq = frames[level].shape
    pix = frames[level].transpose(0, 2, 3, 1).reshape(t, -1, d)  # (T, P, D)
    q = np.einsum("tpe,de->tpd", pix, lp.w_query, optimize=False)
    off = np.einsum("tpe,oe->tpo", q, lp.w_offset, optimize=False).reshape(t, -1, k, 2)
    wts = softmax_last(np.einsum("tpe,oe->tpo", q, lp.w_weight, optimize=False))
    agg = np.zeros_like(pix)
    for m, tgt in enumerate(frames):
        ys = _axis_refs(hq, tgt.shape[2])
        xs = _axis_refs(wq, tgt.shape[3])
        grid = np.stack(np.meshgrid(ys, xs, indexing="ij"), axis=-1).reshape(-1, 1, 2)
        pts = (grid + off).reshape(t, -1, 2)  # (T, P*K, 2)
        smp = bilinear_sample(tgt, pts).reshape(t, -1, k, d)
        for kk in range(k):
            agg += wts[..., m * k + kk, None] * smp[:, :, kk]
        del smp  # freed before the next level's samples are drawn
    outp = pix + np.einsum("tpe,de->tpd", agg, lp.w_out, optimize=False)
    # C order, since downstream einsums may sum in a stride-dependent order.
    out = np.ascontiguousarray(outp.reshape(t, hq, wq, d).transpose(0, 3, 1, 2))
    return out.reshape(lead + out.shape[1:])


@dataclass
class WithinClipBlock:
    deform: DeformParams
    attn_h: AttentionParams
    attn_w: AttentionParams


def within_clip_forward(f, blocks: list[WithinClipBlock]) -> np.ndarray:
    """The finest level of the (..., T, D, H, W) clip stack `f`'s pyramid after
    the blocks, which sample and pass only the levels read later: the last block
    the finest alone; with no block, `f`."""
    if not blocks:
        return f
    levels = build_pyramid(f).levels
    for i, blk in enumerate(blocks):
        # All of a block's sampling ends, and its input pyramid is dropped, before its passes run.
        queries = (2,) if i == len(blocks) - 1 else range(3)
        levels = [msdeform_simplified(FeaturePyramid(levels), blk.deform, m) for m in queries]
        levels = [axial_trajectory_w(axial_trajectory_h(lvl, blk.attn_h), blk.attn_w) for lvl in levels]
    return levels[-1]


def _pool2(f: np.ndarray) -> np.ndarray:
    t, d, h, w = f.shape
    return f.reshape(t, d, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


def build_pyramid(f) -> FeaturePyramid:
    """Average-pool (..., T, D, H, W) features into the coarse-to-fine pyramid.

    The input acts as the finest level; H and W must be divisible by 4.
    Leading axes are pooled as frames and kept on every level.
    """
    f = as_array(f)
    if f.ndim < 4 or f.shape[-2] % 4 or f.shape[-1] % 4:
        raise DimensionError(f"pyramid needs (..., T, D, H, W) with H, W divisible by 4, got {f.shape}")
    half = _pool2(f.reshape((-1,) + f.shape[-3:]))
    quarter = _pool2(half)
    return FeaturePyramid([lvl.reshape(f.shape[:-2] + lvl.shape[-2:]) for lvl in (quarter, half)] + [f])


def deform_params(d: int, k: int, rng: np.random.Generator) -> DeformParams:
    """Random query/output projections (std 0.02); offset and weight predictors
    start at zero, so the untrained module is a well-defined local average."""
    levels = [
        LevelDeformParams(
            w_query=rng.normal(0.0, 0.02, size=(d, d)),
            w_offset=np.zeros((2 * k, d)),
            w_weight=np.zeros((3 * k, d)),
            w_out=rng.normal(0.0, 0.02, size=(d, d)),
        )
        for _ in range(3)
    ]
    return DeformParams(levels=levels, points=k)


def identity_deform_params(d: int, k: int) -> DeformParams:
    """All-zero predictors and output projection: the block is an exact identity."""
    levels = [
        LevelDeformParams(
            w_query=np.zeros((d, d)),
            w_offset=np.zeros((2 * k, d)),
            w_weight=np.zeros((3 * k, d)),
            w_out=np.zeros((d, d)),
        )
        for _ in range(3)
    ]
    return DeformParams(levels=levels, points=k)


def within_clip_blocks(
    d: int, k: int, n_blocks: int, rng: np.random.Generator,
    heads: int = 1, scale: float | None = None,
) -> list[WithinClipBlock]:
    """Randomly initialized stack with unshared per-block parameters."""
    return [
        WithinClipBlock(
            deform=deform_params(d, k, rng),
            attn_h=attention_params(d, rng, heads=heads, scale=scale),
            attn_w=attention_params(d, rng, heads=heads, scale=scale),
        )
        for _ in range(n_blocks)
    ]
