"""Synthetic videos with exact ground truth, and the oracle parameter set.

Videos contain axis-aligned rectangles, one one-hot color channel each,
translating at constant integer velocity without ever overlapping. The
oracle parameters make every refinement block an exact identity and set
each query to ten times an object's color, so mask logits are +10 on the
object and 0 elsewhere and the pipeline segments the video perfectly
without any training.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .attention import AttentionParams, passthrough_attention_params
from .config import ModelConfig
from .crossclip import CrossClipBlock, cross_clip_blocks, identity_aspp_params
from .deform import WithinClipBlock, identity_deform_params, within_clip_blocks
from .errors import ConfigError, GenerationError
from .metrics import GroundTruthSet
from .segmenter import PipelineParams, Tube, decoder_params, identity_decoder_params

_MAX_RESTARTS = 1000


@dataclass(frozen=True)
class SyntheticVideoSpec:
    """Rectangle sizes (h, w), per-frame velocities (dy, dx), and color
    channel ids, one entry per object."""

    sizes: tuple[tuple[int, int], ...]
    velocities: tuple[tuple[int, int], ...]
    colors: tuple[int, ...]
    length: int
    height: int
    width: int
    channels: int
    seed: int

    def __post_init__(self) -> None:
        if not (len(self.sizes) == len(self.velocities) == len(self.colors)):
            raise ConfigError("sizes, velocities, and colors must have one entry per object")
        if self.length < 1 or self.height < 1 or self.width < 1:
            raise ConfigError("video extents must be >= 1")
        if self.channels <= max(self.colors, default=-1):
            raise ConfigError("channel count must exceed every color id")

    @property
    def n_objects(self) -> int:
        return len(self.sizes)


def _start_range(extent: int, size: int, vel: int, length: int) -> tuple[int, int]:
    # Positions p + f*vel must stay in [0, extent - size] for all frames.
    travel = (length - 1) * vel
    lo = max(0, -travel)
    hi = extent - size - max(0, travel)
    return lo, hi


def generate_synthetic(spec: SyntheticVideoSpec) -> tuple[np.ndarray, GroundTruthSet]:
    """Draw start positions (seeded), rejecting layouts that overlap at any
    frame; returns the (L, channels, H, W) video and exact binary tubes."""
    rng = np.random.default_rng(spec.seed)
    ranges = []
    for (sh, sw), (dy, dx) in zip(spec.sizes, spec.velocities):
        ylo, yhi = _start_range(spec.height, sh, dy, spec.length)
        xlo, xhi = _start_range(spec.width, sw, dx, spec.length)
        if ylo > yhi or xlo > xhi:
            sweep = (sh + (spec.length - 1) * abs(dy), sw + (spec.length - 1) * abs(dx))
            raise GenerationError(
                f"object of size ({sh}, {sw}) with velocity ({dy}, {dx}) sweeps {sweep} over "
                f"l={spec.length} frames, which does not fit the {spec.height}x{spec.width} frame"
            )
        ranges.append((ylo, yhi, xlo, xhi))

    for _ in range(_MAX_RESTARTS):
        starts = [
            (int(rng.integers(ylo, yhi + 1)), int(rng.integers(xlo, xhi + 1)))
            for ylo, yhi, xlo, xhi in ranges
        ]
        gt_masks = []
        occupied = np.zeros((spec.length, spec.height, spec.width), dtype=bool)
        ok = True
        for (sh, sw), (dy, dx), (y0, x0) in zip(spec.sizes, spec.velocities, starts):
            mask = np.zeros_like(occupied)
            for f in range(spec.length):
                y, x = y0 + f * dy, x0 + f * dx
                mask[f, y:y + sh, x:x + sw] = True
            if np.any(occupied & mask):
                ok = False
                break
            occupied |= mask
            gt_masks.append(mask)
        if not ok:
            continue

        video = np.zeros((spec.length, spec.channels, spec.height, spec.width))
        tubes = []
        for i, (mask, color) in enumerate(zip(gt_masks, spec.colors)):
            video[:, color][mask] = 1.0
            probs = np.zeros(max(spec.colors) + 1)
            probs[color] = 1.0
            tubes.append(Tube(mask.astype(np.float64), probs, track_id=i))
        return video, GroundTruthSet(tubes, list(spec.colors))

    raise GenerationError(
        f"no non-overlapping layout found after {_MAX_RESTARTS} attempts"
    )


def demo_video_spec(cfg: ModelConfig, n_objects: int = 3) -> SyntheticVideoSpec:
    """Moving rectangles elongated along their travel direction.

    The elongation keeps most reference points on an object's row or
    column at the neighbouring frame, which the trajectory-heatmap checks
    rely on.
    """
    if n_objects < 1:
        raise ConfigError(f"the demo video needs at least one object, got {n_objects}")
    if n_objects > cfg.d:
        raise ConfigError(
            f"the demo video draws each object in its own channel: {n_objects} objects need "
            f"d >= {n_objects}, got d = {cfg.d}"
        )
    thick = max(1, cfg.h // 4)
    long_w = max(2, 3 * cfg.w // 8)
    long_h = max(2, 3 * cfg.h // 8)
    patterns = [
        ((thick, long_w), (0, 1)),
        ((long_h, thick), (1, 0)),
        ((thick, long_w), (0, -1)),
        ((long_h, thick), (-1, 0)),
    ]
    sizes = []
    velocities = []
    for i in range(n_objects):
        size, vel = patterns[i % len(patterns)]
        sizes.append(size)
        velocities.append(vel)
    return SyntheticVideoSpec(
        sizes=tuple(sizes),
        velocities=tuple(velocities),
        colors=tuple(range(n_objects)),
        length=cfg.l,
        height=cfg.h,
        width=cfg.w,
        channels=cfg.d,
        seed=cfg.seed,
    )


def build_oracle_params(spec: SyntheticVideoSpec, cfg: ModelConfig) -> PipelineParams:
    """Identity backbone and refinement with color-matched queries.

    Every within-clip, decoder, and cross-clip block passes features and
    queries through unchanged (while still computing real attention
    weights, with the config's heads), query i is 10 * e_color(i), and the class head maps channel
    c to class c. Mask logits on a one-hot video are then exactly +10 on
    an object and 0 off it.
    """
    if cfg.d < spec.channels:
        raise ConfigError(f"d = {cfg.d} cannot carry {spec.channels} color channels")
    if cfg.n < spec.n_objects:
        raise ConfigError(f"n = {cfg.n} queries cannot cover {spec.n_objects} objects")
    if cfg.c <= max(spec.colors):
        raise ConfigError(f"c = {cfg.c} classes cannot include color id {max(spec.colors)}")

    queries = np.zeros((cfg.n, cfg.d))
    for i, color in enumerate(spec.colors):
        queries[i, color] = 10.0

    class_head = np.zeros((cfg.d, cfg.c))
    for j in range(min(cfg.d, cfg.c)):
        class_head[j, j] = 1.0

    scale = cfg.scale()

    def passthrough() -> AttentionParams:
        return replace(passthrough_attention_params(cfg.d, scale), heads=cfg.heads)

    within = [
        WithinClipBlock(
            deform=identity_deform_params(cfg.d, cfg.k_sample),
            attn_h=passthrough(),
            attn_w=passthrough(),
        )
        for _ in range(cfg.n_w)
    ]
    cross = [
        CrossClipBlock(
            attn=passthrough(),
            aspp=identity_aspp_params(cfg.d, cfg.atrous_rates),
        )
        for _ in range(cfg.n_c)
    ]
    return PipelineParams(
        clip_len=cfg.t,
        init_queries=queries,
        class_head=class_head,
        decoder=identity_decoder_params(cfg.d, scale=scale),
        within_blocks=within,
        cross_blocks=cross,
    )


def random_pipeline_params(cfg: ModelConfig) -> PipelineParams:
    """Seeded random initialization of the whole parameter bundle."""
    rng = np.random.default_rng(cfg.seed)
    scale = cfg.scale()
    return PipelineParams(
        clip_len=cfg.t,
        init_queries=rng.normal(0.0, 0.02, size=(cfg.n, cfg.d)),
        class_head=rng.normal(0.0, 0.02, size=(cfg.d, cfg.c)),
        decoder=decoder_params(cfg.d, rng, scale=scale),
        within_blocks=within_clip_blocks(cfg.d, cfg.k_sample, cfg.n_w, rng, cfg.heads, scale),
        cross_blocks=cross_clip_blocks(cfg.d, cfg.n_c, rng, cfg.atrous_rates, cfg.heads, scale),
    )
