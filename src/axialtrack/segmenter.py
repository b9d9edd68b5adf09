"""Clip-level segmentation: query decoding, tube prediction, and the
near-online (clip-by-clip) inference chain.

A toy transformer decoder refines per-clip object queries against the
finest pyramid level; each refined query produces one mask tube and one
class distribution. `run_clips` runs every clip of a video once: one
`deform.within_clip_forward` call per group of consecutive clips, a
`(g, T, D, H, W)` view of the (padded) video with g from
`config.clip_group`, writes the group's finest level into one
`(K, T, D, H, W)` features array, and `run_clip` then decodes each clip
from its slice into row k of stacked `(K, N, ...)` query, mask and class
arrays. No sum crosses a clip, so the group size never changes a bit. With
no within-clip block one group holds every clip, nothing mixes and no
pyramid is built: the features are the clip stack itself.
`link_video` links consecutive clips of those runs by minimum-cost
assignment on query cosine similarity, which keeps track ids stable
across the video. A link holds only the runs and each clip's track rows,
so one link serves both the near-online and the offline mode, and each
mode gathers the arrays it reads by those rows with one index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assignment import Assignment, hungarian
from .attention import ProjectionWeights, _project, prenorm, projection_weights
from .config import ModelConfig, clip_group
from .deform import WithinClipBlock, within_clip_forward
from .errors import ConfigError, DimensionError
from .tensor import as_array, logistic, require_finite, softmax_last

# A mask value counts as foreground when it exceeds this.
MASK_THRESHOLD = 0.5
# Layers of every decoder stack the pipeline builds.
DECODER_LAYERS = 3


@dataclass
class Tube:
    """Per-object mask sequence plus a class distribution."""

    masks: np.ndarray       # (span, H, W), values in [0, 1]
    class_probs: np.ndarray  # (C,), sums to 1
    track_id: int

    def validate(self) -> None:
        if self.masks.ndim != 3:
            raise DimensionError(f"tube masks must be (span, H, W), got {self.masks.shape}")
        require_finite(self.masks, "tube masks")
        require_finite(self.class_probs, "tube class probabilities")
        if np.any(self.masks < 0) or np.any(self.masks > 1):
            raise DimensionError("tube mask values must lie in [0, 1]")
        if abs(float(self.class_probs.sum()) - 1.0) > 1e-9:
            raise DimensionError("class probabilities must sum to 1")

    def binarized(self) -> np.ndarray:
        return self.masks > MASK_THRESHOLD


def split_into_clips(video, t: int) -> np.ndarray:
    """Split (L, D, H, W) frames into ceil(L / t) non-overlapping clips: a
    (K, t, D, H, W) view of the frames, or of one padded copy when t does
    not divide L, where the last frame is duplicated to fill the final
    clip. Clip length must be at least 2."""
    video = as_array(video)
    if video.ndim != 4 or video.shape[0] < 1:
        raise DimensionError(f"video must be (L, D, H, W) with L >= 1, got {video.shape}")
    if t < 2:
        raise ConfigError(f"clip length must be >= 2, got {t}")
    length = video.shape[0]
    n_clips = -(-length // t)
    padded = video
    if n_clips * t != length:
        tail = np.repeat(video[-1:], n_clips * t - length, axis=0)
        padded = np.concatenate([video, tail], axis=0)
    return padded.reshape((n_clips, t) + video.shape[1:])


@dataclass
class DecoderLayerParams:
    cross: ProjectionWeights
    self_attn: ProjectionWeights
    ffn_w1: np.ndarray  # (hidden, D)
    ffn_w2: np.ndarray  # (D, hidden)
    scale: float


def _attend(q: np.ndarray, keys: np.ndarray, proj: ProjectionWeights, scale: float) -> np.ndarray:
    qq = _project(q, proj.w_q)
    kk = _project(keys, proj.w_k)
    vv = _project(keys, proj.w_v)
    weights = softmax_last(scale * np.einsum("nd,pd->np", qq, kk, optimize=False))
    return np.einsum("np,pd->nd", weights, vv, optimize=False)


def _check_queries(queries) -> np.ndarray:
    """`queries` as an (N, D) array with N >= 1 and finite values."""
    queries = as_array(queries)
    if queries.ndim != 2 or queries.shape[0] < 1:
        raise DimensionError(f"queries must be (N, D) with N >= 1, got {queries.shape}")
    require_finite(queries, "clip queries")
    return queries


def _check_clip(queries, f) -> tuple[np.ndarray, np.ndarray]:
    """Checked (N, D) queries and (T, D, H, W) clip features of equal D."""
    q, f = _check_queries(queries), as_array(f)
    if f.ndim != 4:
        raise DimensionError(f"clip features must be (T, D, H, W), got {f.shape}")
    if f.shape[1] != q.shape[1]:
        raise DimensionError(f"feature channels {f.shape[1]} != query channels {q.shape[1]}")
    return q, f


def decode_clip_queries(f, init, decoder: list[DecoderLayerParams]) -> np.ndarray:
    """Refine (N, D) queries with pre-norm cross-attention, self-attention,
    and a two-layer feed-forward per decoder layer; zero layers return the
    input."""
    q, f = _check_clip(init, f)
    feats = f.transpose(0, 2, 3, 1).reshape(-1, q.shape[1])
    for layer in decoder:
        q = q + _attend(prenorm(q), feats, layer.cross, layer.scale)
        qn = prenorm(q)
        q = q + _attend(qn, qn, layer.self_attn, layer.scale)
        hidden = np.maximum(0.0, np.einsum("ne,he->nh", prenorm(q), layer.ffn_w1, optimize=False))
        q = q + np.einsum("nh,dh->nd", hidden, layer.ffn_w2, optimize=False)
    return q


def predict_clip_tubes(queries, f, class_head) -> tuple[np.ndarray, np.ndarray]:
    """(N, T, H, W) masks and (N, C) class distributions, one row per (N, D)
    query: per-pixel dot-product mask logits through a logistic, class
    logits through the (D, C) head and a softmax."""
    q, f = _check_clip(queries, f)
    class_head = as_array(class_head)
    if class_head.ndim != 2 or class_head.shape[0] != q.shape[1]:
        raise DimensionError(f"class head must be (D, C) with D = {q.shape[1]}, got {class_head.shape}")
    logits = np.einsum("nd,tdhw->nthw", q, f, optimize=False)
    probs = softmax_last(np.einsum("nd,dc->nc", q, class_head, optimize=False))
    return logistic(logits), probs


def associate_clips(prev, nxt) -> Assignment:
    """Match the (N, D) queries of consecutive clips by maximal cosine
    similarity.

    A zero-norm query is treated as orthogonal to everything (cosine 0).
    """
    a, b = _check_queries(prev), _check_queries(nxt)
    if a.shape != b.shape:
        raise DimensionError(f"query sets must match, got {a.shape} and {b.shape}")
    dots = np.einsum("nd,md->nm", a, b, optimize=False)
    na = np.sqrt(np.einsum("nd,nd->n", a, a, optimize=False))
    nb = np.sqrt(np.einsum("md,md->m", b, b, optimize=False))
    denom = na[:, None] * nb[None, :]
    cos = np.where(denom > 0, dots / np.where(denom > 0, denom, 1.0), 0.0)
    return hungarian(-cos)


@dataclass
class PipelineParams:
    """Everything inference needs besides the video itself."""

    clip_len: int
    init_queries: np.ndarray    # (N, D)
    class_head: np.ndarray      # (D, C)
    decoder: list[DecoderLayerParams]
    within_blocks: list[WithinClipBlock]
    cross_blocks: list = field(default_factory=list)


def run_clip(features, params: PipelineParams, clip_index: int) -> tuple[np.ndarray, ...]:
    """(N, D) decoded queries, (N, T, H, W) masks and (N, C) class
    distributions of clip `clip_index`, from the (K, T, D, H, W) finest-level
    features after within-clip mixing."""
    f = features[clip_index]
    queries = decode_clip_queries(f, params.init_queries, params.decoder)
    return (queries, *predict_clip_tubes(queries, f, params.class_head))


@dataclass
class ClipRuns:
    """Every clip's outputs stacked in clip order; each link of the video reads them."""

    queries: np.ndarray      # (K, N, D)
    masks: np.ndarray        # (K, N, T, H, W)
    class_probs: np.ndarray  # (K, N, C)
    features: np.ndarray     # (K, T, D, H, W) finest level after within-clip mixing
    length: int  # original frame count, before padding


def _group_size(video: np.ndarray, params: PipelineParams) -> int:
    """`config.clip_group` of the config that the (L, D, H, W) video's shape
    and the parameters' arrays describe (the most heads of any axial pass)."""
    l, d, h, w = video.shape
    blocks = params.within_blocks
    cfg = ModelConfig(
        l=l, t=params.clip_len, h=h, w=w, d=d, n=params.init_queries.shape[0],
        c=params.class_head.shape[1], n_w=len(blocks), n_c=len(params.cross_blocks),
        k_sample=blocks[0].deform.points if blocks else 1,
        heads=max((attn.heads for blk in blocks for attn in (blk.attn_h, blk.attn_w)), default=1),
    )
    return clip_group(cfg)


def run_clips(video, params: PipelineParams) -> ClipRuns:
    """Run every clip of an (L, D, H, W) video once: within-clip mixing per
    group of consecutive clips into one features array, then each clip's
    decoding and tubes."""
    video = as_array(video)
    clips = split_into_clips(video, params.clip_len)
    g = _group_size(video, params)
    if g >= len(clips):  # with no within-clip block, the clip stack itself
        features = within_clip_forward(clips, params.within_blocks)
    else:
        features = np.empty(clips.shape)
        for lo in range(0, len(clips), g):
            features[lo:lo + g] = within_clip_forward(clips[lo:lo + g], params.within_blocks)
    k_clips, t, _, h, w = features.shape
    n, d = params.init_queries.shape
    queries, masks = np.empty((k_clips, n, d)), np.empty((k_clips, n, t, h, w))
    class_probs = np.empty((k_clips, n, params.class_head.shape[1]))
    for k in range(k_clips):
        queries[k], masks[k], class_probs[k] = run_clip(features, params, k)
    return ClipRuns(queries, masks, class_probs, features, video.shape[0])


@dataclass
class LinkedVideo:
    """Clip runs plus the track order that linking chose for them."""

    runs: ClipRuns
    rows: np.ndarray  # (K, N) int: rows[k, i] is the row of clip k's runs that continues track i


def link_video(runs: ClipRuns, *, shuffle_rng=None) -> LinkedVideo:
    """Chain assignments left to right; each mode gathers what it reads by
    the returned rows.

    With `shuffle_rng`, each clip after the first is offered to association
    in a random query order, which linking must undo; the runs themselves
    are only read.
    """
    queries = runs.queries
    n = queries.shape[1]
    rows = [np.arange(n)]
    for k in range(1, len(queries)):
        perm = np.arange(n) if shuffle_rng is None else shuffle_rng.permutation(n)
        assign = associate_clips(queries[k - 1][rows[-1]], queries[k][perm])
        rows.append(perm[[j for _, j in assign.pairs]])
    return LinkedVideo(runs, np.stack(rows))


def as_linked(video, params: PipelineParams) -> LinkedVideo:
    """`video` itself when it is a `LinkedVideo` already, else its frames' link."""
    return video if isinstance(video, LinkedVideo) else link_video(run_clips(video, params))


def stacked_tubes(masks: np.ndarray, class_probs: np.ndarray, length: int) -> list[Tube]:
    """Span-`length` tubes from (N, K, T, H, W) clip masks and (N, C) class
    distributions: each track's clips run end to end, padding frames drop off."""
    n, k, t, h, w = masks.shape
    spans = masks.reshape(n, k * t, h, w)[:, :length]
    return [Tube(spans[i], class_probs[i], track_id=i) for i in range(n)]


def near_online_inference(video, params: PipelineParams) -> list[Tube]:
    """Clip-by-clip inference chained by query association, from frames or
    from their `LinkedVideo`; a track's class distribution is the mean of its
    per-clip ones."""
    linked = as_linked(video, params)
    runs, rows = linked.runs, linked.rows
    # One gather puts each track's clips into a C-order (N, K, ...) array; the
    # class mean's summation order follows that layout.
    clips = np.arange(len(rows))
    return stacked_tubes(runs.masks[clips, rows.T], runs.class_probs[clips, rows.T].mean(axis=1),
                         runs.length)


def decoder_params(
    d: int,
    rng: np.random.Generator,
    n_layers: int = DECODER_LAYERS,
    scale: float | None = None,
    std: float = 0.02,
) -> list[DecoderLayerParams]:
    """Randomly initialized decoder stack with a 4 * D feed-forward hidden width."""
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    return [
        DecoderLayerParams(
            cross=projection_weights(d, rng, std),
            self_attn=projection_weights(d, rng, std),
            ffn_w1=rng.normal(0.0, std, size=(4 * d, d)),
            ffn_w2=rng.normal(0.0, std, size=(d, 4 * d)),
            scale=float(scale),
        )
        for _ in range(n_layers)
    ]


def identity_decoder_params(d: int, scale: float | None = None) -> list[DecoderLayerParams]:
    """Layers whose value/output paths are zero: queries pass through unchanged."""
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    eye = np.eye(d)
    return [
        DecoderLayerParams(
            cross=ProjectionWeights(eye.copy(), eye.copy(), np.zeros((d, d))),
            self_attn=ProjectionWeights(eye.copy(), eye.copy(), np.zeros((d, d))),
            ffn_w1=np.zeros((4 * d, d)),
            ffn_w2=np.zeros((d, 4 * d)),
            scale=float(scale),
        )
        for _ in range(DECODER_LAYERS)
    ]
