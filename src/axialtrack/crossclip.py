"""Cross-clip tracking over aligned clip queries.

The (K, N, D) query tensor is refined by blocks of trajectory attention
(clip index as the frame axis, query index as the attended axis) and a
temporal pyramid of dilated convolutions with a parameter-free layer
norm; a clip-mean class head and whole-video mask multiplication produce
the offline prediction. The aligned queries are each clip's queries
gathered in track order by the rows of a `LinkedVideo`, the same link
that the near-online mode reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import AttentionParams, attention_params, prenorm, trajectory_pass_1d
from .errors import ConfigError, DimensionError
from .segmenter import PipelineParams, Tube, as_linked, stacked_tubes
from .tensor import as_array, atrous_conv1d, logistic, require_finite, softmax_last


def _validate_query_tensor(z: np.ndarray) -> None:
    if z.ndim != 3:
        raise DimensionError(f"expected an aligned (K, N, D) query tensor, got {z.shape}")
    require_finite(z, "query tensor")


@dataclass
class AsppParams:
    """Three dilated temporal branches and a fusing projection (the layer
    norm after it has no parameters)."""

    kernels: list[np.ndarray]      # three (taps, D, D) stacks
    rates: tuple[int, int, int]
    fuse: np.ndarray               # (D, D)

    def validate(self, d: int) -> None:
        if len(self.kernels) != 3 or len(self.rates) != 3:
            raise ConfigError("temporal pyramid needs exactly three branches")
        if not (0 < self.rates[0] < self.rates[1] < self.rates[2]):
            raise ConfigError(f"rates must be strictly increasing positive, got {self.rates}")
        for kern in self.kernels:
            if kern.ndim != 3 or kern.shape[1:] != (d, d):
                raise DimensionError(f"branch kernels must be (taps, {d}, {d}), got {kern.shape}")
        if self.fuse.shape != (d, d):
            raise DimensionError(f"fusion projection must be ({d}, {d}), got {self.fuse.shape}")


@dataclass
class CrossClipBlock:
    attn: AttentionParams
    aspp: AsppParams


def query_trajectory_attention(z, params: AttentionParams) -> np.ndarray:
    """Trajectory attention over clips (frame axis = clip index, attended
    axis = query index), pre-norm residual; shape preserved."""
    z = as_array(z)
    _validate_query_tensor(z)
    return z + trajectory_pass_1d(prenorm(z[None]), params)[0]


def temporal_aspp(z, params: AsppParams) -> np.ndarray:
    """Per track: sum the three dilated convolutions over the clip axis,
    fuse with a 1x1 projection, layer-norm, and add the input."""
    z = as_array(z)
    _validate_query_tensor(z)
    params.validate(z.shape[2])
    branch_sum = atrous_conv1d(z, params.kernels[0], params.rates[0])
    branch_sum += atrous_conv1d(z, params.kernels[1], params.rates[1])
    branch_sum += atrous_conv1d(z, params.kernels[2], params.rates[2])
    fused = np.einsum("kne,de->knd", branch_sum, params.fuse, optimize=False)
    return z + prenorm(fused)


def cross_clip_forward(z, blocks: list[CrossClipBlock]) -> np.ndarray:
    """Stack attention and temporal pyramid blocks; zero blocks is the identity."""
    z = as_array(z)
    _validate_query_tensor(z)
    for blk in blocks:
        z = query_trajectory_attention(z, blk.attn)
        z = temporal_aspp(z, blk.aspp)
    return z


def temporal_class_head(z, class_head) -> np.ndarray:
    """Per-clip class logits averaged across clips and softmaxed per track.
    Returns (N, C)."""
    z = as_array(z)
    class_head = as_array(class_head)
    _validate_query_tensor(z)
    if class_head.shape[0] != z.shape[2]:
        raise DimensionError(
            f"class head rows {class_head.shape[0]} != query channels {z.shape[2]}"
        )
    return softmax_last(np.einsum("knd,dc->knc", z, class_head, optimize=False).mean(axis=0))


def offline_inference(video, params: PipelineParams) -> list[Tube]:
    """Whole-video inference from cross-clip-refined queries, from frames or
    from their `LinkedVideo`.

    The link's rows put each clip's queries in track order; after
    refinement, each clip's queries multiply that clip's features, and the
    per-clip masks concatenate into span-L tubes (padding frames drop off).
    Classes come from the clip-mean class head.
    """
    linked = as_linked(video, params)
    runs, rows = linked.runs, linked.rows
    z = cross_clip_forward(runs.queries[np.arange(len(rows))[:, None], rows], params.cross_blocks)
    probs = temporal_class_head(z, params.class_head)
    logits = np.einsum("knd,ktdhw->nkthw", z, runs.features, optimize=False)
    return stacked_tubes(logistic(logits), probs, runs.length)


def aspp_params(d: int, rng: np.random.Generator, rates: tuple[int, int, int] = (1, 2, 3)) -> AsppParams:
    """Random three-tap branch kernels and fusion projection (std 0.02)."""
    return AsppParams(
        kernels=[rng.normal(0.0, 0.02, size=(3, d, d)) for _ in range(3)],
        rates=rates,
        fuse=rng.normal(0.0, 0.02, size=(d, d)),
    )


def identity_aspp_params(d: int, rates: tuple[int, int, int] = (1, 2, 3)) -> AsppParams:
    """Zero fusion makes the block an exact identity: the norm of a zero row is zero."""
    return AsppParams(
        kernels=[np.zeros((3, d, d)) for _ in range(3)],
        rates=rates,
        fuse=np.zeros((d, d)),
    )


def cross_clip_blocks(
    d: int,
    n_blocks: int,
    rng: np.random.Generator,
    rates: tuple[int, int, int] = (1, 2, 3),
    heads: int = 1,
    scale: float | None = None,
) -> list[CrossClipBlock]:
    return [
        CrossClipBlock(
            attn=attention_params(d, rng, heads=heads, scale=scale),
            aspp=aspp_params(d, rng, rates),
        )
        for _ in range(n_blocks)
    ]
