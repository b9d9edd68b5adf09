"""Axial-trajectory attention.

The core pass runs two attention stages over a (B, T, S, D) sequence:

* stage one attends along the S axis of every target frame separately,
  pooling values into one "trajectory point" per (reference position,
  target frame);
* stage two re-projects the trajectory points and pools them over the
  frame axis, taking the query from the same-frame point.

Axial wrappers run the pass along the height or width axis of a
(T, D, H, W) feature volume, with the other spatial axis acting as a
pure batch axis, inside a pre-norm residual: out = x + pass(norm(x)),
where `prenorm` is a layer norm with no gain or shift. Queries and values
may carry a bias; keys carry none, since a key bias shifts every score of
a softmax row by the same amount and changes no weight.

Attention reductions (softmax denominators and weighted sums) run in
ascending value order, so outputs are bitwise-equivariant under
permutations of the attended axis, the batch axis, and the frame axis.
Scores are taken from C-contiguous head-major copies of the queries and
keys, so the weights come out C-contiguous. Stage one's weighted sums are
one (B, G, T, S, U, C, R) product, sorted in place along r, its last
axis, and summed pairwise row by row (`tensor.sorted_sum`): a pass holds
one such product at a time, the 8*B*T^2*S^2*D bytes that
`STAGE_ONE_BYTES_LIMIT` bounds. The scores and the product are built in
pieces of (b, g) rows on every CPU (`tensor.split_rows`); no sum crosses
a (b, g) row, so the bits do not depend on the number of pieces, and the
whole product still goes to one `sorted_sum` call. The projections and
stage two are shared with the backward (`axialtrack.backward`), which
recomputes stage one in matrix form instead of in sorted order.

Every pass returns one array, its output. `stage_one_weights`, the only
attention state exported, gives a sequence's head-mean stage-one weights
(all that a trajectory map needs) without the product or stage two; it
shares `_stage_one_weights`, their one producer, with the pass. `_pass`
returns a pass's per-head weights beside its output, for callers that
need both.

There are no positional encodings anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ResourceGuardError
from .tensor import MacCounter, as_array, require_finite, softmax_last, sorted_sum, split_rows

LN_EPS = 1e-5

# Size guard for the undecomposed reference pass, expressed as a bound on
# T*H*W (its weight tensor grows with the square of that).
REFERENCE_CAP = 4096

# Largest float64 stage-one product, 8*B*T^2*S^2*D bytes, that a pass may
# materialise; larger inputs are refused before anything is allocated.
STAGE_ONE_BYTES_LIMIT = 2 ** 30


@dataclass
class ProjectionWeights:
    """Square query/key/value projections with optional query and value biases.

    Keys carry no bias: it would add the same q . b_k to every score of a
    softmax row, which changes no weight.
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    b_q: np.ndarray | None = None
    b_v: np.ndarray | None = None

    def validate(self, d: int) -> None:
        for name in ("w_q", "w_k", "w_v"):
            w = getattr(self, name)
            if w.shape != (d, d):
                raise DimensionError(f"{name} must be ({d}, {d}), got {w.shape}")
        for name in ("b_q", "b_v"):
            b = getattr(self, name)
            if b is not None and b.shape != (d,):
                raise DimensionError(f"{name} must have shape ({d},), got {b.shape}")


@dataclass
class AttentionParams:
    """Both projection stages plus the score scale and head count."""

    stage1: ProjectionWeights
    stage2: ProjectionWeights
    scale: float
    heads: int = 1

    def validate(self, d: int) -> None:
        if self.heads < 1 or d % self.heads != 0:
            raise DimensionError(f"heads must divide the channel count, got {self.heads} for D={d}")
        self.stage1.validate(d)
        self.stage2.validate(d)


def _project(x: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    out = np.einsum("...e,de->...d", x, w, optimize=False)
    if b is not None:
        out = out + b
    return out


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    return x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads))


def check_stage_one(shape: tuple[int, int, int, int]) -> None:
    """Refuse a (B, T, S, D) pass whose stage-one product exceeds the limit."""
    b, t, s, d = shape
    stage_one = 8 * b * t * t * s * s * d
    if stage_one > STAGE_ONE_BYTES_LIMIT:
        raise ResourceGuardError(
            f"trajectory pass refused: (B, T, S, D) = {tuple(shape)} needs a stage-one product "
            f"of {stage_one} bytes, above the limit of {STAGE_ONE_BYTES_LIMIT} bytes"
        )


def _stage_one_heads(x: np.ndarray, params: AttentionParams) -> tuple:
    """Stage-one query, key and value projections as C-contiguous head-major
    (B, G, T, S, C) arrays."""
    s1 = params.stage1
    heads = (_split_heads(_project(x, w, bias), params.heads)
             for w, bias in ((s1.w_q, s1.b_q), (s1.w_k, None), (s1.w_v, s1.b_v)))
    return tuple(np.ascontiguousarray(h.transpose(0, 3, 1, 2, 4)) for h in heads)


def _stage_two(ytil: np.ndarray, params: AttentionParams, softmax, total) -> dict:
    """Stage two: re-project the (B, T, U, S, D) points, query from the
    same-frame point, pool over frames. `softmax` normalizes a trailing axis
    and `total(a, axis=...)` sums one: the forward passes the sorted
    `softmax_last` and `sorted_sum`, the backward plain index-order ones."""
    b, t, _, s, d = ytil.shape
    g = params.heads
    s2, scale = params.stage2, params.scale
    idx = np.arange(t)
    ydiag = ytil[:, idx, idx]  # (B,T,S,D)
    qth = _split_heads(_project(ydiag, s2.w_q, s2.b_q), g)  # (B,T,S,G,C)
    kth = _split_heads(_project(ytil, s2.w_k, None), g)  # (B,T,U,S,G,C)
    vth = _split_heads(_project(ytil, s2.w_v, s2.b_v), g)
    # Head-major copies, so the (B,G,T,S,U) scores come out C-contiguous.
    q2 = np.ascontiguousarray(qth.transpose(0, 3, 1, 2, 4))  # (B,G,T,S,C)
    k2 = np.ascontiguousarray(kth.transpose(0, 4, 1, 3, 2, 5))  # (B,G,T,S,U,C)
    w2 = softmax(scale * np.einsum("bgtsc,bgtsuc->bgtsu", q2, k2, optimize=False))
    prod2 = w2[..., None] * vth.transpose(0, 4, 1, 3, 2, 5)  # (B,G,T,S,U,C)
    yh = total(prod2, axis=-2)  # (B,G,T,S,C)
    out = yh.transpose(0, 2, 3, 1, 4).reshape(b, t, s, d)
    return {"ydiag": ydiag, "qth": qth, "kth": kth, "vth": vth, "w2": w2, "out": out}


def _stage_one_weights(qh: np.ndarray, kh: np.ndarray, scale: float) -> np.ndarray:
    """C-contiguous (B, G, T, S, U, R) stage-one weights from (B, G, T, S, C)
    query and key heads. The scores are built in pieces of (b, g) rows."""
    b, g, t, s, c = qh.shape
    q, k = qh.reshape(b * g, t, s, c), kh.reshape(b * g, t, s, c)
    scores = np.empty((b * g, t, s, t, s))

    def piece(lo: int, hi: int) -> None:
        np.einsum("ntsc,nurc->ntsur", q[lo:hi], k[lo:hi], out=scores[lo:hi], optimize=False)
        scores[lo:hi] *= scale

    split_rows(piece, b * g, scores.nbytes)
    return softmax_last(scores.reshape(b, g, t, s, t, s))


def _stage_one(x: np.ndarray, params: AttentionParams) -> tuple[np.ndarray, np.ndarray]:
    """Stage one in sorted order: the per-head weights w1 and the (B, T, U, S, D)
    trajectory points, indexed by (reference frame, target frame, position)."""
    b, t, s, d = x.shape
    g = params.heads
    c = d // g
    qh, kh, vh = _stage_one_heads(x, params)
    # Per target frame u, attend over positions r. The product is the
    # largest array of the pass; it is built in pieces of (b, g) rows into
    # one C-order buffer with r last, which `sorted_sum` sorts in place row
    # by row and sums pairwise, and is freed once summed.
    w1 = _stage_one_weights(qh, kh, params.scale)
    w = w1.reshape(b * g, t, s, t, 1, s)
    vt = vh.swapaxes(-1, -2).reshape(b * g, 1, 1, t, c, s)  # (B*G,1,1,U,C,R), a copy
    prod1 = np.empty((b * g, t, s, t, c, s))  # (B*G,T,S,U,C,R)

    def piece(lo: int, hi: int) -> None:
        np.multiply(w[lo:hi], vt[lo:hi], out=prod1[lo:hi])

    split_rows(piece, b * g, prod1.nbytes)
    yt = sorted_sum(prod1.reshape(b, g, t, s, t, c, s), axis=-1)  # (B,G,T,S,U,C)
    del prod1
    return w1, yt.transpose(0, 2, 4, 3, 1, 5).reshape(b, t, t, s, d)


def _validate_sequence(seq, params: AttentionParams) -> np.ndarray:
    seq = as_array(seq)
    if seq.ndim != 4:
        raise DimensionError(f"expected a (B, T, S, D) sequence, got shape {seq.shape}")
    require_finite(seq, "trajectory attention input")
    params.validate(seq.shape[-1])
    check_stage_one(seq.shape)
    return seq


def _pass(seq, params: AttentionParams, counter: MacCounter | None = None) -> tuple:
    """The pass over a (B, T, S, D) sequence: its per-head stage-one weights
    w1, (B, G, T, S, U, R), and its output, (B, T, S, D)."""
    x = _validate_sequence(seq, params)
    d = x.shape[-1]
    c = d // params.heads
    w1, ytil = _stage_one(x, params)
    st2 = _stage_two(ytil, params, softmax_last, sorted_sum)
    if counter is not None:
        counter.add("stage1_scores", w1.size * c)
        counter.add("stage1_values", w1.size * c)
        counter.add("stage2_scores", st2["w2"].size * c)
        counter.add("stage2_values", st2["w2"].size * c)
        counter.add("proj_stage1", 3 * x.size * d)
        counter.add("proj_stage2", (x.size + 2 * ytil.size) * d)
    return w1, st2["out"]


def trajectory_pass_1d(seq, params: AttentionParams, counter: MacCounter | None = None) -> np.ndarray:
    """Two-stage trajectory attention over a (B, T, S, D) sequence; returns
    the updated sequence (same shape)."""
    return _pass(seq, params, counter)[1]


def stage_one_weights(seq, params: AttentionParams) -> np.ndarray:
    """The (B, T, S, U, R) stage-one weights of the pass over a (B, T, S, D)
    sequence, averaged over heads: for reference (t, s), the softmax over
    positions r of target frame u. Nothing of stage one's product or of
    stage two is computed."""
    x = _validate_sequence(seq, params)
    qh, kh, _ = _stage_one_heads(x, params)
    return _stage_one_weights(qh, kh, params.scale).mean(axis=1)


def _validate_clip(f: np.ndarray) -> None:
    if f.ndim != 4:
        raise DimensionError(f"expected (T, D, H, W) clip features, got shape {f.shape}")
    if min(f.shape) < 1:
        raise DimensionError(f"all clip extents must be >= 1, got {f.shape}")


# Axis -> (clip-to-sequence, sequence-to-clip) transposes. The (B, T, S, D)
# sequence attends along S, the named axis; the other spatial axis is B.
_AXES = {
    "h": ((3, 0, 2, 1), (1, 3, 2, 0)),  # (W, T, H, D)
    "w": ((2, 0, 3, 1), (1, 3, 0, 2)),  # (H, T, W, D)
}


def to_sequence(f, axis: str) -> np.ndarray:
    """Lay a (T, D, H, W) clip out as the (B, T, S, D) sequence along `axis`."""
    f = as_array(f)
    _validate_clip(f)
    return np.ascontiguousarray(f.transpose(_AXES[axis][0]))


def from_sequence(x, axis: str) -> np.ndarray:
    """Inverse of `to_sequence` (lossless round trip)."""
    return np.ascontiguousarray(as_array(x).transpose(_AXES[axis][1]))


def prenorm(x) -> np.ndarray:
    """Parameter-free layer norm over the trailing (channel) axis, with the
    population variance: (x - mean) / sqrt(var + LN_EPS). It is the residual
    pre-norm of every attention block and the norm of the temporal pyramid."""
    x = as_array(x)
    if x.ndim == 0 or x.shape[-1] < 1:
        raise DimensionError(f"layer norm needs a non-empty trailing axis, got shape {x.shape}")
    mean = x.mean(axis=-1, keepdims=True)
    var = np.square(x - mean).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LN_EPS)


def _axial_pass(f, params: AttentionParams, axis: str, counter: MacCounter | None = None):
    """Pre-norm residual pass along `axis`."""
    f = as_array(f)
    y = trajectory_pass_1d(prenorm(to_sequence(f, axis)), params, counter=counter)
    return f + from_sequence(y, axis)


def axial_trajectory_h(f, params: AttentionParams, *, counter: MacCounter | None = None):
    """Trajectory pass along the height axis with width as batch, pre-norm residual."""
    return _axial_pass(f, params, "h", counter)


def axial_trajectory_w(f, params: AttentionParams, *, counter: MacCounter | None = None):
    """Trajectory pass along the width axis with height as batch, pre-norm residual."""
    return _axial_pass(f, params, "w", counter)


def full_trajectory_reference(
    f, params: AttentionParams, *, counter: MacCounter | None = None
) -> np.ndarray:
    """Undecomposed trajectory attention over the joint H*W axis.

    Stage one attends over all H*W positions of each target frame, so the
    cost grows with (T*H*W)^2; inputs with T*H*W above `REFERENCE_CAP` are
    refused.
    """
    f = as_array(f)
    _validate_clip(f)
    t, d, h, w = f.shape
    if t * h * w > REFERENCE_CAP:
        raise ResourceGuardError(
            f"reference pass refused: T*H*W = {t * h * w} exceeds cap {REFERENCE_CAP}"
        )
    x = np.ascontiguousarray(f.transpose(0, 2, 3, 1).reshape(1, t, h * w, d))
    y = trajectory_pass_1d(prenorm(x), params, counter=counter)
    return f + y.reshape(t, h, w, d).transpose(0, 3, 1, 2)


def projection_weights(
    d: int, rng: np.random.Generator, std: float = 0.02, bias: bool = False
) -> ProjectionWeights:
    """Gaussian-initialized projections (query and value biases optional)."""
    def mat() -> np.ndarray:
        return rng.normal(0.0, std, size=(d, d))

    def vec() -> np.ndarray | None:
        return rng.normal(0.0, std, size=d) if bias else None

    return ProjectionWeights(mat(), mat(), mat(), vec(), vec())


def attention_params(
    d: int,
    rng: np.random.Generator,
    heads: int = 1,
    scale: float | None = None,
    std: float = 0.02,
    bias: bool = False,
) -> AttentionParams:
    """Random attention parameters; scale defaults to 1/sqrt(D)."""
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    return AttentionParams(
        stage1=projection_weights(d, rng, std, bias),
        stage2=projection_weights(d, rng, std, bias),
        scale=float(scale),
        heads=heads,
    )


def passthrough_attention_params(d: int, scale: float | None = None) -> AttentionParams:
    """Identity stage-one projections with a zero stage-two value projection.

    The residual pass then returns its input unchanged while still
    producing informative stage-one weights, which is what the oracle
    pipeline and the heatmap dumps rely on.
    """
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    eye = np.eye(d)
    return AttentionParams(
        stage1=ProjectionWeights(eye.copy(), eye.copy(), eye.copy()),
        stage2=ProjectionWeights(eye.copy(), eye.copy(), np.zeros((d, d))),
        scale=float(scale),
        heads=1,
    )
