"""Axial-trajectory attention.

The core pass runs two attention stages over a (B, T, S, D) sequence:

* stage one attends along the S axis of every target frame separately,
  pooling values into one "trajectory point" per (reference position,
  target frame);
* stage two re-projects the trajectory points and pools them over the
  frame axis, taking the query from the same-frame point.

Axial wrappers run the pass along the height or width axis of a
(..., T, D, H, W) feature volume, with the other spatial axis and any
leading axes (a stack of clips) folded into one pure batch axis, inside a
pre-norm residual: out = x + pass(norm(x)),
where `prenorm` is a layer norm with no gain or shift. The query, key
and value projections are plain matrices with no bias.

Attention reductions (softmax denominators and weighted sums) run in
ascending value order, so outputs are bitwise-equivariant under
permutations of the attended axis, the batch axis, and the frame axis.
Scores are taken from C-contiguous head-major copies of the queries and
keys, so the weights come out C-contiguous. Stage one's weighted sums are
one (B, G, T, S, U, C, R) product, sorted in place along r, its last
axis, and summed pairwise row by row (`tensor.sorted_sum`). That product
and its blocks' scratch are a pass's footprint, and its one size rule: a
pass, the reference's too, refuses a footprint above `errors.MEMORY_LIMIT`.

Stage one's weights are never held whole. Pieces of b rows run on every
CPU (`tensor.split_rows`) and walk their (b, g) rows in blocks that fit a
scratch shared among them, of at most `tensor.SCRATCH_BYTES` at any
accepted shape (`_stage_one_blocks`): whole (b, g) rows where two fit,
else tiles of a row's T*S query rows (t, s). Each block's scores are
built, scaled, checked finite and normalized there by the row kernel of
`softmax_last`, then multiplied into the block's rows of the product.
No sum crosses a query row, so the bits depend neither on the number of
pieces nor on the block or tile size (Rabe and Staats, "Self-attention
does not need O(n^2) memory", arXiv 2112.05682), and the whole product
still goes to one `sorted_sum` call. The head layout and stage two are
shared with the backward (`axialtrack.backward`), which projects on BLAS
and recomputes stage one in matrix form instead of in sorted order.

Every pass returns one array, its output. `stage_one_weights`, the only
attention state exported, gives a sequence's head-mean stage-one rows at
chosen references (a trajectory map needs two) without the product or
stage two: the pass's block producer feeds it, and it head-means each
block at the references whose query rows it holds, so the rows equal the
pass's by construction.

There are no positional encodings anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, check_memory
from .tensor import (
    SCRATCH_BYTES, MacCounter, _softmax_rows, as_array, require_finite, scratch_rows, softmax_last, sorted_sum,
    split_rows,
)

LN_EPS = 1e-5


@dataclass
class ProjectionWeights:
    """Square query, key and value projections, with no bias. A projection's
    gradient has the same three fields."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray

    def validate(self, d: int) -> None:
        for name in ("w_q", "w_k", "w_v"):
            w = getattr(self, name)
            if w.shape != (d, d):
                raise DimensionError(f"{name} must be ({d}, {d}), got {w.shape}")


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


def _project(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.einsum("...e,de->...d", x, w, optimize=False)


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    return x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads))


def stage_one_bytes(shape: tuple[int, int, int, int]) -> int:
    """Float64 bytes of a (B, T, S, D) pass's stage-one product, 8*B*T^2*S^2*D."""
    b, t, s, d = shape
    return 8 * b * t * t * s * s * d


def stage_one_scratch_bytes(shape: tuple[int, int, int, int], heads: int) -> int:
    """Float64 bytes of the scratch that a (B, T, S, D) pass's stage one
    shares among its pieces (`_stage_one_blocks`): at most
    `tensor.SCRATCH_BYTES` at any shape that `check_stage_one` accepts."""
    b, t, s, _ = shape
    slots, per_slot = _stage_one_scratch(b * heads, t, s)
    return 8 * slots * per_slot * (2 * t * s + t)


def _stage_one_scratch(rows: int, t: int, s: int) -> tuple[int, int]:
    """(slots, query rows per slot) of stage one's scratch for `rows` (b, g)
    rows of T*S query rows each. A query row holds its (U, R) weights, their
    sort buffer and its T softmax denominators, 2*T*S + T values. Where two
    whole (b, g) rows fit in `tensor.SCRATCH_BYTES`, a slot holds one, and
    there are `tensor.scratch_rows` of at most half the rows, so that a
    small pass, whose one block would hold all its weights twice (with their
    sort buffer), holds no more than its whole weights. Elsewhere there are
    two slots of the most query rows that fit, or one slot of one query row
    where two do not."""
    query_rows, row = t * s, 2 * t * s + t
    if 16 * query_rows * row <= SCRATCH_BYTES:
        return scratch_rows(-(-rows // 2), query_rows * row), query_rows
    tile = SCRATCH_BYTES // (16 * row)
    return (2, tile) if tile else (1, 1)


def stage_one_footprint(shape: tuple[int, int, int, int], heads: int) -> tuple[int, str]:
    """Bytes of a (B, T, S, D) pass's stage-one product and block scratch,
    and what they hold: the product plus at most `tensor.SCRATCH_BYTES`."""
    product, scratch = stage_one_bytes(shape), stage_one_scratch_bytes(shape, heads)
    return product + scratch, (f"stage-one footprint ({product} of stage-one product, "
                              f"{scratch} of block scratch)")


def check_stage_one(shape: tuple[int, int, int, int], heads: int) -> None:
    """Refuse a (B, T, S, D) pass whose stage-one footprint exceeds the memory limit."""
    shape = tuple(shape)
    check_memory("trajectory pass", f"(B, T, S, D) = {shape}", *stage_one_footprint(shape, heads))


def _stage_one_heads(x: np.ndarray, params: AttentionParams, project) -> tuple:
    """Stage-one query, key and value projections, `project(x, w)` = x @ w^T,
    as C-contiguous head-major (B, G, T, S, C) arrays."""
    s1 = params.stage1
    heads = (_split_heads(project(x, w), params.heads) for w in (s1.w_q, s1.w_k, s1.w_v))
    return tuple(np.ascontiguousarray(h.transpose(0, 3, 1, 2, 4)) for h in heads)


def _stage_two(ytil: np.ndarray, params: AttentionParams, softmax, total, project) -> dict:
    """Stage two: re-project the (B, T, U, S, D) points, query from the
    same-frame point, pool over frames. `softmax` normalizes a trailing axis,
    `total(a, axis=...)` sums one and `project` is as in `_stage_one_heads`:
    the forward passes the sorted `softmax_last` and `sorted_sum` and the
    einsum `_project`, the backward index-order ones and BLAS `matmul`."""
    b, t, _, s, d = ytil.shape
    g = params.heads
    s2, scale = params.stage2, params.scale
    idx = np.arange(t)
    ydiag = ytil[:, idx, idx]  # (B,T,S,D)
    qth = _split_heads(project(ydiag, s2.w_q), g)  # (B,T,S,G,C)
    kth = _split_heads(project(ytil, s2.w_k), g)  # (B,T,U,S,G,C)
    vth = _split_heads(project(ytil, s2.w_v), g)
    # Head-major copies, so the (B,G,T,S,U) scores come out C-contiguous.
    q2 = np.ascontiguousarray(qth.transpose(0, 3, 1, 2, 4))  # (B,G,T,S,C)
    k2 = np.ascontiguousarray(kth.transpose(0, 4, 1, 3, 2, 5))  # (B,G,T,S,U,C)
    w2 = softmax(scale * np.einsum("bgtsc,bgtsuc->bgtsu", q2, k2, optimize=False))
    prod2 = w2[..., None] * vth.transpose(0, 4, 1, 3, 2, 5)  # (B,G,T,S,U,C)
    yh = total(prod2, axis=-2)  # (B,G,T,S,C)
    out = yh.transpose(0, 2, 3, 1, 4).reshape(b, t, s, d)
    return {"ydiag": ydiag, "qth": qth, "kth": kth, "vth": vth, "w2": w2, "out": out}


def _stage_one_blocks(qh: np.ndarray, kh: np.ndarray, scale: float, nbytes: int, consume) -> None:
    """Stage one's weights from (B, G, T, S, C) query and key heads, a block
    at a time: `consume(lo, hi, a, w, room)` gets the C-contiguous
    (hi - lo, m, U, R) weights of query rows a..a+m-1, in (t, s) order, of
    (b, g) rows lo..hi-1 of the B*G rows, and `room`, scratch free for its
    own use that holds as many values as the weights.

    Pieces of whole b rows (`split_rows` of a job of `nbytes`) each get a
    share of one scratch (`_stage_one_scratch`). A share that holds whole
    (b, g) rows walks its rows in blocks of as many as it holds, with m =
    T*S; one that does not walks each row in tiles of as many query rows
    as it holds. There a block's scores are built with one einsum, scaled,
    checked finite (the test's mask in the room) and normalized in place by
    the row kernel of `softmax_last`, whose sort buffer (the room again) and
    denominators share the scratch. Each score is the same dot over a
    contiguous c, and each softmax runs over r alone, so the bits depend on
    neither the block nor the tile. No (B, G, T, S, U, R) array is made.
    `consume` runs inside the pieces, in row and then query-row order
    within each.
    """
    b, g, t, s, c = qh.shape
    queries = t * s  # query rows per (b, g) row
    q, k = qh.reshape(b * g, queries, c), kh.reshape(b * g, t, s, c)
    slots, per_slot = _stage_one_scratch(b * g, t, s)
    scratch = np.empty((slots, per_slot * (2 * queries + t)))

    def piece(share: np.ndarray, lo: int, hi: int) -> None:
        flat = share.reshape(-1)
        fits = len(share) * per_slot  # query rows the share holds
        n, m = (fits // queries, queries) if fits >= queries else (1, fits)
        for first in range(lo * g, hi * g, n):
            last = min(hi * g, first + n)
            for a in range(0, queries, m):
                size = (last - first) * min(m, queries - a) * queries
                w, free = flat[:size].reshape(last - first, -1, t, s), flat[size:2 * size]
                np.einsum("nqc,nurc->nqur", q[first:last, a:a + m], k[first:last], out=w, optimize=False)
                w *= scale
                require_finite(w, "stage-one scores", free.view(np.bool_)[:size].reshape(w.shape))
                x = w.reshape(-1, s)
                _softmax_rows(x, x, free.reshape(-1, s), flat[2 * size:2 * size + len(x)])
                consume(first, last, a, w, free)

    split_rows(piece, b, nbytes, scratch)


def _stage_one(x: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Stage one in sorted order: the (B, T, U, S, D) trajectory points,
    indexed by (reference frame, target frame, position)."""
    b, t, s, d = x.shape
    g = params.heads
    c = d // g
    qh, kh, vh = _stage_one_heads(x, params, _project)
    # Per target frame u, attend over positions r. The product is the
    # largest array of the pass: one C-order buffer with r last, into which
    # each block of weights is multiplied, and which `sorted_sum` sorts in
    # place row by row and sums pairwise. It is freed once summed.
    # The values as a C-contiguous (B*G,U,C,R) copy, in place of their heads.
    vt = np.ascontiguousarray(vh.swapaxes(-1, -2)).reshape(b * g, t, c, s)
    del vh
    prod1 = np.empty((b * g, t * s, t, c, s))  # (B*G,T*S,U,C,R)

    def multiply(lo: int, hi: int, a: int, w: np.ndarray, room: np.ndarray) -> None:
        # A ufunc that broadcasts, or reads a strided operand, gets a numpy
        # buffer in every piece at once. So the weights are copied over c,
        # and the products multiply equal C-contiguous shapes (IEEE products
        # commute): a chunk of query rows by copies of the values over its
        # rows in the room, whole (b, g) rows at a time where they fit, and a
        # chunk of one query row by the values themselves.
        m = w.shape[1]
        slabs = len(room) // (t * c * s)  # (U, C, R) slabs of values that fit
        step = max(1, min(slabs, m))  # query rows per product chunk
        rows = hi - lo if step == 1 else max(1, slabs // m)  # (b, g) rows per product chunk
        w = w.reshape(hi - lo, m, t, 1, s)
        for j in range(lo, hi, rows):
            out = prod1[j:min(hi, j + rows), a:a + m]
            n = len(out)
            v = vt[j:j + n, None]
            if step > 1:
                slab = room[:n * step * t * c * s].reshape(n, step, t, c, s)
                np.copyto(slab, v)
                v = slab
            for i in range(0, m, step):
                chunk = out[:, i:i + step]
                np.copyto(chunk, w[j - lo:j - lo + n, i:i + step])
                np.multiply(chunk, v[:, :chunk.shape[1]], out=chunk)

    _stage_one_blocks(qh, kh, params.scale, prod1.nbytes, multiply)
    del qh, kh, vt
    yt = sorted_sum(prod1.reshape(b, g, t, s, t, c, s), axis=-1)  # (B,G,T,S,U,C)
    del prod1
    return yt.transpose(0, 2, 4, 3, 1, 5).reshape(b, t, t, s, d)


def _validate_sequence(seq, params: AttentionParams) -> np.ndarray:
    seq = as_array(seq)
    if seq.ndim != 4 or min(seq.shape) < 1:
        raise DimensionError(f"expected a (B, T, S, D) sequence with no empty axis, got shape {seq.shape}")
    require_finite(seq, "trajectory attention input")
    params.validate(seq.shape[-1])
    check_stage_one(seq.shape, params.heads)
    return seq


def trajectory_pass_1d(seq, params: AttentionParams, counter: MacCounter | None = None) -> np.ndarray:
    """Two-stage trajectory attention over a (B, T, S, D) sequence; returns
    the updated sequence (same shape)."""
    x = _validate_sequence(seq, params)
    ytil = _stage_one(x, params)
    st2 = _stage_two(ytil, params, softmax_last, sorted_sum, _project)
    if counter is not None:
        b, t, s, d = x.shape
        c = d // params.heads
        weights = b * params.heads * t * s * t * s  # stage one's, over all heads
        counter["stage1_scores"] += weights * c
        counter["stage1_values"] += weights * c
        counter["stage2_scores"] += st2["w2"].size * c
        counter["stage2_values"] += st2["w2"].size * c
        counter["proj_stage1"] += 3 * x.size * d
        counter["proj_stage2"] += (x.size + 2 * ytil.size) * d
    return st2["out"]


def stage_one_weights(seq, params: AttentionParams, refs) -> np.ndarray:
    """The (n, U, R) head-mean stage-one weights of the pass over a
    (B, T, S, D) sequence at n references: for reference (b, t, s), the
    softmax over positions r of each target frame u. `refs` is the b, t and
    s index arrays, of equal length; a reference may repeat. Only the b rows
    holding a reference are scored, by the pass's own block producer, each
    block head-meaned at its references as it is made; nothing of stage
    one's product or of stage two is computed."""
    x = _validate_sequence(seq, params)
    b, t, s, _ = x.shape
    bs, ts, ss = refs = [np.asarray(r) for r in refs]
    for r, n in zip(refs, (b, t, s)):
        if r.ndim != 1 or len(r) != len(bs) or r.dtype.kind not in "iu" or np.any((r < 0) | (r >= n)):
            raise DimensionError(f"references must be equal-length integer indices within {(b, t, s)}")
    g = params.heads
    rows, row_of = np.unique(bs, return_inverse=True)  # the b rows read, and each reference's
    query = ts * s + ss  # each reference's query row within its (b, g) row
    qh, kh, _ = _stage_one_heads(x[rows], params, _project)
    out = np.empty((len(bs), t, s))

    def head_mean(lo: int, hi: int, a: int, w: np.ndarray, _room: np.ndarray) -> None:
        # Heads in index order, then one division: what `mean(axis=1)` gives.
        # A piece holds whole b rows, so no other piece touches their references.
        for j, wj in zip(range(lo, hi), w):
            row, head = divmod(j, g)
            i = np.flatnonzero((row_of == row) & (query >= a) & (query < a + len(wj)))
            if head == 0:
                out[i] = wj[query[i] - a]
            else:
                out[i] += wj[query[i] - a]
            if head == g - 1:
                out[i] /= g

    if len(rows):
        _stage_one_blocks(qh, kh, params.scale, 8 * g * len(rows) * t * s * t * s, head_mean)
    return out


def _validate_clip(f: np.ndarray) -> None:
    if f.ndim < 4:
        raise DimensionError(f"expected (..., T, D, H, W) clip features, got shape {f.shape}")
    if min(f.shape) < 1:
        raise DimensionError(f"all clip extents must be >= 1, got {f.shape}")


# Axis -> (clip-to-sequence, sequence-to-clip) transposes of the last four
# axes. The (B, T, S, D) sequence attends along S, the named axis; the other
# spatial axis is B.
_AXES = {
    "h": ((3, 0, 2, 1), (1, 3, 2, 0)),  # (W, T, H, D)
    "w": ((2, 0, 3, 1), (1, 3, 0, 2)),  # (H, T, W, D)
}


def _transpose_last4(x: np.ndarray, perm: tuple) -> np.ndarray:
    lead = x.ndim - 4
    return np.ascontiguousarray(x.transpose(tuple(range(lead)) + tuple(lead + a for a in perm)))


def to_sequence(f, axis: str) -> np.ndarray:
    """Lay a (..., T, D, H, W) clip out as the (..., B, T, S, D) sequence
    along `axis`; leading axes stay in front."""
    f = as_array(f)
    _validate_clip(f)
    return _transpose_last4(f, _AXES[axis][0])


def from_sequence(x, axis: str) -> np.ndarray:
    """Inverse of `to_sequence` (lossless round trip)."""
    return _transpose_last4(as_array(x), _AXES[axis][1])


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
    """Pre-norm residual pass along `axis`, leading axes folded into B."""
    f = as_array(f)
    x = prenorm(to_sequence(f, axis))
    y = trajectory_pass_1d(x.reshape((-1,) + x.shape[-3:]), params, counter=counter)
    return f + from_sequence(y.reshape(x.shape), axis)


def axial_trajectory_h(f, params: AttentionParams, *, counter: MacCounter | None = None):
    """Trajectory pass along the height axis of (..., T, D, H, W) features,
    with width and the leading axes as batch, pre-norm residual."""
    return _axial_pass(f, params, "h", counter)


def axial_trajectory_w(f, params: AttentionParams, *, counter: MacCounter | None = None):
    """Trajectory pass along the width axis of (..., T, D, H, W) features,
    with height and the leading axes as batch, pre-norm residual."""
    return _axial_pass(f, params, "w", counter)


def full_trajectory_reference(
    f, params: AttentionParams, *, counter: MacCounter | None = None
) -> np.ndarray:
    """Undecomposed trajectory attention over the joint H*W axis.

    Stage one attends over all H*W positions of each target frame, so its
    product grows with (T*H*W)^2: the pass over the (1, T, H*W, D) sequence
    refuses inputs whose footprint exceeds the memory limit, as any pass does.
    """
    f = as_array(f)
    if f.ndim != 4:
        raise DimensionError(f"expected (T, D, H, W) clip features, got shape {f.shape}")
    _validate_clip(f)
    t, d, h, w = f.shape
    x = np.ascontiguousarray(f.transpose(0, 2, 3, 1).reshape(1, t, h * w, d))
    y = trajectory_pass_1d(prenorm(x), params, counter=counter)
    return f + y.reshape(t, h, w, d).transpose(0, 3, 1, 2)


def projection_weights(d: int, rng: np.random.Generator, std: float = 0.02) -> ProjectionWeights:
    """Gaussian-initialized projections, drawn in query, key, value order."""
    return ProjectionWeights(*(rng.normal(0.0, std, size=(d, d)) for _ in range(3)))


def attention_params(
    d: int,
    rng: np.random.Generator,
    heads: int = 1,
    scale: float | None = None,
    std: float = 0.02,
) -> AttentionParams:
    """Random attention parameters; scale defaults to 1/sqrt(D)."""
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    return AttentionParams(
        stage1=projection_weights(d, rng, std),
        stage2=projection_weights(d, rng, std),
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
