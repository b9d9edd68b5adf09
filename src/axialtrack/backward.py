"""Analytic reverse-mode gradients for the composed axial passes.

`trajectory_backward` differentiates axial_trajectory_w(axial_trajectory_h(f))
against an upstream cotangent, chaining exactly through both softmax
stages, all six projections per pass, the diagonal query extraction, the
pre-norm layer normalization, and the residual connections. Gradients
are verified against central finite differences in the test suite.

No pass's state is held. In an axial pass every step from the recompute to
the input gradient is local to one b row (the other spatial axis), so each
pass runs as one row-parallel job (`tensor.split_rows`) whose pieces walk
their b rows in blocks of `tensor.scratch_rows` rows (`_in_blocks`). For
each block a piece recomputes the pass's state, runs the stage-two and
stage-one backward on it, writes the block's input gradient and Gram
operands into whole arrays that the caller allocated, and drops the state
before the next block. Only the six Gram reductions of the projection
gradients sum across rows; they run once, on the whole operands, after the
job. The W pass reads the H pass's output, which a recompute-only job over
the same blocks produces first; the H state is recomputed again in the H
backward rather than held through the W backward.

The state is recomputed with the forward's stage two, but with stage one
as batched matrix products (`_recompute`), and the stage-one gradients are
matrix products in the same layout. Nothing here sorts or builds the
forward's (B, G, T, S, U, C, R) product. Every matrix-shaped contraction
(the projections, their Gram reductions and the stage-one products) is one
`tensor.matmul` call on BLAS, with transposes passed as views; only the
softmax row dot and stage two's head contractions stay einsum. Each matrix
is one gemm call, whichever block and piece hold its row, so the gradients
depend neither on the number of pieces nor on the block size. Their bits
are those of the CPU's BLAS kernel (see `tensor`).

The backward's one size rule is its footprint (`_footprint`): the whole
arrays of a pass plus the working set of its blocks in flight. A clip
whose larger pass exceeds `errors.MEMORY_LIMIT` is refused before any
work array is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import (
    LN_EPS,
    AttentionParams,
    ProjectionWeights,
    _stage_one_heads,
    _stage_two,
    from_sequence,
    prenorm,
    to_sequence,
)
from .errors import DimensionError, check_memory
from .tensor import as_array, matmul, require_finite, scratch_rows, split_pieces, split_rows


@dataclass
class AttentionParamGrads:
    stage1: ProjectionWeights
    stage2: ProjectionWeights


@dataclass
class AxialPairGrads:
    """Gradients of the composed height-then-width pass."""

    d_input: np.ndarray
    params_h: AttentionParamGrads
    params_w: AttentionParamGrads


def _project(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w^T, the forward's projection on BLAS."""
    return matmul(x, w.T)


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (D, D) sum over all leading axes of a[..., d] * b[..., e]."""
    return matmul(a.reshape(-1, a.shape[-1]).T, b.reshape(-1, b.shape[-1]))


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the trailing axis, in place, summed in index order."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _softmax_backward(w: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """d_logits = w * (dw - <dw, w>) along the trailing axis, written over dw."""
    dw -= np.einsum("...u,...u->...", dw, w, optimize=False)[..., None]
    dw *= w
    return dw


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., G, C) -> (..., G*C)."""
    return x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))


def _heads_last(x: np.ndarray) -> np.ndarray:
    """(B, G, T, S, C) -> (B, T, S, G*C)."""
    b, g, t, s, c = x.shape
    return x.transpose(0, 2, 3, 1, 4).reshape(b, t, s, g * c)


def _recompute(x: np.ndarray, params: AttentionParams, w1: np.ndarray) -> dict:
    """The state of one pass over the b rows of `x`, with stage one in
    matrix form and its weights written into `w1`.

    Per head and target frame u, the scores are a (T*S x C)(C x R) product
    of the forward's head-major queries and transposed keys, and the
    pooling a (T*S x R)(R x C) one, so the weights w1 live in one
    (B, G, U, T*S, R) layout and no (B, G, T, S, U, C, R) product is
    built. Reductions run in index order: the forward's sorted order only
    serves its permutation equivariance, which no gradient needs.
    """
    b, t, s, d = x.shape
    g = params.heads
    c = d // g
    # (B,G,U,R,C) keys and values: their frame axis is the target frame u.
    qh, k, v = _stage_one_heads(x, params, _project)
    q = qh.reshape(b, g, 1, t * s, c)
    matmul(q, k.swapaxes(-1, -2), out=w1)  # (B,G,U,TS,R)
    w1 *= params.scale
    _softmax(w1)
    yt = matmul(w1, v).reshape(b, g, t, t, s, c)  # (B,G,U,T,S,C)
    ytil = yt.transpose(0, 3, 2, 4, 1, 5).reshape(b, t, t, s, d)  # (B,T,U,S,D)
    return {"x": x, "q": q, "k": k, "v": v, "w1": w1, "ytil": ytil,
            **_stage_two(ytil, params, _softmax, np.sum, _project)}


def _stage_two_backward(st: dict, params: AttentionParams, d_out: np.ndarray) -> dict:
    """The cotangents of stage two's projected query, keys and values
    (`dqt`, `dkt`, `dvt`) and of the pooled points, `dyt`, laid out as stage
    one's (B, G, U, T*S, C) products."""
    b, t, u, s, d = st["ytil"].shape
    g = params.heads
    c = d // g
    s2, scale = params.stage2, params.scale
    qth, kth, vth, w2 = st["qth"], st["kth"], st["vth"], st["w2"]

    dyh = d_out.reshape(b, t, s, g, c).transpose(0, 3, 1, 2, 4)  # (B,G,T,S,C)
    vth_t = vth.transpose(0, 4, 1, 3, 2, 5)  # (B,G,T,S,U,C)
    dw2 = np.einsum("bgtsc,bgtsuc->bgtsu", dyh, vth_t, optimize=False)
    dvth_t = w2[..., None] * dyh[..., None, :]
    de2 = _softmax_backward(w2, dw2)
    dqth = scale * np.einsum("bgtsu,btusgc->btsgc", de2, kth, optimize=False)
    dkth = scale * np.einsum("bgtsu,btsgc->btusgc", de2, qth, optimize=False)
    dvth = dvth_t.transpose(0, 2, 4, 3, 1, 5)  # back to (B,T,U,S,G,C)

    dqt, dkt, dvt = (_merge_heads(a) for a in (dqth, dkth, dvth))  # (B,T,S,D), (B,T,U,S,D) twice

    dydiag = matmul(dqt, s2.w_q)
    dytil = matmul(dkt, s2.w_k)
    dytil += matmul(dvt, s2.w_v)
    idx = np.arange(t)
    dytil[:, idx, idx] += dydiag
    dyt = dytil.reshape(b, t, u, s, g, c).transpose(0, 4, 2, 1, 3, 5)  # (B,G,U,T,S,C)
    return {"dqt": dqt, "dkt": dkt, "dvt": dvt,
            "dyt": np.ascontiguousarray(dyt).reshape(b, g, u, t * s, c)}


def _block_backward(st: dict, params: AttentionParams, d_out: np.ndarray, dw1: np.ndarray) -> dict:
    """The input gradient `dx` of one block's pass and the block's rows of
    the Gram operands (`_GRAMS`); stage one's weight gradient goes to `dw1`."""
    b, t, s, d = st["x"].shape
    g = params.heads
    c = d // g
    s1, scale = params.stage1, params.scale
    cotangents = _stage_two_backward(st, params, d_out)
    dyt = cotangents.pop("dyt")

    # Stage one, as matrix products batched over (B, G, U).
    q, k, v, w1 = st["q"], st["k"], st["v"], st["w1"]
    dv = matmul(w1.swapaxes(-1, -2), dyt)  # (B,G,U,R,C)
    matmul(dyt, v.swapaxes(-1, -2), out=dw1)  # (B,G,U,TS,R)
    de1 = _softmax_backward(w1, dw1)
    dq = scale * matmul(de1, k).sum(axis=2)  # (B,G,TS,C)
    dk = scale * matmul(de1.swapaxes(-1, -2), q)  # (B,G,U,R,C)

    dq, dk, dv = (_heads_last(a) for a in (dq.reshape(b, g, t, s, c), dk, dv))

    dx = matmul(dq, s1.w_q)
    dx += matmul(dk, s1.w_k)
    dx += matmul(dv, s1.w_v)
    return {"dx": dx, "dq": dq, "dk": dk, "dv": dv,
            "ydiag": st["ydiag"], "ytil": st["ytil"], **cotangents}


# Each projection gradient is the Gram of a cotangent and the projection's
# input, summed over every row of the pass.
_GRAMS = {
    "stage1": (("dq", "x"), ("dk", "x"), ("dv", "x")),
    "stage2": (("dqt", "ydiag"), ("dkt", "ytil"), ("dvt", "ytil")),
}


def _block_rows(shape: tuple[int, int, int, int], heads: int) -> tuple[int, int]:
    """(rows, values per row) of a block of a (B, T, S, D) pass's b rows:
    `tensor.scratch_rows` of rows that each hold their stage-one weights
    w1 and the weights' gradient in a piece's scratch."""
    b, t, s, _ = shape
    row = 2 * heads * t * t * s * s
    return scratch_rows(b, row), row


def _in_blocks(shape: tuple[int, int, int, int], heads: int, fn) -> None:
    """Run `fn(lo, hi, w1, dw1)` over blocks of a (B, T, S, D) pass's b rows
    that cover range(B), with (hi - lo, G, U, T*S, R) views of a scratch
    for the block's stage-one weights and their gradient.

    Pieces of whole b rows (`split_rows`) each walk theirs in blocks of
    `_block_rows`, in a scratch of their own; `fn` runs inside the pieces."""
    b, t, s, _ = shape
    rows, row = _block_rows(shape, heads)

    def piece(lo: int, hi: int) -> None:
        scratch = np.empty(min(rows, hi - lo) * row)
        for first in range(lo, hi, rows):
            n = min(hi, first + rows) - first
            size = n * row // 2
            w1, dw1 = (scratch[a:a + size].reshape(n, heads, t, t * s, s) for a in (0, size))
            fn(first, first + n, w1, dw1)

    split_rows(piece, b, 8 * b * row)


def _pass_output(x: np.ndarray, params: AttentionParams) -> np.ndarray:
    """The pass's output over the prenormed (B, T, S, D) sequence `x`,
    recomputed block by block."""
    out = np.empty(x.shape)

    def block(lo: int, hi: int, w1: np.ndarray, _dw1: np.ndarray) -> None:
        out[lo:hi] = _recompute(x[lo:hi], params, w1)["out"]

    _in_blocks(x.shape, params.heads, block)
    return out


def _pass_backward(
    x: np.ndarray, params: AttentionParams, d_out: np.ndarray
) -> tuple[np.ndarray, AttentionParamGrads]:
    """The gradient of the prenormed (B, T, S, D) sequence `x` and of the
    pass's projections, given the cotangent of its output. Each block's
    state is recomputed and dropped in turn; its input gradient and Gram
    operands go into whole arrays, which the Grams then sum."""
    b, t, s, d = x.shape
    whole = {"x": x}
    whole.update((name, np.empty(x.shape)) for name in ("dx", "dq", "dk", "dv", "dqt", "ydiag"))
    whole.update((name, np.empty((b, t, t, s, d))) for name in ("dkt", "dvt", "ytil"))

    def block(lo: int, hi: int, w1: np.ndarray, dw1: np.ndarray) -> None:
        st = _recompute(x[lo:hi], params, w1)
        for name, value in _block_backward(st, params, d_out[lo:hi], dw1).items():
            whole[name][lo:hi] = value

    _in_blocks(x.shape, params.heads, block)
    grads = {stage: ProjectionWeights(*(_gram(whole[a], whole[b]) for a, b in pairs))
             for stage, pairs in _GRAMS.items()}
    return whole["dx"], AttentionParamGrads(**grads)


def _footprint(shape: tuple[int, int, int, int], heads: int) -> tuple[int, str]:
    """Bytes that the backward of a (B, T, S, D) pass holds at most, and what they hold.

    The whole arrays are ten (B, T, S, D) ones (the sequence, its prenorm,
    the cotangents of output and input, five Gram operands and the other
    pass's cotangent) and three (B, T, U, S, D) Gram operands. Each b row
    in flight, a block's in every piece, holds its stage-one weights and
    their gradient and at most eleven (T, U, S, D), ten (T, S, D) and four
    (G, T, S, U) arrays of its state and cotangents; each piece also holds
    one of numpy's ufunc buffers (`np.getbufsize()` values)."""
    b, t, s, d = shape
    whole = 8 * b * t * s * d * (10 + 3 * t)
    rows, row = _block_rows(shape, heads)
    pieces = split_pieces(b, 8 * b * row)
    per_row = row + (11 * t + 10) * t * s * d + 4 * heads * t * t * s
    blocks = 8 * (min(b, rows * pieces) * per_row + pieces * np.getbufsize())
    return whole + blocks, f"backward footprint ({whole} of whole arrays, {blocks} of blocks)"


def _prenorm_backward(x: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = np.square(x - mean).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xn = (x - mean) * inv
    return inv * (
        d_out
        - d_out.mean(axis=-1, keepdims=True)
        - xn * (d_out * xn).mean(axis=-1, keepdims=True)
    )


def _axial_backward(
    x: np.ndarray, params: AttentionParams, d_out: np.ndarray, axis: str
) -> tuple[np.ndarray, AttentionParamGrads]:
    """The gradients of the residual pass over the sequence `x` along `axis`."""
    dxn, grads = _pass_backward(prenorm(x), params, to_sequence(d_out, axis))
    return d_out + from_sequence(_prenorm_backward(x, dxn), axis), grads


def trajectory_backward(
    f, params_h: AttentionParams, params_w: AttentionParams, upstream
) -> AxialPairGrads:
    """Gradients of axial_trajectory_w(axial_trajectory_h(f)) w.r.t. f and all params.

    `upstream` is the cotangent of the composed output (same shape as f);
    the returned gradient triple realizes the exact chain rule through
    both passes.
    """
    f = as_array(f)
    if f.ndim != 4:
        raise DimensionError(f"expected (T, D, H, W) clip features, got shape {f.shape}")
    upstream = as_array(upstream)
    if f.shape != upstream.shape:
        raise DimensionError(f"upstream shape {upstream.shape} must match input shape {f.shape}")
    require_finite(f, "backward input")
    require_finite(upstream, "upstream cotangent")
    params_h.validate(f.shape[1])
    params_w.validate(f.shape[1])

    t, d, h, w = f.shape
    for params, axis, shape in ((params_h, "h", (w, t, h, d)), (params_w, "w", (h, t, w, d))):
        check_memory("trajectory backward", f"the {axis.upper()} pass's (B, T, S, D) = {shape} "
                     f"of (T, D, H, W) = {f.shape}", *_footprint(shape, params.heads))

    # The W pass reads the H pass's output, recomputed block by block.
    x_w = to_sequence(f + from_sequence(_pass_output(prenorm(to_sequence(f, "h")), params_h), "h"), "w")
    d_mid, grads_w = _axial_backward(x_w, params_w, upstream, "w")
    del x_w
    d_f, grads_h = _axial_backward(to_sequence(f, "h"), params_h, d_mid, "h")
    return AxialPairGrads(d_input=d_f, params_h=grads_h, params_w=grads_w)
