"""Analytic reverse-mode gradients for the composed axial passes.

`trajectory_backward` differentiates axial_trajectory_w(axial_trajectory_h(f))
against an upstream cotangent, chaining exactly through both softmax
stages, all six projections per pass, the diagonal query extraction, the
pre-norm layer normalization, and the residual connections. Gradients
are verified against central finite differences in the test suite.

Each pass's state is recomputed with the forward's stage two, but with
stage one as batched matrix products (`_recompute`), and the stage-one
gradients are matrix products in the same layout. Nothing here sorts or
builds the forward's (B, G, T, S, U, C, R) product. Every matrix-shaped
contraction (the projections, their Gram reductions and the stage-one
products) is one `tensor.matmul` call on BLAS, with transposes passed as
views; only the softmax row dot and stage two's head contractions stay
einsum. A stack of products runs in pieces of its leading (batch) axis
(`tensor.split_rows`), each matrix one gemm call, so the gradients do not
depend on the number of pieces. Their bits are those of the CPU's BLAS
kernel (see `tensor`).
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
from .errors import DimensionError
from .tensor import as_array, matmul, require_finite


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


def _recompute(x: np.ndarray, params: AttentionParams) -> dict:
    """The state of one pass, with stage one in matrix form.

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
    w1 = matmul(q, k.swapaxes(-1, -2))  # (B,G,U,TS,R)
    w1 *= params.scale
    _softmax(w1)
    yt = matmul(w1, v).reshape(b, g, t, t, s, c)  # (B,G,U,T,S,C)
    ytil = yt.transpose(0, 3, 2, 4, 1, 5).reshape(b, t, t, s, d)  # (B,T,U,S,D)
    return {"x": x, "q": q, "k": k, "v": v, "w1": w1, "ytil": ytil,
            **_stage_two(ytil, params, _softmax, np.sum, _project)}


def _stage_two_backward(
    st: dict, params: AttentionParams, d_out: np.ndarray
) -> tuple[np.ndarray, ProjectionWeights]:
    """Stage-two projection grads and the cotangent of the pooled points,
    laid out as stage one's (B, G, U, T*S, C) products."""
    b, t, u, s, d = st["ytil"].shape
    g = params.heads
    c = d // g
    s2, scale = params.stage2, params.scale
    qth, kth, vth = st["qth"], st["kth"], st["vth"]
    ytil, ydiag, w2 = st["ytil"], st["ydiag"], st["w2"]

    dyh = d_out.reshape(b, t, s, g, c).transpose(0, 3, 1, 2, 4)  # (B,G,T,S,C)
    vth_t = vth.transpose(0, 4, 1, 3, 2, 5)  # (B,G,T,S,U,C)
    dw2 = np.einsum("bgtsc,bgtsuc->bgtsu", dyh, vth_t, optimize=False)
    dvth_t = w2[..., None] * dyh[..., None, :]
    de2 = _softmax_backward(w2, dw2)
    dqth = scale * np.einsum("bgtsu,btusgc->btsgc", de2, kth, optimize=False)
    dkth = scale * np.einsum("bgtsu,btsgc->btusgc", de2, qth, optimize=False)
    dvth = dvth_t.transpose(0, 2, 4, 3, 1, 5)  # back to (B,T,U,S,G,C)

    dqt, dkt, dvt = (_merge_heads(a) for a in (dqth, dkth, dvth))  # (B,T,S,D), (B,T,U,S,D) twice

    # Stage-two projections.
    grads = ProjectionWeights(_gram(dqt, ydiag), _gram(dkt, ytil), _gram(dvt, ytil))
    dydiag = matmul(dqt, s2.w_q)
    dytil = matmul(dkt, s2.w_k)
    dytil += matmul(dvt, s2.w_v)
    idx = np.arange(t)
    dytil[:, idx, idx] += dydiag
    dyt = dytil.reshape(b, t, u, s, g, c).transpose(0, 4, 2, 1, 3, 5)  # (B,G,U,T,S,C)
    return np.ascontiguousarray(dyt).reshape(b, g, u, t * s, c), grads


def _pass_backward(
    st: dict, params: AttentionParams, d_out: np.ndarray
) -> tuple[np.ndarray, AttentionParamGrads]:
    x = st["x"]
    b, t, s, d = x.shape
    g = params.heads
    c = d // g
    s1, scale = params.stage1, params.scale
    dyt, grads2 = _stage_two_backward(st, params, d_out)

    # Stage one, as matrix products batched over (B, G, U).
    q, k, v = st["q"], st["k"], st["v"]
    w1 = st.pop("w1")  # consumed: freed once de1 is formed
    dv = matmul(w1.swapaxes(-1, -2), dyt)  # (B,G,U,R,C)
    dw1 = matmul(dyt, v.swapaxes(-1, -2))  # (B,G,U,TS,R)
    de1 = _softmax_backward(w1, dw1)
    del w1
    dq = scale * matmul(de1, k).sum(axis=2)  # (B,G,TS,C)
    dk = scale * matmul(de1.swapaxes(-1, -2), q)  # (B,G,U,R,C)

    dq, dk, dv = (_heads_last(a) for a in (dq.reshape(b, g, t, s, c), dk, dv))

    dx = matmul(dq, s1.w_q)
    dx += matmul(dk, s1.w_k)
    dx += matmul(dv, s1.w_v)
    grads1 = ProjectionWeights(_gram(dq, x), _gram(dk, x), _gram(dv, x))
    return dx, AttentionParamGrads(stage1=grads1, stage2=grads2)


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


def _axial_state(f: np.ndarray, params: AttentionParams, axis: str) -> tuple:
    """The sequence and pass cache of one axial pass; its output is cache["out"]."""
    x = to_sequence(f, axis)
    return x, _recompute(prenorm(x), params)


def _axial_backward(
    params: AttentionParams, state: tuple, d_out: np.ndarray, axis: str
) -> tuple[np.ndarray, AttentionParamGrads]:
    x, cache = state
    dxn, grads = _pass_backward(cache, params, to_sequence(d_out, axis))
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

    state_h = _axial_state(f, params_h, "h")
    state_w = _axial_state(f + from_sequence(state_h[1]["out"], "h"), params_w, "w")
    d_mid, grads_w = _axial_backward(params_w, state_w, upstream, "w")
    del state_w  # the H backward holds one pass's state, not two
    d_f, grads_h = _axial_backward(params_h, state_h, d_mid, "h")
    return AxialPairGrads(d_input=d_f, params_h=grads_h, params_w=grads_w)
