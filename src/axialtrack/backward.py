"""Analytic reverse-mode gradients for the composed axial passes.

`trajectory_backward` differentiates axial_trajectory_w(axial_trajectory_h(f))
against an upstream cotangent, chaining exactly through both softmax
stages, all six projections per pass, the diagonal query extraction, the
pre-norm layer normalization, and the residual connections. Gradients
are verified against central finite differences in the test suite.

Each pass's state is recomputed with the forward's projections and stage
two, but with stage one as batched matrix products (`_recompute`), and
the stage-one gradients are matrix products in the same layout. Nothing
here sorts or builds the forward's (B, G, T, S, U, C, R) product; every
contraction is a c_einsum in a fixed order, free of BLAS. The batched
stage-one products run in pieces of their leading (batch) axis on every
CPU (`tensor.split_rows`); each piece sums only within its own batch
rows, so the gradients do not depend on the number of pieces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import (
    LN_EPS,
    AttentionParams,
    _stage_one_heads,
    _stage_two,
    from_sequence,
    prenorm,
    to_sequence,
)
from .errors import DimensionError
from .tensor import as_array, require_finite, split_rows


@dataclass
class ProjectionGrads:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    b_q: np.ndarray | None = None
    b_v: np.ndarray | None = None


@dataclass
class AttentionParamGrads:
    stage1: ProjectionGrads
    stage2: ProjectionGrads


@dataclass
class AxialPairGrads:
    """Gradients of the composed height-then-width pass."""

    d_input: np.ndarray
    params_h: AttentionParamGrads
    params_w: AttentionParamGrads


# Matrix products batched over the leading axes, as c_einsum (never BLAS).
# `_mm` sums a short axis (C); `_mm_t` takes b transposed, so a long summed
# axis (R or T*S) is contiguous in both operands and runs as a dot product.
def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b."""
    return _batched("...ik,...kj->...ij", a, b, b.shape[-1])


def _mm_t(a: np.ndarray, bt: np.ndarray) -> np.ndarray:
    """a @ bt^T."""
    return _batched("...ik,...jk->...ij", a, bt, bt.shape[-2])


def _batched(spec: str, a: np.ndarray, b: np.ndarray, cols: int) -> np.ndarray:
    """The einsum `spec` of a and b into a new C-contiguous array, in pieces
    of the first (batch) axis, whose length a and b share."""
    out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], cols))

    def piece(lo: int, hi: int) -> None:
        np.einsum(spec, a[lo:hi], b[lo:hi], out=out[lo:hi], optimize=False)

    split_rows(piece, out.shape[0], a.nbytes + b.nbytes + out.nbytes)
    return out


def _t(a: np.ndarray) -> np.ndarray:
    """Contiguous transpose of the last two axes."""
    return np.ascontiguousarray(a.swapaxes(-1, -2))


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
    qh, kh, vh = _stage_one_heads(x, params)  # (B,G,T,S,C)
    q = qh.reshape(b, g, 1, t * s, c)
    # (B,G,U,C,R): the frame axis of keys and values is the target frame u.
    kt, vt = _t(kh), _t(vh)
    w1 = _mm(q, kt)  # (B,G,U,TS,R)
    w1 *= params.scale
    _softmax(w1)
    yt = _mm_t(w1, vt).reshape(b, g, t, t, s, c)  # (B,G,U,T,S,C)
    ytil = yt.transpose(0, 3, 2, 4, 1, 5).reshape(b, t, t, s, d)  # (B,T,U,S,D)
    return {"x": x, "q": q, "kt": kt, "vt": vt, "w1": w1, "ytil": ytil,
            **_stage_two(ytil, params, _softmax, np.sum)}


def _stage_two_backward(
    st: dict, params: AttentionParams, d_out: np.ndarray
) -> tuple[np.ndarray, ProjectionGrads]:
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

    dqt = _merge_heads(dqth)  # (B,T,S,D)
    dkt = _merge_heads(dkth)  # (B,T,U,S,D)
    dvt = _merge_heads(dvth)

    # Stage-two projections.
    d_uq = np.einsum("btsd,btse->de", dqt, ydiag, optimize=False)
    d_uk = np.einsum("btusd,btuse->de", dkt, ytil, optimize=False)
    d_uv = np.einsum("btusd,btuse->de", dvt, ytil, optimize=False)
    db_q2 = dqt.sum(axis=(0, 1, 2)) if s2.b_q is not None else None
    db_v2 = dvt.sum(axis=(0, 1, 2, 3)) if s2.b_v is not None else None

    dydiag = np.einsum("btsd,de->btse", dqt, s2.w_q, optimize=False)
    dytil = np.einsum("btusd,de->btuse", dkt, s2.w_k, optimize=False)
    dytil += np.einsum("btusd,de->btuse", dvt, s2.w_v, optimize=False)
    idx = np.arange(t)
    dytil[:, idx, idx] += dydiag
    dyt = dytil.reshape(b, t, u, s, g, c).transpose(0, 4, 2, 1, 3, 5)  # (B,G,U,T,S,C)
    grads = ProjectionGrads(d_uq, d_uk, d_uv, db_q2, db_v2)
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
    q, kt, vt = st["q"], st["kt"], st["vt"]
    w1 = st.pop("w1")  # consumed: freed once de1 is formed
    dv = _mm_t(_t(w1), _t(dyt))  # (B,G,U,R,C)
    dw1 = _mm(dyt, vt)  # (B,G,U,TS,R)
    de1 = _softmax_backward(w1, dw1)
    del w1
    dq = scale * _mm_t(de1, kt).sum(axis=2)  # (B,G,TS,C)
    dk = scale * _mm_t(_t(de1), _t(q))  # (B,G,U,R,C)

    dq = _heads_last(dq.reshape(b, g, t, s, c))
    dk = _heads_last(dk)
    dv = _heads_last(dv)

    d_wq = np.einsum("btsd,btse->de", dq, x, optimize=False)
    d_wk = np.einsum("btsd,btse->de", dk, x, optimize=False)
    d_wv = np.einsum("btsd,btse->de", dv, x, optimize=False)
    db_q1 = dq.sum(axis=(0, 1, 2)) if s1.b_q is not None else None
    db_v1 = dv.sum(axis=(0, 1, 2)) if s1.b_v is not None else None

    dx = np.einsum("btsd,de->btse", dq, s1.w_q, optimize=False)
    dx += np.einsum("btsd,de->btse", dk, s1.w_k, optimize=False)
    dx += np.einsum("btsd,de->btse", dv, s1.w_v, optimize=False)

    grads1 = ProjectionGrads(d_wq, d_wk, d_wv, db_q1, db_v1)
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
    upstream = as_array(upstream)
    if f.shape != upstream.shape:
        raise DimensionError(
            f"upstream shape {upstream.shape} must match input shape {f.shape}"
        )
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
