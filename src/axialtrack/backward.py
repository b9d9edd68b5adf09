"""Analytic reverse-mode gradients for the composed axial passes.

`trajectory_backward` differentiates axial_trajectory_w(axial_trajectory_h(f))
against an upstream cotangent, chaining exactly through both softmax
stages, all six projections per pass, the diagonal query extraction, the
pre-norm layer normalization, and the residual connections. Gradients
are verified against central finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import (
    LN_EPS,
    AttentionParams,
    _pass_forward,
    from_sequence,
    prenorm,
    to_sequence,
)
from .errors import DimensionError
from .tensor import as_array, require_finite


@dataclass
class ProjectionGrads:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    b_q: np.ndarray | None = None
    b_k: np.ndarray | None = None
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


def _merge_heads(x: np.ndarray) -> np.ndarray:
    return x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))


def _softmax_backward(w: np.ndarray, dw: np.ndarray) -> np.ndarray:
    # d_logits = w * (dw - <dw, w>) along the trailing axis
    inner = np.einsum("...u,...u->...", dw, w, optimize=False)[..., None]
    return w * (dw - inner)


def _pass_backward(
    cache: dict, params: AttentionParams, d_out: np.ndarray
) -> tuple[np.ndarray, AttentionParamGrads]:
    x = cache["x"]
    b, t, s, d = x.shape
    g = params.heads
    c = d // g
    s1, s2, scale = params.stage1, params.stage2, params.scale
    w1, w2 = cache["w1"], cache["w2"]
    qh, kh, vh = cache["qh"], cache["kh"], cache["vh"]
    qth, kth, vth = cache["qth"], cache["kth"], cache["vth"]
    ytil, ydiag = cache["ytil"], cache["ydiag"]

    # Stage two, pooling over frames.
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
    db_k2 = dkt.sum(axis=(0, 1, 2, 3)) if s2.b_k is not None else None
    db_v2 = dvt.sum(axis=(0, 1, 2, 3)) if s2.b_v is not None else None

    dydiag = np.einsum("btsd,de->btse", dqt, s2.w_q, optimize=False)
    dytil = np.einsum("btusd,de->btuse", dkt, s2.w_k, optimize=False)
    dytil += np.einsum("btusd,de->btuse", dvt, s2.w_v, optimize=False)
    idx = np.arange(t)
    dytil[:, idx, idx] += dydiag

    # Stage one, attending over positions.
    dyt = dytil.reshape(b, t, t, s, g, c).transpose(0, 4, 1, 3, 2, 5)  # (B,G,T,S,U,C)
    dw1 = np.einsum("bgtsuc,burgc->bgtsur", dyt, vh, optimize=False)
    dvh = np.einsum("bgtsur,bgtsuc->burgc", w1, dyt, optimize=False)
    de1 = _softmax_backward(w1, dw1)
    dqh = scale * np.einsum("bgtsur,burgc->btsgc", de1, kh, optimize=False)
    dkh = scale * np.einsum("bgtsur,btsgc->burgc", de1, qh, optimize=False)

    dq = _merge_heads(dqh)
    dk = _merge_heads(dkh)
    dv = _merge_heads(dvh)

    d_wq = np.einsum("btsd,btse->de", dq, x, optimize=False)
    d_wk = np.einsum("btsd,btse->de", dk, x, optimize=False)
    d_wv = np.einsum("btsd,btse->de", dv, x, optimize=False)
    db_q1 = dq.sum(axis=(0, 1, 2)) if s1.b_q is not None else None
    db_k1 = dk.sum(axis=(0, 1, 2)) if s1.b_k is not None else None
    db_v1 = dv.sum(axis=(0, 1, 2)) if s1.b_v is not None else None

    dx = np.einsum("btsd,de->btse", dq, s1.w_q, optimize=False)
    dx += np.einsum("btsd,de->btse", dk, s1.w_k, optimize=False)
    dx += np.einsum("btsd,de->btse", dv, s1.w_v, optimize=False)

    grads = AttentionParamGrads(
        stage1=ProjectionGrads(d_wq, d_wk, d_wv, db_q1, db_k1, db_v1),
        stage2=ProjectionGrads(d_uq, d_uk, d_uv, db_q2, db_k2, db_v2),
    )
    return dx, grads


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
    return x, _pass_forward(prenorm(x), params, None)


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
    d_f, grads_h = _axial_backward(params_h, state_h, d_mid, "h")
    return AxialPairGrads(d_input=d_f, params_h=grads_h, params_w=grads_w)
