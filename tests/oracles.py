"""Independent naive-loop reference implementations used as test oracles.

Everything here is written straight from the defining formulas with
explicit Python loops, plain exp/sum softmaxes (no max shift, no sorted
reductions), and scalar accumulation. None of it shares code with the
library kernels it checks. Two take library stages that the oracles above
check: `naive_hit_rate` reads each clip's stage-one rows at every pixel
(`axial_fields`) and re-does only the per-reference argmax loop, and
`naive_near_online_tubes` takes each clip's run and association and
re-does only the linking, one track at a time. `whole_stage_one_weights`
is no loop oracle but the whole-array form of the blocked stage one: every
score of every (b, g) row at once, then one `softmax_last`, which the block
producer must match bit for bit. `stage_one_field` gathers a sequence's
whole field of head-mean weights from `stage_one_weights` rows.
`every_level_within_clip_forward` runs the library's sampler at every
query level and the axial passes on every pyramid level of every block,
then takes the finest level, which `within_clip_forward` must match bit
for bit without the last block's coarse sampling and passes.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

LN_EPS = 1e-5


def masked_logistic(x):
    """Logistic by branch: 1 / (1 + exp(-x)) on the entries with x >= 0,
    exp(x) / (1 + exp(x)) on the rest, each branch on its own gathered copy."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def naive_prenorm(x):
    """Parameter-free layer norm over the trailing axis (population variance)."""
    flat = x.reshape(-1, x.shape[-1])
    out = np.zeros_like(flat)
    d = flat.shape[1]
    for i in range(flat.shape[0]):
        mean = sum(float(v) for v in flat[i]) / d
        var = sum((float(v) - mean) ** 2 for v in flat[i]) / d
        denom = math.sqrt(var + LN_EPS)
        for j in range(d):
            out[i, j] = (float(flat[i, j]) - mean) / denom
    return out.reshape(x.shape)


def naive_atrous_conv1d(x, kernel, rate):
    length, din = x.shape
    taps, dout, _ = kernel.shape
    mid = (taps - 1) // 2
    out = np.zeros((length, dout))
    for t in range(length):
        for j in range(taps):
            src = t + (j - mid) * rate
            if 0 <= src < length:
                for d in range(dout):
                    acc = 0.0
                    for e in range(din):
                        acc += float(kernel[j, d, e]) * float(x[src, e])
                    out[t, d] += acc
    return out


def naive_bilinear_point(feat, y, x):
    d, h, w = feat.shape
    y0 = math.floor(y)
    x0 = math.floor(x)
    fy = y - y0
    fx = x - x0
    out = np.zeros(d)
    corners = (
        (y0, x0, (1 - fy) * (1 - fx)),
        (y0, x0 + 1, (1 - fy) * fx),
        (y0 + 1, x0, fy * (1 - fx)),
        (y0 + 1, x0 + 1, fy * fx),
    )
    for yy, xx, wt in corners:
        if 0 <= yy < h and 0 <= xx < w:
            out += wt * feat[:, int(yy), int(xx)]
    return out


def _proj_vec(vec, w):
    d = w.shape[0]
    out = np.zeros(d)
    for i in range(d):
        acc = 0.0
        for e in range(w.shape[1]):
            acc += float(w[i, e]) * float(vec[e])
        out[i] = acc
    return out


def _dot(a, b):
    return sum(float(x) * float(y) for x, y in zip(a, b))


def naive_pass1d(x, params):
    """Single-head two-stage trajectory attention, five nested loops."""
    nb, nt, ns, nd = x.shape
    s1, s2 = params.stage1, params.stage2
    sc = params.scale
    q = np.zeros_like(x)
    k = np.zeros_like(x)
    v = np.zeros_like(x)
    for b in range(nb):
        for t in range(nt):
            for s in range(ns):
                q[b, t, s] = _proj_vec(x[b, t, s], s1.w_q)
                k[b, t, s] = _proj_vec(x[b, t, s], s1.w_k)
                v[b, t, s] = _proj_vec(x[b, t, s], s1.w_v)

    ytil = np.zeros((nb, nt, nt, ns, nd))
    w1 = np.zeros((nb, nt, ns, nt, ns))
    for b in range(nb):
        for t in range(nt):
            for s in range(ns):
                for u in range(nt):
                    logits = [sc * _dot(q[b, t, s], k[b, u, r]) for r in range(ns)]
                    den = sum(math.exp(val) for val in logits)
                    for r in range(ns):
                        wgt = math.exp(logits[r]) / den
                        w1[b, t, s, u, r] = wgt
                        ytil[b, t, u, s] += wgt * v[b, u, r]

    out = np.zeros_like(x)
    w2 = np.zeros((nb, nt, ns, nt))
    for b in range(nb):
        for t in range(nt):
            for s in range(ns):
                qt = _proj_vec(ytil[b, t, t, s], s2.w_q)
                kts = [_proj_vec(ytil[b, t, u, s], s2.w_k) for u in range(nt)]
                vts = [_proj_vec(ytil[b, t, u, s], s2.w_v) for u in range(nt)]
                logits = [sc * _dot(qt, kts[u]) for u in range(nt)]
                den = sum(math.exp(val) for val in logits)
                for u in range(nt):
                    wgt = math.exp(logits[u]) / den
                    w2[b, t, s, u] = wgt
                    out[b, t, s] += wgt * vts[u]
    return out, w1, w2, ytil


def naive_axial_h(f, params):
    nt, nd, nh, nw = f.shape
    x = np.zeros((nw, nt, nh, nd))
    for w in range(nw):
        for t in range(nt):
            for h in range(nh):
                x[w, t, h] = f[t, :, h, w]
    y, _, _, _ = naive_pass1d(naive_prenorm(x), params)
    out = f.copy()
    for w in range(nw):
        for t in range(nt):
            for h in range(nh):
                out[t, :, h, w] += y[w, t, h]
    return out


def naive_axial_w(f, params):
    nt, nd, nh, nw = f.shape
    x = np.zeros((nh, nt, nw, nd))
    for h in range(nh):
        for t in range(nt):
            for w in range(nw):
                x[h, t, w] = f[t, :, h, w]
    y, _, _, _ = naive_pass1d(naive_prenorm(x), params)
    out = f.copy()
    for h in range(nh):
        for t in range(nt):
            for w in range(nw):
                out[t, :, h, w] += y[h, t, w]
    return out


def naive_full_reference(f, params):
    nt, nd, nh, nw = f.shape
    x = np.zeros((1, nt, nh * nw, nd))
    for t in range(nt):
        for h in range(nh):
            for w in range(nw):
                x[0, t, h * nw + w] = f[t, :, h, w]
    y, _, _, _ = naive_pass1d(naive_prenorm(x), params)
    out = f.copy()
    for t in range(nt):
        for h in range(nh):
            for w in range(nw):
                out[t, :, h, w] += y[0, t, h * nw + w]
    return out


def naive_query_attention(z, params):
    y, _, _, _ = naive_pass1d(naive_prenorm(z[None]), params)
    return z + y[0]


def _naive_axis_ref(i, n_from, n_to):
    if n_from == 1:
        return (n_to - 1) / 2.0
    return i * (n_to - 1) / (n_from - 1)


def naive_msdeform(levels, params):
    """Per-pixel loop mirror of the deformable sampling rule."""
    nt, nd = levels[0].shape[:2]
    k = params.points
    out_levels = []
    for lp, lvl in zip(params.levels, levels):
        hq, wq = lvl.shape[2:]
        out = lvl.copy()
        for t in range(nt):
            for yy in range(hq):
                for xx in range(wq):
                    pix = lvl[t, :, yy, xx]
                    qv = _proj_vec(pix, lp.w_query)
                    offs = _proj_vec(qv, lp.w_offset).reshape(k, 2)
                    logits = _proj_vec(qv, lp.w_weight)
                    den = sum(math.exp(float(l)) for l in logits)
                    wts = [math.exp(float(l)) / den for l in logits]
                    agg = np.zeros(nd)
                    for m, tgt in enumerate(levels):
                        ry = _naive_axis_ref(yy, hq, tgt.shape[2])
                        rx = _naive_axis_ref(xx, wq, tgt.shape[3])
                        for kk in range(k):
                            sample = naive_bilinear_point(
                                tgt[t], ry + float(offs[kk, 0]), rx + float(offs[kk, 1])
                            )
                            agg += wts[m * k + kk] * sample
                    out[t, :, yy, xx] = pix + _proj_vec(agg, lp.w_out)
        out_levels.append(out)
    return out_levels


def naive_attend(q_rows, keys, proj, scale):
    n, d = q_rows.shape
    out = np.zeros((n, d))
    kk = [_proj_vec(key, proj.w_k) for key in keys]
    vv = [_proj_vec(key, proj.w_v) for key in keys]
    for i in range(n):
        qq = _proj_vec(q_rows[i], proj.w_q)
        logits = [scale * _dot(qq, kk[p]) for p in range(len(keys))]
        den = sum(math.exp(val) for val in logits)
        for p in range(len(keys)):
            out[i] += (math.exp(logits[p]) / den) * vv[p]
    return out


def naive_decode(f, queries, decoder):
    nt, nd, nh, nw = f.shape
    keys = []
    for t in range(nt):
        for h in range(nh):
            for w in range(nw):
                keys.append(f[t, :, h, w])
    q = queries.copy()
    for layer in decoder:
        q = q + naive_attend(naive_prenorm(q), keys, layer.cross, layer.scale)
        qn = naive_prenorm(q)
        q = q + naive_attend(qn, qn, layer.self_attn, layer.scale)
        qn = naive_prenorm(q)
        for i in range(q.shape[0]):
            hidden = _proj_vec(qn[i], layer.ffn_w1)
            hidden = np.maximum(0.0, hidden)
            q[i] = q[i] + _proj_vec(hidden, layer.ffn_w2)
    return q


def brute_hungarian(cost):
    """Exhaustive search; ties break to the lexicographically smallest pairs."""
    n, m = cost.shape
    best = None
    if n <= m:
        row_sets = [tuple(range(n))]
    else:
        row_sets = list(itertools.combinations(range(n), m))
    for rows in row_sets:
        k = len(rows)
        for cols in itertools.permutations(range(m), k):
            total = 0.0
            for i in range(k):
                total += float(cost[rows[i], cols[i]])
            pairs = tuple(sorted((rows[i], cols[i]) for i in range(k)))
            key = (total, pairs)
            if best is None or key < best:
                best = key
    return best[1], best[0]


def stage_one_field(seq, params):
    """The (B, T, S, U, R) head-mean stage-one weights of the pass over a
    (B, T, S, D) sequence: `stage_one_weights` at every reference, in order."""
    from axialtrack.attention import stage_one_weights

    b, t, s = seq.shape[:3]
    return stage_one_weights(seq, params, np.indices((b, t, s)).reshape(3, -1)).reshape(b, t, s, t, s)


def naive_hit_rate(gt_masks, moving, clips, block):
    """Trajectory hit rate by brute force: for every on-mask reference,
    build each target frame's full H x W outer-product map and argmax it.
    Each (T, D, H, W) clip's height and width rows come from `axial_fields`
    with the within-clip `block`, read at every pixel of the clip."""
    from axialtrack.heatmaps import axial_fields

    hits = 0
    total = 0
    for k, clip in enumerate(clips):
        t_extent, _, height, width = clip.shape
        every = np.indices((t_extent, height, width)).reshape(3, -1)
        w_h, w_w = (rows.reshape(t_extent, height, width, t_extent, -1)
                    for rows in axial_fields(clip, block.attn_h, block.attn_w, every))
        for mask, is_moving in zip(gt_masks, moving):
            if not is_moving:
                continue
            length = mask.shape[0]
            for t_local in range(t_extent):
                t_global = min(k * t_extent + t_local, length - 1)
                ys, xs = np.nonzero(mask[t_global])
                for y, x in zip(ys, xs):
                    rows_h = w_h[t_local, y, x]
                    rows_w = w_w[t_local, y, x]
                    frames = [np.outer(rows_h[u], rows_w[u]) for u in range(t_extent)]
                    for u, frame in enumerate(frames):
                        u_global = min(k * t_extent + u, length - 1)
                        best = int(np.argmax(frame))
                        by, bx = divmod(best, frame.shape[1])
                        hits += bool(mask[u_global, by, bx])
                        total += 1
    return hits / total if total else 1.0


def naive_near_online_tubes(video, params, shuffle_rng=None):
    """Near-online tubes by per-clip tube lists: each clip runs the
    within-clip blocks on its own, its tubes are re-linked through its
    association mapping, then every track's masks are concatenated and its
    class distributions averaged as lists."""
    from axialtrack.deform import within_clip_forward
    from axialtrack.segmenter import (
        Tube,
        associate_clips,
        decode_clip_queries,
        predict_clip_tubes,
        split_into_clips,
    )

    video = np.asarray(video, dtype=np.float64)
    clip_tubes = []
    prev = None
    for k, clip in enumerate(split_into_clips(video, params.clip_len)):
        feats = within_clip_forward(clip, params.within_blocks)
        queries = decode_clip_queries(feats, params.init_queries, params.decoder)
        masks, class_probs = predict_clip_tubes(queries, feats, params.class_head)
        n = queries.shape[0]
        tubes = [Tube(masks[j], class_probs[j], track_id=j) for j in range(n)]
        if shuffle_rng is not None and k > 0:
            perm = shuffle_rng.permutation(n)
            queries = queries[perm]
            tubes = [tubes[j] for j in perm]
        if prev is None:
            order = list(range(n))
        else:
            mapping = dict(associate_clips(prev, queries).pairs)
            order = [mapping[i] for i in range(n)]
        clip_tubes.append(
            [Tube(tubes[j].masks, tubes[j].class_probs, track_id=i) for i, j in enumerate(order)]
        )
        prev = queries[order]
    out = []
    for i in range(len(clip_tubes[0])):
        masks = np.concatenate([ct[i].masks for ct in clip_tubes], axis=0)
        probs = np.mean([ct[i].class_probs for ct in clip_tubes], axis=0)
        out.append(Tube(masks[: video.shape[0]], probs, track_id=i))
    return out


def every_level_within_clip_forward(f, blocks):
    """The finest level of the (..., T, D, H, W) clip stack's pyramid after
    each block's sampling and H and W passes on all three levels."""
    from axialtrack.attention import axial_trajectory_h, axial_trajectory_w
    from axialtrack.deform import FeaturePyramid, build_pyramid, msdeform_simplified

    pyr = build_pyramid(f)
    for blk in blocks:
        levels = [msdeform_simplified(pyr, blk.deform, m) for m in range(3)]
        pyr = FeaturePyramid([axial_trajectory_w(axial_trajectory_h(lvl, blk.attn_h), blk.attn_w)
                              for lvl in levels])
    return pyr.levels[-1]


def whole_stage_one_weights(qh, kh, scale):
    """(B, G, T, S, U, R) stage-one weights of (B, G, T, S, C) query and key
    heads, as one array: the scaled scores of all rows, then one softmax."""
    from axialtrack.tensor import softmax_last

    b, g, t, s, c = qh.shape
    q, k = qh.reshape(b * g, t, s, c), kh.reshape(b * g, t, s, c)
    scores = scale * np.einsum("ntsc,nurc->ntsur", q, k, optimize=False)
    return softmax_last(scores).reshape(b, g, t, s, t, s)
