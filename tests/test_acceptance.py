"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute. Every tolerance and time limit is pinned here.
"""

import itertools
import json
import os
import time

import numpy as np

from axialtrack.attention import (
    _project,
    _stage_one,
    _stage_two,
    attention_params,
    axial_trajectory_h,
    axial_trajectory_w,
    full_trajectory_reference,
)
from axialtrack.assignment import hungarian
from axialtrack.backward import trajectory_backward
from axialtrack.cli import cli_main
from axialtrack.config import ModelConfig
from axialtrack.crossclip import cross_clip_blocks, cross_clip_forward, query_trajectory_attention
from axialtrack.deform import build_pyramid, deform_params, msdeform_simplified
from axialtrack.heatmaps import trajectory_hit_rate
from axialtrack.macs import CATEGORIES, count_macs
from axialtrack.segmenter import decode_clip_queries, decoder_params, split_into_clips
from axialtrack.synthetic import build_oracle_params, demo_video_spec, generate_synthetic
from axialtrack.tensor import softmax_last, sorted_sum

from oracles import (
    brute_hungarian,
    naive_axial_h,
    naive_decode,
    naive_msdeform,
    naive_query_attention,
    stage_one_field,
)


def _report(num: int, name: str, ok: bool, elapsed: float, limit: float) -> None:
    status = "PASS" if (ok and elapsed < limit) else "FAIL"
    print(f"[criterion {num}] {name}: {status} ({elapsed:.2f}s / limit {limit:.0f}s)")
    assert ok, f"criterion {num} ({name}) failed its tolerance"
    assert elapsed < limit, f"criterion {num} ({name}) took {elapsed:.2f}s (limit {limit}s)"


def test_criterion_1_complexity_claim():
    start = time.perf_counter()
    ok = True
    for t, hw, d in itertools.product((2, 4), (2, 4, 8), (4, 8)):
        report = count_macs(ModelConfig(t=t, h=hw, w=hw, d=d))
        for scheme in ("full", "axial"):
            for key in CATEGORIES:
                ok &= report[f"{scheme}_{key}_measured"] == report[f"{scheme}_{key}_analytic"]
        ok &= report["ratio"] == (hw * hw) / (hw + hw)
        ok &= report["ratio"] == report["ratio_analytic"]
    _report(1, "complexity claim, dominant-term MACs exact", ok, time.perf_counter() - start, 10.0)


def test_criterion_2_oracle_equivalence_degenerate_axes():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        t = int(rng.integers(1, 4))        # T <= 3
        s = int(rng.integers(2, 7))        # S <= 6
        d = int(rng.choice((2, 4, 8)))     # D <= 8
        params = attention_params(d, rng, std=0.3)
        f_tall = rng.normal(size=(t, d, s, 1))
        diff = np.abs(
            axial_trajectory_h(f_tall, params) - full_trajectory_reference(f_tall, params)
        ).max()
        worst = max(worst, diff)
        f_wide = rng.normal(size=(t, d, 1, s))
        diff = np.abs(
            axial_trajectory_w(f_wide, params) - full_trajectory_reference(f_wide, params)
        ).max()
        worst = max(worst, diff)
    _report(2, f"degenerate-axis equivalence (max abs {worst:.2e})",
            worst <= 1e-10, time.perf_counter() - start, 5.0)


def test_criterion_3_equation_fidelity():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)

        # Axial-trajectory attention over features.
        f = rng.normal(size=(2, 4, 3, 2))
        p = attention_params(4, rng, std=0.3, scale=1.0)
        worst = max(worst, np.abs(axial_trajectory_h(f, p) - naive_axial_h(f, p)).max())

        # Trajectory attention over clip queries.
        z = rng.normal(size=(3, 4, 4))
        pz = attention_params(4, rng, std=0.3, scale=1.0)
        worst = max(
            worst, np.abs(query_trajectory_attention(z, pz) - naive_query_attention(z, pz)).max()
        )

        # Deformable attention over a pyramid.
        pyr = build_pyramid(rng.normal(size=(2, 3, 4, 4)))
        dp = deform_params(3, 2, rng)
        for lp in dp.levels:
            lp.w_offset = rng.normal(0.0, 0.5, size=lp.w_offset.shape)
            lp.w_weight = rng.normal(0.0, 0.5, size=lp.w_weight.shape)
        got = [msdeform_simplified(pyr, dp, m) for m in range(3)]
        want = naive_msdeform(pyr.levels, dp)
        worst = max(
            worst, max(np.abs(a - b).max() for a, b in zip(got, want))
        )

        # Transformer decoder layers.
        feats = rng.normal(size=(2, 4, 2, 2))
        queries = rng.normal(size=(3, 4))
        dec = decoder_params(4, rng, n_layers=2, std=0.3)
        got_q = decode_clip_queries(feats, queries, dec)
        worst = max(worst, np.abs(got_q - naive_decode(feats, queries, dec)).max())
    _report(3, f"equation fidelity vs naive oracles (max abs {worst:.2e})",
            worst <= 1e-10, time.perf_counter() - start, 30.0)


def test_criterion_4_gradient_correctness():
    start = time.perf_counter()
    eps = 1e-4
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(3000 + seed)
        f = rng.normal(size=(2, 4, 3, 3))
        ph = attention_params(4, rng, std=0.3)
        pw = attention_params(4, rng, std=0.3)
        upstream = rng.normal(size=f.shape)

        def loss(ff, pph=ph, ppw=pw):
            return float(np.sum(upstream * axial_trajectory_w(axial_trajectory_h(ff, pph), ppw)))

        grads = trajectory_backward(f, ph, pw, upstream)
        fd = np.zeros_like(f)
        for idx in np.ndindex(f.shape):
            fp = f.copy()
            fp[idx] += eps
            fm = f.copy()
            fm[idx] -= eps
            fd[idx] = (loss(fp) - loss(fm)) / (2 * eps)
        worst = max(worst, float(np.max(np.abs(grads.d_input - fd) / np.maximum(1e-6, np.abs(fd)))))

        fdv = np.zeros_like(ph.stage1.w_v)
        for idx in np.ndindex(fdv.shape):
            import copy as _copy
            p1 = _copy.deepcopy(ph)
            p1.stage1.w_v[idx] += eps
            p2 = _copy.deepcopy(ph)
            p2.stage1.w_v[idx] -= eps
            fdv[idx] = (loss(f, p1) - loss(f, p2)) / (2 * eps)
        worst = max(
            worst,
            float(np.max(np.abs(grads.params_h.stage1.w_v - fdv) / np.maximum(1e-6, np.abs(fdv)))),
        )
    _report(4, f"gradients vs central differences (max rel {worst:.2e})",
            worst < 1e-5, time.perf_counter() - start, 10.0)


def test_criterion_5_hungarian_optimality():
    start = time.perf_counter()
    ok = True
    rng = np.random.default_rng(4000)
    for n in range(2, 7):
        for _ in range(100):
            cost = rng.uniform(size=(n, n))
            got = hungarian(cost)
            pairs, total = brute_hungarian(cost)
            ok &= got.pairs == pairs
            ok &= got.total == total
    _report(5, "assignment matches exhaustive search (n = 2..6)",
            ok, time.perf_counter() - start, 5.0)


def test_criterion_6_end_to_end_oracle_segmentation(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "demo"
    rc = cli_main([
        "demo", "--seed", "7", "--l", "8", "--clip-len", "2",
        "--h", "32", "--w", "32", "--n-w", "2", "--n-c", "4",
        "--objects", "3", "--out", str(out),
    ])
    with open(out / "report.json", "r", encoding="utf-8") as fh:
        report = json.load(fh)
    ok = (
        rc == 0
        and report["vpq_near_online"] == 1.0
        and report["vpq_offline"] == 1.0
        and report["vpq_near_online_shuffled"] == 1.0
    )
    _report(6, "oracle demo segmentation (near-online, offline, shuffled)",
            ok, time.perf_counter() - start, 60.0)


def test_criterion_7_normalization_and_equivariance():
    start = time.perf_counter()
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        d = 4
        p = attention_params(d, rng, std=0.3)

        x = rng.normal(size=(2, 3, 4, d))
        w2 = _stage_two(_stage_one(x, p), p, softmax_last, sorted_sum, _project)["w2"].mean(axis=1)
        ok &= bool(np.all(np.abs(stage_one_field(x, p).sum(axis=-1) - 1.0) <= 1e-9))
        ok &= bool(np.all(np.abs(w2.sum(axis=-1) - 1.0) <= 1e-9))

        f = rng.normal(size=(2, d, 4, 3))
        perm_h = rng.permutation(4)
        out = axial_trajectory_h(f, p)
        ok &= np.array_equal(out[:, :, perm_h, :], axial_trajectory_h(f[:, :, perm_h, :], p))

        perm_w = rng.permutation(3)
        out_w = axial_trajectory_w(f, p)
        ok &= np.array_equal(out_w[:, :, :, perm_w], axial_trajectory_w(f[:, :, :, perm_w], p))

        z = rng.normal(size=(3, 5, d))
        blocks = cross_clip_blocks(d, 2, rng)
        perm_n = rng.permutation(5)
        zo = cross_clip_forward(z, blocks)
        ok &= np.array_equal(zo[:, perm_n], cross_clip_forward(z[:, perm_n], blocks))
    _report(7, "softmax normalization and bitwise permutation equivariance",
            ok, time.perf_counter() - start, 30.0)


def test_criterion_8_trajectory_tracking_property():
    start = time.perf_counter()
    cfg = ModelConfig(seed=7)
    spec = demo_video_spec(cfg)
    video, gt = generate_synthetic(spec)
    params = build_oracle_params(spec, cfg)
    block = params.within_blocks[0]
    moving = [v != (0, 0) for v in spec.velocities]
    clips = split_into_clips(video, cfg.t)
    rate, _ = trajectory_hit_rate([t.masks for t in gt.tubes], moving, clips, block, (0, 0, 0))
    _report(8, f"heatmap argmax inside moving object (rate {rate:.4f})",
            rate >= 0.95, time.perf_counter() - start, 30.0)


def test_criterion_9_byte_identical_runs(tmp_path):
    start = time.perf_counter()
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli_main(["demo", "--seed", "7", "--out", str(out)]) == 0
        outs.append(out)

    def read(path):
        with open(path, "rb") as fh:
            return fh.read()

    ok = read(outs[0] / "report.json") == read(outs[1] / "report.json")
    pgms = []
    for out in outs:
        found = {}
        for dirpath, _, names in os.walk(out):
            for name in sorted(names):
                if name.endswith(".pgm"):
                    rel = os.path.relpath(os.path.join(dirpath, name), out)
                    found[rel] = read(os.path.join(dirpath, name))
        pgms.append(found)
    ok &= pgms[0] == pgms[1] and len(pgms[0]) > 0
    _report(9, "byte-identical reports and image streams",
            ok, time.perf_counter() - start, 120.0)
