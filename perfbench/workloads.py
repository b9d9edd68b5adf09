"""The benchmark's three workloads: inputs from a seed, one timed op, checks.

Every call into the program goes through a module attribute
(`attention.axial_trajectory_h`, not a name imported here), so the span
tracer sees it.

* demo_oracle: the `demo` command users run, at the default config.
  Attention dominates; assignment sees n=4 with exact ties.
* axial_train: the H pass, the W pass and their analytic backward at
  T=4, 40x40 (T*H*W above the 4096 reference cap), D=16, 2 heads.
  Isolates attention, backward and memory.
* track_many: near-online plus offline inference on a random 32-frame
  video with random parameters. Assignment at n=24 without ties
  dominates, and cross-clip attention sees 16 clips.
"""

from __future__ import annotations

import functools
import json
import os
import shutil

import numpy as np

from axialtrack import attention, backward, cli, crossclip, segmenter, synthetic
from axialtrack.config import ModelConfig

ORACLE_TOL = 1e-10   # slice-vs-full agreement, as in the acceptance suite
GRAD_TOL = 1e-5      # relative gradient error, as in the acceptance suite
TOTAL_TOL = 1e-12    # relative; totals of equal assignments agree exactly


def _read_tree(root: str) -> dict[str, bytes]:
    tree = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                tree[os.path.relpath(path, root)] = fh.read()
    return tree


class DemoOracle:
    name = "demo_oracle"
    frames_per_op = 8
    spans = (
        "cli.demo", "synthetic.generate_synthetic", "synthetic.build_oracle_params",
        "segmenter.near_online_inference", "segmenter.link_video", "segmenter.run_clip",
        "segmenter.decode_clip_queries", "segmenter.predict_clip_tubes",
        "segmenter.associate_clips", "deform.build_pyramid", "deform.within_clip_forward",
        "deform.msdeform_simplified", "attention.axial_trajectory_h",
        "attention.axial_trajectory_w", "attention.trajectory_pass_1d", "tensor.sorted_sum",
        "tensor.softmax_last", "tensor.bilinear_sample", "crossclip.offline_inference",
        "crossclip.cross_clip_forward", "crossclip.query_trajectory_attention",
        "crossclip.temporal_aspp", "crossclip.temporal_class_head", "assignment.hungarian",
        "metrics.vpq", "metrics.tube_iou", "heatmaps.trajectory_hit_rate",
        "heatmaps.axial_fields", "heatmaps.dump_attention_heatmaps", "pgm.dump_tube_set",
    )

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.ops = 0
        self.first: dict[str, bytes] | None = None

    def setup(self) -> None:
        os.makedirs(self.scratch, exist_ok=True)

    def op(self):
        out = os.path.join(self.scratch, f"op{self.ops:04d}")
        self.ops += 1
        return cli.cli_main(["demo", "--seed", str(self.seed), "--out", out]), out

    def check(self, result) -> list[str]:
        code, out = result
        if code != 0:
            return [f"demo exited with code {code}"]
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        problems = [
            f"{key} = {report[key]!r}, expected 1.0"
            for key in ("vpq_near_online", "vpq_offline", "vpq_near_online_shuffled")
            if report[key] != 1.0
        ]
        if not report["traj_argmax_hit_rate"] >= 0.95:
            problems.append(f"traj_argmax_hit_rate = {report['traj_argmax_hit_rate']!r} < 0.95")
        tree = _read_tree(out)
        if self.first is None:
            self.first = tree
        elif tree != self.first:
            problems.append("output tree differs from the first op's")
        shutil.rmtree(out)
        return problems

    def check_run(self) -> list[str]:
        return []


class AxialTrain:
    name = "axial_train"
    T, HW, D, HEADS = 4, 40, 16, 2
    frames_per_op = T
    spans = (
        "attention.axial_trajectory_h", "attention.axial_trajectory_w",
        "attention.trajectory_pass_1d", "tensor.sorted_sum", "tensor.softmax_last",
        "backward.trajectory_backward",
    )

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.check_rng = np.random.default_rng((seed, 1))
        self.first = None

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.f = rng.normal(0.0, 1.0, size=(self.T, self.D, self.HW, self.HW))
        self.params_h = attention.attention_params(self.D, rng, heads=self.HEADS)
        self.params_w = attention.attention_params(self.D, rng, heads=self.HEADS)
        self.upstream = rng.normal(0.0, 1.0, size=self.f.shape)

    def op(self):
        mid = attention.axial_trajectory_h(self.f, self.params_h)
        out = attention.axial_trajectory_w(mid, self.params_w)
        grads = backward.trajectory_backward(self.f, self.params_h, self.params_w, self.upstream)
        return mid, out, grads

    @staticmethod
    def _arrays(result) -> list[np.ndarray]:
        mid, out, grads = result
        arrays = [mid, out, grads.d_input]
        for pair in (grads.params_h, grads.params_w):
            for stage in (pair.stage1, pair.stage2):
                arrays += [stage.w_q, stage.w_k, stage.w_v]
        return arrays

    def check(self, result) -> list[str]:
        mid, out, _ = result
        arrays = self._arrays(result)
        problems = []
        if not all(np.all(np.isfinite(a)) for a in arrays):
            problems.append("non-finite output or gradient")
        # Width is a pure batch axis of the H pass, height of the W pass.
        x, y = (int(v) for v in self.check_rng.integers(self.HW, size=2))
        col = attention.axial_trajectory_h(self.f[:, :, :, x:x + 1], self.params_h)[:, :, :, 0]
        row = attention.axial_trajectory_w(mid[:, :, y:y + 1, :], self.params_w)[:, :, 0, :]
        for what, got, want in (("H column", col, mid[:, :, :, x]), ("W row", row, out[:, :, y, :])):
            err = float(np.max(np.abs(got - want)))
            if not err <= ORACLE_TOL:
                problems.append(f"{what} slice differs from the full pass by {err:.3e}")
        if self.first is None:
            self.first = result
        elif not all(np.array_equal(a, b) for a, b in zip(arrays, self._arrays(self.first))):
            problems.append("outputs differ bitwise from the first op's")
        return problems

    def check_run(self) -> list[str]:
        """Central-difference check of d_input along one seeded direction."""
        if self.first is None:
            return []
        eps = 1e-5
        direction = np.random.default_rng((self.seed, 2)).normal(size=self.f.shape)

        def loss(f):
            mid = attention.axial_trajectory_h(f, self.params_h)
            return float(np.sum(self.upstream * attention.axial_trajectory_w(mid, self.params_w)))

        fd = (loss(self.f + eps * direction) - loss(self.f - eps * direction)) / (2 * eps)
        analytic = float(np.sum(self.first[2].d_input * direction))
        err = abs(analytic - fd) / max(1e-6, abs(fd))
        if not err < GRAD_TOL:
            return [f"d_input directional derivative: relative error {err:.3e} >= {GRAD_TOL}"]
        return []


class TrackMany:
    name = "track_many"
    CONFIG = dict(l=32, t=2, h=8, w=8, d=16, n=24, c=4, n_w=1, n_c=4)
    frames_per_op = CONFIG["l"]
    spans = (
        "synthetic.random_pipeline_params", "segmenter.near_online_inference",
        "segmenter.link_video", "segmenter.run_clip", "segmenter.decode_clip_queries",
        "segmenter.predict_clip_tubes", "segmenter.associate_clips", "deform.build_pyramid",
        "deform.within_clip_forward", "deform.msdeform_simplified",
        "attention.axial_trajectory_h", "attention.axial_trajectory_w",
        "attention.trajectory_pass_1d", "tensor.sorted_sum", "tensor.softmax_last",
        "tensor.bilinear_sample", "crossclip.offline_inference", "crossclip.cross_clip_forward",
        "crossclip.query_trajectory_attention", "crossclip.temporal_aspp",
        "crossclip.temporal_class_head", "assignment.hungarian",
    )

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.first = None
        self.solved: list = []
        # Record every (cost, assignment) that association solves, at the
        # name `associate_clips` looks up.
        solve = segmenter.hungarian

        @functools.wraps(solve)
        def recording_hungarian(cost):
            result = solve(cost)
            self.solved.append((cost, result))
            return result

        segmenter.hungarian = recording_hungarian

    def setup(self) -> None:
        cfg = ModelConfig(**self.CONFIG, seed=self.seed)
        shape = (cfg.l, cfg.d, cfg.h, cfg.w)
        self.video = np.random.default_rng((self.seed, 1)).normal(0.0, 1.0, size=shape)
        self.params = synthetic.random_pipeline_params(cfg)

    def op(self):
        self.solved = []
        near = segmenter.near_online_inference(self.video, self.params)
        off = crossclip.offline_inference(self.video, self.params)
        return near, off, self.solved

    def check(self, result) -> list[str]:
        # Imported here so that scipy's import stays out of the set-up time.
        from scipy.optimize import linear_sum_assignment

        near, off, solved = result
        cfg = self.CONFIG
        problems = []
        links = 2 * (-(-cfg["l"] // cfg["t"]) - 1)
        if len(solved) != links:
            problems.append(f"{len(solved)} association solves, expected {links}")
        for cost, assign in solved:
            rows, cols = linear_sum_assignment(cost)
            best = 0.0
            for i, j in zip(rows, cols):
                best += float(cost[i, j])
            if not abs(assign.total - best) <= TOTAL_TOL * max(1.0, abs(best)):
                problems.append(f"association total {assign.total!r} != optimum {best!r}")
        for label, tubes in (("near-online", near), ("offline", off)):
            if [t.track_id for t in tubes] != list(range(cfg["n"])):
                problems.append(f"{label} track ids are not 0..{cfg['n'] - 1}")
            for tube in tubes:
                try:
                    tube.validate()
                except ValueError as exc:
                    problems.append(f"{label} tube {tube.track_id}: {exc}")
                if not (np.all(np.isfinite(tube.masks)) and np.all(np.isfinite(tube.class_probs))):
                    problems.append(f"{label} tube {tube.track_id} is not finite")
                if tube.masks.shape != (cfg["l"], cfg["h"], cfg["w"]):
                    problems.append(f"{label} tube {tube.track_id} has shape {tube.masks.shape}")
        if self.first is None:
            self.first = (near, off)
        elif not all(
            np.array_equal(a.masks, b.masks) and np.array_equal(a.class_probs, b.class_probs)
            for a, b in zip(near + off, self.first[0] + self.first[1])
        ):
            problems.append("tubes differ bitwise from the first op's")
        return problems

    def check_run(self) -> list[str]:
        return []


WORKLOADS = {wl.name: wl for wl in (DemoOracle, AxialTrain, TrackMany)}
