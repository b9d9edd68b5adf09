"""Span tracer installed from outside the program, plus computed counters.

Each traced function is wrapped at every name under which an `axialtrack`
module binds it, so the real call graph runs unchanged and every caller
(`segmenter.within_clip_forward`, `deform.axial_trajectory_h`, ...) goes
through the span. The root span `cli.demo` is installed in the CLI's
dispatch table, which is where `cli_main` looks the command up.

Spans are kept in memory as [name, parent, start_ns, end_ns, op] records
and written once, when the run ends. A span's self time is its duration
minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

from axialtrack import attention, cli, tensor

# Public functions traced per module, named by the module that defines them.
SPANS = {
    "segmenter": ("near_online_inference", "link_video", "run_clip",
                  "decode_clip_queries", "predict_clip_tubes", "associate_clips"),
    "deform": ("build_pyramid", "within_clip_forward", "msdeform_simplified"),
    "attention": ("axial_trajectory_h", "axial_trajectory_w", "trajectory_pass_1d"),
    "tensor": ("sorted_sum", "softmax_last", "bilinear_sample"),
    "backward": ("trajectory_backward",),
    "crossclip": ("offline_inference", "cross_clip_forward", "query_trajectory_attention",
                  "temporal_aspp", "temporal_class_head"),
    "assignment": ("hungarian",),
    "metrics": ("vpq", "tube_iou"),
    "heatmaps": ("trajectory_hit_rate", "axial_fields", "dump_attention_heatmaps"),
    "pgm": ("dump_tube_set",),
    "synthetic": ("generate_synthetic", "build_oracle_params", "random_pipeline_params"),
}
ROOT_SPAN = "cli.demo"
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns) + (ROOT_SPAN,)

COUNTERS = {  # name -> unit; all are computed from argument shapes, not measured
    "attention.macs": "MAC",
    "attention.intermediate_bytes_max": "bytes",
    "assignment.n_max": "count",
    "pgm.bytes_written": "bytes",
    "segmenter.clip_reuse": "ratio",
}


def pass_macs(b: int, t: int, s: int, d: int) -> int:
    """Closed-form multiply-accumulates of one (B, T, S, D) trajectory pass."""
    stage_one = 2 * b * t * s * t * s * d
    stage_two = 2 * b * t * s * t * d
    projections = 3 * b * t * s * d * d + (b * t * s + 2 * b * t * t * s) * d * d
    return stage_one + stage_two + projections


def stage_one_bytes(b: int, t: int, s: int, d: int) -> int:
    """Size of the float64 stage-one product that the pass sorts: 8*B*T^2*S^2*D."""
    return 8 * b * t * t * s * s * d


def _tube_dump_bytes(tube, class_id: int) -> int:
    span, h, w = np.shape(tube.masks)
    meta = f"track_id = {tube.track_id}\nclass_id = {class_id}\nspan = {span}\n"
    frame = len(f"P5\n{w} {h}\n255\n") + h * w
    return len(meta.encode("utf-8")) + span * frame


class Counters:
    """Work counts derived from the arguments of traced calls."""

    OBSERVED = ("attention.trajectory_pass_1d", "assignment.hungarian",
                "pgm.dump_tube_set", "segmenter.run_clip")

    def __init__(self) -> None:
        self.macs = 0
        self.intermediate_max = 0
        self.largest_pass = None  # (seq, params) of the call with the largest product
        self.n_max = 0
        self.bytes_written = 0
        self.clips: set[tuple[int, int]] = set()
        self.run_clip_calls = 0

    def observe(self, name: str, op: int, arguments: dict) -> None:
        if name == "attention.trajectory_pass_1d":
            shape = np.shape(arguments["seq"])
            self.macs += pass_macs(*shape)
            size = stage_one_bytes(*shape)
            if size > self.intermediate_max:
                self.intermediate_max = size
                self.largest_pass = (arguments["seq"], arguments["params"])
        elif name == "assignment.hungarian":
            self.n_max = max(self.n_max, *np.shape(arguments["cost"]))
        elif name == "pgm.dump_tube_set":
            pairs = zip(arguments["tubes"], arguments["class_ids"])
            self.bytes_written += sum(_tube_dump_bytes(t, c) for t, c in pairs)
        elif name == "segmenter.run_clip":
            self.run_clip_calls += 1
            self.clips.add((op, arguments["clip_index"]))

    def metrics(self, n_ops: int) -> dict[str, float]:
        return {
            "attention.macs": self.macs / n_ops,
            "attention.intermediate_bytes_max": self.intermediate_max,
            "assignment.n_max": self.n_max,
            "pgm.bytes_written": self.bytes_written / n_ops,
            "segmenter.clip_reuse": len(self.clips) / self.run_clip_calls if self.run_clip_calls else 0.0,
        }


class Tracer:
    """Records spans while `active`; `op` is the index of the running op, -1 in set-up."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.op = -1
        self.counters = Counters()

    def span(self, name: str, fn):
        records, stack, counters = self.records, self.stack, self.counters
        signature = inspect.signature(fn) if name in Counters.OBSERVED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if signature is not None:
                counters.observe(name, self.op, signature.bind(*args, **kwargs).arguments)
            index = len(records)
            record = [name, stack[-1] if stack else -1, 0, 0, self.op]
            records.append(record)
            stack.append(index)
            record[2] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter_ns()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every traced function at each `axialtrack` name bound to it.

        A binding that already wraps the function (its `__wrapped__` is the
        original, as with a workload's output recorder) is wrapped in turn.
        """
        modules = [m for key, m in sys.modules.items()
                   if key == "axialtrack" or key.startswith("axialtrack.")]
        for mod_name, fns in SPANS.items():
            home = importlib.import_module(f"axialtrack.{mod_name}")
            for fn_name in fns:
                original = getattr(home, fn_name)
                name = f"{mod_name}.{fn_name}"
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original or getattr(value, "__wrapped__", None) is original:
                            setattr(module, attr, self.span(name, value))
        cli._COMMANDS["demo"] = self.span(ROOT_SPAN, cli._COMMANDS["demo"])

    def layer_metrics(self, setup_end: int, n_ops: int) -> dict[str, float]:
        """Calls and self seconds per span: one set-up plus the mean op."""
        # [set-up, all ops] totals per span, kept as integers until the end.
        calls = {name: [0, 0] for name in SPAN_NAMES}
        self_ns = {name: [0, 0] for name in SPAN_NAMES}
        for index, (name, parent, start, end, _) in enumerate(self.records):
            phase = 0 if index < setup_end else 1
            calls[name][phase] += 1
            self_ns[name][phase] += end - start
            if parent >= 0:
                self_ns[self.records[parent][0]][phase] -= end - start
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name][0] + calls[name][1] / n_ops
            out[f"{name}.self_s"] = (self_ns[name][0] + self_ns[name][1] / n_ops) / 1e9
        return out

    def write(self, path: str, extra: dict) -> None:
        names = sorted({r[0] for r in self.records})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[r[0]], *r[1:]] for r in self.records]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "fields": ["name", "parent", "start_ns", "end_ns", "op"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))


def check_counters(tracer: Tracer) -> list[str]:
    """Compare the computed attention counters with the program on the same input.

    Call it between ops, while the tracer is inactive. The largest traced
    `trajectory_pass_1d` call is re-run unwrapped with a
    `MacCounter`, while a recorder at `attention.sorted_sum` (the name the
    pass looks up) measures the stage-one product it actually sorts.
    """
    if tracer.counters.largest_pass is None:
        return []
    seq, params = tracer.counters.largest_pass
    shape = np.shape(seq)
    sizes: list[int] = []
    summed = attention.sorted_sum

    def recording_sorted_sum(x, *args, **kwargs):
        sizes.append(np.asarray(x).nbytes)
        return summed(x, *args, **kwargs)

    counter = tensor.MacCounter()
    attention.sorted_sum = recording_sorted_sum
    try:
        inspect.unwrap(attention.trajectory_pass_1d)(seq, params, counter)
    finally:
        attention.sorted_sum = summed
    problems = []
    if counter.total() != pass_macs(*shape):
        problems.append(f"attention.macs {pass_macs(*shape)} != MacCounter {counter.total()} at {shape}")
    if max(sizes, default=0) != stage_one_bytes(*shape):
        problems.append(
            f"attention.intermediate_bytes_max {stage_one_bytes(*shape)} != "
            f"stage-one product {max(sizes, default=0)} bytes at {shape}"
        )
    return problems
