"""Command-line harness.

Subcommands:
  demo   synthetic video -> oracle parameters -> both inference modes,
         quality report, tube and heatmap dumps
  bench  multiply-accumulate accounting of both attention schemes
  attn   trajectory heatmap dump for a chosen reference point
  eval   compare a prediction dump against a ground-truth dump

Every run is a pure function of its arguments and config file: repeated
runs write byte-identical reports and image files. Exit codes: 0 on
success, 1 on a validation problem (an `AxialtrackError`) or a path that
cannot be read or written (an `OSError`), 2 on an internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .config import ModelConfig, config_values, format_config, parse_value, read_config_updates
from .crossclip import offline_inference
from .errors import AxialtrackError, ConfigError, DimensionError
from .heatmaps import axial_fields, dump_attention_heatmaps, trajectory_hit_rate
from .macs import count_macs
from .metrics import GroundTruthSet, vpq
from .pgm import dump_tube_set, load_tube_set
from .segmenter import Tube, link_video, near_online_inference, run_clips, split_into_clips
from .synthetic import build_oracle_params, demo_video_spec, generate_synthetic


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 instead of argparse's 2
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


_CONFIG_FLAGS = [f.name for f in fields(ModelConfig)]


def _add_out_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="DIR", default="out", help="output directory")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    parser.add_argument("--seed", type=int, help="seed for all randomness")
    _add_out_flag(parser)
    parser.add_argument("--l", type=int, help="video length in frames")
    parser.add_argument("--t", "--clip-len", dest="t", type=int, help="clip length")
    parser.add_argument("--h", type=int, help="frame height")
    parser.add_argument("--w", type=int, help="frame width")
    parser.add_argument("--d", type=int, help="channel count")
    parser.add_argument("--n", type=int, help="object queries per clip")
    parser.add_argument("--c", type=int, help="class count")
    parser.add_argument("--n-w", dest="n_w", type=int, help="within-clip blocks")
    parser.add_argument("--n-c", dest="n_c", type=int, help="cross-clip blocks")
    parser.add_argument("--heads", type=int, help="attention heads")
    parser.add_argument("--k-sample", dest="k_sample", type=int, help="sampling points per level")
    parser.add_argument("--atrous-rates", dest="atrous_rates", help="e.g. 1,2,3")
    parser.add_argument("--scale-mode", dest="scale_mode", choices=["rsqrt_d", "one"])


def build_parser() -> _Parser:
    parser = _Parser(prog="axialtrack")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", parents=[], help="oracle pipeline on a synthetic video")
    _add_config_flags(demo)
    demo.add_argument("--objects", type=int, default=3, help="synthetic object count")

    bench = sub.add_parser("bench", help="attention MAC accounting")
    _add_config_flags(bench)

    attn = sub.add_parser("attn", help="trajectory heatmap dump")
    _add_config_flags(attn)
    attn.add_argument("--ref-t", type=int, default=0, help="reference frame (video index)")
    attn.add_argument("--ref-h", type=int, help="reference row (default: center)")
    attn.add_argument("--ref-w", type=int, help="reference column (default: center)")

    ev = sub.add_parser("eval", help="compare tube dumps")
    _add_out_flag(ev)
    ev.add_argument("--pred", required=True, metavar="DIR", help="prediction dump")
    ev.add_argument("--gt", required=True, metavar="DIR", help="ground-truth dump")
    return parser


def _resolve_config(args: argparse.Namespace) -> tuple[ModelConfig, set[str]]:
    """The defaults, updated by the --config file and then by the flags, and
    the keys that the file or a flag set."""
    updates = read_config_updates(args.config) if args.config else {}
    replace(ModelConfig(), **updates).validate()  # the file alone is a valid config
    for key in _CONFIG_FLAGS:
        value = getattr(args, key)
        if value is None:
            continue
        if key == "atrous_rates":
            value = parse_value(key, value)
        updates[key] = value
    cfg = replace(ModelConfig(), **updates)
    cfg.validate()
    return cfg, set(updates)


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _flatten(data: dict, prefix: str = "") -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = []
    for key, value in data.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            items.extend(_flatten(value, f"{name}."))
        else:
            items.append((name, value))
    return items


def write_report(out_dir: str, data: dict) -> None:
    """Emit report.txt (flat key = value lines) and its JSON twin."""
    os.makedirs(out_dir, exist_ok=True)
    lines = [f"{key} = {_fmt(value)}" for key, value in _flatten(data)]
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _cmd_demo(args: argparse.Namespace) -> int:
    cfg, _ = _resolve_config(args)
    cfg.validate_pipeline()
    spec = demo_video_spec(cfg, args.objects)
    video, gt = generate_synthetic(spec)
    params = build_oracle_params(spec, cfg)

    runs = run_clips(video, params)  # each clip runs once; both links read it
    linked = link_video(runs)  # one link serves both modes
    near = near_online_inference(linked, params)
    off = offline_inference(linked, params)
    linked = link_video(runs, shuffle_rng=np.random.default_rng(cfg.seed + 1))
    shuffled = near_online_inference(linked, params)
    del runs, linked  # the clip runs would otherwise stay alive through the heatmaps below

    vpq_near = vpq(near, gt)
    vpq_off = vpq(off, gt)
    vpq_shuf = vpq(shuffled, gt)

    moving = [v != (0, 0) for v in spec.velocities]
    hit_rate = None  # no within-clip block, no maps to score
    if params.within_blocks:
        ref = _first_moving_reference(gt, moving)
        hit_rate, rows = trajectory_hit_rate(
            [t.masks for t in gt.tubes], moving, split_into_clips(video, cfg.t), params.within_blocks[0], ref)
        dump_attention_heatmaps(*rows, os.path.join(args.out, "heatmaps"))

    dump_tube_set(gt.tubes, gt.class_ids, os.path.join(args.out, "gt"))
    dump_tube_set(near, [int(np.argmax(t.class_probs)) for t in near], os.path.join(args.out, "pred_near"))
    dump_tube_set(off, [int(np.argmax(t.class_probs)) for t in off], os.path.join(args.out, "pred_offline"))

    write_report(args.out, {
        "config": config_values(cfg),
        "objects": spec.n_objects,
        "vpq_near_online": vpq_near,
        "vpq_offline": vpq_off,
        "vpq_near_online_shuffled": vpq_shuf,
        "traj_argmax_hit_rate": hit_rate,
    })
    with open(os.path.join(args.out, "config.txt"), "w", encoding="utf-8") as fh:
        fh.write(format_config(cfg))
    return 0


def _first_moving_reference(gt: GroundTruthSet, moving: list[bool]) -> tuple[int, int, int]:
    for tube, is_moving in zip(gt.tubes, moving):
        if not is_moving:
            continue
        ys, xs = np.nonzero(tube.masks[0])
        mid = len(ys) // 2
        return (0, int(ys[mid]), int(xs[mid]))
    ys, xs = np.nonzero(gt.tubes[0].masks[0])
    return (0, int(ys[0]), int(xs[0]))


DEFAULT_SWEEP = tuple(
    (t, hw, d) for t in (2, 4) for hw in (2, 4, 8) for d in (4, 8)
)


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg, given = _resolve_config(args)
    if given & {"t", "h", "w", "d"}:
        write_report(args.out, count_macs(cfg))
        return 0
    sweep: dict = {}
    for t, hw, d in DEFAULT_SWEEP:
        name = f"t{t}_h{hw}_w{hw}_d{d}"
        try:
            sweep[name] = count_macs(replace(cfg, t=t, h=hw, w=hw, d=d))
        except AxialtrackError as exc:
            raise type(exc)(f"sweep point {name}: {exc}") from None
    write_report(args.out, sweep)
    return 0


def _cmd_attn(args: argparse.Namespace) -> int:
    cfg, _ = _resolve_config(args)
    cfg.validate_pipeline()
    if not cfg.n_w:
        raise ConfigError("attn needs a within-clip block to draw its maps from, got n_w = 0")
    ref_t = args.ref_t
    ref_h = args.ref_h if args.ref_h is not None else cfg.h // 2
    ref_w = args.ref_w if args.ref_w is not None else cfg.w // 2
    if not 0 <= ref_t < cfg.l:
        raise DimensionError(f"reference frame {ref_t} outside video of length {cfg.l}")
    for flag, value, extent in (("--ref-h", ref_h, cfg.h), ("--ref-w", ref_w, cfg.w)):
        if not 0 <= value < extent:
            raise DimensionError(f"{flag} {value} outside [0, {extent})")
    spec = demo_video_spec(cfg)
    video, _ = generate_synthetic(spec)
    params = build_oracle_params(spec, cfg)
    clip_idx, t_local = divmod(ref_t, cfg.t)
    block = params.within_blocks[0]
    clip = split_into_clips(video, cfg.t)[clip_idx]
    rows_h, rows_w = axial_fields(clip, block.attn_h, block.attn_w, ([t_local], [ref_h], [ref_w]))
    paths = dump_attention_heatmaps(rows_h[0], rows_w[0], os.path.join(args.out, "heatmaps"))
    write_report(args.out, {
        "config": config_values(cfg),
        "clip_index": clip_idx,
        "reference": f"({ref_t},{ref_h},{ref_w})",
        "frames_written": len(paths),
    })
    return 0


def _one_hot_tubes(masks, class_ids, track_ids, index: dict[int, int]) -> list[Tube]:
    """Tubes whose class distribution is one-hot at `index[class_id]`.

    `index` maps the class ids that occur to 0..k-1 in ascending order, so
    the vectors stay k long however large the ids are.
    """
    tubes = []
    for m, cid, tid in zip(masks, class_ids, track_ids):
        probs = np.zeros(len(index))
        probs[index[cid]] = 1.0
        tubes.append(Tube(m, probs, track_id=tid))
    return tubes


def _cmd_eval(args: argparse.Namespace) -> int:
    pred_masks, pred_cls, pred_tids = load_tube_set(args.pred)
    gt_masks, gt_cls, gt_tids = load_tube_set(args.gt)
    if not gt_masks:
        raise ConfigError(f"no tubes found under {args.gt}")
    index = {cid: i for i, cid in enumerate(sorted(set(pred_cls) | set(gt_cls)))}
    preds = _one_hot_tubes(pred_masks, pred_cls, pred_tids, index)
    gt_tubes = _one_hot_tubes([np.round(m) for m in gt_masks], gt_cls, gt_tids, index)
    score = vpq(preds, GroundTruthSet(gt_tubes, [index[cid] for cid in gt_cls]))
    write_report(args.out, {"vpq": score, "predictions": len(preds), "ground_truth": len(gt_tubes)})
    return 0


_COMMANDS = {"demo": _cmd_demo, "bench": _cmd_bench, "attn": _cmd_attn, "eval": _cmd_eval}


def cli_main(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except (AxialtrackError, OSError) as exc:  # bad input or an unreadable path
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - anything else is an internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
