"""Model configuration, its line-oriented text format, and a run's memory.

Files are UTF-8 `key = value` lines; `#` starts a comment and unknown
keys are rejected. `atrous_rates` is a comma-separated integer triple.

A run's declared peak (`run_peak`) composes the peaks that each stage
declares beside its kernel (`attention.pass_peak`, `deform.sampling_peak`,
`segmenter.decoder_peak`, `heatmaps.clip_peak`) with what else is alive at
that moment of a run; no kernel's arrays are counted here.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, fields, replace

from . import errors
from .attention import pass_peak, stage_one_footprint
from .deform import sampling_peak
from .errors import ConfigError, check_memory
from .heatmaps import clip_peak
from .segmenter import decoder_peak
from .tensor import SMALL_BYTES

SCALE_RSQRT_D = "rsqrt_d"
SCALE_ONE = "one"
# A whole run's fixed bytes: its small objects beside a stage's (2 SMALL_BYTES),
# and 1 MiB for the modules that a process's first run imports (numpy.random
# for its seeded streams, 0.75 MB, and locale for argparse's messages, 0.16 MB).
RUN_BYTES = 2 * SMALL_BYTES + 2 ** 20

_INT_KEYS = ("l", "t", "h", "w", "d", "n", "c", "n_w", "n_c", "heads", "k_sample", "seed")


@dataclass(frozen=True)
class ModelConfig:
    """All pipeline hyperparameters, desk-scale defaults."""

    l: int = 8
    t: int = 2
    h: int = 32
    w: int = 32
    d: int = 8
    n: int = 4
    c: int = 4
    n_w: int = 2
    n_c: int = 4
    heads: int = 1
    k_sample: int = 4
    atrous_rates: tuple[int, int, int] = (1, 2, 3)
    scale_mode: str = SCALE_RSQRT_D
    seed: int = 0

    def validate(self) -> None:
        if self.t < 2:
            raise ConfigError(f"clip length t must be >= 2, got {self.t}")
        for key in ("l", "h", "w", "d", "n", "c", "heads", "k_sample"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.n_w < 0 or self.n_c < 0:
            raise ConfigError("block counts n_w and n_c must be >= 0")
        r = self.atrous_rates
        if len(r) != 3 or not (0 < r[0] < r[1] < r[2]):
            raise ConfigError(f"atrous_rates must be three strictly increasing positives, got {r}")
        if self.scale_mode not in (SCALE_RSQRT_D, SCALE_ONE):
            raise ConfigError(f"scale_mode must be {SCALE_RSQRT_D!r} or {SCALE_ONE!r}")
        if self.d % self.heads != 0:
            raise ConfigError(f"heads ({self.heads}) must divide d ({self.d})")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in 64 unsigned bits")

    def validate_pipeline(self) -> None:
        """`validate`, plus the pipeline's rules (MAC accounting runs the attention
        alone at any extents): a within-clip block's pyramid halves H and W twice, and `run_peak`
        must fit `errors.MEMORY_LIMIT` before the video is drawn or the parameters are built. A
        refusal names the first stage whose own arrays exceed it, else the stage at the peak."""
        self.validate()
        for key in ("h", "w"):
            if self.n_w and getattr(self, key) % 4:
                raise ConfigError(f"{key} must be divisible by 4, got {getattr(self, key)}")
        stages = _stages(self)
        for stage, values, n, what, _ in stages:
            check_memory(stage, values, n, what)
        stage, values, n, what, peak = max(stages, key=lambda s: s[4])
        check_memory(stage, values, peak, f"a run's peak, at {n} bytes of {what}")

    def scale(self) -> float:
        if self.scale_mode == SCALE_ONE:
            return 1.0
        return 1.0 / math.sqrt(self.d)


def run_peak(cfg: ModelConfig, g: int | None = None) -> int:
    """The most bytes alive at any moment of a `demo` run, at g clips a group."""
    return max(s[4] for s in _stages(cfg, g))


def clip_group(cfg: ModelConfig) -> int:
    """Clips per within-clip call, K without a within-clip block: the most
    clips (at most K) whose run peak is no higher than at one clip, nor than
    `errors.MEMORY_LIMIT`, so grouping never raises the declared peak."""
    clips, room = -(-cfg.l // cfg.t), min(run_peak(cfg, 1), errors.MEMORY_LIMIT)
    if not cfg.n_w or run_peak(cfg, clips) <= room:
        return clips
    # Below K the peak grows with g: bisect for the first g that is too many.
    return max(1, bisect.bisect_left(range(1, clips), True, key=lambda g: run_peak(cfg, g) > room))


def _group_bytes(cfg: ModelConfig, g: int) -> dict[str, int]:
    """Within-clip stage -> bytes of `deform.within_clip_forward` at its peak
    on g clips (n_w >= 1) in (g T, D, H, W) planes P; "sampler" is the
    sampler's own count (`deform.sampling_peak`). Sampling: that count, the
    coarse levels and output (2 P), at a block's finest query level; the last
    block samples that level alone, beside its input pyramid and no coarse
    output. A finest pass (`attention.pass_peak`) beside at most 3 P: before
    the last block the sampled pyramid and coarse outputs, at the last the
    sampled finest level alone."""
    t, h, w, d = cfg.t, cfg.h, cfg.w, cfg.d
    plane = 8 * g * t * h * w * d
    sampler = sampling_peak((g * t, d, h, w), cfg.k_sample)
    return {"sampler": sampler, "deformable sampling": sampler + 2 * plane,
            "H trajectory pass": 3 * plane + pass_peak((g * w, t, h, d), cfg.heads),
            "W trajectory pass": 3 * plane + pass_peak((g * h, t, w, d), cfg.heads)}


def _stages(cfg: ModelConfig, g: int | None = None) -> list[tuple[str, str, int, str, int]]:
    """(stage, the values its count reads, the bytes of its own arrays, what
    they hold, the run's bytes at its peak) in check order, at g clips a group."""
    g = clip_group(cfg) if g is None else g
    l, t, h, w, d, n, k = cfg.l, cfg.t, cfg.h, cfg.w, cfg.d, cfg.n, cfg.k_sample
    px, frames = h * w, -(-l // t) * t  # frames padded to whole clips
    clips = frames // t

    def trajectory_pass(name: str, shape: tuple[int, int, int, int], peak: int) -> tuple:
        return (f"{name} trajectory pass", f"(B, T, S, D) = {shape}", *stage_one_footprint(shape, cfg.heads), peak)

    # Queries (N, D) and class head (D, C); three decoder layers of 14 D^2
    # (two attentions of 3 D^2, a 4D-wide feed-forward); per within-clip block,
    # deformable sampling of 3 (2 D^2 + 5 K D) and two axial attentions of
    # 6 D^2; per cross-clip block, an attention of 6 D^2 and a pyramid of 10 D^2.
    params = 8 * (n * d + d * cfg.c + 42 * d * d + cfg.n_w * (18 * d * d + 15 * k * d) + cfg.n_c * 16 * d * d)
    decoder = decoder_peak(n, (t, d, h, w))
    # In float64 (H, W) planes a run holds the (L, D) video, at most N tubes
    # of ground truth, the parameters and RUN_BYTES but a stage's SMALL_BYTES;
    # while the clips run, their padded copy; then the (F, D) clip features
    # unless views of the video (no within-clip block, no padding), and the
    # (F, N) clip masks. The offline logistic adds per padded frame the tubes,
    # logits, its work array and output (4 N) and two boolean masks (N / 4).
    base = 8 * px * l * (d + n) + params + RUN_BYTES - SMALL_BYTES
    copy, masks = 8 * px * frames * d * (frames != l), 8 * px * frames * n
    features = 8 * px * frames * d if cfg.n_w or frames != l else 0
    video = base - params + features + 42 * px * frames * n + SMALL_BYTES
    stages = []
    if cfg.n_w:  # only a within-clip block samples
        group = _group_bytes(cfg, g)
        beside = base + copy + features * (g < clips)  # a split run writes each group into the features
        stages.append(("deformable sampling", f"{t=}, {h=}, {w=}, k_sample={k}, {d=}", group["sampler"],
                       "finest-level sampling arrays", beside + group["deformable sampling"]))
    stages += [
        ("parameters", f"{n=}, c={cfg.c}, {d=}, n_w={cfg.n_w}, n_c={cfg.n_c}, k_sample={k}", params,
         "float64 parameters", base),
        ("query decoding", f"{n=}, {t=}, {h=}, {w=}, {d=}", decoder, "decoder features and attention scores",
         base + copy + features * (cfg.n_w > 0) + masks + decoder),
    ]
    if cfg.n_c:  # beside the clip masks, the near-online tubes and its (K, N, D) input
        stages.append(trajectory_pass("cross-clip", cross := (1, clips, n, d), base + features + 2 * masks
                                      + 8 * clips * n * d + pass_peak(cross, cfg.heads)))
    stages.append(("video", f"{l=}, {t=}, {h=}, {w=}, {d=}, {n=}", video,
                   "float64 video, ground truth, clip runs, tubes and logits", video + params))
    if cfg.n_w:  # the heatmaps read a clip at a time beside the clip copy and three modes' (F, N) tubes
        heatmaps = clip_peak((t, d, h, w), cfg.heads)
        stages += [trajectory_pass("H", (g * w, t, h, d), beside + group["H trajectory pass"]),
                   trajectory_pass("W", (g * h, t, w, d), beside + group["W trajectory pass"]),
                   ("heatmaps", f"{t=}, {h=}, {w=}, {d=}, heads={cfg.heads}", heatmaps,
                    "a clip's H pass and heatmap rows at every pixel", base + copy + 3 * masks + heatmaps)]
    return stages


def config_values(cfg: ModelConfig) -> dict:
    """Key -> value in field order as the text format writes it (`atrous_rates` as "1,2,3")."""
    values = {f.name: getattr(cfg, f.name) for f in fields(ModelConfig)}
    values["atrous_rates"] = ",".join(str(v) for v in cfg.atrous_rates)
    return values


def format_config(cfg: ModelConfig) -> str:
    return "".join(f"{key} = {value}\n" for key, value in config_values(cfg).items())


def parse_value(key: str, text: str):
    """The value of a known `key` from its text; ConfigError names a bad one."""
    try:
        if key in _INT_KEYS:
            return int(text)
        if key == "atrous_rates":
            return tuple(int(v) for v in text.split(","))
    except ValueError:
        need = "an integer" if key in _INT_KEYS else "comma-separated integers"
        raise ConfigError(f"{key} needs {need}, got {text!r}") from None
    return text


def _parse_updates(text: str) -> dict:
    """Key -> value of every `key = value` line; ConfigError names a bad line."""
    known = {f.name for f in fields(ModelConfig)}
    updates: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            updates[key] = parse_value(key, value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return updates


def parse_config(text: str, base: ModelConfig | None = None) -> ModelConfig:
    """Parse `key = value` lines on top of `base` (defaults when omitted)."""
    cfg = replace(base if base is not None else ModelConfig(), **_parse_updates(text))
    cfg.validate()
    return cfg


def read_config_updates(path) -> dict:
    """Key -> value of every line of the config file at `path`."""
    # An undecodable byte reads as U+FFFD, which no key or value accepts.
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return _parse_updates(fh.read())


def load_config(path, base: ModelConfig | None = None) -> ModelConfig:
    cfg = replace(base if base is not None else ModelConfig(), **read_config_updates(path))
    cfg.validate()
    return cfg
