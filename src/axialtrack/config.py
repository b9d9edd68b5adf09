"""Model configuration and its line-oriented text format.

Files are UTF-8 `key = value` lines; `#` starts a comment and unknown
keys are rejected. `atrous_rates` is a comma-separated integer triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from . import errors
from .attention import stage_one_bytes, stage_one_scratch_bytes
from .tensor import scratch_rows
from .errors import ConfigError, check_memory

SCALE_RSQRT_D = "rsqrt_d"
SCALE_ONE = "one"
# A stage's bytes beside its arrays: numpy's 8192-element ufunc buffer and
# small Python objects.
SMALL_BYTES = 2 ** 17

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
        """`validate`, plus the pipeline's rules. MAC accounting runs the
        attention alone at any extents; the pipeline's pyramid halves H and W
        twice, and every `stage_bytes` entry must fit `errors.MEMORY_LIMIT`
        before the video is drawn or the parameters are built."""
        self.validate()
        for key in ("h", "w"):
            if getattr(self, key) % 4:
                raise ConfigError(f"{key} must be divisible by 4, got {getattr(self, key)}")
        for stage, values, n, what in _stages(self):
            check_memory(stage, values, n, what)

    def scale(self) -> float:
        if self.scale_mode == SCALE_ONE:
            return 1.0
        return 1.0 / math.sqrt(self.d)


def stage_bytes(cfg: ModelConfig) -> dict[str, int]:
    """Stage -> the bytes it holds at its peak, in `validate_pipeline`'s check
    order; the sampler and the H and W passes hold `clip_group(cfg)` clips."""
    return {stage: n for stage, _, n, _ in _stages(cfg)}


def clip_group(cfg: ModelConfig) -> int:
    """Clips per within-clip call. A group of one clip always runs; one of
    more runs only if `group_bytes` fits beside the video entry, which
    bounds what a run holds while its clips run, within the largest entry
    of the one-clip table and `errors.MEMORY_LIMIT`. So grouping never
    raises the declared peak, nor a grouped run's peak above it, and a
    refusal names the stage that one clip would already overflow. Without
    a within-clip block nothing runs per group, and g is the clip count."""
    clips = -(-cfg.l // cfg.t)
    if not cfg.n_w:
        return clips
    one_clip = {stage: n for stage, _, n, _ in _stages(cfg, 1)}
    room = min(max(one_clip.values()), errors.MEMORY_LIMIT) - one_clip["video"]
    lo, hi = 1, clips  # the group's bytes grow with g: bisect
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if group_bytes(cfg, mid) <= room else (lo, mid - 1)
    return lo


def group_bytes(cfg: ModelConfig, g: int) -> int:
    """Bytes that `deform.within_clip_forward` holds at its peak on a group
    of g clips (n_w >= 1), beside the video it views, in (g T, D, H, W)
    float64 planes P at the finest level. While sampling: its entry, beside
    the input pyramid's coarse levels and its own output (2 P). In a finest
    H or W pass, those two pyramids and the level outputs so far (3 P) and
    SMALL_BYTES, beside the largest of the pass's three moments: while
    stage one fills its product, the product beside the input, its three
    projections (4 P) and the blocks' scratch (`stage_one_scratch_bytes`);
    while the product is summed, it beside the input and the (T P) sum; or
    stage two, the input, the queries and their projection (3 P) and five
    (T P) point arrays."""
    t, h, w, d = cfg.t, cfg.h, cfg.w, cfg.d
    plane = 8 * g * t * h * w * d

    def moments(shape: tuple[int, int, int, int]) -> int:
        product = stage_one_bytes(shape)
        scratch = stage_one_scratch_bytes(shape, cfg.heads)
        return max(product + max(4 * plane + scratch, (1 + t) * plane), (5 * t + 4) * plane)

    passes = 3 * plane + SMALL_BYTES + max(moments((g * w, t, h, d)), moments((g * h, t, w, d)))
    sampler = next(n for stage, _, n, _ in _stages(cfg, g) if stage == "deformable sampling")
    return max(sampler + 2 * plane, passes)


def _stages(cfg: ModelConfig, g: int | None = None) -> list[tuple[str, str, int, str]]:
    """(stage, the values its count reads, its bytes, what they hold), in
    check order, with `g` clips (`clip_group(cfg)` when omitted) per
    within-clip call."""
    if g is None:
        g = clip_group(cfg)
    l, t, h, w, d, n, k = cfg.l, cfg.t, cfg.h, cfg.w, cfg.d, cfg.n, cfg.k_sample
    px, frames = h * w, -(-l // t) * t  # frames padded to whole clips
    keys = max(n, t * px)  # the longer of the decoder's two softmax rows

    def named(*keys: str) -> str:
        return ", ".join(f"{key}={getattr(cfg, key)}" for key in keys)

    def trajectory_pass(name: str, shape: tuple[int, int, int, int]) -> tuple:
        return (f"{name} trajectory pass", f"(B, T, S, D) = {shape}", stage_one_bytes(shape),
                "stage-one product")

    stages = []
    if cfg.n_w:  # only a within-clip block samples
        # The finest query level's gather from the finest level, over the g t
        # frames of a group: per frame, that level's (H+2, W+2, D) bordered
        # copy; per pixel, the queries and the running sum beside at most D of
        # coarser outputs (3 D); per sampling point, the samples and one
        # corner's gather, weighted in place (2 D), the offsets, points and
        # their integer and fractional parts (8), the 3 weights, 4 corner
        # weights and 3 gather indices (10); and the (H*W, 2) grid.
        stages.append(("deformable sampling", named("t", "h", "w", "k_sample", "d"),
                       8 * (g * t * ((h + 2) * (w + 2) * d + px * (3 * d + 2 * k * d + 18 * k)) + 2 * px)
                       + SMALL_BYTES, "finest-level sampling arrays"))
    stages += [
        # Queries (N, D) and class head (D, C); three decoder layers of 14 D^2
        # (two attentions of 3 D^2, a 4D-wide feed-forward); per within-clip
        # block, deformable sampling of 3 (2 D^2 + 5 K D) and two axial
        # attentions of 6 D^2; per cross-clip block, an attention of 6 D^2
        # and a temporal pyramid of 10 D^2.
        ("parameters", named("n", "c", "d", "n_w", "n_c", "k_sample"),
         8 * (n * d + d * cfg.c + 42 * d * d + cfg.n_w * (18 * d * d + 15 * k * d) + cfg.n_c * 16 * d * d),
         "float64 parameters"),
        # A decoder layer's cross- or self-attention softmax: the (T*H*W, D)
        # features and, in cross-attention, their keys and values; the scaled
        # scores and the softmax output, 2 (N, T*H*W) or 2 (N, N), the
        # softmax's sort scratch of rows of either, and N denominators; the
        # queries, their norms and projections and the previous layer's
        # (N, 4D) hidden, 9 (N, D).
        ("query decoding", named("n", "t", "h", "w", "d"),
         8 * (3 * t * px * d + (2 * n + scratch_rows(n, keys)) * keys + 9 * n * d + n) + SMALL_BYTES,
         "decoder features and attention scores"),
    ]
    if cfg.n_c:
        stages.append(trajectory_pass("cross-clip", (1, frames // t, n, d)))
    # `demo`'s offline logistic, in float64 (H, W) planes: the (L, D) video
    # and at most N ground-truth tubes; per padded frame, the clip features
    # (D) unless they are views of the video (no within-clip block, no
    # padding), the clip masks, near-online tubes, offline logits, the
    # logistic's working array and its output (5 N), and its two boolean
    # masks (N / 4); beside twice SMALL_BYTES, 1 MiB for what a process's
    # first run imports lazily (numpy.random, numpy.ma, locale: 0.9 MB).
    features = 1 if cfg.n_w or frames != l else 0
    stages.append(("video", named("l", "t", "h", "w", "d", "n"),
                   px * (8 * l * (d + n) + frames * (8 * features * d + 42 * n)) + 2 * SMALL_BYTES + 2 ** 20,
                   "float64 video, ground truth, clip runs, tubes and logits"))
    if cfg.n_w:
        stages += [trajectory_pass("H", (g * w, t, h, d)), trajectory_pass("W", (g * h, t, w, d))]
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
