"""Model configuration and its line-oriented text format.

Files are UTF-8 `key = value` lines; `#` starts a comment and unknown
keys are rejected. `atrous_rates` is a comma-separated integer triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .attention import check_stage_one
from .errors import ConfigError, ResourceGuardError

SCALE_RSQRT_D = "rsqrt_d"
SCALE_ONE = "one"
# Bound on the finest-level deformable sampler's (T, H*W*K, D) samples plus
# (T, H*W, 3K) weights, which one gather per level holds for a whole clip.
SAMPLER_BYTES_LIMIT = 2 ** 30
# Bound on the decoder's float64 attention scores for one clip: (N, T*H*W)
# for the cross-attention to the finest level, (N, N) for self-attention.
DECODER_BYTES_LIMIT = 2 ** 30
# Bound on the float64 bytes of the whole parameter bundle the pipeline builds.
PARAMS_BYTES_LIMIT = 2 ** 30
# Bound on the whole-video float64 arrays `demo` holds at its peak, in the
# offline mode: the (L, D, H, W) video and at most N (L, H, W) ground-truth
# tubes; per padded frame of its K = ceil(L / T) clips, the clip runs'
# features and masks, one gathered copy of both, the near-online tubes, the
# offline mask logits and tubes, and the logistic's working array and two
# boolean masks (5 N / 4 masks, counted as 3 N).
VIDEO_BYTES_LIMIT = 2 ** 30

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
        """`validate`, plus the frame-size and memory rules of the pipeline.

        MAC accounting runs the attention alone at any extents; the
        pipeline's feature pyramid halves H and W twice, its deformable
        sampler must fit `SAMPLER_BYTES_LIMIT`, its parameters
        `PARAMS_BYTES_LIMIT`, its query decoder `DECODER_BYTES_LIMIT`, its
        whole-video arrays `VIDEO_BYTES_LIMIT`, and its cross-clip pass over
        ceil(l / t) clips of n queries and its within-clip H and W passes
        at the finest level the stage-one limit of every trajectory pass,
        so that none of them is refused only after the video is drawn.
        """
        self.validate()
        for key in ("h", "w"):
            if getattr(self, key) % 4:
                raise ConfigError(f"{key} must be divisible by 4, got {getattr(self, key)}")
        sampler = 8 * self.t * self.h * self.w * self.k_sample * (self.d + 3)
        if sampler > SAMPLER_BYTES_LIMIT:
            raise ResourceGuardError(
                f"deformable sampling refused: t={self.t}, h={self.h}, w={self.w}, "
                f"k_sample={self.k_sample}, d={self.d} need {sampler} bytes of finest-level "
                f"samples and weights, above the limit of {SAMPLER_BYTES_LIMIT} bytes"
            )
        params = self.param_bytes()
        if params > PARAMS_BYTES_LIMIT:
            raise ResourceGuardError(
                f"parameters refused: n={self.n}, c={self.c}, d={self.d}, n_w={self.n_w}, "
                f"n_c={self.n_c}, k_sample={self.k_sample} need {params} bytes of float64 "
                f"parameters, above the limit of {PARAMS_BYTES_LIMIT} bytes"
            )
        scores = 8 * self.n * max(self.n, self.t * self.h * self.w)
        if scores > DECODER_BYTES_LIMIT:
            raise ResourceGuardError(
                f"query decoding refused: n={self.n}, t={self.t}, h={self.h}, w={self.w} need "
                f"{scores} bytes of decoder attention scores, above the limit of "
                f"{DECODER_BYTES_LIMIT} bytes"
            )
        clips = -(-self.l // self.t)
        if self.n_c:
            check_stage_one((1, clips, self.n, self.d))
        per_frame = self.l * (self.d + self.n) + clips * self.t * (2 * self.d + 8 * self.n)
        video = 8 * self.h * self.w * per_frame
        if video > VIDEO_BYTES_LIMIT:
            raise ResourceGuardError(
                f"video refused: l={self.l}, t={self.t}, h={self.h}, w={self.w}, d={self.d}, "
                f"n={self.n} need {video} bytes of float64 video, ground truth, clip runs, "
                f"linked clips, logits and tubes, above the limit of {VIDEO_BYTES_LIMIT} bytes"
            )
        if self.n_w:
            check_stage_one((self.w, self.t, self.h, self.d))
            check_stage_one((self.h, self.t, self.w, self.d))

    def param_bytes(self) -> int:
        """Float64 bytes of the pipeline's parameter bundle.

        Queries (N, D) and class head (D, C); three decoder layers of 14 D^2
        each (two attentions of 3 D^2, a 4D-wide feed-forward); per
        within-clip block, deformable sampling of 3 (2 D^2 + 5 K D) and two
        axial attentions of 6 D^2; per cross-clip block, an attention of
        6 D^2 and a temporal pyramid of 10 D^2.
        """
        d = self.d
        within = 3 * (2 * d * d + 5 * self.k_sample * d) + 12 * d * d
        cross = 16 * d * d
        return 8 * (self.n * d + d * self.c + 42 * d * d + self.n_w * within + self.n_c * cross)

    def scale(self) -> float:
        if self.scale_mode == SCALE_ONE:
            return 1.0
        return 1.0 / math.sqrt(self.d)


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
