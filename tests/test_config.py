import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axialtrack import attention, errors
from axialtrack.cli import cli_main
from axialtrack.config import (
    RUN_BYTES,
    ModelConfig,
    _group_bytes,
    _stages,
    clip_group,
    format_config,
    load_config,
    parse_config,
    run_peak,
)
from axialtrack.deform import within_clip_forward
from axialtrack.errors import ConfigError, ResourceGuardError
from axialtrack.segmenter import run_clips
from axialtrack.synthetic import random_pipeline_params

from test_deform import traced_sampling
from test_heatmaps import traced_hit_rate
from test_segmenter import traced_decoding
from traced import traced_peak


class TestModelConfig:
    def test_defaults_valid(self):
        ModelConfig().validate()

    def test_scale_modes(self):
        assert ModelConfig(d=16).scale() == 0.25
        assert ModelConfig(scale_mode="one").scale() == 1.0

    def test_clip_length_floor(self):
        with pytest.raises(ConfigError):
            ModelConfig(t=1).validate()

    def test_rates_must_increase(self):
        with pytest.raises(ConfigError):
            ModelConfig(atrous_rates=(2, 2, 3)).validate()

    def test_heads_divide_channels(self):
        with pytest.raises(ConfigError):
            ModelConfig(d=6, heads=4).validate()

    def test_negative_blocks_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_w=-1).validate()

    def test_pipeline_needs_extents_divisible_by_four(self):
        ModelConfig(h=16, w=24).validate_pipeline()
        ModelConfig(n_w=0, h=30, w=22).validate_pipeline()  # no within-clip block, no pyramid
        for key in ("h", "w"):
            bad = ModelConfig(**{key: 30})
            bad.validate()  # MAC accounting still accepts it
            with pytest.raises(ConfigError, match=f"{key} must be divisible by 4"):
                bad.validate_pipeline()

    # Each boundary config makes its stage the largest one checked so far,
    # so a limit one byte below its own count refuses that stage by name.

    def test_pipeline_sampler_bytes_bounded(self, monkeypatch):
        # Finest query level of 8 x 12 pixels and K = 30 points, D = 6, T = 3.
        cfg = ModelConfig(t=3, h=8, w=12, k_sample=30, d=6)
        assert clip_group(cfg) == 1
        _check_boundary(monkeypatch, cfg,
                        ["deformable sampling refused", "t=3", "h=8", "w=12", "k_sample=30", "d=6"])
        replace(cfg, n_w=0).validate_pipeline()  # nothing samples without a within-clip block

    def test_pipeline_param_bytes_bounded(self, monkeypatch):
        # Queries, class head, three decoder layers, two within-clip blocks
        # and one cross-clip block at D = 24, K = 2.
        cfg = ModelConfig(l=2, h=4, w=4, n=5, c=3, d=24, n_w=2, n_c=1, k_sample=2)
        _check_boundary(monkeypatch, cfg,
                        ["parameters refused", "n=5", "c=3", "d=24", "n_w=2", "n_c=1", "k_sample=2"])

    @pytest.mark.parametrize("cfg, values", [
        # Cross-attention to T*H*W = 128 pixels sets the (N, T*H*W) scores.
        (ModelConfig(l=2, h=8, w=8, n=16, d=4, k_sample=1), ["n=16", "h=8", "w=8", "d=4"]),
        # Self-attention among N = 300 queries sets the (N, N) scores.
        (ModelConfig(l=2, h=4, w=8, n=300, n_c=0, k_sample=1), ["n=300", "h=4", "w=8", "d=8"]),
    ], ids=["pixels", "queries"])
    def test_pipeline_decoder_bytes_bounded(self, monkeypatch, cfg, values):
        _check_boundary(monkeypatch, cfg, ["query decoding refused", "t=2", *values])

    def test_pipeline_video_bytes_bounded(self, monkeypatch):
        # Nine frames in clips of two, padded to ten, in 8 x 12 planes.
        cfg = ModelConfig(l=9, h=8, w=12, d=6, n=3, k_sample=1)
        _check_boundary(monkeypatch, cfg, ["video refused", "l=9", "t=2", "h=8", "w=12", "d=6", "n=3"])

    def test_pipeline_cross_clip_pass_bounded(self, monkeypatch):
        # 64 frames in clips of two: the cross-clip pass is (1, 32, N, D).
        cfg = ModelConfig(l=64, h=4, w=4, n=8, d=4, n_w=0, n_c=1, k_sample=1)
        _check_boundary(monkeypatch, cfg,
                        ["cross-clip trajectory pass refused", "(1, 32, 8, 4)", "stage-one product"])
        replace(cfg, n_c=0).validate_pipeline()  # no cross-clip pass

    @pytest.mark.parametrize("axis, h, w", [("H", 20, 8), ("W", 8, 20)], ids=["h_pass", "w_pass"])
    def test_pipeline_within_clip_passes_bounded(self, monkeypatch, axis, h, w):
        # The finest level's H pass is (W, T, H, D), its W pass (H, T, W, D);
        # the longer axis sets the larger stage-one product.
        cfg = ModelConfig(l=3, t=3, h=h, w=w, n_w=1, n_c=0, k_sample=1)
        _check_boundary(monkeypatch, cfg,
                        [f"{axis} trajectory pass refused", "(8, 3, 20, 8)", "stage-one product"])
        replace(cfg, n_w=0).validate_pipeline()  # no within-clip pass

    def test_pipeline_refuses_a_run_above_its_largest_stage(self, monkeypatch):
        # The default `demo` peaks at 11.19 MB, traced, against an H pass
        # product of 8.39 MB: a limit between them refuses the config.
        monkeypatch.setattr(errors, "MEMORY_LIMIT", 10_000_000)
        with pytest.raises(ResourceGuardError):
            ModelConfig().validate_pipeline()


def _stage_bytes(cfg) -> dict[str, int]:
    return {stage: n for stage, _, n, _, _ in _stages(cfg)}


def _check_boundary(monkeypatch, cfg, words):
    """A limit of `run_peak(cfg)` bytes lets the config through; one byte
    below the stage's own count refuses it, with a message naming every
    value the count reads and the count. `words[0]` is the stage's refusal."""
    need = _stage_bytes(cfg)[words[0].removesuffix(" refused")]
    monkeypatch.setattr(errors, "MEMORY_LIMIT", run_peak(cfg))
    cfg.validate_pipeline()
    monkeypatch.setattr(errors, "MEMORY_LIMIT", need - 1)
    with pytest.raises(ResourceGuardError) as err:
        cfg.validate_pipeline()
    assert str(err.value).startswith(words[0])
    for part in (*words, f"need {need} bytes", f"limit of {need - 1} bytes"):
        assert part in str(err.value)


# Each stage's traced peak, measured as its kernel's test file measures it.
def _sampler_peak(cfg) -> int:
    # One group of clips, as the run's first block samples them: every query
    # level when a later block samples the coarse ones, else the finest alone.
    finest = (clip_group(cfg), cfg.t, cfg.d, cfg.h, cfg.w)
    return traced_sampling(finest, cfg.k_sample, range(3) if cfg.n_w >= 2 else (2,))


def _decoder_peak(cfg) -> int:
    return traced_decoding(cfg.n, (cfg.t, cfg.d, cfg.h, cfg.w))


def _heatmap_peak(cfg) -> int:
    return traced_hit_rate((cfg.t, cfg.d, cfg.h, cfg.w), cfg.heads)


# Stage, its measure, the values that vary and their shapes, and fixed values.
_PEAK_CASES = [
    ("deformable sampling", _sampler_peak, ("t", "h", "w", "k_sample", "d"),
     [(3, 32, 48, 5, 6), (2, 64, 64, 4, 8), (4, 32, 32, 1, 16)], {}),
    # One block: the first is the last, and samples the finest level alone.
    ("deformable sampling", _sampler_peak, ("t", "h", "w", "k_sample", "d", "n_w"),
     [(3, 32, 48, 5, 6, 1), (2, 64, 64, 4, 8, 1), (4, 32, 32, 1, 16, 1)], {}),
    # The 16 clips of `track_many` in one group: the cross-clip pass sets the peak.
    ("deformable sampling", _sampler_peak, ("l", "t", "h", "w", "k_sample", "d", "n"),
     [(32, 2, 8, 8, 4, 16, 24)], {}),
    ("query decoding", _decoder_peak, ("n", "t", "h", "w", "d"),
     [(300, 2, 4, 8, 8), (6, 2, 32, 32, 8), (24, 4, 32, 32, 16)], {}),
    # A `demo` video never puts a reference on every pixel: the rows (D = 2),
    # or else the clip's H pass, set the stage's peak.
    ("heatmaps", _heatmap_peak, ("t", "h", "w", "d", "heads"),
     [(4, 16, 12, 2, 2), (2, 32, 32, 8, 1), (3, 24, 16, 8, 1)], dict(n_w=1)),
]


@pytest.mark.parametrize("stage, measure, cfg", [
    pytest.param(stage, measure, ModelConfig(**dict(zip(keys, shape)), **fixed),
                 id="-".join(f"{key}{value}" for key, value in zip(keys, shape)))
    for stage, measure, keys, shapes, fixed in _PEAK_CASES for shape in shapes
])
def test_stage_bytes_bound_the_measured_peak(stage, measure, cfg):
    # Each entry is at least its stage's traced peak, and at most a quarter above it.
    peak = measure(cfg)
    assert peak <= _stage_bytes(cfg)[stage] <= 1.25 * peak


# Small `demo` configs of three or more clips, over every block and head
# count, whose objects cross the frame in the video's length.
_DEMO_CONFIGS = st.builds(
    ModelConfig, l=st.integers(5, 11), t=st.sampled_from([2, 3]), h=st.sampled_from([8, 12, 16]),
    w=st.sampled_from([8, 12, 16]), d=st.sampled_from([2, 4, 6]), n=st.sampled_from([2, 3, 8]),
    c=st.just(3), n_w=st.integers(0, 2), n_c=st.integers(0, 2), heads=st.sampled_from([1, 2]),
    k_sample=st.sampled_from([1, 2, 4]),
).filter(lambda cfg: 2 * cfg.t < cfg.l <= min(e - max(2, 3 * e // 8) for e in (cfg.h, cfg.w)) + 1)


@pytest.fixture(scope="module")
def warm_run(tmp_path_factory):
    """One untraced `demo` first, so that the runs traced do not import."""
    out = str(tmp_path_factory.mktemp("warm"))
    assert cli_main(["demo", "--l", "5", "--h", "8", "--w", "8", "--out", out]) == 0
    return tmp_path_factory


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(cfg=_DEMO_CONFIGS)
@example(cfg=ModelConfig())  # peaked at 11.2 MB against a largest stage of 8.39 MB
@example(cfg=ModelConfig(l=4, t=4, h=48, w=32, d=2, n=3, c=3, n_w=2, n_c=1, heads=2, k_sample=4))
@example(cfg=ModelConfig(l=5, t=2, h=8, w=8, d=2, n=8, c=3, n_w=2, n_c=1, heads=2, k_sample=1))  # 2 clips a group
# The cross-clip pass sets the peak, beside the clip masks and near-online tubes only.
@example(cfg=ModelConfig(l=8, t=2, h=16, w=16, d=8, n=48, c=4, n_w=0, n_c=1))
@example(cfg=ModelConfig(l=16, t=2, h=24, w=24, d=8, n=48, c=4, n_w=1, n_c=1))
@example(cfg=ModelConfig(n_w=0, h=30, w=22, l=5))  # no pyramid, so H and W need not divide by 4
def test_run_peak_bounds_the_traced_demo(warm_run, cfg):
    # A whole `demo` never holds more than its declared peak, which is at
    # most a quarter above it beside the run's fixed bytes, and no pass's
    # own guard can refuse what the run peak admits.
    argv = ["demo", "--objects", str(min(3, cfg.d, cfg.n)), "--out", str(warm_run.mktemp("demo"))]
    for key in ("l", "t", "h", "w", "d", "n", "c", "n_w", "n_c", "heads", "k_sample"):
        argv += [f"--{key.replace('_', '-')}", str(getattr(cfg, key))]
    footprints = []

    def check(shape, heads):
        footprints.append(attention.stage_one_footprint(shape, heads)[0])
        guard(shape, heads)

    with pytest.MonkeyPatch.context() as patch:
        guard = attention.check_stage_one
        patch.setattr(attention, "check_stage_one", check)
        peak = traced_peak(lambda: cli_main(argv) == 0 or pytest.fail(f"demo failed: {argv}"))
    assert peak <= run_peak(cfg) <= 1.25 * peak + RUN_BYTES
    assert max(footprints, default=0) <= run_peak(cfg)


# The command runs first in a fresh process, with `tracemalloc` started
# before it, so what the run imports on its first use counts in its peak.
# A run imports neither the executors' package nor numpy's masked arrays.
_FIRST_COMMAND = """
import json, sys, tracemalloc
from axialtrack.cli import cli_main
tracemalloc.start()
start = tracemalloc.get_traced_memory()[0]
code = cli_main(sys.argv[2:])
peak = tracemalloc.get_traced_memory()[1] - start
modules = [name for name in ("concurrent", "numpy.ma") if name in sys.modules]
with open(sys.argv[1], "w") as f:
    json.dump({"code": code, "peak": peak, "modules": modules}, f)
"""
_TALL = ["--l", "4", "--t", "4", "--h", "48", "--w", "32", "--d", "2", "--n", "3", "--c", "3",
         "--n-w", "2", "--n-c", "1", "--heads", "2", "--k-sample", "4", "--objects", "2"]


@pytest.mark.parametrize("argv, cfg", [
    (["demo"], ModelConfig()),
    (["demo", *_TALL], ModelConfig(l=4, t=4, h=48, w=32, d=2, n=3, c=3, n_w=2, n_c=1, heads=2, k_sample=4)),
    (["attn"], ModelConfig()),  # bounded by the default demo's run peak
], ids=["demo", "demo-tall", "attn"])
def test_first_command_of_a_process_within_run_peak(tmp_path, argv, cfg):
    src = os.path.dirname(os.path.dirname(attention.__file__))
    result = tmp_path / "result.json"
    subprocess.run([sys.executable, "-c", _FIRST_COMMAND, str(result), *argv, "--out", str(tmp_path / "out")],
                   env=dict(os.environ, PYTHONPATH=src), check=True, capture_output=True)
    run = json.loads(result.read_text())
    assert run["code"] == 0
    assert run["peak"] <= run_peak(cfg)
    assert run["modules"] == []


class TestConfigText:
    def test_format_parse_round_trip(self):
        cfg = ModelConfig(t=3, h=16, w=24, atrous_rates=(1, 3, 5), seed=42)
        assert parse_config(format_config(cfg)) == cfg

    def test_comments_and_blanks(self):
        text = "\n# header\n t = 4  # inline\n\nseed = 9\n"
        cfg = parse_config(text)
        assert cfg.t == 4
        assert cfg.seed == 9
        assert cfg.h == ModelConfig().h

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("tt = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just words\n")

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("t = two\n")

    def test_bad_rates_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("atrous_rates = 1,2\n")

    def test_invalid_value_caught_at_parse(self):
        with pytest.raises(ConfigError):
            parse_config("t = 1\n")

    def test_format_pins_rates_text(self):
        text = format_config(ModelConfig(atrous_rates=(1, 3, 5)))
        assert text.startswith("l = 8\nt = 2\n")
        assert "\natrous_rates = 1,3,5\nscale_mode = rsqrt_d\nseed = 0\n" in text

    def test_bad_value_names_line_and_value(self):
        with pytest.raises(ConfigError, match="line 2: atrous_rates needs .*, got '1,x'"):
            parse_config("t = 2\natrous_rates = 1,x\n")

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_bytes(b"t = 2\n\xff\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)


def test_clip_group_keeps_the_one_clip_peak():
    # Over a grid of configs, g is the most clips (at most K) whose run peak
    # is no higher than at one clip, nor than the memory limit, so grouping
    # never raises the declared peak; a one-clip group always runs, and with
    # no within-clip block one group holds every clip.
    grid = itertools.product(((2, 2), (5, 2), (9, 3), (32, 2), (40000, 2)), ((8, 8), (16, 32)),
                             ((8, 4), (16, 24)), ((0, 0), (1, 0), (2, 4)), (1, 4), (1, 2))
    for (l, t), (h, w), (d, n), (n_w, n_c), k, heads in grid:
        cfg = ModelConfig(l=l, t=t, h=h, w=w, d=d, n=n, n_w=n_w, n_c=n_c, k_sample=k, heads=heads)
        g, clips, room = clip_group(cfg), -(-l // t), min(run_peak(cfg, 1), errors.MEMORY_LIMIT)
        assert 1 <= g <= clips and run_peak(cfg) == run_peak(cfg, g), cfg
        if not n_w:
            assert g == clips, cfg
            continue
        assert g == 1 or run_peak(cfg, g) <= room, cfg
        assert g == clips or run_peak(cfg, g + 1) > room, cfg
    # The benchmark's groups: one clip in `demo_oracle`, all 16 in `track_many`.
    assert clip_group(ModelConfig()) == 1 == clip_group(ModelConfig(heads=2))
    track_many = dict(l=32, t=2, h=8, w=8, d=16, n=24, c=4, n_w=1, n_c=4)
    assert clip_group(ModelConfig(**track_many)) == 16 == clip_group(ModelConfig(**track_many, heads=2))


def _group_peak(cfg, g) -> int:
    """Traced peak of the within-clip blocks on one group of g clips, as
    `run_clips` runs them."""
    params = random_pipeline_params(cfg)
    group = np.random.default_rng(1).normal(0.0, 1.0, (g, cfg.t, cfg.d, cfg.h, cfg.w))

    def run():
        within_clip_forward(group, params.within_blocks)

    run()  # one-time set-up is no array of the group
    return traced_peak(run)


# Clips per group, then the values that vary; n_w = 1 throughout.
_GROUP_KEYS = ("t", "h", "w", "d", "heads", "k_sample")
_GROUP_CASES = [
    (16, (2, 8, 8, 16, 1, 4)),  # `track_many`'s 16-clip group, at one and two heads
    (16, (2, 8, 8, 16, 2, 4)),
    (4, (2, 8, 8, 8, 8, 1)),  # one head per channel: the largest stage-one scratch rows
    (2, (2, 8, 8, 64, 1, 1)),  # D = 64: the sequence-sized arrays beside the product
    (4, (3, 16, 16, 8, 1, 2)),
    (3, (2, 8, 16, 8, 1, 2)),  # the W pass is the larger
    (1, (2, 32, 32, 8, 1, 4)),  # one clip of the default `demo`
]


@pytest.mark.parametrize("g, cfg", [
    pytest.param(g, ModelConfig(**dict(zip(_GROUP_KEYS, shape)), l=g * shape[0], n_w=1),
                 id=f"g{g}-" + "-".join(f"{key}{value}" for key, value in zip(_GROUP_KEYS, shape)))
    for g, shape in _GROUP_CASES
])
def test_group_bytes_bound_the_measured_peak(g, cfg):
    # A group's count is at least its traced peak, and at most a quarter above it.
    peak = _group_peak(cfg, g)
    assert peak <= max(_group_bytes(cfg, g).values()) <= 1.25 * peak


@pytest.mark.parametrize("cfg", [
    pytest.param(ModelConfig(l=32, t=2, h=8, w=8, d=16, n=24, c=4, n_w=1, n_c=4, heads=heads),
                 id=f"track_many-heads{heads}") for heads in (1, 2)
] + [
    # The cross-clip pass sets the run peak; three clips a group stay below
    # it, and the last group is short and ends padded.
    pytest.param(ModelConfig(l=31, t=2, h=8, w=16, d=8, n=8, c=3, n_w=n_w, n_c=1, k_sample=2),
                 id=f"room-for-three-n_w{n_w}") for n_w in (1, 2)
])
def test_grouped_run_stays_within_the_declared_peak(cfg):
    # A whole `run_clips`, the video drawn inside the trace, at groups of
    # more clips than a `demo` of this size can hold.
    assert 1 < clip_group(cfg)
    params = random_pipeline_params(cfg)

    def run():
        run_clips(np.random.default_rng(1).normal(0.0, 1.0, (cfg.l, cfg.d, cfg.h, cfg.w)), params)

    run()  # one-time set-up is no array of the run
    assert traced_peak(run) <= run_peak(cfg) <= run_peak(cfg, 1)


