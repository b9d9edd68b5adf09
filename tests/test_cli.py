import json
import os
import time
import tracemalloc

import numpy as np
import pytest

from axialtrack import cli, errors, segmenter
from axialtrack.cli import cli_main
from axialtrack.config import ModelConfig, run_peak
from axialtrack.errors import ResourceGuardError
from axialtrack.pgm import dump_tube_set, read_pgm, write_pgm
from axialtrack.segmenter import Tube


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _all_pgms(root):
    found = {}
    for dirpath, _, names in os.walk(root):
        for name in sorted(names):
            if name.endswith(".pgm"):
                full = os.path.join(dirpath, name)
                found[os.path.relpath(full, root)] = _read(full)
    return found


class TestDemo:
    def test_oracle_scores_and_determinism(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli_main(["demo", "--seed", "7", "--clip-len", "2", "--out", str(out_a)]) == 0
        assert cli_main(["demo", "--seed", "7", "--clip-len", "2", "--out", str(out_b)]) == 0

        report = json.loads(_read(out_a / "report.json"))
        assert report["vpq_near_online"] == 1.0
        assert report["vpq_offline"] == 1.0
        assert report["vpq_near_online_shuffled"] == 1.0

        text = _read(out_a / "report.txt").decode()
        assert "vpq_near_online = 1.0" in text
        assert "vpq_offline = 1.0" in text

        assert _read(out_a / "report.json") == _read(out_b / "report.json")
        assert _all_pgms(out_a) == _all_pgms(out_b)

    def test_heatmaps_and_dumps_exist(self, tmp_path):
        out = tmp_path / "demo"
        assert cli_main(["demo", "--seed", "1", "--out", str(out)]) == 0
        assert (out / "gt" / "tube_000" / "meta").exists()
        assert (out / "pred_near" / "tube_000" / "t0000.pgm").exists()
        img = read_pgm(out / "heatmaps" / "t0000.pgm")
        assert img.shape == (32, 32)

    def test_max_seed_runs(self, tmp_path):
        out = tmp_path / "demo"
        rc = cli_main(["demo", "--seed", str(2 ** 64 - 1), "--l", "4", "--h", "16", "--w", "16",
                       "--objects", "2", "--out", str(out)])
        assert rc == 0
        assert json.loads(_read(out / "report.json"))["config"]["seed"] == 2 ** 64 - 1

    def test_no_within_clip_block_reports_null_hit_rate(self, tmp_path):
        out = tmp_path / "demo"
        assert cli_main(["demo", "--n-w", "0", "--out", str(out)]) == 0

        def refuse(name):
            raise ValueError(f"non-JSON constant {name} in report.json")

        report = json.loads(_read(out / "report.json"), parse_constant=refuse)
        assert report["traj_argmax_hit_rate"] is None
        assert "traj_argmax_hit_rate = null\n" in _read(out / "report.txt").decode()
        assert not (out / "heatmaps").exists()

    def test_each_clip_runs_once(self, tmp_path, monkeypatch):
        # Eight frames in clips of two: both links read four clip runs.
        seen = []
        run_clip = segmenter.run_clip

        def counting_run_clip(features, params, clip_index):
            seen.append(clip_index)
            return run_clip(features, params, clip_index)

        monkeypatch.setattr(segmenter, "run_clip", counting_run_clip)
        assert cli_main(["demo", "--seed", "3", "--out", str(tmp_path / "demo")]) == 0
        assert seen == [0, 1, 2, 3]

    def test_one_link_serves_both_modes(self, tmp_path, monkeypatch):
        # Four clips: the shared link and the shuffled one solve 3 + 3 associations.
        solves = []  # association solves per link
        link, associate = cli.link_video, segmenter.associate_clips

        def counting_link(runs, **kwargs):
            solves.append(0)
            return link(runs, **kwargs)

        def counting_associate(prev, nxt):
            solves[-1] += 1
            return associate(prev, nxt)

        monkeypatch.setattr(cli, "link_video", counting_link)
        monkeypatch.setattr(segmenter, "associate_clips", counting_associate)
        assert cli_main(["demo", "--seed", "3", "--out", str(tmp_path / "demo")]) == 0
        assert solves == [3, 3]

    def test_long_video_names_frames_and_extent(self, tmp_path, capsys):
        # The second object moves one column a frame: 24 + 63 columns > 64.
        rc = cli_main(["demo", "--l", "64", "--h", "64", "--w", "64", "--n-c", "0",
                       "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "sweeps (16, 87) over l=64 frames" in err and "64x64 frame" in err

    @pytest.mark.parametrize("t", [2, 3], ids=["even", "padded"])
    def test_peak_memory_within_the_video_guard(self, tmp_path, monkeypatch, t):
        # Whole-video arrays dominate without within-clip or cross-clip blocks:
        # the declared run peak refuses the run at the video, and is at least
        # its traced peak and at most a quarter above it.
        flags = dict(l=16, t=t, h=96, w=96, d=3, n=3, c=3, n_w=0, n_c=0, k_sample=1)
        cfg = ModelConfig(**flags)
        monkeypatch.setattr(errors, "MEMORY_LIMIT", run_peak(cfg) - 1)
        with pytest.raises(ResourceGuardError, match=f"^video refused: .* need {run_peak(cfg)} bytes of a run"):
            cfg.validate_pipeline()
        monkeypatch.setattr(errors, "MEMORY_LIMIT", run_peak(cfg))
        argv = ["demo", "--out", str(tmp_path / "demo")]
        for key, value in flags.items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        tracemalloc.start()
        try:
            assert cli_main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= run_peak(cfg) <= 1.25 * peak

    def test_heatmap_peak_does_not_grow_with_clips(self, tmp_path):
        # The hit rate holds one clip's heatmap rows at a time, so four clips
        # peak where one does: a run that kept every clip's rows, or their
        # whole weight fields, would peak higher with each clip. A first,
        # untraced run makes the lazy imports.
        flags = ["--t", "4", "--h", "48", "--w", "32", "--d", "2", "--n", "3", "--c", "3", "--n-w", "2",
                 "--n-c", "1", "--heads", "2", "--k-sample", "4", "--objects", "1"]
        assert cli_main(["demo", "--l", "4", *flags, "--out", str(tmp_path / "warm")]) == 0
        peaks = []
        for clips in (1, 4):
            tracemalloc.start()
            try:
                assert cli_main(["demo", "--l", str(4 * clips), *flags, "--out", str(tmp_path / str(clips))]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    def test_report_refuses_nan(self, tmp_path):
        with pytest.raises(ValueError):
            cli.write_report(str(tmp_path), {"score": float("nan")})

    def test_object_count_above_channels_refused_at_once(self, tmp_path, capsys):
        start = time.perf_counter()
        rc = cli_main(["demo", "--objects", "1000000000000", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert "1000000000000" in err and "d = 8" in err

    def test_huge_atrous_rate_accepted(self, tmp_path):
        # Every non-centre tap of the top branch reaches past the four clips.
        out = tmp_path / "demo"
        assert cli_main(["demo", "--atrous-rates", "1,2,10000000000000", "--out", str(out)]) == 0
        report = json.loads(_read(out / "report.json"))
        assert report["vpq_offline"] == 1.0
        assert report["vpq_near_online"] == 1.0


class TestBench:
    def test_single_config_ratio(self, tmp_path):
        out = tmp_path / "bench"
        rc = cli_main(["bench", "--t", "2", "--h", "4", "--w", "4", "--d", "8", "--out", str(out)])
        assert rc == 0
        text = _read(out / "report.txt").decode()
        assert "ratio = 2.0" in text
        assert "full_stage1_scores_measured = 8192" in text
        report = json.loads(_read(out / "report.json"))
        assert report["exact_match"] is True

    def test_sweep_report(self, tmp_path):
        out = tmp_path / "sweep"
        assert cli_main(["bench", "--out", str(out)]) == 0
        report = json.loads(_read(out / "report.json"))
        assert len(report) == 12
        for point in report.values():
            assert point["exact_match"] is True

    @pytest.mark.parametrize("text, flags", [
        ("h = 8\nw = 8\n", ["--h", "8", "--w", "8"]),
        ("h = 32\n", ["--h", "32"]),  # restates the default
    ], ids=["shape", "default_h"])
    def test_config_file_shape_selects_one_report(self, tmp_path, text, flags):
        # A shape key in the file selects one shape just as the flag does.
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(text)
        reports = []
        for args in (["--config", str(cfg_path)], flags):
            out = tmp_path / str(len(reports))
            assert cli_main(["bench", *args, "--out", str(out)]) == 0
            reports.append(_read(out / "report.json"))
        assert reports[0] == reports[1]
        assert "exact_match" in json.loads(reports[0])

    def test_huge_frames_refused(self, tmp_path, capsys, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("features drawn before the size checks")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        out = tmp_path / "huge"
        rc = cli_main(["bench", "--h", "100000", "--w", "100000", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "stage-one footprint" in err and "(2, 8, 100000, 100000)" in err

    def test_over_the_memory_limit_refused(self, tmp_path, capsys, monkeypatch):
        # T*H*W = 4096, but the reference pass's 2^30-byte product leaves no
        # room for its 268566528 bytes of block scratch.
        def no_draw(*args, **kwargs):
            raise AssertionError("features drawn before the size checks")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        rc = cli_main(["bench", "--t", "4", "--h", "32", "--w", "32", "--d", "8", "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "(4, 8, 32, 32)" in err and "1342308352 bytes" in err

    def test_sweep_error_names_the_point(self, tmp_path, capsys):
        rc = cli_main(["bench", "--heads", "8", "--out", str(tmp_path / "sweep")])
        assert rc == 1
        assert "sweep point t2_h2_w2_d4: heads (8) must divide d (4)" in capsys.readouterr().err


class TestAttn:
    def test_dump(self, tmp_path):
        out = tmp_path / "attn"
        rc = cli_main(["attn", "--seed", "3", "--ref-t", "1", "--out", str(out)])
        assert rc == 0
        img = read_pgm(out / "heatmaps" / "t0000.pgm")
        assert img.shape == (32, 32)

    def test_reference_out_of_range(self, tmp_path, capsys):
        rc = cli_main(["attn", "--ref-t", "99", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_oversized_frames_refused(self, tmp_path, capsys):
        # The H pass at T=2, 512x512, D=8 needs a 34 GB stage-one product.
        rc = cli_main(["attn", "--l", "2", "--h", "512", "--w", "512", "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "stage-one product" in err and str(8 * 512 * 2 * 2 * 512 * 512 * 8) in err

    def test_oversized_width_weights_refused(self, tmp_path, capsys):
        # The H pass at T=2, 8 rows, 4096 columns, D=8 needs 67 MB; the W
        # weights are taken on a 4096-long axis, a 34 GB stage-one product.
        rc = cli_main(["attn", "--l", "2", "--h", "8", "--w", "4096", "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "stage-one product" in err and str(8 * 8 * 2 * 2 * 4096 * 4096 * 8) in err



class TestEval:
    def test_round_trip_perfect_score(self, tmp_path):
        demo_out = tmp_path / "demo"
        assert cli_main(["demo", "--seed", "5", "--out", str(demo_out)]) == 0
        eval_out = tmp_path / "eval"
        rc = cli_main([
            "eval",
            "--pred", str(demo_out / "pred_offline"),
            "--gt", str(demo_out / "gt"),
            "--out", str(eval_out),
        ])
        assert rc == 0
        report = json.loads(_read(eval_out / "report.json"))
        assert report["vpq"] == 1.0

    def test_large_class_ids_keep_the_score(self, tmp_path):
        demo_out = tmp_path / "demo"
        assert cli_main(["demo", "--seed", "5", "--out", str(demo_out)]) == 0

        def evaluate(name):
            out = tmp_path / name
            assert cli_main(["eval", "--pred", str(demo_out / "pred_near"),
                             "--gt", str(demo_out / "gt"), "--out", str(out)]) == 0
            return json.loads(_read(out / "report.json"))["vpq"]

        before = evaluate("before")
        renamed = 0
        for meta in sorted(demo_out.glob("*/tube_*/meta")):
            text = meta.read_text()
            if "class_id = 0\n" in text:
                meta.write_text(text.replace("class_id = 0\n", f"class_id = {10 ** 13}\n"))
                renamed += 1
        assert renamed >= 2
        assert evaluate("after") == before

    def test_missing_dump_is_validation_error(self, tmp_path, capsys):
        rc = cli_main(["eval", "--pred", "/nonexistent", "--gt", "/nonexistent", "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("meta, names", [
        ("track_id = 0\nspan = 2\n", "'class_id'"),
        ("track_id = 0\nclass_id 1\nspan = 2\n", "key = value"),
        ("track_id = 0\nclass_id = one\nspan = 2\n", "class_id"),
        ("track_id = 0\nclass_id = -1\nspan = 2\n", "class_id"),
        ("track_id = 0\nclass_id = 1\nspan = -2\n", "span"),
    ])
    def test_bad_meta_is_validation_error(self, tmp_path, capsys, meta, names):
        masks = np.zeros((2, 4, 4))
        masks[:, 1:3, 1:3] = 1.0
        tubes = [Tube(masks, np.array([0.0, 1.0]), track_id=0)]
        dump_tube_set(tubes, [1], tmp_path / "gt")
        dump_tube_set(tubes, [1], tmp_path / "pred")
        meta_path = tmp_path / "pred" / "tube_000" / "meta"
        meta_path.write_text(meta)
        rc = cli_main(["eval", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                       "--out", str(tmp_path / "eval")])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(meta_path) in err
        assert names in err

    def test_frame_size_mismatch_is_validation_error(self, tmp_path, capsys):
        masks = np.zeros((2, 4, 4))
        masks[:, 1:3, 1:3] = 1.0
        tubes = [Tube(masks, np.array([0.0, 1.0]), track_id=0)]
        dump_tube_set(tubes, [1], tmp_path / "gt")
        dump_tube_set(tubes, [1], tmp_path / "pred")
        frame_path = tmp_path / "pred" / "tube_000" / "t0001.pgm"
        write_pgm(frame_path, np.zeros((4, 6), dtype=np.uint8))
        rc = cli_main(["eval", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                       "--out", str(tmp_path / "eval")])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(frame_path) in err
        assert "(4, 6)" in err and "(4, 4)" in err

    def test_pgm_without_separator_after_magic_is_validation_error(self, tmp_path, capsys):
        masks = np.zeros((1, 3, 12))
        tubes = [Tube(masks, np.array([0.0, 1.0]), track_id=0)]
        dump_tube_set(tubes, [1], tmp_path / "gt")
        dump_tube_set(tubes, [1], tmp_path / "pred")
        frame_path = tmp_path / "pred" / "tube_000" / "t0000.pgm"
        frame_path.write_bytes(b"P512 3 255\n" + bytes(36))
        rc = cli_main(["eval", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                       "--out", str(tmp_path / "eval")])
        assert rc == 1
        assert str(frame_path) in capsys.readouterr().err

    def test_missing_frame_names_file(self, tmp_path, capsys):
        masks = np.zeros((3, 4, 4))
        tubes = [Tube(masks, np.array([0.0, 1.0]), track_id=0)]
        dump_tube_set(tubes, [1], tmp_path / "gt")
        dump_tube_set(tubes, [1], tmp_path / "pred")
        frame_path = tmp_path / "pred" / "tube_000" / "t0002.pgm"
        frame_path.unlink()
        rc = cli_main(["eval", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                       "--out", str(tmp_path / "eval")])
        assert rc == 1
        assert str(frame_path) in capsys.readouterr().err

    def test_undecodable_meta_names_file(self, tmp_path, capsys):
        tubes = [Tube(np.zeros((2, 4, 4)), np.array([0.0, 1.0]), track_id=0)]
        dump_tube_set(tubes, [1], tmp_path / "gt")
        meta_path = tmp_path / "gt" / "tube_000" / "meta"
        meta_path.write_bytes(b"span = 2\n\xff\n")
        rc = cli_main(["eval", "--pred", str(tmp_path / "gt"), "--gt", str(tmp_path / "gt"),
                       "--out", str(tmp_path / "eval")])
        assert rc == 1
        assert str(meta_path) in capsys.readouterr().err

    def test_prediction_path_is_a_file(self, tmp_path, capsys):
        path = tmp_path / "file"
        path.write_text("x")
        rc = cli_main(["eval", "--pred", str(path), "--gt", str(path), "--out", str(tmp_path / "e")])
        assert rc == 1
        assert str(path) in capsys.readouterr().err


class TestErrors:
    def test_unknown_flag_prints_usage_and_exits_one(self, capsys):
        rc = cli_main(["demo", "--bogus"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_no_subcommand_exits_one(self):
        assert cli_main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0

    def test_invalid_config_value(self, tmp_path, capsys):
        rc = cli_main(["demo", "--t", "1", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_frame_size_not_divisible_by_four(self, tmp_path, capsys):
        for n_w in ("2", "1"):
            rc = cli_main(["demo", "--n-w", n_w, "--h", "30", "--out", str(tmp_path / "x")])
            assert rc == 1
            assert "h must be divisible by 4" in capsys.readouterr().err

    def test_frame_size_free_without_a_pyramid(self, tmp_path):
        # With no within-clip block no pyramid halves H and W.
        out = tmp_path / "x"
        assert cli_main(["demo", "--n-w", "0", "--h", "30", "--w", "30", "--out", str(out)]) == 0
        report = json.loads(_read(out / "report.json"))
        modes = ("near_online", "offline", "near_online_shuffled")
        assert [report[f"vpq_{mode}"] for mode in modes] == [1.0] * 3

    def test_config_file_and_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("l = 4\nh = 16\nw = 16\nseed = 2\n")
        out = tmp_path / "out"
        rc = cli_main(["demo", "--config", str(cfg_path), "--seed", "9", "--out", str(out)])
        assert rc == 0
        report = json.loads(_read(out / "report.json"))
        assert report["config"]["l"] == 4
        assert report["config"]["seed"] == 9

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("bogus = 4\n")
        rc = cli_main(["demo", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        rc = cli_main(["bench", "--config", str(tmp_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert str(tmp_path) in capsys.readouterr().err

    def test_bad_atrous_rates_flag_names_value(self, tmp_path, capsys):
        rc = cli_main(["bench", "--atrous-rates", "1,x", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "'1,x'" in capsys.readouterr().err

    # Each refusal comes before the step named in `_check_refused` runs.

    @pytest.mark.parametrize("command", ["demo", "attn"])
    def test_huge_k_sample_refused(self, tmp_path, capsys, monkeypatch, command):
        # 32 x 32 frames, D = 8, K = 10^12 sampling points.
        k = 10 ** 12
        need = 8 * (2 * (34 * 34 * 8 + 1024 * (3 * 8 + 2 * k * 8 + 18 * k)) + 2 * 1024) + 2 ** 17
        _check_refused(tmp_path, capsys, monkeypatch, [command, "--k-sample", str(k)],
                       (np.random, "default_rng"), ["deformable sampling refused", f"k_sample={k}", str(need)])

    @pytest.mark.parametrize("command", ["demo", "attn"])
    @pytest.mark.parametrize("flags", [
        ["--n", "10000000000000"],
        ["--c", "10000000000000"],
        # Passes the sampler guard; one (D, D) matrix alone would take 298 GiB.
        ["--d", "200000", "--h", "4", "--w", "4", "--k-sample", "1", "--l", "2"],
        ["--n-w", "1000000000000"],
        ["--n-c", "1000000000000"],
    ], ids=["n", "c", "d", "n_w", "n_c"])
    def test_huge_parameter_bundle_refused(self, tmp_path, capsys, monkeypatch, command, flags):
        _check_refused(tmp_path, capsys, monkeypatch, [command, *flags], (cli, "build_oracle_params"),
                       ["parameters refused", flags[1], _LIMIT])

    @pytest.mark.parametrize("command", ["demo", "attn"])
    @pytest.mark.parametrize("flags, cause", [
        (["--n", "100000"], "query decoding refused"),  # (N, N) scores of 74.5 GiB
        (["--l", "4000"], "(1, 2000, 4, 8)"),  # the cross-clip pass over 2000 clips
    ], ids=["decoder", "cross_clip"])
    def test_oversized_pipeline_refused_before_parameters(
        self, tmp_path, capsys, monkeypatch, command, flags, cause
    ):
        _check_refused(tmp_path, capsys, monkeypatch, [command, *flags], (cli, "build_oracle_params"),
                       [cause, _LIMIT])

    @pytest.mark.parametrize("command", ["demo", "attn"])
    def test_oversized_video_refused_before_drawing(self, tmp_path, capsys, monkeypatch, command):
        # Passes every other guard; the float64 video alone would take 5.9 GiB.
        flags = ["--l", "1000", "--h", "512", "--w", "512", "--d", "3", "--n", "3", "--c", "3",
                 "--k-sample", "1", "--n-c", "0"]
        _check_refused(tmp_path, capsys, monkeypatch, [command, *flags], (cli, "generate_synthetic"),
                       ["video refused", _LIMIT])

    @pytest.mark.parametrize("command", ["demo", "attn"])
    def test_oversized_within_clip_pass_refused_before_drawing(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # The finest level's H pass (192, 2, 192, 8) needs a 1.8 GB stage-one product.
        flags = ["--l", "2", "--h", "192", "--w", "192", "--n-c", "0"]
        _check_refused(tmp_path, capsys, monkeypatch, [command, *flags], (cli, "generate_synthetic"),
                       ["(192, 2, 192, 8)", str(8 * 192 * 2 * 2 * 192 * 192 * 8)])

    @pytest.mark.parametrize("flags, cause", [
        (["--n-w", "0"], "n_w = 0"),
        (["--ref-t", "8"], "reference frame 8 outside video of length 8"),
        (["--ref-h", "32"], "--ref-h 32 outside [0, 32)"),
        (["--ref-w", "-1"], "--ref-w -1 outside [0, 32)"),
    ], ids=["no_within_clip_block", "reference_past_the_end", "row_past_the_end", "negative_column"])
    def test_attn_input_refused_before_drawing(self, tmp_path, capsys, monkeypatch, flags, cause):
        def no_draw(*args, **kwargs):
            raise AssertionError("video drawn before the attn input checks")

        monkeypatch.setattr(cli, "generate_synthetic", no_draw)
        rc = cli_main(["attn", *flags, "--out", str(tmp_path / "x")])
        assert rc == 1
        assert cause in capsys.readouterr().err

    def test_internal_value_error_exits_two(self, tmp_path, capsys, monkeypatch):
        def broken(cfg):
            raise ValueError("broken invariant")

        monkeypatch.setattr(cli, "count_macs", broken)
        rc = cli_main(["bench", "--t", "2", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "internal error: broken invariant" in capsys.readouterr().err


_LIMIT = "above the limit of 1073741824 bytes"


def _check_refused(tmp_path, capsys, monkeypatch, argv, step, words):
    """`argv` exits 1 before `step`, an (owner, name) pair, runs, and its
    message names every one of `words`."""
    owner, name = step

    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{name} ran before the size checks")

    monkeypatch.setattr(owner, name, must_not_run)
    rc = cli_main([*argv, "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    for word in words:
        assert word in err
