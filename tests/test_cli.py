import json
import os
import time

import numpy as np
import pytest

from axialtrack import cli
from axialtrack.cli import cli_main
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

    def test_huge_frames_refused(self, tmp_path, capsys, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("features drawn before the size checks")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        out = tmp_path / "huge"
        rc = cli_main(["bench", "--h", "100000", "--w", "100000", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "reference cap" in err and "100000" in err

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
        rc = cli_main(["demo", "--h", "30", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "h must be divisible by 4" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["demo", "attn"])
    def test_huge_k_sample_refused(self, tmp_path, capsys, monkeypatch, command):
        def no_draw(*args, **kwargs):
            raise AssertionError("parameters drawn before the sampler size check")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        k = 10 ** 12
        rc = cli_main([command, "--k-sample", str(k), "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "deformable sampling refused" in err
        assert f"k_sample={k}" in err and str(8 * 2 * 32 * 32 * k * (8 + 3)) in err

    @pytest.mark.parametrize("command", ["demo", "attn"])
    @pytest.mark.parametrize("flags", [
        ["--n", "10000000000000"],
        ["--c", "10000000000000"],
        # Passes the sampler guard; the decoder alone would take 298 GiB.
        ["--d", "200000", "--h", "4", "--w", "4", "--k-sample", "1", "--l", "2"],
        ["--n-w", "1000000000000"],
        ["--n-c", "1000000000000"],
    ], ids=["n", "c", "d", "n_w", "n_c"])
    def test_huge_parameter_bundle_refused(self, tmp_path, capsys, monkeypatch, command, flags):
        def no_build(*args, **kwargs):
            raise AssertionError("parameters built before the parameter size check")

        monkeypatch.setattr(cli, "build_oracle_params", no_build)
        rc = cli_main([command, *flags, "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "parameters refused" in err and flags[1] in err
        assert "above the limit of 1073741824 bytes" in err

    @pytest.mark.parametrize("command", ["demo", "attn"])
    @pytest.mark.parametrize("flags, cause", [
        (["--n", "100000"], "query decoding refused"),  # (N, N) scores of 74.5 GiB
        (["--l", "4000"], "(1, 2000, 4, 8)"),  # the cross-clip pass over 2000 clips
    ], ids=["decoder", "cross_clip"])
    def test_oversized_pipeline_refused_before_parameters(
        self, tmp_path, capsys, monkeypatch, command, flags, cause
    ):
        def no_build(*args, **kwargs):
            raise AssertionError("parameters built before the pipeline size checks")

        monkeypatch.setattr(cli, "build_oracle_params", no_build)
        rc = cli_main([command, *flags, "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert cause in err and "above the limit of 1073741824 bytes" in err

    def test_internal_value_error_exits_two(self, tmp_path, capsys, monkeypatch):
        def broken(cfg):
            raise ValueError("broken invariant")

        monkeypatch.setattr(cli, "count_macs", broken)
        rc = cli_main(["bench", "--t", "2", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "internal error: broken invariant" in capsys.readouterr().err
