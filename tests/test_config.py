import re
from dataclasses import replace

import pytest

from axialtrack import config
from axialtrack.config import ModelConfig, format_config, load_config, parse_config
from axialtrack.errors import ConfigError, ResourceGuardError


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
        for key in ("h", "w"):
            bad = ModelConfig(**{key: 30})
            bad.validate()  # MAC accounting still accepts it
            with pytest.raises(ConfigError, match=f"{key} must be divisible by 4"):
                bad.validate_pipeline()

    def test_pipeline_sampler_bytes_bounded(self, monkeypatch):
        # Finest-level samples (T, H*W*K, D) plus weights (T, H*W, 3K), float64.
        cfg = ModelConfig(t=3, h=8, w=12, k_sample=5, d=6)
        need = 8 * 3 * 8 * 12 * 5 * (6 + 3)
        monkeypatch.setattr(config, "SAMPLER_BYTES_LIMIT", need)
        cfg.validate_pipeline()
        monkeypatch.setattr(config, "SAMPLER_BYTES_LIMIT", need - 1)
        with pytest.raises(ResourceGuardError) as err:
            cfg.validate_pipeline()
        for part in ("t=3", "h=8", "w=12", "k_sample=5", "d=6", str(need)):
            assert part in str(err.value)

    def test_pipeline_param_bytes_bounded(self, monkeypatch):
        cfg = ModelConfig(n=5, c=3, d=6, n_w=2, n_c=1, k_sample=2)
        need = cfg.param_bytes()
        monkeypatch.setattr(config, "PARAMS_BYTES_LIMIT", need)
        cfg.validate_pipeline()
        monkeypatch.setattr(config, "PARAMS_BYTES_LIMIT", need - 1)
        with pytest.raises(ResourceGuardError) as err:
            cfg.validate_pipeline()
        for part in ("n=5", "c=3", "d=6", "n_w=2", "n_c=1", "k_sample=2", str(need)):
            assert part in str(err.value)

    @pytest.mark.parametrize("n, t, h, w", [(6, 2, 4, 8), (90, 2, 4, 8)], ids=["pixels", "queries"])
    def test_pipeline_decoder_bytes_bounded(self, monkeypatch, n, t, h, w):
        # Cross-attention scores (N, T*H*W) against self-attention ones (N, N).
        cfg = ModelConfig(n=n, t=t, h=h, w=w)
        need = 8 * n * max(n, t * h * w)
        monkeypatch.setattr(config, "DECODER_BYTES_LIMIT", need)
        cfg.validate_pipeline()
        monkeypatch.setattr(config, "DECODER_BYTES_LIMIT", need - 1)
        with pytest.raises(ResourceGuardError) as err:
            cfg.validate_pipeline()
        for part in ("query decoding refused", f"n={n}", f"t={t}", f"h={h}", f"w={w}", str(need)):
            assert part in str(err.value)

    def test_pipeline_video_bytes_bounded(self, monkeypatch):
        # Five frames in clips of two, padded to six, float64: the video and
        # the ground truth, L (D + N) frame planes; per padded frame, two D + N
        # for the clip runs and one linked copy, and six N for the tubes,
        # logits and the logistic's working arrays.
        cfg = ModelConfig(l=5, t=2, h=8, w=12, d=6, n=3)
        need = 8 * 8 * 12 * (5 * (6 + 3) + 6 * (2 * 6 + 8 * 3))
        monkeypatch.setattr(config, "VIDEO_BYTES_LIMIT", need)
        cfg.validate_pipeline()
        monkeypatch.setattr(config, "VIDEO_BYTES_LIMIT", need - 1)
        with pytest.raises(ResourceGuardError) as err:
            cfg.validate_pipeline()
        for part in ("video refused", "l=5", "h=8", "w=12", "d=6", "n=3", str(need)):
            assert part in str(err.value)

    def test_pipeline_cross_clip_pass_bounded(self, monkeypatch):
        from axialtrack import attention
        # Five frames in clips of two: the cross-clip pass is (1, 3, N, D).
        # No within-clip block, whose passes the same limit bounds.
        cfg = ModelConfig(l=5, t=2, n=7, d=4, n_w=0, n_c=1)
        need = 8 * 3 * 3 * 7 * 7 * 4
        monkeypatch.setattr(attention, "STAGE_ONE_BYTES_LIMIT", need)
        cfg.validate_pipeline()
        monkeypatch.setattr(attention, "STAGE_ONE_BYTES_LIMIT", need - 1)
        with pytest.raises(ResourceGuardError, match=r"\(1, 3, 7, 4\)"):
            cfg.validate_pipeline()
        replace(cfg, n_c=0).validate_pipeline()  # no cross-clip pass

    @pytest.mark.parametrize("h, w, shape", [(12, 8, "(8, 3, 12, 4)"), (8, 12, "(8, 3, 12, 4)")],
                             ids=["h_pass", "w_pass"])
    def test_pipeline_within_clip_passes_bounded(self, monkeypatch, h, w, shape):
        from axialtrack import attention
        # The finest level's H pass is (W, T, H, D), its W pass (H, T, W, D);
        # the longer axis sets the larger stage-one product.
        cfg = ModelConfig(t=3, h=h, w=w, d=4, n_w=1, n_c=0)
        need = 8 * 8 * 3 * 3 * 12 * 12 * 4
        monkeypatch.setattr(attention, "STAGE_ONE_BYTES_LIMIT", need)
        cfg.validate_pipeline()
        monkeypatch.setattr(attention, "STAGE_ONE_BYTES_LIMIT", need - 1)
        with pytest.raises(ResourceGuardError, match=re.escape(shape)):
            cfg.validate_pipeline()
        replace(cfg, n_w=0).validate_pipeline()  # no within-clip pass


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
