import re

import numpy as np
import pytest

from axialtrack.config import ModelConfig
from axialtrack.errors import ResourceGuardError
from axialtrack.macs import CATEGORIES, analytic_axial, analytic_full, count_macs, dominant


class TestCountMacs:
    def test_worked_example(self):
        report = count_macs(ModelConfig(t=2, h=4, w=4, d=8))
        assert report["full_stage1_scores_measured"] == 8192
        assert report["axial_stage1_scores_measured"] == 4096
        assert report["ratio"] == 2.0
        assert report["ratio_analytic"] == 2.0
        assert report["exact_match"] is True

    def test_measured_equals_analytic_all_categories(self):
        for t, hw, d in ((2, 2, 4), (2, 8, 4), (4, 4, 8), (3, 6, 6)):
            report = count_macs(ModelConfig(t=t, h=hw, w=hw, d=d))
            for scheme in ("full", "axial"):
                for key in CATEGORIES:
                    name = f"{scheme}_{key}"
                    assert report[f"{name}_measured"] == report[f"{name}_analytic"], name

    def test_ratio_closed_form(self):
        for t, h, w, d in ((2, 4, 8, 4), (2, 8, 2, 4), (4, 2, 6, 8)):
            report = count_macs(ModelConfig(t=t, h=h, w=w, d=d))
            assert report["ratio"] == (h * w) / (h + w)

    def test_degenerate_height(self):
        # With H = 1 the height pass degenerates and the closed form gives
        # W / (1 + W); the width side alone matches the undecomposed cost.
        report = count_macs(ModelConfig(t=2, h=1, w=6, d=4))
        assert report["ratio"] == 6 / 7
        axial_w_side = analytic_axial(2, 1, 6, 4)["stage1_scores"] - 2 * 2 * 1 * 1 * 6 * 4
        assert axial_w_side == report["full_stage1_scores_analytic"]

    def test_doubling_width_quadruples_full(self):
        base = count_macs(ModelConfig(t=2, h=4, w=4, d=4))
        wide = count_macs(ModelConfig(t=2, h=4, w=8, d=4))
        assert wide["dominant_macs_full"] == 4 * base["dominant_macs_full"]
        assert {key: wide[f"axial_{key}_measured"] for key in CATEGORIES} == analytic_axial(2, 4, 8, 4)

    def test_rectangular_analytic_forms(self):
        t, h, w, d = 2, 4, 8, 4
        full = analytic_full(t, h, w, d)
        axial = analytic_axial(t, h, w, d)
        assert full["stage1_scores"] == t * t * h * h * w * w * d
        assert axial["stage1_scores"] == t * t * h * h * w * d + t * t * w * w * h * d
        assert dominant(full) == 2 * t * t * h * h * w * w * d

    def test_reference_guard_propagates(self):
        # The reference pass's footprint is the one size rule: a 2^30-byte
        # product, at the limit, and 268566528 bytes of block scratch.
        with pytest.raises(ResourceGuardError) as exc:
            count_macs(ModelConfig(t=4, h=32, w=32, d=8))
        for part in ("(T, D, H, W) = (4, 8, 32, 32)", "(B, T, S, D) = (1, 4, 1024, 8)", "need 1342308352 bytes"):
            assert part in str(exc.value)

    @pytest.mark.parametrize("cfg, words", [
        (ModelConfig(t=2, h=100000, w=100000, d=8), "(2, 8, 100000, 100000)"),
        # One column: the reference pass is the H pass, a 2 GiB stage-one product.
        (ModelConfig(t=2, h=2048, w=1, d=16), "stage-one product"),
        # Both axial passes fit; the reference pass needs 2 GiB.
        (ModelConfig(t=4, h=32, w=32, d=16), "(1, 4, 1024, 16)"),
    ])
    def test_refused_before_the_features_are_drawn(self, monkeypatch, cfg, words):
        def no_draw(*args, **kwargs):
            raise AssertionError("features drawn before the size checks")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ResourceGuardError, match=re.escape(words)):
            count_macs(cfg)
