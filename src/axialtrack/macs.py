"""Multiply-accumulate accounting for the attention decomposition.

Both attention schemes run with a `tensor.MacCounter` (a Counter keyed by
category) that the passes fill from the runtime tensor extents; closed
forms computed from the configuration must match them exactly. The
dominant term is the stage-one score plus value work, where the
undecomposed pass costs 2*T^2*H^2*W^2*D against the axial pair's
2*T^2*H^2*W*D + 2*T^2*W^2*H*D, a full/axial ratio of H*W / (H + W).
`count_macs` returns both, and their comparison, as the one flat report
that `bench` writes.
"""

from __future__ import annotations

import numpy as np

from .attention import (
    attention_params,
    axial_trajectory_h,
    axial_trajectory_w,
    check_stage_one,
    full_trajectory_reference,
)
from .config import ModelConfig
from .errors import ResourceGuardError
from .tensor import MacCounter

CATEGORIES = (
    "stage1_scores",
    "stage1_values",
    "stage2_scores",
    "stage2_values",
    "proj_stage1",
    "proj_stage2",
)


def _analytic_pass(b: int, t: int, s: int, d: int) -> dict[str, int]:
    return {
        "stage1_scores": b * t * s * t * s * d,
        "stage1_values": b * t * s * t * s * d,
        "stage2_scores": b * t * s * t * d,
        "stage2_values": b * t * s * t * d,
        "proj_stage1": 3 * b * t * s * d * d,
        "proj_stage2": (b * t * s + 2 * b * t * t * s) * d * d,
    }


def _merge(a: dict[str, int], b: dict[str, int]) -> dict[str, int]:
    return {key: a[key] + b[key] for key in CATEGORIES}


def analytic_full(t: int, h: int, w: int, d: int) -> dict[str, int]:
    return _analytic_pass(1, t, h * w, d)


def analytic_axial(t: int, h: int, w: int, d: int) -> dict[str, int]:
    return _merge(_analytic_pass(w, t, h, d), _analytic_pass(h, t, w, d))


def dominant(counts: dict[str, int]) -> int:
    return counts["stage1_scores"] + counts["stage1_values"]


def count_macs(cfg: ModelConfig) -> dict:
    """Run both schemes on seeded random features and report their counts.

    The report is flat, in the order `bench` writes it: for `full`, then
    `axial`, each category's `_measured` and `_analytic` count; then
    `dominant_macs_full`, `dominant_macs_axial`, their `ratio`, the closed
    form `ratio_analytic` = H*W / (H + W), and `exact_match`, true when
    every measured count equals its closed form.

    A shape whose reference pass's stage-one footprint (its product and
    block scratch, `attention.check_stage_one`) exceeds `errors.MEMORY_LIMIT`
    is refused before the features are drawn; that footprint bounds both
    axial passes'.
    """
    cfg.validate()
    t, h, w, d = cfg.t, cfg.h, cfg.w, cfg.d
    try:
        check_stage_one((1, t, h * w, d), cfg.heads)
    except ResourceGuardError as exc:
        raise ResourceGuardError(f"bench at (T, D, H, W) = {(t, d, h, w)}: {exc}") from None
    rng = np.random.default_rng(cfg.seed)
    feats = rng.normal(0.0, 1.0, size=(t, d, h, w))
    params = attention_params(d, rng, heads=cfg.heads, scale=cfg.scale())

    axial = MacCounter()
    mid = axial_trajectory_h(feats, params, counter=axial)
    axial_trajectory_w(mid, params, counter=axial)
    full = MacCounter()
    full_trajectory_reference(feats, params, counter=full)

    report: dict = {}
    exact = True
    for scheme, measured, analytic in (
        ("full", full, analytic_full(t, h, w, d)),
        ("axial", axial, analytic_axial(t, h, w, d)),
    ):
        for key in CATEGORIES:
            report[f"{scheme}_{key}_measured"] = measured[key]
            report[f"{scheme}_{key}_analytic"] = analytic[key]
            exact &= measured[key] == analytic[key]
    report["dominant_macs_full"] = dominant(full)
    report["dominant_macs_axial"] = dominant(axial)
    report["ratio"] = report["dominant_macs_full"] / report["dominant_macs_axial"]
    report["ratio_analytic"] = (h * w) / (h + w)
    report["exact_match"] = exact
    return report
