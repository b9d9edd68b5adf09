"""Multiply-accumulate accounting for the attention decomposition.

Both attention schemes run with an instrumented counter that derives its
counts from the runtime tensor extents; closed forms computed from the
configuration must match them exactly. The dominant term is the stage-one
score plus value work, where the undecomposed pass costs 2*T^2*H^2*W^2*D
against the axial pair's 2*T^2*H^2*W*D + 2*T^2*W^2*H*D, a full/axial
ratio of H*W / (H + W).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import (
    REFERENCE_CAP,
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


@dataclass
class MacReport:
    """Measured and closed-form counts per scheme, plus the dominant-term ratio."""

    t: int
    h: int
    w: int
    d: int
    full_measured: dict[str, int]
    full_analytic: dict[str, int]
    axial_measured: dict[str, int]
    axial_analytic: dict[str, int]

    @property
    def dominant_full(self) -> int:
        return dominant(self.full_measured)

    @property
    def dominant_axial(self) -> int:
        return dominant(self.axial_measured)

    @property
    def ratio_measured(self) -> float:
        return self.dominant_full / self.dominant_axial

    @property
    def ratio_analytic(self) -> float:
        return (self.h * self.w) / (self.h + self.w)

    @property
    def exact_match(self) -> bool:
        return self.full_measured == self.full_analytic and self.axial_measured == self.axial_analytic


def count_macs(cfg: ModelConfig) -> MacReport:
    """Run both schemes on seeded random features and compare counts.

    Shapes above the reference cap, or whose reference pass's stage-one
    product (`attention.stage_one_bytes`) exceeds `errors.MEMORY_LIMIT`, are
    refused before the features are drawn.
    """
    cfg.validate()
    t, h, w = cfg.t, cfg.h, cfg.w
    if t * h * w > REFERENCE_CAP:
        raise ResourceGuardError(
            f"bench refused: (T, D, H, W) = {(t, cfg.d, h, w)} has T*H*W = {t * h * w}, "
            f"above the reference cap {REFERENCE_CAP}"
        )
    # The reference pass's stage-one product bounds those of both axial passes.
    check_stage_one((1, t, h * w, cfg.d))
    rng = np.random.default_rng(cfg.seed)
    feats = rng.normal(0.0, 1.0, size=(cfg.t, cfg.d, cfg.h, cfg.w))
    params = attention_params(cfg.d, rng, heads=cfg.heads, scale=cfg.scale())

    axial_counter = MacCounter()
    mid = axial_trajectory_h(feats, params, counter=axial_counter)
    axial_trajectory_w(mid, params, counter=axial_counter)

    full_counter = MacCounter()
    full_trajectory_reference(feats, params, counter=full_counter)

    return MacReport(
        t=cfg.t,
        h=cfg.h,
        w=cfg.w,
        d=cfg.d,
        full_measured={key: full_counter.get(key) for key in CATEGORIES},
        full_analytic=analytic_full(cfg.t, cfg.h, cfg.w, cfg.d),
        axial_measured={key: axial_counter.get(key) for key in CATEGORIES},
        axial_analytic=analytic_axial(cfg.t, cfg.h, cfg.w, cfg.d),
    )
