"""Desk-scale tube metrics: spatio-temporal IoU and panoptic quality.

Quality is computed per class over the whole video window: predictions
and ground truth of equal class are matched by minimum-cost assignment
on negative IoU, a match counts as a true positive only above
`MATCH_IOU`, and the per-class scores average over every class present
on either side. Masks are binarized at `segmenter.MASK_THRESHOLD`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import hungarian
from .errors import DimensionError
from .segmenter import Tube

MATCH_IOU = 0.5  # a matched pair is a true positive only above this IoU
_FORBIDDEN = 1e9  # cost of a pair that may not match


@dataclass
class GroundTruthSet:
    """Ground-truth tubes (binary masks) with integer class ids."""

    tubes: list[Tube]
    class_ids: list[int]

    def validate(self) -> None:
        if len(self.tubes) != len(self.class_ids):
            raise DimensionError("one class id per ground-truth tube is required")
        for tube in self.tubes:
            if not np.all((tube.masks == 0) | (tube.masks == 1)):
                raise DimensionError("ground-truth masks must be binary")
            if tube.masks.shape != self.tubes[0].masks.shape:
                raise DimensionError("ground-truth tubes must share their span and extent")


def tube_iou(a: Tube, b: Tube) -> float:
    """Voxel IoU of two binarized tubes.

    An empty union counts as IoU 1 when both tubes are empty.
    """
    if a.masks.shape != b.masks.shape:
        raise DimensionError(f"tube spans/extents differ: {a.masks.shape} vs {b.masks.shape}")
    am = a.binarized()
    bm = b.binarized()
    inter = int(np.count_nonzero(am & bm))
    union = int(np.count_nonzero(am | bm))
    if union == 0:
        return 1.0
    return inter / union


def vpq(preds: list[Tube], gts: GroundTruthSet) -> float:
    """Class-averaged video panoptic quality.

    Per class: sum(IoU of true positives) / (TP + FP/2 + FN/2), where a
    prediction whose binarized mask is empty is ignored entirely (never a
    false positive). Every prediction must pass `Tube.validate`. The result
    averages over classes present in the ground truth or among the kept
    predictions.
    """
    gts.validate()
    kept: list[tuple[int, Tube]] = []
    for tube in preds:
        tube.validate()
        if np.count_nonzero(tube.binarized()) == 0:
            continue
        kept.append((int(np.argmax(tube.class_probs)), tube))

    classes = sorted(set(gts.class_ids) | {c for c, _ in kept})
    if not classes:
        return 1.0

    scores = []
    for cls in classes:
        p_tubes = [t for c, t in kept if c == cls]
        g_tubes = [t for t, cid in zip(gts.tubes, gts.class_ids) if cid == cls]
        tp = 0
        iou_sum = 0.0
        if p_tubes and g_tubes:
            ious = np.array([[tube_iou(p, g) for g in g_tubes] for p in p_tubes])
            cost = np.where(ious > MATCH_IOU, -ious, _FORBIDDEN)
            for i, j in hungarian(cost).pairs:
                if ious[i, j] > MATCH_IOU:
                    tp += 1
                    iou_sum += ious[i, j]
        fp = len(p_tubes) - tp
        fn = len(g_tubes) - tp
        scores.append(iou_sum / (tp + 0.5 * fp + 0.5 * fn))
    return float(np.mean(scores))
