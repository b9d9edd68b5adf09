import numpy as np
import pytest

from axialtrack.errors import DimensionError, NumericError
from axialtrack.metrics import GroundTruthSet, tube_iou, vpq
from axialtrack.segmenter import Tube


def _tube(masks, class_id=0, n_classes=3, track_id=0):
    probs = np.zeros(n_classes)
    probs[class_id] = 1.0
    return Tube(np.asarray(masks, dtype=float), probs, track_id)


def _box_tube(span, h, w, y0, y1, x0, x1, class_id=0, track_id=0):
    masks = np.zeros((span, h, w))
    masks[:, y0:y1, x0:x1] = 1.0
    return _tube(masks, class_id, track_id=track_id)


class TestTubeIoU:
    def test_identical(self):
        a = _box_tube(2, 4, 4, 0, 2, 0, 2)
        assert tube_iou(a, a) == 1.0

    def test_disjoint(self):
        a = _box_tube(2, 4, 4, 0, 2, 0, 2)
        b = _box_tube(2, 4, 4, 2, 4, 2, 4)
        assert tube_iou(a, b) == 0.0

    def test_hand_counted_overlap(self):
        # 8 voxels each, 4 shared: 4 / 12.
        a = np.zeros((2, 4, 4))
        a[:, 0, 0:4] = 1.0
        b = np.zeros((2, 4, 4))
        b[:, 0, 2:4] = 1.0
        b[:, 1, 0:2] = 1.0
        got = tube_iou(_tube(a), _tube(b))
        assert got == pytest.approx(4 / 12, abs=0)

    def test_symmetric_exactly(self):
        rng = np.random.default_rng(0)
        a = _tube(rng.uniform(size=(2, 5, 5)))
        b = _tube(rng.uniform(size=(2, 5, 5)))
        assert tube_iou(a, b) == tube_iou(b, a)

    def test_both_empty(self):
        a = _tube(np.zeros((2, 3, 3)))
        assert tube_iou(a, a) == 1.0

    def test_span_mismatch(self):
        with pytest.raises(DimensionError):
            tube_iou(_tube(np.zeros((2, 3, 3))), _tube(np.zeros((3, 3, 3))))


def _gt(*tubes_and_ids):
    tubes = [t for t, _ in tubes_and_ids]
    ids = [c for _, c in tubes_and_ids]
    return GroundTruthSet(tubes, ids)


class TestVpq:
    def test_perfect_predictions(self):
        a = _box_tube(2, 4, 4, 0, 2, 0, 2, class_id=0)
        b = _box_tube(2, 4, 4, 2, 4, 2, 4, class_id=1, track_id=1)
        gt = _gt((a, 0), (b, 1))
        assert vpq([a, b], gt) == 1.0

    def test_one_tp_plus_spurious_same_class(self):
        a = _box_tube(2, 4, 4, 0, 2, 0, 2, class_id=0)
        spurious = _box_tube(2, 4, 4, 3, 4, 3, 4, class_id=0, track_id=1)
        assert vpq([a, spurious], _gt((a, 0))) == pytest.approx(1 / 1.5, abs=0)

    def test_no_predictions(self):
        a = _box_tube(2, 4, 4, 0, 2, 0, 2)
        assert vpq([], _gt((a, 0))) == 0.0

    def test_empty_prediction_ignored(self):
        a = _box_tube(2, 4, 4, 0, 2, 0, 2, class_id=0)
        ghost = _tube(np.full((2, 4, 4), 0.5), class_id=0, track_id=1)
        assert vpq([a, ghost], _gt((a, 0))) == 1.0

    def test_wrong_class_counts_twice(self):
        a = _box_tube(2, 4, 4, 0, 2, 0, 2, class_id=1)
        gt = _gt((_box_tube(2, 4, 4, 0, 2, 0, 2, class_id=0), 0))
        # One FN for class 0, one FP for class 1, averaged over both classes.
        assert vpq([a], gt) == 0.0

    def test_prediction_order_invariance(self):
        rng = np.random.default_rng(1)
        tubes = [
            _box_tube(2, 6, 6, 0, 2, 0, 2, class_id=0, track_id=0),
            _box_tube(2, 6, 6, 3, 5, 3, 5, class_id=0, track_id=1),
            _box_tube(2, 6, 6, 0, 2, 4, 6, class_id=1, track_id=2),
        ]
        gt = _gt((tubes[0], 0), (tubes[1], 0), (tubes[2], 1))
        preds = list(tubes)
        base = vpq(preds, gt)
        for _ in range(5):
            perm = rng.permutation(3)
            assert vpq([preds[i] for i in perm], gt) == base

    def test_monotone_under_degradation(self):
        a = _box_tube(4, 6, 6, 0, 4, 0, 4, class_id=0)
        gt = _gt((a, 0))
        degraded = a.masks.copy()
        degraded[:, :3, :] = 0.0  # IoU drops to 0.25, below threshold
        worse = _tube(degraded, class_id=0)
        assert vpq([worse], gt) < vpq([a], gt)

    def test_binary_gt_enforced(self):
        for value in (0.5, np.nan):
            masks = np.ones((1, 2, 2))
            masks[0, 1, 0] = value
            with pytest.raises(DimensionError, match="binary"):
                vpq([], _gt((_tube(masks), 0)))

    def test_non_finite_prediction_refused(self):
        # Comparisons with NaN are false, so range checks alone let it through
        # and the tube would score as a miss.
        gt = _gt((_tube(np.ones((1, 2, 2))), 0))
        assert vpq([Tube(np.ones((1, 2, 2)), np.array([1.0, 0.0]), 0)], gt) == 1.0
        bad_probs = Tube(np.ones((1, 2, 2)), np.array([np.nan, 0.5]), 0)
        bad_mask = Tube(np.full((1, 2, 2), np.nan), np.array([1.0, 0.0]), 0)
        for bad in (bad_probs, bad_mask):
            with pytest.raises(NumericError):
                vpq([bad], gt)

    @pytest.mark.parametrize("masks, class_id", [(np.ones((2, 4, 4)), 2), (np.zeros((2, 4, 4)), 0),
                                                 (np.zeros((2, 0, 0)), 0)], ids=["other_class", "empty", "no_pixels"])
    def test_prediction_shape_must_match_ground_truth(self, masks, class_id):
        # Checked before an empty prediction is dropped, whatever its class.
        gt = _gt((_box_tube(2, 8, 8, 0, 4, 0, 4), 0))
        with pytest.raises(DimensionError) as err:
            vpq([gt.tubes[0], _tube(masks, class_id, track_id=1)], gt)
        assert str(masks.shape) in str(err.value) and "(2, 8, 8)" in str(err.value)

    def test_score_stays_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for seed in range(10):
            gen = np.random.default_rng(seed)
            gt_tubes = [
                _tube((gen.uniform(size=(2, 5, 5)) > 0.6).astype(float), c, track_id=c)
                for c in range(2)
            ]
            preds = [
                _tube(gen.uniform(size=(2, 5, 5)), int(gen.integers(0, 3)), track_id=i)
                for i in range(3)
            ]
            score = vpq(preds, _gt(*[(t, c) for c, t in enumerate(gt_tubes)]))
            assert 0.0 <= score <= 1.0
