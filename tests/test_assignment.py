import itertools

import numpy as np
import pytest

from axialtrack.assignment import hungarian
from axialtrack.errors import DimensionError, NumericError

from oracles import brute_hungarian


class TestHungarian:
    def test_identity_favoring_cost(self):
        cost = np.ones((4, 4)) - np.eye(4)
        out = hungarian(cost)
        assert out.pairs == tuple((i, i) for i in range(4))
        assert out.total == 0.0

    def test_two_by_two_antidiagonal(self):
        out = hungarian([[1.0, 0.0], [0.0, 1.0]])
        assert out.pairs == ((0, 1), (1, 0))
        assert out.total == 0.0

    def test_empty_matrix(self):
        out = hungarian(np.zeros((0, 3)))
        assert out.pairs == ()
        assert out.total == 0.0

    def test_matches_exhaustive_search_6x6(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            cost = rng.uniform(size=(6, 6))
            got = hungarian(cost)
            pairs, total = brute_hungarian(cost)
            assert got.pairs == pairs
            assert got.total == total

    @pytest.mark.parametrize("shape", [(2, 4), (3, 5), (4, 3), (5, 2)])
    def test_rectangular_matches_exhaustive(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(25):
            cost = rng.uniform(size=shape)
            got = hungarian(cost)
            pairs, total = brute_hungarian(cost)
            assert got.pairs == pairs
            assert got.total == total

    def test_total_not_above_any_permutation(self):
        rng = np.random.default_rng(1)
        for n in range(2, 7):
            cost = rng.uniform(size=(n, n))
            best = hungarian(cost).total
            for perm in itertools.permutations(range(n)):
                total = 0.0
                for i in range(n):
                    total += float(cost[i, perm[i]])
                assert best <= total + 1e-12

    def test_tie_break_lowest_row_then_column(self):
        out = hungarian(np.zeros((3, 3)))
        assert out.pairs == ((0, 0), (1, 1), (2, 2))
        wide = hungarian(np.ones((2, 3)))
        assert wide.pairs == ((0, 0), (1, 1))
        tall = hungarian(np.ones((3, 2)))
        assert tall.pairs == ((0, 0), (1, 1))

    def test_integer_ties_match_exhaustive(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            cost = rng.integers(0, 3, size=(4, 4)).astype(float)
            got = hungarian(cost)
            pairs, total = brute_hungarian(cost)
            assert got.pairs == pairs
            assert got.total == total

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            hungarian([[np.inf, 0.0], [0.0, 1.0]])

    def test_non_matrix_rejected(self):
        with pytest.raises(DimensionError):
            hungarian(np.zeros(4))

    def test_rounding_near_tie_breaks_lexicographically(self):
        # 0.0 + 0.8 and 0.1 + 0.7 differ only by rounding; the lower
        # columns win even though the other flat sum is a float below.
        out = hungarian([[0.0, 0.1], [0.7, 0.8]])
        assert out.pairs == ((0, 0), (1, 1))
        assert out.total == 0.8

    def test_forbidden_entries_tall_match_exhaustive(self):
        # Metric-style costs: -IoU where a pair may match, 1e9 where not.
        # Which rows take forced 1e9 entries is an exact tie that the
        # exhaustive search orders by the rounding of its float totals; the
        # solver takes the lexicographically smaller pairs instead.
        rng = np.random.default_rng(3)
        for shape in [(5, 3), (6, 2), (4, 3), (6, 4)]:
            for _ in range(10):
                ious = rng.uniform(size=shape)
                cost = np.where(ious > 0.5, -ious, 1e9)
                got = hungarian(cost)
                pairs, total = brute_hungarian(cost)
                allowed = [(i, j) for i, j in pairs if cost[i, j] < 1e9]
                assert [(i, j) for i, j in got.pairs if cost[i, j] < 1e9] == allowed
                assert got.pairs <= pairs
                assert got.total == pytest.approx(total, rel=1e-15)

    @pytest.mark.parametrize("shape", [(8, 8), (24, 24), (50, 50), (100, 100), (30, 70), (70, 30), (1, 9)])
    def test_total_matches_scipy(self, shape):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(shape)
        for cost in (rng.normal(size=shape), rng.integers(0, 4, size=shape).astype(float)):
            rows, cols = linear_sum_assignment(cost)
            best = 0.0
            for i, j in zip(rows, cols):
                best += float(cost[i, j])
            assert abs(hungarian(cost).total - best) <= 1e-12 * max(1.0, abs(best))
