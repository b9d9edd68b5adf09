"""Minimum-cost assignment with a deterministic tie-break.

The cost matrix is zero-padded to a square; real rows and columns keep
the lowest indices, and a row matched to a padding column is unassigned.
One shortest-augmenting-path (potentials) solve gives an optimal matching
and duals u, v; the optimal assignments are the perfect matchings on the
tight edges, where c[i, j] - u[i] - v[j] is zero up to rounding. A walk
over those edges settles rows in increasing index order, each taking the
lowest column that still permits an optimal completion, so the result is
the lexicographically smallest optimal assignment, in O(n^3) overall.

Ties are decided on the duals, not on float totals: assignments whose
flat sums differ only by rounding (0.0 + 0.8 against 0.1 + 0.7) tie, and
the lexicographically smaller one wins. The tolerance is per edge,
relative to (|c[i, j]| + |u[i]| + |v[j]|) * n, so large "forbidden"
entries do not blur distinctions between small ones elsewhere. Totals
are a flat sum of the selected entries in row order, so equal
assignments compare equal bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .tensor import as_array, require_finite

_INF = float("inf")
_TIE_RTOL = 64 * np.finfo(np.float64).eps  # per unit of edge magnitude and side


@dataclass(frozen=True)
class Assignment:
    """(row, col) pairs, sorted by row, covering min(n, m) rows."""

    pairs: tuple[tuple[int, int], ...]
    total: float


def _flat_total(cost: np.ndarray, pairs) -> float:
    total = 0.0
    for i, j in sorted(pairs):
        total += float(cost[i, j])
    return total


def _potentials(cost: list[list[float]]) -> tuple[np.ndarray, np.ndarray, list[int]]:
    # Shortest augmenting path on a square matrix, 1-based with a virtual
    # column 0, after the classic formulation. Returns the row duals, the
    # column duals and the row of each column, all 0-based.
    n = len(cost)
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [_INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = _INF
            j1 = -1
            row = cost[i0 - 1]
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return np.array(u[1:]), np.array(v[1:]), [p[j] - 1 for j in range(1, n + 1)]


def hungarian(cost) -> Assignment:
    """Minimum-total-cost bijection onto min(n, m) rows and columns.

    Ties between optimal assignments break toward the lowest row index,
    then the lowest column index. An empty matrix yields the empty
    assignment with total cost 0.
    """
    cost = as_array(cost)
    if cost.ndim != 2:
        raise DimensionError(f"cost must be a 2-D matrix, got shape {cost.shape}")
    n, m = cost.shape
    if n == 0 or m == 0:
        return Assignment((), 0.0)
    require_finite(cost, "cost matrix")

    side = max(n, m)
    square = np.zeros((side, side))
    square[:n, :m] = cost
    u, v, row_of = _potentials(square.tolist())
    col_of = np.argsort(row_of).tolist()
    slack = square - u[:, None] - v[None, :]
    scale = np.abs(square) + np.abs(u)[:, None] + np.abs(v)[None, :]
    tight = slack <= _TIE_RTOL * side * scale
    # The solver's own matching is optimal even if rounding lifts its slack.
    tight[np.arange(side), col_of] = True
    tight_rows = [np.flatnonzero(tight[:, j]).tolist() for j in range(side)]
    for i in range(n):
        # Backward search from i's column over the rows not yet settled:
        # `shift[c]` is the column that c's holder moves to if i takes c.
        home = col_of[i]
        shift = {home: -1}
        frontier = [home]
        for c in frontier:
            for r in tight_rows[c]:
                if r > i and col_of[r] not in shift:
                    shift[col_of[r]] = c
                    frontier.append(col_of[r])
        j = min(c for c in shift if tight[i, c])
        mover = i
        while j != -1:
            holder = row_of[j]
            col_of[mover], row_of[j] = j, mover
            mover, j = holder, shift[j]

    pairs = [(i, col_of[i]) for i in range(n) if col_of[i] < m]
    return Assignment(tuple(pairs), _flat_total(cost, pairs))
