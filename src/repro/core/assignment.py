"""Minimum-cost rectangular assignment in pure Python.

The prediction module (:mod:`repro.core.predictor`) matches candidate
sizes to observed bursts as a min-cost bipartite assignment.  This is
Crouse's shortest augmenting path algorithm (D. F. Crouse, "On
implementing 2D rectangular assignment algorithms", IEEE TAES 52(4),
2016), step for step as ``scipy.optimize.linear_sum_assignment`` runs
it, so every tie resolves to the assignment scipy returns.  The
predictor's matrices are a few rows by at most ~100 columns, and solving
them here keeps numpy and scipy out of every paper trial.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple


def linear_sum_assignment(
    cost: Sequence[Sequence[float]],
) -> Tuple[List[int], List[int]]:
    """Row and column indices of a minimum-cost assignment.

    Assigns every row when there are no more rows than columns, else
    every column; pairs come ordered by row.

    Raises:
        ValueError: when no complete assignment has a finite cost.
    """
    rows = len(cost)
    cols = len(cost[0]) if rows else 0
    if rows == 0 or cols == 0:
        return [], []
    transpose = cols < rows
    if transpose:
        cost = list(zip(*cost))
        rows, cols = cols, rows
    u = [0.0] * rows
    v = [0.0] * cols
    path = [-1] * cols
    col4row = [-1] * rows
    row4col = [-1] * cols
    for cur_row in range(rows):
        # Shortest augmenting path from cur_row.  Filling ``remaining``
        # in reverse makes a constant matrix solve to the identity.
        shortest = [math.inf] * cols
        remaining = list(range(cols - 1, -1, -1))
        seen_rows: List[int] = []
        seen_cols: List[int] = []
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            seen_rows.append(i)
            row, u_i = cost[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                # On a tie, prefer a column that ends the path.
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest = s
                    index = it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()

        u[cur_row] += min_val
        for i in seen_rows:
            if i != cur_row:
                u[i] += min_val - shortest[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - shortest[j]

        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break

    if transpose:
        pairs = sorted((row, col) for col, row in enumerate(col4row))
        return [row for row, _ in pairs], [col for _, col in pairs]
    return list(range(rows)), col4row
