"""The pure-Python min-cost assignment against scipy's.

``SizePredictor`` reads the emblem order off the assignment it solves,
and duplicate servings give it exact ties, so the port must return the
very pairs ``scipy.optimize.linear_sum_assignment`` returns, not just an
assignment of the same cost.  scipy is a test dependency only.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment as scipy_assignment

from repro.core.assignment import linear_sum_assignment

#: The predictor's out-of-tolerance cost.
SENTINEL = 1e12


@st.composite
def cost_matrices(draw):
    """0–9 rows × 0–90 columns, either way round, with dense ties."""
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 90))
    if draw(st.booleans()):
        rows, cols = cols, rows
    values = draw(st.lists(
        st.sampled_from([0, 1, 2, 3, 20, 0.1, 0.2, 0.7, SENTINEL]),
        min_size=1, max_size=4, unique=True,
    ))
    picks = draw(st.lists(
        st.integers(0, len(values) - 1),
        min_size=rows * cols, max_size=rows * cols,
    ))
    # Rows and columns with no in-tolerance entry at all.
    blank_rows = draw(st.sets(st.integers(0, 89), max_size=3))
    blank_cols = draw(st.sets(st.integers(0, 89), max_size=3))
    matrix = [
        [
            SENTINEL if row in blank_rows or col in blank_cols
            else float(values[picks[row * cols + col]])
            for col in range(cols)
        ]
        for row in range(rows)
    ]
    return rows, cols, matrix


@given(cost_matrices())
# Tenths are inexact in binary: on these two, only the order in which the
# reduced cost is summed decides between equal-cost assignments.
@example((3, 3, [[0.2, 0.3, 0.2], [0.2, 0.7, 0.1], [0.1, 0.2, 0.1]]))
@example((3, 2, [[0.1, 0.1], [0.2, 0.7], [0.3, 0.2]]))
@settings(max_examples=200, deadline=None)
def test_matches_scipy_exactly(case):
    rows, cols, matrix = case
    expected_rows, expected_cols = scipy_assignment(
        np.array(matrix, dtype=float).reshape(rows, cols)
    )
    assert linear_sum_assignment(matrix) == (
        expected_rows.tolist(), expected_cols.tolist()
    )


def test_constant_matrix_is_the_identity():
    assert linear_sum_assignment([[1.0] * 4] * 3) == ([0, 1, 2], [0, 1, 2])


def test_infeasible_matrix_rejected():
    with pytest.raises(ValueError):
        linear_sum_assignment([[float("inf")], [float("inf")]])
