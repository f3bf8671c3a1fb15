import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rompkit.linalg import RankDeficiencyError, least_squares
from rompkit.rng import substream


def refit(a, x):
    """Least squares of ``x`` on the columns of ``a`` from its reduced QR factor."""
    q, r = np.linalg.qr(a)
    return least_squares(r, q.T @ x)


def test_least_squares_closed_form_column():
    # min over y of (1 - y)^2 + (3 - y)^2  =>  y = 2
    y = refit(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
    assert y.shape == (1,)
    assert abs(y[0] - 2.0) <= 1e-14


def test_least_squares_identity_columns():
    a = np.eye(5)[:, [1, 3]]
    x = np.array([0.5, -1.0, 2.0, 4.0, 0.25])
    y = refit(a, x)
    assert np.allclose(y, [-1.0, 4.0], atol=1e-14)


def test_least_squares_matches_normal_equations_oracle():
    rng = substream(47)
    a = rng.standard_normal((12, 4))
    x = rng.standard_normal(12)
    y = refit(a, x)
    # independent route: explicit 4x4 inverse of the Gram matrix
    oracle = np.linalg.inv(a.T @ a) @ (a.T @ x)
    assert np.max(np.abs(y - oracle)) <= 1e-8


@settings(max_examples=40)
@given(st.integers(0, 2**31 - 1))
def test_least_squares_residual_orthogonality(seed):
    rng = substream(seed)
    rows = int(rng.integers(2, 16))
    cols = int(rng.integers(1, rows + 1))
    a = rng.standard_normal((rows, cols))
    x = rng.standard_normal(rows)
    try:
        y = refit(a, x)
    except RankDeficiencyError:
        return  # random Gaussian blocks essentially never trigger this
    residual = x - a @ y
    norm_x = np.linalg.norm(x)
    for j in range(cols):
        col = a[:, j]
        assert abs(np.dot(col, residual)) <= 1e-8 * norm_x * np.linalg.norm(col) + 1e-300


def test_least_squares_rank_deficiency_reports_rank():
    col = np.arange(1.0, 6.0)
    a = np.column_stack([col, 2.0 * col])
    with pytest.raises(RankDeficiencyError) as info:
        refit(a, np.ones(5))
    assert info.value.numerical_rank == 1


def test_least_squares_underdetermined_rejected():
    # A 3x5 matrix factors to a 3x5 R: more columns than rows.
    rng = substream(5)
    a = rng.standard_normal((3, 5))
    with pytest.raises(RankDeficiencyError):
        refit(a, np.ones(3))


def test_least_squares_zero_matrix_rank_zero():
    with pytest.raises(RankDeficiencyError) as info:
        refit(np.zeros((4, 2)), np.ones(4))
    assert info.value.numerical_rank == 0


def test_finite_entry_validation():
    # What a factor whose norms overflowed hands over: inf or NaN in R or Q^T x.
    with pytest.raises(ValueError):
        least_squares(np.array([[np.nan]]), np.ones(1))
    with pytest.raises(ValueError):
        least_squares(np.array([[np.inf, 1.0], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(ValueError):
        least_squares(np.eye(2), np.array([np.inf, 0.0]))
