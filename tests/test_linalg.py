import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rompkit.bench import SweepConfig, run_cell, run_trial, truncated_error, truncation_inequality_slack
from rompkit.ensembles import EnsembleSpec, probe_ric
from rompkit.linalg import RankDeficiencyError, least_squares, refit_errors
from rompkit.recovery import identify, recover_block
from rompkit.rng import derive_seed, substream
from rompkit.signals import NoiseSpec, SignalSpec, best_m_term


def _sweep(**overrides):
    grid = dict(dim=16, sparsities=(2,), measurement_counts=(8,), trials=1, seed=0)
    return SweepConfig(**{**grid, **overrides})


# Every public entry that takes a count or a seed, as (call, accepted value,
# lower bound): each goes through rompkit.linalg.as_integer.
COUNT_AND_SEED_SITES = {
    "EnsembleSpec-rows": (lambda v: EnsembleSpec("gaussian", v, 8), 4, 1),
    "EnsembleSpec-cols": (lambda v: EnsembleSpec("gaussian", 1, v), 4, 1),
    "EnsembleSpec-seed": (lambda v: EnsembleSpec("gaussian", 4, 8, seed=v), 3, 0),
    "SignalSpec-dim": (lambda v: SignalSpec("flat-sparse", v, sparsity=1), 8, 1),
    "SignalSpec-sparsity": (lambda v: SignalSpec("flat-sparse", 8, sparsity=v), 2, 1),
    "SignalSpec-seed": (lambda v: SignalSpec("power-law", 8, exponent=2.0, scale=1.0, seed=v), 3, 0),
    "NoiseSpec-seed": (lambda v: NoiseSpec("signal", 0.1, seed=v), 3, 0),
    "best_m_term-m": (lambda v: best_m_term(np.ones(4), v), 2, 0),
    "SweepConfig-dim": (lambda v: _sweep(dim=v), 16, 1),
    "SweepConfig-trials": (lambda v: _sweep(trials=v), 2, 1),
    "SweepConfig-seed": (lambda v: _sweep(seed=v), 3, 0),
    "SweepConfig-sparsities": (lambda v: _sweep(sparsities=(v,)), 2, 1),
    "SweepConfig-measurement_counts": (lambda v: _sweep(measurement_counts=(v,)), 8, 1),
    "derive_seed-seed": (lambda v: derive_seed(v, 1), 3, 0),
    "derive_seed-path": (lambda v: derive_seed(1, v), 3, 0),
    "substream-seed": (lambda v: substream(v, 1), 3, 0),
    "substream-path": (lambda v: substream(1, v), 3, 0),
    "identify-sparsity": (lambda v: identify(np.ones(4), v), 2, 1),
    "recover_block-sparsity": (lambda v: recover_block("romp", np.eye(4, 8), np.ones((1, 4)), v), 2, 1),
    "probe_ric-sparsity": (lambda v: probe_ric(np.eye(4), v, 2), 2, 1),
    "probe_ric-samples": (lambda v: probe_ric(np.eye(4), 2, v), 3, 1),
    "truncated_error-sparsity": (lambda v: truncated_error(np.ones(4), np.zeros(4), v), 1, 1),
    "truncation_inequality_slack-sparsity": (
        lambda v: truncation_inequality_slack(np.ones(4), np.zeros(4), v),
        1,
        1,
    ),
    "run_trial-sparsity": (lambda v: run_trial(_sweep(), "romp", v, 8, 0), 2, 1),
    "run_trial-measurements": (lambda v: run_trial(_sweep(), "romp", 2, v, 0), 8, 1),
    "run_trial-trial": (lambda v: run_trial(_sweep(), "romp", 2, 8, v), 0, 0),
    "run_cell-sparsity": (lambda v: next(run_cell(_sweep(), "romp", v, 8)), 2, 1),
    "run_cell-measurements": (lambda v: next(run_cell(_sweep(), "romp", 2, v)), 8, 1),
    # No next: run_cell checks its counts at the call.
    "run_cell_call-sparsity": (lambda v: run_cell(_sweep(), "romp", v, 8), 2, 1),
    "run_cell_call-measurements": (lambda v: run_cell(_sweep(), "romp", 2, v), 8, 1),
}


@pytest.mark.parametrize("site", COUNT_AND_SEED_SITES)
def test_count_and_seed_boundaries_share_one_rule(site):
    call, value, minimum = COUNT_AND_SEED_SITES[site]
    call(value)
    call(np.int64(value))
    # A float is rejected, even an integral one, never truncated or left to
    # fail later inside numpy; the message names the argument.
    name = site.split("-", 1)[1]
    for bad in (float(value), np.float64(value), value + 0.5):
        with pytest.raises(ValueError, match=rf"\b{name}\b.*must be an integer, got"):
            call(bad)
    bound = "non-negative" if minimum == 0 else f"at least {minimum}"
    with pytest.raises(ValueError, match=rf"\b{name}\b.*must be {bound}, got {minimum - 1}"):
        call(minimum - 1)


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


@pytest.mark.parametrize("k", [1, 2, 3, 4, 12, 48, 64, 65, 120])
def test_least_squares_is_numpy_solve_bit_for_bit(k):
    # The loop refits one lane at a time on the k x k corner of its (b, c, c)
    # stack of R and its (b, c) stack of Q^T x, as here, with R from a stacked
    # QR of Gaussian N x k blocks.  Each lane's coefficients must be numpy's
    # own solve on the same views, bit for bit.  At 2**-1030 times R the
    # coefficients overflow: both must give inf (and the NaN of inf - inf)
    # in the same places, and tier-1's RuntimeWarning filter sees no warning.
    rng = substream(31, k)
    lanes, c, rows = 3, 121, 130
    r, z = np.zeros((lanes, c, c)), np.zeros((lanes, c))
    q, r[:, :k, :k] = np.linalg.qr(rng.standard_normal((lanes, rows, k)))
    z[:, :k] = (q.swapaxes(-1, -2) @ rng.standard_normal((lanes, rows, 1)))[..., 0]
    got = {}
    for shift in (0, -1030):
        stack = np.ldexp(r, shift)
        got[shift] = [least_squares(stack[lane, :k, :k], z[lane, :k]) for lane in range(lanes)]
        want = [np.linalg.solve(stack[lane, :k, :k], z[lane, :k]) for lane in range(lanes)]
        assert [y.view(np.int64).tolist() for y in got[shift]] == [y.view(np.int64).tolist() for y in want]
    assert all(np.isfinite(y).all() for y in got[0])
    assert any(np.isinf(y).any() for y in got[-1030])


def check_lane(r, qtx, rows):
    """Run the refit's rules on one lane, a block of one, and raise its error if it breaks one."""
    k = len(qtx)
    errors = refit_errors(r[None], qtx[None], np.arange(k)[None], [k], rows)
    if errors:
        raise errors[0]


def check_refit(a, x):
    """The refit's rules on the reduced QR factor of ``a``, as the loop holds it.

    The loop's stacks are square and zero past what a lane has written, so a
    factor with fewer rows than columns is padded with zero rows.
    """
    rows, k = a.shape
    q, r = np.linalg.qr(a)
    square, qtx = np.zeros((k, k)), np.zeros(k)
    square[: len(r)], qtx[: len(r)] = r, q.T @ x
    check_lane(square, qtx, rows)


def test_least_squares_rank_deficiency_reports_rank():
    col = np.arange(1.0, 6.0)
    a = np.column_stack([col, 2.0 * col])
    with pytest.raises(RankDeficiencyError) as info:
        check_refit(a, np.ones(5))
    assert info.value.numerical_rank == 1
    assert info.value.shape == (5, 2) and info.value.support.tolist() == [0, 1]


def test_least_squares_underdetermined_rejected():
    # A 3x5 matrix factors to a 3x5 R: more columns than rows.  The loop
    # never holds one (selection drops a batch that would pass N rows), so
    # this is its R padded square with two zero rows: rank 3 of 5.
    rng = substream(5)
    a = rng.standard_normal((3, 5))
    with pytest.raises(RankDeficiencyError) as info:
        check_refit(a, np.ones(3))
    assert (info.value.numerical_rank, info.value.shape) == (3, (3, 5))


def test_least_squares_zero_matrix_rank_zero():
    with pytest.raises(RankDeficiencyError) as info:
        check_refit(np.zeros((4, 2)), np.ones(4))
    assert info.value.numerical_rank == 0


def test_finite_entry_validation():
    # What a factor whose norms overflowed hands over: inf or NaN in R or Q^T x.
    # The finite check comes before the rank rule, which would call a
    # non-finite diagonal rank-deficient.
    with pytest.raises(ValueError, match="finite"):
        check_lane(np.array([[np.nan]]), np.ones(1), 1)
    with pytest.raises(ValueError, match="finite"):
        check_lane(np.array([[np.inf, 1.0], [0.0, 1.0]]), np.ones(2), 2)
    with pytest.raises(ValueError, match="finite"):
        check_lane(np.eye(2), np.array([np.inf, 0.0]), 2)


def test_refit_rules_judge_each_lane_by_its_own_columns():
    # One stack of lanes that hold 3, 2, 2, 0 and 1 columns, zero past them.
    # Lane 1's diagonal is 1e11 times lane 0's, and lane 2's newest column
    # is dependent on its first: only lane 2 fails, with its own (N, k) and
    # support.  Lane 3 holds nothing to refit and is not judged.
    r = np.zeros((5, 3, 3))
    z = np.zeros((5, 3))
    r[0] = np.triu(substream(9).standard_normal((3, 3))) + 3.0 * np.eye(3)
    r[1, :2, :2] = 1e11 * np.eye(2)
    r[2, :2, :2] = np.diag([1.0, 1e-11])
    r[4, 0, 0] = 2.0
    z[:3, :2] = 1.0
    order = np.array([[5, 1, 9], [7, 2, 0], [8, 3, 0], [0, 0, 0], [4, 0, 0]])
    errors = refit_errors(r, z, order, [3, 2, 2, 0, 1], 6)
    assert list(errors) == [2]
    error = errors[2]
    assert type(error) is RankDeficiencyError
    assert (error.numerical_rank, error.shape, error.support.tolist()) == (1, (6, 2), [3, 8])
    # Each lane alone gets the same verdict.
    for lane, k in enumerate([3, 2, 2, 0, 1]):
        alone = refit_errors(r[lane : lane + 1], z[lane : lane + 1], order[lane : lane + 1], [k], 6)
        assert list(alone) == ([0] if lane == 2 else [])
