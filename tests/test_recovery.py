import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rompkit.ensembles import EnsembleSpec, build_matrix
from rompkit.linalg import RankDeficiencyError
from rompkit.recovery import (
    RecoveryOptions,
    energy_floor,
    identify,
    omp_recover,
    regularize,
    romp_recover,
    verify_iteration_invariants,
)
from rompkit.rng import substream


def brute_force_regularize(u, candidates):
    """Oracle: enumerate every nonempty subset, keep comparable ones, take the
    max-energy sets.  Returns (best_energy, list of frozenset index sets)."""
    best_energy = -1.0
    best_sets = []
    candidates = list(candidates)
    for size in range(1, len(candidates) + 1):
        for subset in itertools.combinations(candidates, size):
            mags = [abs(u[i]) for i in subset]
            if max(mags) > 2.0 * min(mags):
                continue
            energy = float(np.dot(u[list(subset)], u[list(subset)]))
            if energy > best_energy:
                best_energy = energy
                best_sets = [frozenset(subset)]
            elif energy == best_energy:
                best_sets.append(frozenset(subset))
    return best_energy, best_sets


# ---------------------------------------------------------------- identify

def test_identify_fewer_nonzeros_than_budget():
    u = np.array([0.0, 0.0, 5.0, 0.0, -7.0])
    assert np.array_equal(identify(u, 3), [2, 4])


def test_identify_two_largest():
    assert np.array_equal(identify(np.array([3.0, -4.0, 1.0]), 2), [0, 1])


def test_identify_tie_break_low_index():
    assert np.array_equal(identify(np.array([2.0, 2.0, 2.0]), 2), [0, 1])


def test_identify_zero_vector_empty():
    assert identify(np.zeros(5), 3).size == 0


def test_identify_rejects_bad_budget():
    with pytest.raises(ValueError):
        identify(np.ones(3), 0)


# -------------------------------------------------------------- regularize

def test_regularize_all_comparable():
    u = np.array([4.0, -4.0, 4.0])
    assert np.array_equal(regularize(u, [0, 1, 2]), [0, 1, 2])


def test_regularize_picks_top_window():
    u = np.array([10.0, 6.0, 5.0, 2.0, 1.0])
    chosen = regularize(u, [0, 1, 2, 3, 4])
    assert np.array_equal(chosen, [0, 1, 2])
    energy = float(np.sum(u[chosen] ** 2))
    best, best_sets = brute_force_regularize(u, range(5))
    assert energy == best == 161.0
    assert frozenset(chosen.tolist()) in best_sets


def test_regularize_drops_incomparable_small_entry():
    u = np.array([8.0, 3.0])
    chosen = regularize(u, [0, 1])
    assert np.array_equal(chosen, [0])
    best, best_sets = brute_force_regularize(u, range(2))
    assert float(np.sum(u[chosen] ** 2)) == best
    assert frozenset([0]) in best_sets


def test_regularize_rejects_empty_or_zero():
    with pytest.raises(ValueError):
        regularize(np.ones(3), [])
    with pytest.raises(ValueError):
        regularize(np.zeros(3), [0, 1])


@settings(max_examples=250, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_regularize_matches_brute_force(seed):
    rng = substream(seed)
    size = int(rng.integers(1, 9))
    dim = 20
    positions = np.sort(rng.choice(dim, size=size, replace=False))
    u = np.zeros(dim)
    u[positions] = rng.uniform(0.05, 20.0, size=size) * (rng.integers(0, 2, size=size) * 2 - 1)
    chosen = regularize(u, positions)
    mags = np.abs(u[chosen])
    assert mags.max() <= 2.0 * mags.min()
    best, best_sets = brute_force_regularize(u, positions.tolist())
    assert frozenset(int(i) for i in chosen) in best_sets
    assert np.linalg.norm(u[chosen]) >= energy_floor(size) * np.linalg.norm(u[positions])


# ------------------------------------------------------------ romp_recover

@pytest.fixture(scope="module")
def gaussian_64x128():
    return build_matrix(EnsembleSpec("gaussian", 64, 128, seed=7))


def test_romp_zero_observation(gaussian_64x128):
    result = romp_recover(gaussian_64x128, np.zeros(64), 3)
    assert np.array_equal(result.estimate, np.zeros(128))
    assert result.termination == "zero-observation"
    assert result.iterations == 0
    assert result.support.size == 0


def test_romp_noiseless_two_spikes_exact(gaussian_64x128):
    v = np.zeros(128)
    v[[10, 90]] = 1.0
    x = gaussian_64x128 @ v
    result = romp_recover(gaussian_64x128, x, 2, RecoveryOptions(trace=True))
    assert np.linalg.norm(result.estimate - v) <= 1e-6
    assert np.all(np.isin([10, 90], result.support))
    # exactness double-checked through the measurement residual
    assert np.linalg.norm(gaussian_64x128 @ result.estimate - x) <= 1e-8
    assert verify_iteration_invariants(gaussian_64x128, x, 2, result) == []


def test_romp_noisy_error_within_theory_bound(gaussian_64x128):
    rng = substream(202)
    v = np.zeros(128)
    v[[5, 40, 77, 111]] = 1.0
    clean = gaussian_64x128 @ v
    noise = 0.01 * rng.standard_normal(64)
    result = romp_recover(gaussian_64x128, clean + noise, 4)
    bound = 104.0 * np.sqrt(np.log(4)) * np.linalg.norm(noise)
    assert np.linalg.norm(result.estimate - v) <= bound


def test_romp_trace_invariants_on_noisy_runs(gaussian_64x128):
    rng = substream(303)
    for trial in range(10):
        v = np.zeros(128)
        v[rng.choice(128, size=4, replace=False)] = rng.standard_normal(4)
        x = gaussian_64x128 @ v + 0.02 * rng.standard_normal(64)
        result = romp_recover(gaussian_64x128, x, 4, RecoveryOptions(trace=True))
        assert verify_iteration_invariants(gaussian_64x128, x, 4, result) == []
        assert result.iterations <= 4
        assert result.support.size <= 12


def test_romp_support_monotone_and_disjoint(gaussian_64x128):
    rng = substream(404)
    v = np.zeros(128)
    v[rng.choice(128, size=6, replace=False)] = 1.0
    x = gaussian_64x128 @ v + 0.05 * rng.standard_normal(64)
    result = romp_recover(gaussian_64x128, x, 6, RecoveryOptions(trace=True))
    previous = np.empty(0, dtype=np.int64)
    for state in result.trace:
        assert np.intersect1d(state.selected, previous).size == 0
        assert np.all(np.isin(previous, state.support))
        previous = state.support


def test_romp_validates_inputs(gaussian_64x128):
    with pytest.raises(ValueError):
        romp_recover(gaussian_64x128, np.zeros(63), 2)
    with pytest.raises(ValueError):
        romp_recover(gaussian_64x128, np.zeros(64), 0)
    with pytest.raises(ValueError):
        # needs 3n <= d
        romp_recover(gaussian_64x128, np.zeros(64), 100)


def test_romp_rank_deficiency_carries_support():
    # two identical dominant columns get selected together and break the solve
    rng = substream(55)
    col = rng.standard_normal(12)
    fill = 1e-3 * rng.standard_normal((12, 4))
    phi = np.column_stack([col, col, fill[:, 0], fill[:, 1], fill[:, 2], fill[:, 3]])
    with pytest.raises(RankDeficiencyError) as info:
        romp_recover(phi, col.copy(), 2)
    assert info.value.support is not None
    assert set(info.value.support.tolist()) == {0, 1}


def test_romp_zero_residual_stops_early(gaussian_64x128):
    v = np.zeros(128)
    v[3] = 2.0
    x = gaussian_64x128 @ v
    result = romp_recover(gaussian_64x128, x, 8)
    assert result.termination == "zero-residual"
    assert result.iterations < 8


def test_romp_support_budget_termination():
    # flat correlations make every iteration select a full comparable batch
    phi = build_matrix(EnsembleSpec("gaussian", 48, 96, seed=31))
    rng = substream(31)
    x = rng.standard_normal(48)  # pure noise, nothing sparse to find
    result = romp_recover(phi, x, 4)
    assert result.termination in {"support-budget", "max-iterations"}
    assert result.support.size <= 12
    assert result.iterations <= 4


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    noise=st.sampled_from([0.0, 0.01]),
    k=st.integers(-900, 1000),
)
def test_recovery_invariant_under_power_of_two_scaling(gaussian_64x128, seed, noise, k):
    # Selection is scale-invariant, so scaling x by 2**k (exact in binary
    # floating point) must change nothing but the scale of the outputs.
    rng = substream(seed)
    v = np.zeros(128)
    v[rng.choice(128, size=4, replace=False)] = rng.standard_normal(4)
    x = gaussian_64x128 @ v + noise * rng.standard_normal(64)
    for recover in (romp_recover, omp_recover):
        base = recover(gaussian_64x128, x, 4, RecoveryOptions(trace=True))
        scaled = recover(gaussian_64x128, np.ldexp(x, k), 4, RecoveryOptions(trace=True))
        assert np.array_equal(scaled.support, base.support)
        assert (scaled.iterations, scaled.termination) == (base.iterations, base.termination)
        assert np.array_equal(scaled.estimate, np.ldexp(base.estimate, k))
        for got, want in zip(scaled.trace, base.trace):
            assert np.array_equal(got.residual, np.ldexp(want.residual, k))
            assert np.array_equal(got.correlation, np.ldexp(want.correlation, k))
            assert np.array_equal(got.coefficients, np.ldexp(want.coefficients, k))


# ------------------------------------------------------------- omp_recover

def test_omp_zero_observation(gaussian_64x128):
    result = omp_recover(gaussian_64x128, np.zeros(64), 3)
    assert np.array_equal(result.estimate, np.zeros(128))
    assert result.termination == "zero-observation"


def test_omp_one_sparse_single_iteration(gaussian_64x128):
    v = np.zeros(128)
    v[17] = -3.0
    x = gaussian_64x128 @ v
    result = omp_recover(gaussian_64x128, x, 1)
    assert result.iterations == 1
    assert np.array_equal(result.support, [17])
    assert np.linalg.norm(gaussian_64x128 @ result.estimate - x) <= 1e-8


def test_omp_matches_romp_on_noiseless_spikes(gaussian_64x128):
    v = np.zeros(128)
    v[[10, 90]] = 1.0
    x = gaussian_64x128 @ v
    romp = romp_recover(gaussian_64x128, x, 2)
    omp = omp_recover(gaussian_64x128, x, 2)
    assert np.linalg.norm(romp.estimate - v) <= 1e-6
    assert np.linalg.norm(omp.estimate - v) <= 1e-6


def test_omp_selects_one_index_per_iteration(gaussian_64x128):
    rng = substream(21)
    v = np.zeros(128)
    v[rng.choice(128, size=5, replace=False)] = rng.standard_normal(5)
    x = gaussian_64x128 @ v + 0.01 * rng.standard_normal(64)
    result = omp_recover(gaussian_64x128, x, 5, RecoveryOptions(trace=True))
    for k, state in enumerate(result.trace):
        assert state.selected.size == 1
        assert state.support.size == k + 1
    assert verify_iteration_invariants(gaussian_64x128, x, 5, result) == []
