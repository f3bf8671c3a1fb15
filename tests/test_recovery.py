import collections
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rompkit import bench, ensembles, recovery
from rompkit.ensembles import EnsembleSpec, PartialFourier, build_matrix, partial_fourier
from rompkit.linalg import RankDeficiencyError
from rompkit.recovery import (
    RecoveryResult,
    energy_floor,
    identify,
    omp_recover,
    recover_block,
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


def identify_oracle(u, sparsity):
    """Top ``sparsity`` nonzero magnitudes by a full stable sort, sorted by index."""
    magnitudes = np.abs(u)
    order = [i for i in np.argsort(-magnitudes, kind="stable") if magnitudes[i] > 0.0]
    return sorted(order[:sparsity])


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.integers(-3, 3), min_size=1, max_size=40),
    sparsity=st.integers(1, 45),
)
@example(values=[0, -3, 1, 3, 0], sparsity=1)
@example(values=[0, 0], sparsity=1)
def test_identify_matches_stable_sort_oracle(values, sparsity):
    # Small integers make ties and zeros common: ties must go to the lower
    # index and zeros must never be chosen.
    u = np.asarray(values, dtype=np.float64)
    assert identify(u, sparsity).tolist() == identify_oracle(u, sparsity)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.lists(st.integers(-3, 3), min_size=12, max_size=12), min_size=1, max_size=6),
    sparsity=st.integers(1, 14),
)
@example(rows=[[0] * 12, [2] * 12, [0, 1] * 6], sparsity=3)
def test_block_identify_matches_stable_sort_oracle_row_by_row(rows, sparsity):
    # The block form is what the lockstep loop selects with: rows with many
    # ties and rows with fewer nonzeros than the budget share one call.
    block = np.asarray(rows, dtype=np.float64)
    lanes, picked = identify(block, sparsity)
    for lane, row in enumerate(block):
        assert picked[lanes == lane].tolist() == identify_oracle(row, sparsity)
        assert picked[lanes == lane].tolist() == identify(row, sparsity).tolist()


def test_identify_rejects_bad_budget():
    with pytest.raises(ValueError):
        identify(np.ones(3), 0)
    # Only one observation or a block of rows; flattening any other shape
    # would return flat indices.
    for observation in (np.float64(1.0), np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="observation must be 1-D or 2-D"):
            identify(observation, 1)


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


def random_candidates(seed):
    """Up to 8 signed nonzero entries of a length-20 observation, and their positions."""
    rng = substream(seed)
    size = int(rng.integers(1, 9))
    dim = 20
    positions = np.sort(rng.choice(dim, size=size, replace=False))
    u = np.zeros(dim)
    u[positions] = rng.uniform(0.05, 20.0, size=size) * (rng.integers(0, 2, size=size) * 2 - 1)
    return u, positions


@settings(max_examples=250, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_regularize_matches_brute_force(seed):
    u, positions = random_candidates(seed)
    size = positions.size
    chosen = regularize(u, positions)
    mags = np.abs(u[chosen])
    assert mags.max() <= 2.0 * mags.min()
    best, best_sets = brute_force_regularize(u, positions.tolist())
    assert frozenset(int(i) for i in chosen) in best_sets
    assert np.linalg.norm(u[chosen]) >= energy_floor(size) * np.linalg.norm(u[positions])


def regularize_scan_oracle(u, candidates):
    """Window scan that evaluates the maximal window at every start position."""
    idx = np.asarray(candidates, dtype=np.int64)
    magnitudes = np.abs(u[idx])
    keep = magnitudes > 0.0
    idx = idx[keep]
    magnitudes = magnitudes[keep]
    order = np.argsort(-magnitudes, kind="stable")
    sorted_mags = np.ldexp(magnitudes[order], -math.frexp(float(magnitudes[order[0]]))[1])
    best_energy = -1.0
    best_window = (0, 0)
    hi = 0
    for lo in range(sorted_mags.size):
        if hi < lo:
            hi = lo
        while hi + 1 < sorted_mags.size and sorted_mags[lo] <= 2.0 * sorted_mags[hi + 1]:
            hi += 1
        window = sorted_mags[lo : hi + 1]
        energy = float(np.dot(window, window))
        if energy > best_energy:
            best_energy = energy
            best_window = (lo, hi + 1)
    return np.sort(idx[order[best_window[0] : best_window[1]]])


@settings(max_examples=300, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.integers(-9, 9), st.sampled_from([0, -1, -2, -1060, -1074])),
        min_size=1,
        max_size=60,
    ).filter(lambda entries: any(m for m, _ in entries)),
)
@example(entries=[(5, 0), (2, 0), (1, 0), (0, 0), (2, 0)])
@example(entries=[(8, 0), (4, 0), (4, 0), (2, 0), (2, 0), (2, 0), (1, 0)])
# [4, 2] and [2, 1.5 x4, 1 x7] both have energy 20: the earlier start wins.
@example(entries=[(4, 0), (2, 0)] + [(3, -1)] * 4 + [(1, 0)] * 7)
def test_regularize_matches_scan_oracle(entries):
    # Small integer mantissas make ties, zeros and exact factor-of-two
    # boundaries common; the far exponents add entries that are subnormal,
    # or flush to zero, after regularize's power-of-two scaling.
    mantissas, exponents = zip(*entries)
    u = np.ldexp(np.asarray(mantissas, dtype=np.float64), exponents)
    positions = np.arange(u.size)
    assert regularize(u, positions).tolist() == regularize_scan_oracle(u, positions).tolist()


@pytest.mark.parametrize("k", [0, -1000, 1000, -1070])
def test_regularize_window_at_extreme_scales(k):
    # Five comparable 4.9s outweigh the lone 10 (120.05 > 100) at any scale,
    # including where squared magnitudes overflow or underflow.
    u = np.ldexp([10.0, 4.9, 4.9, 4.9, 4.9, 4.9], k)
    assert np.array_equal(regularize(u, np.arange(6)), [1, 2, 3, 4, 5])


def test_regularize_on_infinite_and_nan_magnitudes():
    # An overflowed Phi^T r: the window of infinite entries wins and NaN is
    # dropped, as the window scan decides.  Energies taken as differences of
    # a prefix sum would be inf - inf there.
    u = np.array([3.0, np.inf, 1.0, -np.inf, np.nan])
    assert regularize(u, range(5)).tolist() == regularize_scan_oracle(u, range(5)).tolist() == [1, 3]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), k=st.integers(-1000, 1000))
def test_regularize_invariant_under_power_of_two_scaling(seed, k):
    u, positions = random_candidates(seed)
    assert np.array_equal(regularize(np.ldexp(u, k), positions), regularize(u, positions))


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
    result = romp_recover(gaussian_64x128, x, 2, trace=True)
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
        result = romp_recover(gaussian_64x128, x, 4, trace=True)
        assert verify_iteration_invariants(gaussian_64x128, x, 4, result) == []
        assert result.iterations <= 4
        assert result.support.size <= 12


def test_romp_support_monotone_and_disjoint(gaussian_64x128):
    rng = substream(404)
    v = np.zeros(128)
    v[rng.choice(128, size=6, replace=False)] = 1.0
    x = gaussian_64x128 @ v + 0.05 * rng.standard_normal(64)
    result = romp_recover(gaussian_64x128, x, 6, trace=True)
    previous = np.empty(0, dtype=np.int64)
    for state in result.trace:
        # The trace keeps the correlation selection saw: zero on the support.
        assert np.count_nonzero(state.correlation[previous]) == 0
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
    # A float sparsity is never truncated, not even an integral one.
    for sparsity in (3.0, 2.5, np.float64(2.0)):
        for recover in (romp_recover, omp_recover):
            with pytest.raises(ValueError, match="sparsity must be an integer"):
                recover(gaussian_64x128, np.ones(64), sparsity)
        with pytest.raises(ValueError, match="sparsity must be an integer"):
            recover_block("omp", gaussian_64x128, np.ones((2, 64)), sparsity)
    # A lone call takes one finite vector, and a block one 2-D array of them.
    for measurements, message in [
        (np.ones((1, 64)), "expected a 1-D vector"),
        (np.r_[np.nan, np.ones(63)], "vector entries must be finite"),
        (np.r_[np.ones(63), np.inf], "vector entries must be finite"),
    ]:
        for recover in (romp_recover, omp_recover):
            with pytest.raises(ValueError, match=message):
                recover(gaussian_64x128, measurements, 2)
    for shape in ((64,), (1, 2, 64)):
        with pytest.raises(ValueError, match="expected a 2-D matrix"):
            recover_block("romp", gaussian_64x128, np.ones(shape), 2)


def test_non_numeric_entries_are_a_value_error(gaussian_64x128):
    # numpy raises TypeError for an entry that is not a real number; the
    # matrix and vector checks share one conversion that makes it ValueError.
    pf64, pf128 = (partial_fourier(EnsembleSpec("partial-fourier-real", 8, d)) for d in (64, 128))
    with pytest.raises(ValueError, match="matrix entries must be real numbers"):
        recover_block("romp", [pf64, pf128], np.ones((2, 8)), 2)
    with pytest.raises(ValueError, match="matrix entries must be real numbers"):
        romp_recover(np.array([[object()] * 64] * 8), np.ones(8), 2)
    with pytest.raises(ValueError, match="vector entries must be real numbers"):
        omp_recover(gaussian_64x128, [object()] * 64, 2)


@pytest.mark.parametrize("algo, recover", [("romp", romp_recover), ("omp", omp_recover)], ids=["romp", "omp"])
def test_complex_entries_are_a_value_error(algo, recover, gaussian_64x128):
    # A cast to float64 would keep only the real parts: an imaginary x would
    # end as zero-observation, and a complex Phi would recover its real part.
    with pytest.raises(ValueError, match="vector entries must be real numbers, got complex128"):
        recover(gaussian_64x128, np.full(64, 1j), 2)
    with pytest.raises(ValueError, match="matrix entries must be real numbers, got complex128"):
        recover(gaussian_64x128 + 0j, gaussian_64x128[:, 3], 1)
    with pytest.raises(ValueError, match="matrix entries must be real numbers, got complex64"):
        recover_block(algo, gaussian_64x128, np.ones((2, 64), dtype=np.complex64), 1)


@pytest.mark.parametrize("recover", [romp_recover, omp_recover], ids=["romp", "omp"])
def test_integer_like_sparsity_runs_as_its_value(recover, gaussian_64x128):
    x = gaussian_64x128[:, 5] - 0.5 * gaussian_64x128[:, 40]
    for n in (1, 2):
        expected = recover(gaussian_64x128, x, n, trace=True)
        for like in (np.int64(n), np.int32(n)) + ((True,) if n == 1 else ()):
            result = recover(gaussian_64x128, x, like, trace=True)
            assert result.estimate.tobytes() == expected.estimate.tobytes()
            assert result.iterations == expected.iterations
            assert result.termination == expected.termination


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


def test_romp_rank_deficiency_across_iterations_carries_support():
    # Orthonormal c0, c1, c3 and c2 = (c1 + 0.05 c0) / |.|.  Iteration 1
    # selects c0 alone; then c1 and c2 have comparable correlations and are
    # selected together, but c2 lies in the span of c0 (picked earlier) and c1.
    basis, _ = np.linalg.qr(substream(8).standard_normal((8, 8)))
    c0, c1, c3 = basis[:, 0], basis[:, 1], basis[:, 2]
    c2 = (c1 + 0.05 * c0) / np.linalg.norm(c1 + 0.05 * c0)
    fill = 1e-3 * basis[:, 3:5]
    phi = np.column_stack([c0, c1, c2, c3, fill])
    x = 10.0 * c0 + c1 + 0.5 * c3
    with pytest.raises(RankDeficiencyError) as info:
        romp_recover(phi, x, 2)
    assert info.value.support.tolist() == [0, 1, 2]
    assert info.value.numerical_rank == 2


def basis8():
    """A seeded orthonormal basis e0..e7 of R^8, one vector per row."""
    return np.linalg.qr(substream(8).standard_normal((8, 8)))[0].T


def nearly_parallel_columns(eps):
    """Columns c0, c1 = (c0 + eps e1) / |.| and tiny fill; x = c0 + 1e-3 e1 is in their span.

    OMP selects c1, then c0, which is numerically dependent on c1 once eps
    falls below the rank cutoff.
    """
    e = basis8()
    c1 = (e[0] + eps * e[1]) / np.linalg.norm(e[0] + eps * e[1])
    phi = np.column_stack([e[0], c1, *(1e-12 * e[2:6])])
    return phi, e[0] + 1e-3 * e[1]


def test_omp_refit_keeps_residual_orthogonal_on_nearly_parallel_columns():
    # Condition number ~1e7: one Gram-Schmidt pass would leave about 1e-9 |x|
    # of x outside the fitted span; the reorthogonalization pass removes it.
    phi, x = nearly_parallel_columns(1e-7)
    result = omp_recover(phi, x, 2, trace=True)
    assert result.termination == "zero-residual"
    assert verify_iteration_invariants(phi, x, 2, result) == []


def test_omp_rank_deficiency_on_later_dependent_column():
    # The second column is judged against the first one's factor, not alone.
    phi, x = nearly_parallel_columns(1e-12)
    with pytest.raises(RankDeficiencyError) as info:
        omp_recover(phi, x, 2)
    assert info.value.support.tolist() == [0, 1]
    assert info.value.numerical_rank == 1


def test_omp_repeated_column_is_rank_deficiency():
    # Column 1 repeats column 0.  Once column 0 is fit, roundoff can leave a
    # nonzero correlation on column 1 alone.  If OMP then picks it, its part
    # orthogonal to column 0 is zero or roundoff, which must surface as rank
    # deficiency rather than as a division by zero.
    c = np.array([1.0, 2.0, 3.0])
    phi = np.zeros((3, 6))
    phi[:, 0] = phi[:, 1] = c
    try:
        result = omp_recover(phi, c + np.array([1.0, 1.0, -1.0]), 2)
    except RankDeficiencyError as exc:
        assert exc.support.tolist() == [0, 1]
    else:
        assert result.termination == "zero-observation"


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


def test_romp_stops_before_support_exceeds_rows():
    # n = 6 on 8 rows: the second selection would refit more columns than
    # rows, so the run ends on the first fit instead of raising.
    phi = build_matrix(EnsembleSpec("gaussian", 8, 64, seed=3))
    v = np.zeros(64)
    v[[2, 9, 20, 33, 41, 60]] = [1.0, -0.5, 2.0, 0.7, -1.3, 0.9]
    x = phi @ v
    result = romp_recover(phi, x, 6, trace=True)
    assert result.termination == "support-budget"
    assert result.iterations >= 1
    assert result.support.size <= 8
    assert verify_iteration_invariants(phi, x, 6, result) == []


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    noise=st.sampled_from([0.0, 0.01]),
    k=st.integers(-900, 1000),
    j=st.integers(-1000, 1000),
)
# Phi scaled by about 1e160, 1e300 (the one-column norm overflowed), 1e-160
# (a wrong estimate), 1e-170, 1e-250 and 1e-300 (a false rank deficiency).
@example(seed=14, noise=0.0, k=0, j=532)
@example(seed=14, noise=0.0, k=0, j=997)
@example(seed=14, noise=0.0, k=0, j=-532)
@example(seed=14, noise=0.0, k=0, j=-565)
@example(seed=14, noise=0.0, k=0, j=-830)
@example(seed=14, noise=0.0, k=0, j=-997)
def test_recovery_invariant_under_power_of_two_scaling(gaussian_64x128, seed, noise, k, j):
    # Selection is scale-invariant, so scaling x by 2**k or Phi by 2**j (exact
    # in binary floating point) must change nothing but the scale of the outputs.
    rng = substream(seed)
    v = np.zeros(128)
    v[rng.choice(128, size=4, replace=False)] = rng.standard_normal(4)
    x = gaussian_64x128 @ v + noise * rng.standard_normal(64)
    # Every entry of this Phi stays a normal float at any j in range.
    phi = np.ldexp(gaussian_64x128, j)
    for recover in (romp_recover, omp_recover):
        base = recover(gaussian_64x128, x, 4, trace=True)
        scaled = recover(gaussian_64x128, np.ldexp(x, k), 4, trace=True)
        assert np.array_equal(scaled.support, base.support)
        assert (scaled.iterations, scaled.termination) == (base.iterations, base.termination)
        assert np.array_equal(scaled.estimate, np.ldexp(base.estimate, k))
        for got, want in zip(scaled.trace, base.trace):
            assert np.array_equal(got.residual, np.ldexp(want.residual, k))
            assert np.array_equal(got.correlation, np.ldexp(want.correlation, k))
            assert np.array_equal(got.coefficients, np.ldexp(want.coefficients, k))
        rescaled = recover(phi, x, 4, trace=True)
        assert np.array_equal(rescaled.support, base.support)
        assert (rescaled.iterations, rescaled.termination) == (base.iterations, base.termination)
        # A subnormal entry of the scaled estimate has lost bits, so only
        # zero and normal entries must match exactly.
        assert_scaled_normal_entries(rescaled.estimate, base.estimate, -j)
        for got, want in zip(rescaled.trace, base.trace, strict=True):
            assert np.array_equal(got.selected, want.selected)
            assert np.array_equal(got.residual, want.residual)
            assert_scaled_normal_entries(got.coefficients, want.coefficients, -j)
            # A product of Phi and r that is subnormal loses bits too (seen at
            # j = -1000), and the sums of products round on from there.
            u = np.ldexp(want.correlation, j)
            bound = 64 * 2.0**-1074 + 1e-13 * (np.abs(phi).T @ np.abs(want.residual))
            assert np.all(np.abs(got.correlation - u) <= bound)


def assert_scaled_normal_entries(got, want, k):
    want = np.ldexp(want, k)
    exact = (want == 0.0) | (np.abs(want) >= np.finfo(np.float64).tiny)
    assert np.array_equal(got[exact], want[exact])


@pytest.mark.parametrize("ensemble", ["gaussian", "bernoulli", "partial-fourier-real"])
@pytest.mark.parametrize("recover", [romp_recover, omp_recover], ids=["romp", "omp"])
def test_every_iterate_matches_least_squares_reference(ensemble, recover):
    # The loop extends its QR factor instead of refactoring; each traced
    # estimate must still be the least-squares fit on that iteration's support.
    phi = build_matrix(EnsembleSpec(ensemble, 64, 256, seed=11))
    rng = substream(12)
    v = np.zeros(256)
    v[rng.choice(256, size=8, replace=False)] = rng.standard_normal(8)
    x = phi @ v + 0.05 * rng.standard_normal(64)
    result = recover(phi, x, 8, trace=True)
    assert result.iterations >= 2
    for state in result.trace:
        # np.linalg.lstsq solves through an SVD, independent of the loop's QR.
        reference = np.linalg.lstsq(phi[:, state.support], x, rcond=None)[0]
        got = state.coefficients[state.support]
        assert np.linalg.norm(got - reference) <= 1e-10 * np.linalg.norm(reference)
        assert np.count_nonzero(np.delete(state.coefficients, state.support)) == 0
    assert np.array_equal(result.estimate, result.trace[-1].coefficients)


# Far from unit scale the one-column refit takes its norm on a copy scaled
# by a power of two, so these recover like the unscaled matrix does, with no
# overflow warning and no false rank deficiency.
def scaled_problem(scale):
    """A 64x256 Gaussian Phi times ``scale``, a 4-sparse v and x = Phi v."""
    phi = build_matrix(EnsembleSpec("gaussian", 64, 256, seed=13)) * scale
    rng = substream(14)
    v = np.zeros(256)
    v[rng.choice(256, size=4, replace=False)] = rng.standard_normal(4)
    return phi, v, phi @ v


@pytest.mark.parametrize("scale", [1e160, 1e300, 1e-160, 1e-170, 1e-300])
@pytest.mark.parametrize("recover", [romp_recover, omp_recover], ids=["romp", "omp"])
def test_huge_matrix_scale_fails_loudly_or_recovers(recover, scale):
    phi, v, x = scaled_problem(scale)
    result = recover(phi, x, 4)
    assert np.linalg.norm(result.estimate - v) <= 1e-6 * np.linalg.norm(v)


@pytest.mark.parametrize("scale", [1e160, 1e300, 1e-160, 1e-170, 1e-300])
@pytest.mark.parametrize("recover", [romp_recover, omp_recover], ids=["romp", "omp"])
def test_huge_matrix_scale_traced_verifies_or_raises(recover, scale):
    # Traced, Phi^T r at the input scale passes the float range at Phi*1e160
    # and beyond, though the run itself recovers: the run must raise, never
    # warn or hand the verifier a trace of infinities.
    phi, v, x = scaled_problem(scale)
    try:
        result = recover(phi, x, 4, trace=True)
    except ValueError as exc:
        assert str(exc).startswith("trace of iteration 0 overflows")
        return
    assert verify_iteration_invariants(phi, x, 4, result) == []
    assert np.linalg.norm(result.estimate - v) <= 1e-6 * np.linalg.norm(v)


@pytest.mark.parametrize("recover", [romp_recover, omp_recover], ids=["romp", "omp"])
def test_column_norm_past_float_range_raises_value_error(gaussian_64x128, recover, monkeypatch):
    # Column 0 is finite but its norm, 2e308, is not: the refit's checks must
    # reject it as non-finite before any back-substitution, not overflow in a
    # norm or in ldexp.
    phi = gaussian_64x128.copy()
    phi[:, 0] = 0.0
    phi[:4, 0] = 1e308
    x = np.zeros(64)
    x[0] = 0.75
    calls = []
    real = recovery.least_squares
    monkeypatch.setattr(recovery, "least_squares", lambda r, qtx: calls.append(qtx.size) or real(r, qtx))
    with pytest.raises(ValueError, match="finite"):
        recover(phi, x, 4)
    assert calls == []


@pytest.mark.parametrize("recover", [romp_recover, omp_recover], ids=["romp", "omp"])
def test_subnormal_matrix_raises_value_error(recover):
    # Every entry of this Phi is subnormal, so the coefficients, solved
    # against x scaled to unit size, overflow: that must raise, not come back
    # as inf or as a rank deficiency the columns do not have.
    phi = np.ldexp(build_matrix(EnsembleSpec("gaussian", 64, 256, seed=13)), -1030)
    rng = substream(14)
    v = np.zeros(256)
    v[rng.choice(256, size=4, replace=False)] = rng.standard_normal(4)
    with pytest.raises(ValueError, match="overflow"):
        recover(phi, phi @ v, 4)


@pytest.mark.parametrize("algo", ["romp", "omp"])
def test_overflowing_coefficients_end_only_their_own_row(algo):
    # Row 0's coefficients, v * 1e310, pass the float range on their way
    # back to the input scale: that row ends with the overflow ValueError,
    # without a RuntimeWarning that would take the sound row 1 with it.
    phi, v, x = scaled_problem(1e-300)
    overflowing = (phi / 1e-300) @ v * 1e10
    got = recover_block(algo, phi, np.array([overflowing, x]), 4)
    assert type(got[0]) is ValueError
    assert str(got[0]).startswith("least-squares coefficients overflow")
    assert isinstance(got[1], RecoveryResult)
    assert np.linalg.norm(got[1].estimate - v) <= 1e-6 * np.linalg.norm(v)


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
    result = omp_recover(gaussian_64x128, x, 5, trace=True)
    for k, state in enumerate(result.trace):
        assert state.selected.size == 1
        assert state.support.size == k + 1
    assert verify_iteration_invariants(gaussian_64x128, x, 5, result) == []


# ---------------------------------------------------------------- verifier

# A traced ROMP run at n = 3 written out by hand: the first five columns of
# the 5 x 10 identity, x = (4, 3, 1, 1/2, 1/4).  It selects {0, 1}, then
# {2, 3}, then {4}, and its residual is then zero.  Its five columns span
# the five rows, so they fit any x: the run ends on the N-row budget.
VERIFIER_PHI = np.eye(5, 10)
VERIFIER_X = np.array([4.0, 3.0, 1.0, 0.5, 0.25])
VERIFIER_N = 3


def _on(indices, length):
    """VERIFIER_X kept on ``indices`` and zero elsewhere, as a length-``length`` vector."""
    out = np.zeros(length)
    out[indices] = VERIFIER_X[indices]
    return out


def hand_built_run():
    trace, previous = [], []
    for candidates, selected in (([0, 1, 2], [0, 1]), ([2, 3, 4], [2, 3]), ([4], [4])):
        support = sorted(previous + selected)
        trace.append(
            recovery.IterationState(
                support=np.array(support),
                candidates=np.array(candidates),
                selected=np.array(selected),
                correlation=_on(np.setdiff1d(np.arange(5), previous), 10),
                residual=VERIFIER_X - _on(support, 5),
                coefficients=_on(support, 10),
            )
        )
        previous = support
    return recovery.RecoveryResult(
        estimate=_on(previous, 10),
        support=np.array(previous),
        iterations=3,
        termination=recovery.SUPPORT_BUDGET,
        trace=trace,
    )


def _set(k, **fields):
    def edit(run):
        for name, value in fields.items():
            setattr(run.trace[k], name, np.array(value, dtype=np.float64 if name == "correlation" else np.int64))

    return edit


def _starve_selection(run):
    # Candidate 4's correlation grows until iteration 1's selection holds 1%
    # less than the energy floor of the candidates' correlation energy.
    u = run.trace[1].correlation
    ratio = 0.99 * energy_floor(VERIFIER_N)
    u[4] = np.linalg.norm(u[[2, 3]]) * math.sqrt(1.0 / ratio**2 - 1.0)


# One edit per rule of verify_iteration_invariants, and the start of the
# one violation it must cause.
VERIFIER_CASES = {
    "iteration-budget": (lambda run: setattr(run, "iterations", 4), "iterations 4 exceed budget 3"),
    "support-budget": (lambda run: setattr(run, "support", np.arange(10)), "support size 10 exceeds 3n = 9"),
    "estimate-off-support": (
        lambda run: run.estimate.__setitem__(7, 1.0),
        "estimate has mass outside the reported support",
    ),
    "candidate-budget": (_set(1, candidates=[0, 2, 3, 4]), "iter 1: candidate set larger than 3"),
    "selected-outside-candidates": (_set(0, candidates=[0, 2]), "iter 0: selected set not contained in candidates"),
    "selected-in-previous-support": (
        _set(1, correlation=[0, 1, 1, 0.5, 0.25, 0, 0, 0, 0, 0], candidates=[1, 2, 3], selected=[1, 2, 3]),
        "iter 1: selected set intersects previous support",
    ),
    "empty-selection": (_set(2, candidates=[], selected=[], support=[0, 1, 2, 3]), "iter 2: empty selection"),
    "incomparable-selection": (
        _set(1, correlation=[0, 0, 1, 0.4, 0.25, 0, 0, 0, 0, 0]),
        "iter 1: selected magnitudes not comparable",
    ),
    "energy-floor": (_starve_selection, "iter 1: energy floor violated"),
    "support-drops-selection": (
        _set(2, support=[0, 1, 2, 3]),
        "iter 2: support is not the previous support plus the selected set",
    ),
    "support-drops-previous": (
        _set(2, support=[1, 2, 3, 4]),
        "iter 2: support is not the previous support plus the selected set",
    ),
    "support-adds-unselected": (
        _set(2, support=[0, 1, 2, 3, 4, 5]),
        "iter 2: support is not the previous support plus the selected set",
    ),
    "orthogonality": (
        lambda run: run.trace[0].residual.__setitem__(0, 1e-6 * np.linalg.norm(VERIFIER_X)),
        "iter 0: residual not orthogonal to selected columns",
    ),
    # An overflowed trace compared inf with inf and passed every other rule.
    "infinite-correlation": (
        lambda run: run.trace[1].correlation.__setitem__(9, np.inf),
        "iter 1: non-finite trace entry",
    ),
    "nan-residual": (lambda run: run.trace[0].residual.__setitem__(4, np.nan), "iter 0: non-finite trace entry"),
    "infinite-coefficient": (
        lambda run: run.trace[2].coefficients.__setitem__(3, -np.inf),
        "iter 2: non-finite trace entry",
    ),
}
# The constant whose loosening hides a case, and the loosened value.
LOOSENED = {
    "orthogonality": ("ORTHOGONALITY_TOL", 1e-2),
    "energy-floor": ("REGULARIZATION_ENERGY_FACTOR", 1e9),
}


def test_verifier_passes_the_hand_built_run():
    run = hand_built_run()
    assert verify_iteration_invariants(VERIFIER_PHI, VERIFIER_X, VERIFIER_N, run) == []
    # It is the run ROMP traces.
    traced = romp_recover(VERIFIER_PHI, VERIFIER_X, VERIFIER_N, trace=True)
    assert (traced.iterations, traced.termination) == (run.iterations, run.termination)
    assert np.array_equal(traced.estimate, run.estimate)
    for got, want in zip(traced.trace, run.trace, strict=True):
        for name in ("support", "candidates", "selected", "correlation", "residual", "coefficients"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_verifier_reports_an_empty_first_support():
    # With iteration 0's selection emptied, its support is empty too; the
    # orthogonality rule has no column to check and must not raise.
    run = romp_recover(VERIFIER_PHI, VERIFIER_X, VERIFIER_N, trace=True)
    _set(0, candidates=[], selected=[], support=[])(run)
    assert "iter 0: empty selection" in verify_iteration_invariants(VERIFIER_PHI, VERIFIER_X, VERIFIER_N, run)


def test_verifier_rejects_a_non_finite_matrix():
    # NaN on the support columns once left every rule passing, and an inf Phi only warned.
    phi = build_matrix(EnsembleSpec("gaussian", 64, 256, seed=3))
    rng = substream(4)
    v = np.zeros(256)
    v[rng.choice(256, size=4, replace=False)] = rng.standard_normal(4)
    result = romp_recover(phi, phi @ v, 4, trace=True)
    assert verify_iteration_invariants(phi, phi @ v, 4, result) == []
    poisoned = phi.copy()
    poisoned[:, result.support] = np.nan
    for bad in (poisoned, np.full_like(phi, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            verify_iteration_invariants(bad, phi @ v, 4, result)


@pytest.mark.parametrize("case", VERIFIER_CASES)
def test_verifier_flags_each_broken_rule_alone(case, monkeypatch):
    edit, message = VERIFIER_CASES[case]
    run = hand_built_run()
    edit(run)
    violations = verify_iteration_invariants(VERIFIER_PHI, VERIFIER_X, VERIFIER_N, run)
    assert len(violations) == 1 and violations[0].startswith(message), violations
    if case in LOOSENED:
        # The loosened verifier misses this case, so this test catches it.
        monkeypatch.setattr(recovery, *LOOSENED[case])
        assert verify_iteration_invariants(VERIFIER_PHI, VERIFIER_X, VERIFIER_N, run) == []


# ---------------------------------------------------------------- lockstep

def identical(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_same_outcome(got, want):
    """A lockstep entry equals the lone call's result or exception, bit for bit."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        if isinstance(want, RankDeficiencyError):
            assert (got.numerical_rank, got.shape) == (want.numerical_rank, want.shape)
            assert identical(got.support, want.support)
        return
    assert identical(got.estimate, want.estimate)
    assert identical(got.support, want.support)
    assert (got.iterations, got.termination) == (want.iterations, want.termination)
    assert len(got.trace) == len(want.trace)
    for g, w in zip(got.trace, want.trace):
        for name in ("support", "candidates", "selected", "correlation", "residual", "coefficients"):
            assert identical(getattr(g, name), getattr(w, name)), name


def row_matrix(phi, i):
    """Row i's own Phi: its lane of a stacked operator or its entry of a list, else ``phi`` itself."""
    if isinstance(phi, PartialFourier) and phi.freqs.ndim == 2:
        return PartialFourier(phi.freqs[i], phi.dim)
    return phi[i] if isinstance(phi, list) else phi


def one_at_a_time(algo, phi, block, sparsity):
    recover = romp_recover if algo == "romp" else omp_recover
    outcomes = []
    for i, x in enumerate(block):
        try:
            outcomes.append(recover(row_matrix(phi, i), x, sparsity, trace=True))
        except ValueError as exc:
            outcomes.append(exc)
    return outcomes


def assert_block_matches_lone_calls(algo, phi, block, sparsity):
    lone = one_at_a_time(algo, phi, block, sparsity)
    for got, want in zip(recover_block(algo, phi, block, sparsity, trace=True), lone, strict=True):
        assert_same_outcome(got, want)


def sweep_cell_block(ensemble, dim, sparsity, measurements, trials, seed, sigma):
    """The matrix and measurement vectors of one shared-matrix sweep cell."""
    config = bench.SweepConfig(
        dim=dim, sparsities=(sparsity,), measurement_counts=(measurements,),
        trials=trials, ensemble=ensemble, sigma=sigma, seed=seed,
    )
    phi = bench.build_cell_matrix(config, sparsity, measurements)
    block = [bench.run_trial(config, "romp", sparsity, measurements, t).measured for t in range(trials)]
    return phi, np.array(block)


@pytest.mark.parametrize("algo", ["romp", "omp"])
@pytest.mark.parametrize(
    "cell",
    [
        # Noisy Gaussian, and the tie-heavy noiseless Bernoulli N = 32 cells
        # of the seed-11 d = 256 grid, where a summation-order change flips
        # supports.
        ("gaussian", 128, 6, 48, 12, 3, None),
        ("bernoulli", 256, 4, 32, 40, 11, 0.0),
        ("bernoulli", 256, 8, 32, 40, 11, 0.0),
        ("bernoulli", 256, 12, 32, 40, 11, 0.0),
        ("partial-fourier-real", 256, 8, 64, 16, 9, 0.0),
    ],
    ids=["gaussian", "bernoulli-n4", "bernoulli-n8", "bernoulli-n12", "partial-fourier"],
)
def test_lockstep_block_matches_lone_calls(algo, cell):
    phi, block = sweep_cell_block(*cell)
    assert_block_matches_lone_calls(algo, phi, block, cell[2])


def mixed_termination_block():
    # Columns 10 and 11 are equal, so ROMP selects them together and the
    # refit is rank deficient; the other rows stop on a zero observation,
    # the N-row support budget and a zero residual.
    phi = build_matrix(EnsembleSpec("gaussian", 8, 64, seed=3))
    phi[:, 11] = phi[:, 10]
    v = np.zeros(64)
    v[[2, 9, 20, 33, 41, 60]] = [1.0, -0.5, 2.0, 0.7, -1.3, 0.9]
    rows = [phi @ v, np.zeros(8), 3.0 * phi[:, 10], -2.0 * phi[:, 30], substream(5).standard_normal(8), 3.0 * phi[:, 10], np.zeros(8)]
    return phi, np.array(rows)


def outcomes(entries):
    """Each entry's ``(termination, iterations)``, or its exception's type name."""
    return [type(o).__name__ if isinstance(o, Exception) else (o.termination, o.iterations) for o in entries]


RANK = "RankDeficiencyError"
MIXED_OUTCOMES = {
    "romp": [
        ("support-budget", 1), ("zero-observation", 0), RANK, ("zero-residual", 1),
        ("support-budget", 1), RANK, ("zero-observation", 0),
    ],
    "omp": [
        ("max-iterations", 6), ("zero-observation", 0), ("zero-residual", 1), ("zero-residual", 1),
        ("max-iterations", 6), ("zero-residual", 1), ("zero-observation", 0),
    ],
}


@pytest.mark.parametrize("algo", ["romp", "omp"])
def test_lockstep_block_mixing_every_termination(algo):
    phi, block = mixed_termination_block()
    assert_block_matches_lone_calls(algo, phi, block, 6)
    # Pinned, since a block and its lone calls share the loop: an off-by-one
    # in both would still match.
    assert outcomes(recover_block(algo, phi, block, 6)) == MIXED_OUTCOMES[algo]


def group_with_failing_lanes():
    """Five rows through an 8 x 12 Phi: two fail their refit, two go on, one is zero.

    Rows 0 and 2 are ``nearly_parallel_columns(1e-12)``'s x, whose second
    pick is rank deficient.  Rows 1 and 3 lie in the span of three exact
    basis columns, so OMP ends them with a zero residual after three
    iterations, outliving the failed lanes of the same stacked group.
    """
    e = basis8()
    phi, x = nearly_parallel_columns(1e-12)
    diagonals = [(e[6] + e[7]) / np.sqrt(2), (e[6] - e[7]) / np.sqrt(2)]
    phi = np.column_stack([phi, e[6], e[7], *diagonals, e[2], e[3]])
    rows = [x, e[6] + 0.3 * e[7] + 0.2 * e[2], x, 0.1 * e[3] + e[7] + 0.45 * e[6], np.zeros(8)]
    return phi, np.array(rows)


@pytest.mark.parametrize(
    "algo, want",
    [
        ("romp", [RANK, ("zero-residual", 2), RANK, ("zero-residual", 2), ("zero-observation", 0)]),
        ("omp", [RANK, ("zero-residual", 3), RANK, ("zero-residual", 3), ("zero-observation", 0)]),
    ],
    ids=["romp", "omp"],
)
def test_lockstep_group_with_lanes_failing_while_others_go_on(algo, want):
    phi, block = group_with_failing_lanes()
    assert_block_matches_lone_calls(algo, phi, block, 3)
    assert outcomes(recover_block(algo, phi, block, 3)) == want


@pytest.mark.parametrize(
    "algo, sizes",
    [("romp", {2: 2, 3: 2}), ("omp", {1: 4, 2: 2, 3: 2})],
    ids=["romp", "omp"],
)
def test_least_squares_runs_once_per_refit_lane_per_iteration(algo, sizes, monkeypatch):
    # group_with_failing_lanes' block, counted by the k of each call's R.
    # Rows 1 and 3 refit at every iteration; rows 0 and 2 fail the refit's
    # rules at their second column (ROMP selects both at once, so never
    # calls) and the zero row never refits.  OMP's k is its iteration + 1.
    real = recovery.least_squares
    calls = []

    def spy(r, qtx):
        assert r.shape == (qtx.size, qtx.size)
        calls.append(qtx.size)
        return real(r, qtx)

    monkeypatch.setattr(recovery, "least_squares", spy)
    phi, block = group_with_failing_lanes()
    entries = recover_block(algo, phi, block, 3)
    assert dict(collections.Counter(calls)) == sizes
    finished = sum(e.iterations for e in entries if isinstance(e, RecoveryResult))
    assert len(calls) == finished + (2 if algo == "omp" else 0)


def column_past_float_range_block(phi):
    """``phi`` with test_column_norm_past_float_range_raises_value_error's column 0, and five rows.

    Column 0 is 1e308 on rows 0-3, where every other column is zeroed.
    Rows 1 and 4 correlate with it at once and end on the refit's finite
    check in the first iteration.  Rows 0 and 2 vanish on rows 0-3, so they
    go on: OMP's orthonormal columns keep exact zeros there and never pick
    column 0, while ROMP's block QR leaves roundoff there, picks column 0
    in the next iteration and ends on the finite check too.  Row 3 is zero.
    """
    phi = phi.copy()
    phi[:, 0] = 0.0
    phi[:4] = 0.0
    phi[:4, 0] = 1e308
    v = np.zeros(128)
    v[[5, 17, 40, 99]] = [1.0, -2.0, 0.5, 1.5]
    noise = substream(3).standard_normal(64)
    noise[:4] = 0.0
    corner = np.zeros(64)
    corner[0] = 0.75
    return phi, np.array([phi @ v, corner, noise, np.zeros(64), corner])


FINITE = "ValueError"


@pytest.mark.parametrize(
    "algo, want",
    [
        ("romp", [FINITE, FINITE, FINITE, ("zero-observation", 0), FINITE]),
        ("omp", [("zero-residual", 4), FINITE, ("max-iterations", 4), ("zero-observation", 0), FINITE]),
    ],
    ids=["romp", "omp"],
)
def test_lockstep_lane_ending_on_the_finite_check_beside_lanes_that_go_on(gaussian_64x128, algo, want):
    phi, block = column_past_float_range_block(gaussian_64x128)
    assert_block_matches_lone_calls(algo, phi, block, 4)
    entries = recover_block(algo, phi, block, 4)
    assert outcomes(entries) == want
    for entry in entries:
        if isinstance(entry, Exception):
            assert str(entry) == "least-squares entries must be finite"


def test_support_budget_stops_before_the_first_extension():
    # 20 candidates on 16 rows: ROMP's first regularized selection already
    # holds more than N columns, so it stops with nothing fit.  OMP takes one
    # column at a time and fits x exactly once it holds all 16, as 16 columns
    # fit any x: its zero residual ends it on the N-row budget too, with the
    # fit, support and iteration count of its last iteration.
    phi = build_matrix(EnsembleSpec("gaussian", 16, 64, seed=3))
    x = substream(1).standard_normal(16)
    romp = romp_recover(phi, x, 20, trace=True)
    assert (romp.termination, romp.iterations, romp.trace) == ("support-budget", 0, [])
    assert romp.support.size == 0 and not romp.estimate.any()
    omp = omp_recover(phi, x, 20)
    assert (omp.termination, omp.iterations, omp.support.size) == ("support-budget", 16, 16)
    assert np.allclose(phi @ omp.estimate, x, rtol=0.0, atol=1e-10 * np.linalg.norm(x))


@pytest.mark.parametrize("algo", ["romp", "omp"])
@pytest.mark.parametrize("zero_first", [True, False])
def test_lockstep_block_shrinking_to_one_lane_mid_iteration(algo, zero_first):
    # The zero row stops before the extension of the first iteration, which
    # leaves one active lane for the rest of that iteration.
    phi = build_matrix(EnsembleSpec("gaussian", 32, 96, seed=1))
    rows = [np.zeros(32), 2.0 * phi[:, 3] + phi[:, 7] + 0.01 * substream(2).standard_normal(32)]
    if not zero_first:
        rows.reverse()
    assert_block_matches_lone_calls(algo, phi, np.array(rows), 4)


def flat_rows(phi, trials, dim, seed):
    """Noiseless x of ±1 signals, 3-sparse in row 0 and 6-sparse after it."""
    rng = substream(seed)
    rows = []
    for t in range(trials):
        size = 3 if t == 0 else 6
        v = np.zeros(dim)
        v[rng.choice(dim, size=size, replace=False)] = rng.choice([-1.0, 1.0], size=size)
        rows.append(row_matrix(phi, t).apply(v) if isinstance(phi, PartialFourier) else phi @ v)
    return np.array(rows)


def flat_block(kind):
    """Eight ``flat_rows`` through a 48 x 128 Gaussian Phi or a stack of partial-Fourier lanes."""
    if kind == "dense":
        phi = build_matrix(EnsembleSpec("gaussian", 48, 128, seed=0))
    else:
        specs = [EnsembleSpec("partial-fourier-real", 48, 128, seed=t) for t in range(8)]
        phi = PartialFourier(np.array([partial_fourier(spec).freqs for spec in specs]), 128)
    return phi, flat_rows(phi, 8, 128, seed=0)


@pytest.mark.parametrize("kind", ["dense", "stacked"])
def test_romp_lanes_with_equal_k_and_m_extend_as_one_group(kind, monkeypatch):
    # Equal flat signals select equal batches, so contiguous ROMP lanes that
    # hold k columns and add m share one _extend; a run that starts past
    # lane 0 must gather its own lanes' columns, and every row must still
    # match its lone call bit for bit.
    phi, block = flat_block(kind)
    groups = []
    extend = recovery._extend

    def spy(columns, qt, r, z, x, k):
        # z is the group's slice of the block's stacked z, so its offset is lo.
        lo = (z.ctypes.data - z.base.ctypes.data) // z.strides[0]
        groups.append((lo, len(columns), columns.shape[-1]))
        return extend(columns, qt, r, z, x, k)

    monkeypatch.setattr(recovery, "_extend", spy)
    assert_block_matches_lone_calls("romp", phi, block, 6)
    assert any(lo > 0 and g >= 2 and m >= 2 for lo, g, m in groups)


def test_one_column_group_with_lanes_at_odd_scales_extends_each_as_alone():
    # A (3, N, 1) group whose columns sit at 2**600, 1 and 2**-600: the
    # outer two norms leave [2**-500, 2**500] and are retaken on the scaled
    # column, the middle one is kept.  Q, R and z must be those of three
    # lone calls, bit for bit.  No loop test gets here: a shared dense Phi
    # holding columns this far apart trips the rank rule first.
    rng = substream(61)
    rows, k = 16, 2
    qt, r, z = np.zeros((3, 4, rows)), np.zeros((3, 4, 4)), np.zeros((3, 4))
    x = rng.standard_normal((3, rows, 1))
    for lane in range(3):
        q, r[lane, :k, :k] = np.linalg.qr(rng.standard_normal((rows, k)))
        qt[lane, :k] = q.T
        z[lane, :k] = q.T @ x[lane, :, 0]
    columns = rng.standard_normal((3, rows, 1)) * np.exp2([600.0, 0.0, -600.0])[:, None, None]
    alone = [(qt[i : i + 1].copy(), r[i : i + 1].copy(), z[i : i + 1].copy()) for i in range(3)]
    # The loop's own errstate around extension.
    with np.errstate(over="ignore", under="ignore"):
        recovery._extend(columns.copy(), qt, r, z, x, k)
        for i, (q1, r1, z1) in enumerate(alone):
            recovery._extend(columns[i : i + 1].copy(), q1, r1, z1, x[i : i + 1], k)
    assert np.isfinite(r[:, k, k]).all() and (r[:, k, k] > 0.0).all()
    for i, (q1, r1, z1) in enumerate(alone):
        assert identical(qt[i : i + 1], q1) and identical(r[i : i + 1], r1) and identical(z[i : i + 1], z1)


@pytest.mark.parametrize("algo", ["romp", "omp"])
@pytest.mark.parametrize(
    "block",
    [
        (mixed_termination_block, 6),
        (group_with_failing_lanes, 3),
        (lambda: flat_block("dense"), 6),
        (lambda: flat_block("stacked"), 6),
    ],
    ids=["mixed-terminations", "failing-lanes", "flat-dense", "flat-stacked"],
)
def test_tracing_never_changes_a_result(algo, block):
    # Every other block test traces both sides, so an end pass that ended
    # or counted a lane differently only when tracing would pass them all.
    make, sparsity = block
    phi, rows = make()
    untraced = recover_block(algo, phi, rows, sparsity)
    for got, want in zip(untraced, recover_block(algo, phi, rows, sparsity, trace=True), strict=True):
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            continue
        assert got.trace == [] and len(want.trace) == want.iterations
        assert identical(got.estimate, want.estimate)
        assert identical(got.support, want.support)
        assert (got.iterations, got.termination) == (want.iterations, want.termination)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    algo=st.sampled_from(["romp", "omp"]),
    ensemble=st.sampled_from(
        ["gaussian", "bernoulli", "partial-fourier-real", "partial-fourier-operator", "stacked", "stacked-dense"]
    ),
    trials=st.integers(1, 9),
    budget=st.sampled_from([1, 20_000, 60_000, recovery.LOCKSTEP_BYTES]),
    data=st.data(),
)
def test_lockstep_results_do_not_depend_on_block_width_or_order(seed, algo, ensemble, trials, budget, data):
    # "partial-fourier-operator" is one partial-Fourier operator for every
    # row; "stacked" gives each row its own frequency set, so a refilled lane
    # must bring its trial's frequencies along.  "stacked-dense" is a list of
    # per-row Gaussian and Bernoulli matrices, which the loop stacks and whose
    # lanes move with their trials just the same.
    rng = substream(seed)
    if ensemble == "stacked":
        specs = [EnsembleSpec("partial-fourier-real", 32, 96, seed=(seed + t) % 1000) for t in range(trials)]
        phi = PartialFourier(np.array([partial_fourier(spec).freqs for spec in specs]), 96)
    elif ensemble == "stacked-dense":
        kinds = ("gaussian", "bernoulli")
        phi = [build_matrix(EnsembleSpec(kinds[(seed + t) % 2], 32, 96, seed=(seed + t) % 1000)) for t in range(trials)]
    elif ensemble == "partial-fourier-operator":
        phi = partial_fourier(EnsembleSpec("partial-fourier-real", 32, 96, seed=seed % 1000))
    else:
        phi = build_matrix(EnsembleSpec(ensemble, 32, 96, seed=seed % 1000))
    block = []
    for t in range(trials):
        v = np.zeros(96)
        v[rng.choice(96, size=4, replace=False)] = rng.standard_normal(4)
        clean = row_matrix(phi, t).apply(v) if isinstance(phi, PartialFourier) else row_matrix(phi, t) @ v
        block.append(clean + rng.choice([0.0, 0.05]) * rng.standard_normal(32))
    block = np.array(block)
    order = data.draw(st.permutations(range(trials)))
    lone = one_at_a_time(algo, phi, block, 4)
    if ensemble == "stacked":
        phi = PartialFourier(phi.freqs[order], 96)
    elif ensemble == "stacked-dense":
        phi = [phi[t] for t in order]
    with mock.patch.object(recovery, "LOCKSTEP_BYTES", budget):
        got = recover_block(algo, phi, block[order], 4, trace=True)
    for position, t in enumerate(order):
        assert_same_outcome(got[position], lone[t])


def test_stacked_operator_needs_one_lane_per_row():
    specs = [EnsembleSpec("partial-fourier-real", 32, 96, seed=s) for s in range(3)]
    phi = PartialFourier(np.array([partial_fourier(spec).freqs for spec in specs]), 96)
    with pytest.raises(ValueError, match="a stack of 3 lanes for 2"):
        recover_block("romp", phi, np.ones((2, 32)), 4)
    with pytest.raises(ValueError, match="a stack of 3 lanes for 1"):
        romp_recover(phi, np.ones(32), 4)
    with pytest.raises(ValueError, match="dimension mismatch"):
        recover_block("omp", phi, np.ones((3, 30)), 4)


@pytest.mark.parametrize("algo", ["romp", "omp"])
def test_operator_recovery_matches_dense_recovery(algo):
    # The operator's columns are bit-equal to the dense ones and only the
    # correlation is computed differently, so on the same x the supports,
    # iterations and terminations agree, and so do the estimates to roundoff.
    spec = EnsembleSpec("partial-fourier-real", 64, 256, seed=3)
    op, dense = partial_fourier(spec), build_matrix(spec)
    rng = substream(4)
    for _ in range(20):
        v = np.zeros(256)
        v[rng.choice(256, size=6, replace=False)] = rng.standard_normal(6)
        x = dense @ v + rng.choice([0.0, 0.05]) * rng.standard_normal(64)
        got, want = recover_block(algo, op, x[None], 6, trace=True)[0], recover_block(algo, dense, x[None], 6, trace=True)[0]
        assert np.array_equal(got.support, want.support)
        assert (got.iterations, got.termination) == (want.iterations, want.termination)
        assert np.max(np.abs(got.estimate - want.estimate)) <= 1e-12 * np.max(np.abs(want.estimate))
        for g, w in zip(got.trace, want.trace):
            assert np.max(np.abs(g.correlation - w.correlation)) <= 1e-12 * np.max(np.abs(w.correlation))
        assert verify_iteration_invariants(op, x, 6, got) == []


@pytest.mark.parametrize(
    "recover",
    [
        lambda phi, block: recover_block("romp", phi, block, 6),
        lambda phi, block: romp_recover(phi, block[0], 6),
        lambda phi, block: omp_recover(phi, block[0], 6),
    ],
    ids=["block", "romp", "omp"],
)
def test_block_validates_the_matrix_once(monkeypatch, recover):
    # A lone call is a block of one, so it also scans Phi exactly once.
    phi, block = mixed_termination_block()
    scans = []
    real = ensembles.as_matrix
    monkeypatch.setattr(ensembles, "as_matrix", lambda m: scans.append(np.shape(m)) or real(m))
    recover(phi, block)
    assert scans.count(phi.shape) == 1
    phi[3, 7] = np.nan
    with pytest.raises(ValueError, match="finite"):
        recover(phi, block)


@pytest.mark.parametrize("recover", [romp_recover, omp_recover], ids=["romp", "omp"])
def test_deep_subnormal_matrix_raises_instead_of_zero_observation(recover):
    # At Phi * 2**-1073 every correlation underflows to zero although x has
    # nonzero entries; that is numerical trouble, not x orthogonal to Phi.
    phi = np.ldexp(build_matrix(EnsembleSpec("gaussian", 64, 256, seed=13)), -1073)
    rng = substream(14)
    v = np.zeros(256)
    v[rng.choice(256, size=4, replace=False)] = rng.standard_normal(4)
    x = phi @ v
    assert np.count_nonzero(x)
    with pytest.raises(ValueError, match="underflow"):
        recover(phi, x, 4)
    # At 2**-1074 the measurements themselves vanish: a true zero observation.
    phi = np.ldexp(phi, -1)
    result = recover(phi, phi @ v, 4)
    assert result.termination == "zero-observation"
    assert not np.any(result.estimate)


@pytest.mark.parametrize("algo", ["romp", "omp"])
@pytest.mark.parametrize("shift", [0, 1, 2])
def test_stacked_dense_block_tests_underflow_per_lane(algo, shift):
    # Three lanes through one stack: the Gaussian Phi, the same Phi at
    # 2**-1073, whose correlation underflows to zero, and the Phi with row 5
    # zeroed, measured as x = e5, a true zero observation.  Each row must end
    # as alone, whichever lane it takes: the underflow test reads each lane's
    # own matrix.
    phi, v, x = scaled_problem(1.0)
    tiny = np.ldexp(phi, -1073)
    zero_row = phi.copy()
    zero_row[5] = 0.0
    e5 = np.zeros(64)
    e5[5] = 1.0
    cases = [(phi, x, "recovered"), (tiny, tiny @ v, "underflow"), (zero_row, e5, "zero-observation")]
    cases = cases[shift:] + cases[:shift]
    matrices, block = [c[0] for c in cases], np.array([c[1] for c in cases])
    assert_block_matches_lone_calls(algo, matrices, block, 4)
    for got, (_, _, want) in zip(recover_block(algo, matrices, block, 4), cases, strict=True):
        if want == "underflow":
            assert type(got) is ValueError and "underflow" in str(got)
        elif want == "zero-observation":
            assert got.termination == "zero-observation" and not got.estimate.any()
        else:
            assert got.termination != "zero-observation"
            assert np.linalg.norm(got.estimate - v) <= 1e-6 * np.linalg.norm(v)


def test_list_of_dense_matrices_is_checked_at_the_entry():
    phi = build_matrix(EnsembleSpec("gaussian", 32, 96, seed=1))
    block = np.ones((2, 32))
    with pytest.raises(ValueError, match="same shape"):
        recover_block("romp", [phi, phi[:, :90]], block, 4)
    with pytest.raises(ValueError, match="same shape"):
        recover_block("omp", [phi, phi[:30]], block, 4)
    poisoned = phi.copy()
    poisoned[3, 7] = np.inf
    with pytest.raises(ValueError, match="finite"):
        recover_block("romp", [phi, poisoned], block, 4)
    with pytest.raises(ValueError, match="a stack of 2 lanes for 3"):
        recover_block("omp", [phi, phi.copy()], np.ones((3, 32)), 4)


@pytest.mark.parametrize("recover", [romp_recover, omp_recover], ids=["romp", "omp"])
def test_zero_row_observation_is_still_zero_observation(gaussian_64x128, recover):
    phi = gaussian_64x128.copy()
    phi[5] = 0.0
    x = np.zeros(64)
    x[5] = 1.0
    result = recover(phi, x, 4)
    assert result.termination == "zero-observation"
    assert result.iterations == 0
