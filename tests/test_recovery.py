import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rompkit.ensembles import EnsembleSpec, build_matrix
from rompkit.linalg import RankDeficiencyError
from rompkit.recovery import (
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


def nearly_parallel_columns(eps):
    """Columns c0, c1 = (c0 + eps e1) / |.| and tiny fill; x = c0 + 1e-3 e1 is in their span.

    OMP selects c1, then c0, which is numerically dependent on c1 once eps
    falls below the rank cutoff.
    """
    e = np.linalg.qr(substream(8).standard_normal((8, 8)))[0].T
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
)
def test_recovery_invariant_under_power_of_two_scaling(gaussian_64x128, seed, noise, k):
    # Selection is scale-invariant, so scaling x by 2**k (exact in binary
    # floating point) must change nothing but the scale of the outputs.
    rng = substream(seed)
    v = np.zeros(128)
    v[rng.choice(128, size=4, replace=False)] = rng.standard_normal(4)
    x = gaussian_64x128 @ v + noise * rng.standard_normal(64)
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


# Only x is normalized, so the refit's column norms overflow on a huge Phi
# and numpy warns.  What is pinned is the outcome a caller with default
# warning settings gets: a ValueError or the right answer, never a wrong one.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("scale", [1e160, 1e300])
@pytest.mark.parametrize("recover", [romp_recover, omp_recover], ids=["romp", "omp"])
def test_huge_matrix_scale_fails_loudly_or_recovers(recover, scale):
    phi = build_matrix(EnsembleSpec("gaussian", 64, 256, seed=13)) * scale
    rng = substream(14)
    v = np.zeros(256)
    v[rng.choice(256, size=4, replace=False)] = rng.standard_normal(4)
    x = phi @ v
    try:
        result = recover(phi, x, 4)
    except ValueError:
        return
    assert np.linalg.norm(result.estimate - v) <= 1e-6 * np.linalg.norm(v)


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
