import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rompkit.signals import NoiseSpec, SignalSpec, add_noise, best_m_term, generate_signal

finite_vectors = arrays(
    np.float64,
    st.integers(1, 64),
    elements=st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
)


def test_flat_sparse_saturated_support_is_all_ones():
    signal, support = generate_signal(SignalSpec("flat-sparse", dim=8, sparsity=8, seed=0))
    assert np.array_equal(signal, np.ones(8))
    assert np.array_equal(support, np.arange(8))


def test_flat_sparse_exact_count():
    signal, support = generate_signal(SignalSpec("flat-sparse", dim=256, sparsity=8, seed=42))
    assert np.count_nonzero(signal) == 8
    assert np.all(signal[support] == 1.0)
    assert support.size == 8


def test_gaussian_sparse_support_size():
    signal, support = generate_signal(SignalSpec("gaussian-sparse", dim=100, sparsity=10, seed=7))
    assert support.size == 10
    assert np.all(np.diff(support) > 0)
    off = np.setdiff1d(np.arange(100), support)
    assert np.all(signal[off] == 0.0)


def test_power_law_sorted_magnitudes():
    signal, support = generate_signal(
        SignalSpec("power-law", dim=4, exponent=2.0, scale=1.0, seed=3)
    )
    mags = np.sort(np.abs(signal))[::-1]
    assert np.allclose(mags, [1.0, 1.0 / 4.0, 1.0 / 9.0, 1.0 / 16.0], rtol=0, atol=1e-15)
    assert support.size == 4


def test_generate_signal_deterministic():
    spec = SignalSpec("gaussian-sparse", dim=50, sparsity=5, seed=99)
    a, sa = generate_signal(spec)
    b, sb = generate_signal(spec)
    assert np.array_equal(a, b)
    assert np.array_equal(sa, sb)


def test_signal_spec_validation():
    with pytest.raises(ValueError):
        SignalSpec("flat-sparse", dim=4, sparsity=5)
    with pytest.raises(ValueError):
        SignalSpec("power-law", dim=4, exponent=1.0, scale=1.0)
    with pytest.raises(ValueError):
        SignalSpec("power-law", dim=4, exponent=2.0, scale=0.0)
    with pytest.raises(ValueError):
        SignalSpec("spiky", dim=4, sparsity=1)


@pytest.mark.parametrize(
    "kind, fields, name",
    [
        ("power-law", dict(sparsity=2.5, exponent=2.0, scale=1.0), "sparsity"),
        ("power-law", dict(sparsity=2, exponent=2.0, scale=1.0), "sparsity"),
        ("flat-sparse", dict(sparsity=2, exponent=float("nan")), "exponent"),
        ("flat-sparse", dict(sparsity=2, scale=-1.0), "scale"),
        ("gaussian-sparse", dict(sparsity=2, exponent=2.0), "exponent"),
    ],
)
def test_signal_spec_rejects_fields_its_kind_does_not_read(kind, fields, name):
    with pytest.raises(ValueError, match=f"{kind} signals take no {name}"):
        SignalSpec(kind, 8, **fields)


def test_best_m_term_hand_example():
    w = np.array([3.0, 1.0, -4.0, 2.0])
    assert np.array_equal(best_m_term(w, 2), [3.0, 0.0, -4.0, 0.0])


def test_best_m_term_edges():
    w = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(best_m_term(w, 0), np.zeros(3))
    assert np.array_equal(best_m_term(w, 3), w)
    assert np.array_equal(best_m_term(w, 10), w)
    with pytest.raises(ValueError):
        best_m_term(w, -1)


def test_best_m_term_tie_breaks_low_index():
    w = np.array([2.0, -2.0, 2.0])
    assert np.array_equal(best_m_term(w, 2), [2.0, -2.0, 0.0])


@settings(max_examples=120)
@given(finite_vectors, st.integers(0, 70))
def test_best_m_term_idempotent(w, m):
    once = best_m_term(w, m)
    assert np.array_equal(best_m_term(once, m), once)


@settings(max_examples=120)
@given(finite_vectors)
def test_best_m_term_energy_nondecreasing(w):
    energies = [np.linalg.norm(best_m_term(w, m)) for m in range(w.size + 1)]
    assert all(a <= b + 1e-12 for a, b in zip(energies, energies[1:]))


@settings(max_examples=200)
@given(finite_vectors, st.integers(1, 64))
def test_tail_two_norm_bounded_by_scaled_one_norm(w, m):
    lhs = np.linalg.norm(w - best_m_term(w, m))
    rhs = np.sum(np.abs(w)) / (2.0 * np.sqrt(m))
    assert lhs <= rhs + 1e-12


def test_tail_bound_tight_case_flat_vector():
    # flat vectors at m = d/2 meet the bound with equality
    w = np.ones(64)
    lhs = np.linalg.norm(w - best_m_term(w, 32))
    rhs = np.sum(np.abs(w)) / (2.0 * np.sqrt(32))
    assert lhs <= rhs + 1e-12


def test_add_noise_zero_sigma():
    target = np.array([1.0, -2.0, 3.0])
    perturbed, noise = add_noise(target, NoiseSpec("measurement", 0.0, seed=5))
    assert np.array_equal(perturbed, target)
    assert np.all(noise == 0.0)


def test_add_noise_fixed_seed_fixture():
    _, noise = add_noise(np.zeros(4), NoiseSpec("measurement", 1.0, seed=1234))
    expected = [
        -0.7570164779736382,
        1.6149677907903541,
        0.677326300233899,
        1.0544822729260976,
    ]
    assert np.array_equal(noise, expected)


def test_add_noise_chi_square_concentration():
    length = 256
    _, noise = add_noise(np.zeros(length), NoiseSpec("signal", 0.7, seed=21))
    normalized = float(np.sum(noise**2) / (length * 0.7**2))
    assert 0.5 <= normalized <= 1.5


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec("measurement", -0.1)
    with pytest.raises(ValueError):
        NoiseSpec("columns", 0.1)
