import numpy as np
import pytest

from rompkit.ensembles import EnsembleSpec, RicEstimate, build_matrix, probe_ric
from rompkit.rng import substream


def test_spec_rejects_more_rows_than_cols():
    with pytest.raises(ValueError):
        EnsembleSpec("gaussian", 10, 8, seed=0)


def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        EnsembleSpec("rademacher", 4, 8, seed=0)


def test_partial_fourier_rejects_odd_rows():
    with pytest.raises(ValueError):
        EnsembleSpec("partial-fourier-real", 5, 32, seed=0)


def test_partial_fourier_rejects_too_many_frequencies():
    # 64 rows need 32 distinct frequencies but d=64 only offers 31
    with pytest.raises(ValueError):
        EnsembleSpec("partial-fourier-real", 64, 64, seed=0)


def test_gaussian_mean_squared_column_norm_near_one():
    phi = build_matrix(EnsembleSpec("gaussian", 128, 256, seed=5))
    mean_sq = float(np.mean(np.linalg.norm(phi, axis=0) ** 2))
    assert abs(mean_sq - 1.0) <= 0.1
    # frozen fixture for this seed
    assert mean_sq == pytest.approx(0.9858037766843465, abs=1e-12)


def test_bernoulli_entry_magnitudes_exact():
    spec = EnsembleSpec("bernoulli", 49, 100, seed=9)
    phi = build_matrix(spec)
    assert np.all(np.abs(phi) == 1.0 / np.sqrt(49))


def test_partial_fourier_unit_columns():
    phi = build_matrix(EnsembleSpec("partial-fourier-real", 64, 256, seed=4))
    norms = np.linalg.norm(phi, axis=0)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    assert phi.shape == (64, 256)


@pytest.mark.parametrize("rows,dim", [(2, 5), (64, 256), (128, 509), (256, 512)])
def test_partial_fourier_matches_direct_formula(rows, dim):
    seed = 12
    phi = build_matrix(EnsembleSpec("partial-fourier-real", rows, dim, seed=seed))
    # The same substream draw that build_matrix makes for its frequencies.
    available = np.arange(1, (dim - 1) // 2 + 1)
    freqs = np.sort(substream(seed).choice(available, size=rows // 2, replace=False))
    angles = 2.0 * np.pi * np.outer(freqs, np.arange(dim)) / dim
    scale = np.sqrt(2.0 / rows)
    assert np.max(np.abs(phi[0::2] - scale * np.cos(angles))) <= 1e-13
    assert np.max(np.abs(phi[1::2] - scale * np.sin(angles))) <= 1e-13
    assert np.all(phi[0::2, 0] == scale)
    assert np.all(phi[1::2, 0] == 0.0)


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli", "partial-fourier-real"])
def test_build_matrix_deterministic(kind):
    spec = EnsembleSpec(kind, 32, 64, seed=77)
    a = build_matrix(spec)
    b = build_matrix(spec)
    assert np.array_equal(a, b)
    c = build_matrix(EnsembleSpec(kind, 32, 64, seed=78))
    assert not np.array_equal(a, c)


def test_probe_ric_identity_exact():
    for m in (1, 3, 7):
        est = probe_ric(np.eye(10), m, 25, seed=2)
        assert est.lower == 1.0
        assert est.upper == 1.0
        assert est.epsilon_hat == 0.0


def test_probe_ric_scaled_identity():
    est = probe_ric(2.0 * np.eye(12), 4, 25, seed=2)
    assert est.upper == 2.0
    assert est.epsilon_hat == 1.0


def test_probe_ric_gaussian_regression():
    phi = build_matrix(EnsembleSpec("gaussian", 128, 256, seed=3))
    est = probe_ric(phi, 4, 1000, seed=11)
    assert est.epsilon_hat < 0.5
    # regression fixture from the first verified run, not ground truth
    assert est.lower == pytest.approx(0.7935785522705567, abs=1e-12)
    assert est.upper == pytest.approx(1.2263424452374645, abs=1e-12)


def test_probe_ric_deterministic():
    phi = build_matrix(EnsembleSpec("bernoulli", 16, 40, seed=1))
    a = probe_ric(phi, 3, 60, seed=8)
    b = probe_ric(phi, 3, 60, seed=8)
    assert a == b


def test_probe_ric_monotone_in_samples():
    phi = build_matrix(EnsembleSpec("gaussian", 24, 60, seed=6))
    previous = 0.0
    for samples in (1, 5, 20, 80, 200):
        est = probe_ric(phi, 3, samples, seed=13)
        assert est.epsilon_hat >= previous
        previous = est.epsilon_hat


def test_probe_ric_validates_arguments():
    with pytest.raises(ValueError):
        probe_ric(np.eye(5), 6, 10)
    with pytest.raises(ValueError):
        probe_ric(np.eye(5), 2, 0)
    with pytest.raises(ValueError):
        probe_ric(np.full((4, 8), np.nan), 2, 10)
    inf_entry = np.eye(4, 8)
    inf_entry[1, 2] = np.inf
    with pytest.raises(ValueError):
        probe_ric(inf_entry, 2, 10)


def test_ric_estimate_fields():
    est = probe_ric(np.eye(4), 2, 3, seed=0)
    assert isinstance(est, RicEstimate)
    assert est.samples == 3
    assert 0.0 <= est.lower <= est.upper
