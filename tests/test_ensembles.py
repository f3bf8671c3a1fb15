import numpy as np
import pytest

from rompkit.ensembles import (
    EnsembleSpec,
    PartialFourier,
    RicEstimate,
    _Dense,
    build_matrix,
    partial_fourier,
    probe_ric,
)
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


@pytest.mark.parametrize(
    "rows, cols, seed",
    [(32.5, 64, 1), (32, 64.0, 1), (32, 64, 1.5), (np.float64(32.0), 64, 1)],
    ids=["fractional-rows", "float-cols", "fractional-seed", "numpy-float-rows"],
)
def test_spec_rejects_non_integer_sizes_and_seed(rows, cols, seed):
    # Before, rows=32.5 constructed and seed=1.5 built seed 1's matrix.
    with pytest.raises(ValueError, match="must be an integer"):
        EnsembleSpec("gaussian", rows, cols, seed=seed)


def test_spec_accepts_numpy_integers():
    spec = EnsembleSpec("gaussian", np.int64(32), np.int32(64), seed=np.uint8(1))
    assert spec == EnsembleSpec("gaussian", 32, 64, seed=1)
    assert all(type(v) is int for v in (spec.rows, spec.cols, spec.seed))


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


# ----------------------------------------------------- partial-Fourier operator

PARTIAL_FOURIER_SHAPES = [(2, 5), (64, 256), (128, 509), (256, 512)]


@pytest.mark.parametrize("rows,dim", PARTIAL_FOURIER_SHAPES)
def test_operator_dense_is_the_table_gathered_matrix(rows, dim):
    spec = EnsembleSpec("partial-fourier-real", rows, dim, seed=12)
    op = partial_fourier(spec)
    dense = op.dense()
    # The table gather that build_matrix made before the operator existed.
    phase = np.outer(op.freqs, np.arange(dim)) % dim
    angles = 2.0 * np.pi * np.arange(dim) / dim
    scale = np.sqrt(2.0 / rows)
    reference = np.empty((rows, dim))
    reference[0::2] = (scale * np.cos(angles))[phase]
    reference[1::2] = (scale * np.sin(angles))[phase]
    assert dense.shape == (rows, dim) and dense.tobytes() == reference.tobytes()
    assert build_matrix(spec).tobytes() == dense.tobytes()


def stacked_operator(rows, dim, lanes, seed):
    freqs = [partial_fourier(EnsembleSpec("partial-fourier-real", rows, dim, seed=seed + i)).freqs for i in range(lanes)]
    return PartialFourier(np.array(freqs), dim)


@pytest.mark.parametrize("rows,dim", PARTIAL_FOURIER_SHAPES)
def test_operator_columns_are_bit_equal_to_dense_columns(rows, dim):
    # Row i of a (g, m) index gathers from lane lo + i, for every run of
    # lanes of a stack, and the loop's dense Phi gathers the same columns,
    # from one matrix or from a stack of them.
    op = stacked_operator(rows, dim, 4, seed=3)
    dense = op.dense()
    rng = substream(4)
    m = min(dim, 7)
    index = np.array([rng.choice(dim, size=m, replace=False) for _ in range(4)])
    for lo in range(4):
        for hi in range(lo + 1, 5):
            want = np.array([dense[lane][:, index[lane]] for lane in range(lo, hi)])
            for chosen in (index[lo:hi], index[lo:hi, :1]):
                for stack in (op, _Dense(dense)):
                    got = stack.columns(chosen, lo)
                    assert got.shape == (hi - lo, rows, chosen.shape[1])
                    assert got.tobytes() == want[..., : chosen.shape[1]].tobytes()
    # One matrix serves every row, whatever lo.
    single = PartialFourier(op.freqs[2], dim)
    want = np.array([dense[2][:, row] for row in index])
    assert single.columns(index).tobytes() == single.columns(index, 3).tobytes() == want.tobytes()
    # Each lane's block of the dense gather is laid out as ``a[:, idx]``.
    gathered = _Dense(dense[2]).columns(index, 0)
    for block, row in zip(gathered, index):
        lone = dense[2][:, row]
        assert block.strides == lone.strides and block.tobytes() == lone.tobytes()


@pytest.mark.parametrize("bad", [32, 35, -33])
def test_operator_columns_reject_an_index_out_of_range(bad):
    # Index 35 at d = 32 must not wrap round to column 3: the operator raises
    # IndexError as the dense matrix does, and negative indices count from
    # the end on both.
    op = partial_fourier(EnsembleSpec("partial-fourier-real", 8, 32, seed=1))
    dense = op.dense()
    inside = np.array([[-32, -1, 0, 3, 31]])
    assert op.columns(inside).tobytes() == dense[:, inside[0]].tobytes()
    with pytest.raises(IndexError):
        dense[:, [0, bad]]
    with pytest.raises(IndexError):
        _Dense(dense).columns(np.array([[0, bad]]), 0)
    with pytest.raises(IndexError):
        op.columns(np.array([[0, bad]]))


@pytest.mark.parametrize("rows,dim", PARTIAL_FOURIER_SHAPES + [(512, 2048)])
def test_operator_correlate_matches_dense_and_batches_bit_exactly(rows, dim):
    op = stacked_operator(rows, dim, 9, seed=5)
    dense = op.dense()
    residuals = substream(6).standard_normal((9, rows))
    got = op.correlate(residuals)
    want = np.einsum("lnd,ln->ld", dense, residuals)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    for lane in range(9):
        alone = PartialFourier(op.freqs[lane], dim).correlate(residuals[lane : lane + 1])
        assert alone.tobytes() == got[lane : lane + 1].tobytes()
        # Any leading part of a stack is the same block.
        assert op.correlate(residuals[: lane + 1]).tobytes() == got[: lane + 1].tobytes()
    shared = PartialFourier(op.freqs[0], dim)
    assert shared.correlate(residuals).tobytes() == np.concatenate(
        [shared.correlate(residuals[i : i + 1]) for i in range(9)]
    ).tobytes()


@pytest.mark.parametrize("rows,dim", PARTIAL_FOURIER_SHAPES + [(512, 2048)])
def test_operator_apply_matches_dense(rows, dim):
    op = stacked_operator(rows, dim, 3, seed=7)
    dense = op.dense()
    vectors = substream(8).standard_normal((3, dim))
    got = op.apply(vectors)
    want = np.einsum("lnd,ld->ln", dense, vectors)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    for lane in range(3):
        one = PartialFourier(op.freqs[lane], dim)
        single = one.apply(vectors[lane])
        assert single.shape == (rows,)
        assert np.max(np.abs(single - dense[lane] @ vectors[lane])) <= 1e-13 * np.max(np.abs(want))
        assert single.tobytes() == got[lane].tobytes()


@pytest.mark.parametrize(
    "freqs, dim",
    [
        ([1.0, 2.0], 16),  # not integers
        ([0, 2], 16),  # zero frequency
        ([3, 8], 16),  # above (d - 1) // 2 = 7
        ([2, 2], 16),  # repeated
        ([5, 2], 16),  # not increasing
        ([[1, 2], [3, 3]], 16),  # repeated in one lane of a stack
        ([], 16),
        ([1, 2], 16.0),
    ],
)
def test_operator_rejects_bad_frequencies(freqs, dim):
    with pytest.raises(ValueError):
        PartialFourier(np.array(freqs), dim)


def test_stack_rejects_more_rows_than_lanes():
    stack = PartialFourier(np.array([[1, 2], [3, 5]]), 16)
    with pytest.raises(ValueError, match="3 rows for a stack of 2 lanes"):
        stack.correlate(np.ones((3, 4)))
    with pytest.raises(ValueError, match="3 rows for a stack of 2 lanes"):
        stack.apply(np.ones((3, 16)))
    with pytest.raises(ValueError, match="3 rows for a stack of 2 lanes"):
        stack.columns(np.zeros((3, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="3 rows for a stack of 2 lanes"):
        stack.columns(np.zeros((2, 2), dtype=np.int64), 1)


def test_operator_only_for_partial_fourier_specs():
    with pytest.raises(ValueError):
        partial_fourier(EnsembleSpec("gaussian", 8, 16, seed=0))
