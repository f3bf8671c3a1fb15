import csv
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from rompkit import bench
from rompkit.bench import (
    AGGREGATE_CSV_HEADER,
    TRIAL_CSV_HEADER,
    SweepConfig,
    aggregate_records,
    aggregates_path,
    build_cell_matrix,
    run_sweep,
    run_trial,
    truncated_error,
    truncation_inequality_slack,
)
from rompkit.recovery import verify_iteration_invariants
from rompkit.rng import substream


def small_config(**overrides):
    base = dict(
        dim=64,
        sparsities=(2,),
        measurement_counts=(32,),
        trials=3,
        seed=11,
    )
    base.update(overrides)
    return SweepConfig(**base)


# ------------------------------------------------------------ config rules

def test_config_rejects_zero_trials():
    with pytest.raises(ValueError):
        small_config(trials=0)


def test_config_rejects_zero_sparsity():
    with pytest.raises(ValueError):
        small_config(sparsities=(0,))


def test_config_rejects_oversized_measurements():
    with pytest.raises(ValueError):
        small_config(measurement_counts=(65,))


def test_config_rejects_sparsity_over_budget():
    with pytest.raises(ValueError):
        small_config(sparsities=(22,))  # needs 3n <= 64


def test_config_rejects_unknown_algorithm():
    with pytest.raises(ValueError):
        small_config(algorithms=("lasso",))


@pytest.mark.parametrize(
    "overrides, repeated",
    [
        (dict(sparsities=(2, 4, 2)), "2"),
        (dict(measurement_counts=(16, 16)), "16"),
        (dict(algorithms=("romp", "omp", "omp")), "'omp'"),
    ],
    ids=["sparsities", "measurement_counts", "algorithms"],
)
def test_config_rejects_repeated_grid_value(overrides, repeated):
    # A repeated value would run and count its cell's trials again.
    name = next(iter(overrides))
    with pytest.raises(ValueError, match=f"{name} repeats {repeated}"):
        small_config(**overrides)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(ensemble="partial-fourier-real", measurement_counts=(32, 33)),
        dict(signal_kind="power-law", power_exponent=0.5),
    ],
    ids=["partial-fourier-odd-rows", "power-law-exponent-below-one"],
)
def test_config_rejects_cells_its_specs_reject(overrides):
    with pytest.raises(ValueError):
        small_config(**overrides)


# ------------------------------------------------------------------ trials

def test_noiseless_trial_recovers_exactly():
    config = small_config(sigma=0.0, trials=1)
    record = run_trial(config, "romp", 2, 32, 0).record
    assert record.err2 <= 1e-6
    assert record.support_hit == 1.0
    assert record.norm_e == 0.0
    assert record.ratio_meas is None
    assert record.ratio_sig is None  # exactly sparse signal has no tail
    assert record.termination in {"zero-residual", "max-iterations", "support-budget"}


@pytest.mark.parametrize("algo", ["ROMP", "lasso", ""])
def test_trial_rejects_unknown_algorithm(algo):
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_trial(small_config(), algo, 2, 32, 0)


def test_trial_deterministic_given_cell_and_index():
    config = small_config()
    a = run_trial(config, "romp", 2, 32, 1).record
    b = run_trial(config, "romp", 2, 32, 1).record
    assert a == b


def test_measurement_noise_trial_metrics():
    config = small_config(trials=1)  # sigma=None -> auto noise scale
    record = run_trial(config, "romp", 2, 32, 0).record
    assert record.norm_e > 0.0
    assert record.ratio_meas == record.err2 / record.norm_e
    assert record.sigma > 0.0


def test_signal_noise_trial_metrics():
    config = small_config(noise_target="signal", trials=1)
    record = run_trial(config, "romp", 2, 32, 0).record
    # measurement error is zero by construction; the tail ratio is defined
    assert record.norm_e == 0.0
    assert record.ratio_meas is None
    assert record.tail1 > 0.0
    assert record.ratio_sig is not None


def test_power_law_trial_has_tail_ratio():
    config = small_config(signal_kind="power-law", sigma=0.0, trials=1)
    record = run_trial(config, "romp", 2, 32, 0).record
    assert record.tail1 > 0.0
    assert record.ratio_sig == record.err2_2n / (record.tail1 / np.sqrt(2))


def test_fresh_matrix_flag_changes_matrix():
    shared = small_config()
    fresh = small_config(fresh_matrix_per_trial=True)
    m0 = build_cell_matrix(shared, 2, 32, trial=0)
    m1 = build_cell_matrix(shared, 2, 32, trial=1)
    assert np.array_equal(m0, m1)
    f0 = build_cell_matrix(fresh, 2, 32, trial=0)
    f1 = build_cell_matrix(fresh, 2, 32, trial=1)
    assert not np.array_equal(f0, f1)


def test_traced_trial_keeps_invariants():
    config = small_config(trace=True, trials=1)
    outcome = run_trial(config, "romp", 2, 32, 0)
    assert outcome.result is not None
    assert len(outcome.result.trace) == outcome.record.iterations
    assert verify_iteration_invariants(outcome.matrix, outcome.measured, 2, outcome.result) == []


# ------------------------------------------------------------------ sweeps

def test_single_cell_single_trial_csv(tmp_path):
    path = str(tmp_path / "one.csv")
    config = small_config(trials=1, csv_path=path)
    report = run_sweep(config)
    assert len(report.records) == 1
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == TRIAL_CSV_HEADER
    assert len(lines) == 2


def assert_sweep_reruns_byte_identical(tmp_path, **overrides):
    paths = [str(tmp_path / f"run{i}.csv") for i in (1, 2)]
    blobs = []
    for path in paths:
        run_sweep(small_config(csv_path=path, algorithms=("romp", "omp"), **overrides))
        blobs.append(open(path, "rb").read() + open(aggregates_path(path), "rb").read())
    assert blobs[0] == blobs[1]


def test_sweep_csv_deterministic(tmp_path):
    assert_sweep_reruns_byte_identical(tmp_path)


def test_fresh_partial_fourier_sweep_csv_deterministic(tmp_path):
    assert_sweep_reruns_byte_identical(
        tmp_path,
        ensemble="partial-fourier-real",
        signal_kind="power-law",
        noise_target="signal",
        fresh_matrix_per_trial=True,
    )


def test_sweep_row_order_and_schema(tmp_path):
    path = str(tmp_path / "grid.csv")
    config = small_config(
        sparsities=(2, 3), measurement_counts=(24, 32), trials=2, csv_path=path
    )
    run_sweep(config)
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    keys = [(r["n"], r["N"], r["trial"]) for r in rows]
    assert keys == sorted(keys, key=lambda t: (int(t[0]), int(t[1]), int(t[2])))
    assert list(rows[0]) == TRIAL_CSV_HEADER.split(",")


def test_undefined_ratios_serialize_empty(tmp_path):
    path = str(tmp_path / "noiseless.csv")
    run_sweep(small_config(sigma=0.0, trials=1, csv_path=path))
    with open(path, encoding="utf-8") as fh:
        row = next(csv.DictReader(fh))
    assert row["ratio_meas"] == ""
    assert row["ratio_sig"] == ""
    assert row["norm_e"] == "0.0"


def test_aggregates_recomputable_from_csv(tmp_path):
    path = str(tmp_path / "agg.csv")
    config = small_config(trials=5, csv_path=path)
    report = run_sweep(config)
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    err2 = np.array([float(r["err2"]) for r in rows])
    ratios = np.array([float(r["ratio_meas"]) for r in rows if r["ratio_meas"] != ""])
    cell = report.cells[0]
    assert float(np.mean(err2)) == cell.err2_mean
    assert float(np.median(err2)) == cell.err2_median
    assert float(np.mean(ratios)) == cell.ratio_meas_mean
    assert float(np.quantile(ratios, 0.9)) == cell.ratio_meas_q90
    with open(aggregates_path(path), encoding="utf-8") as fh:
        agg_rows = list(csv.DictReader(fh))
    assert len(agg_rows) == 1
    assert list(agg_rows[0]) == AGGREGATE_CSV_HEADER.split(",")
    assert float(agg_rows[0]["err2_mean"]) == cell.err2_mean


def test_sweep_svg_output(tmp_path):
    svg_path = str(tmp_path / "plot.svg")
    config = small_config(
        sparsities=(2, 3), measurement_counts=(24, 32, 48), trials=2, svg_path=svg_path
    )
    run_sweep(config)
    root = ET.parse(svg_path).getroot()
    polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    assert len(polylines) == 2  # one per sparsity level


def test_traced_sweep_raises_on_violation_naming_the_cell(monkeypatch):
    monkeypatch.setattr(bench, "verify_iteration_invariants", lambda *args: ["planted violation"])
    with pytest.raises(RuntimeError, match=r"algo=romp, n=2, N=32, trial=0\): planted violation"):
        run_sweep(small_config(trace=True))


def test_failed_sweep_leaves_existing_outputs_untouched(tmp_path, monkeypatch):
    outputs = [tmp_path / "out.csv", tmp_path / "out.agg.csv", tmp_path / "plot.svg"]
    for k, path in enumerate(outputs):
        path.write_bytes(b"previous result %d\n" % k)
    monkeypatch.setattr(bench, "verify_iteration_invariants", lambda *args: ["planted violation"])
    config = small_config(trace=True, csv_path=str(outputs[0]), svg_path=str(outputs[2]))
    with pytest.raises(RuntimeError, match="planted violation"):
        run_sweep(config)
    for k, path in enumerate(outputs):
        assert path.read_bytes() == b"previous result %d\n" % k


def test_unwritable_output_fails_before_compute(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "run_cell", lambda *args: pytest.fail("sweep computed before failing"))
    bad = str(tmp_path / "missing-dir" / "out.csv")
    with pytest.raises(OSError):
        run_sweep(small_config(csv_path=bad))


def test_report_aggregates_match_records():
    config = small_config(trials=4, algorithms=("romp", "omp"))
    report = run_sweep(config)
    again = aggregate_records(report.records)
    assert again == report.cells
    assert [c.algo for c in report.cells] == ["romp", "omp"]


# --------------------------------------------------------- truncated error

def test_truncated_error_zero_for_identical():
    v = np.array([3.0, 0.0, 1.0, -2.0])
    assert truncated_error(v, v.copy(), 1) == 0.0


def test_truncated_error_ignores_off_top_perturbation():
    v = np.zeros(10)
    v[[0, 1]] = [5.0, 4.0]
    v_hat = v.copy()
    v_hat[7] = 1e-9  # outside both top-2 sets once 2n >= 2 entries exist
    v_hat[2] = 3.0
    v_hat[3] = 2.5
    assert truncated_error(v, v_hat, 1) == pytest.approx(0.0, abs=0.0)


def test_truncation_inequality_on_random_pairs():
    rng = substream(606)
    worst = -np.inf
    for _ in range(1000):
        dim = int(rng.integers(4, 60))
        n = int(rng.integers(1, max(2, dim // 3)))
        v = rng.standard_normal(dim)
        v_hat = rng.standard_normal(dim)
        worst = max(worst, truncation_inequality_slack(v, v_hat, n))
    assert worst <= 1e-10
