"""Tests for the benchmark's own code.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import rompkit  # noqa: E402
from rompkit import bench, ensembles, recovery, signals  # noqa: E402


# --- percentiles and the sample-count rule ---------------------------------


def test_min_samples_leaves_ten_beyond_the_percentile():
    assert metrics.min_samples(0.9) == 100
    assert metrics.min_samples(0.99) == 1000
    assert metrics.min_samples(0.5) == 20
    with pytest.raises(ValueError):
        metrics.min_samples(1.0)


@pytest.mark.parametrize("n", [100, 101, 137, 1000])
def test_p90_has_ten_samples_beyond_it(n):
    values = [float(v) for v in np.random.default_rng(n).permutation(n)]
    p90 = metrics.percentile(values, 0.9)
    assert sum(v > p90 for v in values) >= metrics.TAIL_SAMPLES
    assert sum(v <= p90 for v in values) >= 0.9 * n


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert metrics.percentile(values, 0.9) == 90
    assert metrics.percentile(values, 0.5) == 50
    assert metrics.percentile([3.0], 0.9) == 3.0
    assert metrics.median([4, 1, 3, 2]) == 2.5
    assert metrics.median([5, 1, 3]) == 3


def test_latency_summary_refuses_a_short_sample():
    with pytest.raises(ValueError, match="p90 needs at least 100"):
        metrics.latency_summary([0.001] * 99, "romp")
    out = metrics.latency_summary([i / 1000 for i in range(1, 101)], "omp")
    assert out == {"omp_p50_ms": pytest.approx(50.5), "omp_p90_ms": pytest.approx(90.0)}


# --- metric names and the result line -------------------------------------


@pytest.mark.parametrize("name", ["", "-lead", ".lead", "has space", "a/b", "x" * 65, None, "ü"])
def test_invalid_metric_names_are_rejected(name):
    with pytest.raises(ValueError, match="invalid metric name"):
        metrics.check_name(name)
    with pytest.raises(ValueError):
        metrics.result_metrics({name: 1.0}, [{"name": name, "unit": "s"}])


def test_result_metrics_needs_exactly_the_declared_set():
    declared = [{"name": "a_ms", "unit": "ms"}, {"name": "b.calls", "unit": "count"}]
    out = metrics.result_metrics({"b.calls": 3, "a_ms": 1.5}, declared)
    assert list(out) == ["a_ms", "b.calls"]
    assert out["a_ms"] == {"value": 1.5, "unit": "ms"}
    with pytest.raises(ValueError, match="missing"):
        metrics.result_metrics({"a_ms": 1.0}, declared)
    with pytest.raises(ValueError, match="undeclared"):
        metrics.result_metrics({"a_ms": 1.0, "b.calls": 1, "c": 2}, declared)
    with pytest.raises(ValueError, match="non-finite"):
        metrics.result_metrics({"a_ms": math.nan, "b.calls": 1}, declared)
    with pytest.raises(ValueError, match="invalid metric unit"):
        metrics.result_metrics({"a_ms": 1.0}, [{"name": "a_ms", "unit": "m s"}])


def test_benchmark_json_declares_what_the_code_reports():
    spec = metrics.load_spec(ROOT / "BENCHMARK.json")
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert {"setup_s", "trials_per_s", "romp_p50_ms", "omp_p90_ms"} <= e2e
    layer = set(Tracer().layer_metrics(1, 1.0)) | {f"trace_overhead.{n}" for n in e2e}
    assert layer == {m["name"] for m in spec["per_layer"]}
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


# --- output checks ----------------------------------------------------------


def _single_cell_sweep(tmp_path, trials=6):
    config = bench.SweepConfig(
        dim=64,
        sparsities=(3,),
        measurement_counts=(32,),
        trials=trials,
        algorithms=("romp",),
        seed=5,
        csv_path=str(tmp_path / "cell.csv"),
    )
    report = bench.run_sweep(config)
    trials_text = (tmp_path / "cell.csv").read_text()
    agg_text = Path(bench.aggregates_path(config.csv_path)).read_text()
    return report, trials_text, agg_text


def test_sound_sweep_cell_passes(tmp_path):
    report, trials_text, agg_text = _single_cell_sweep(tmp_path)
    assert workloads.check_sweep_cell(report, trials_text, agg_text, "romp", 3, 32, 6) == (set(), [])


def test_corrupted_record_fails_the_check(tmp_path):
    report, trials_text, agg_text = _single_cell_sweep(tmp_path)
    report.records[2] = dataclasses.replace(report.records[2], err2=math.nan)
    bad, problems = workloads.check_sweep_cell(report, trials_text, agg_text, "romp", 3, 32, 6)
    assert bad == {2}
    assert any("err2" in p for p in problems)


def test_missing_record_fails_the_check(tmp_path):
    report, trials_text, agg_text = _single_cell_sweep(tmp_path)
    del report.records[-1]
    bad, problems = workloads.check_sweep_cell(report, trials_text, agg_text, "romp", 3, 32, 6)
    assert bad == set() and any("5 records for 6 trials" in p for p in problems)


def test_corrupted_csv_row_fails_the_check(tmp_path):
    report, trials_text, agg_text = _single_cell_sweep(tmp_path)
    lines = trials_text.splitlines()
    fields = lines[3].split(",")
    fields[9] = repr(float(fields[9]) * 2.0)  # err2
    lines[3] = ",".join(fields)
    _, problems = workloads.check_sweep_cell(report, "\n".join(lines) + "\n", agg_text, "romp", 3, 32, 6)
    assert any("CSV row differs" in p for p in problems)
    assert any("aggregate err2_mean" in p for p in problems)


def test_aggregate_mismatch_fails_the_check(tmp_path):
    report, trials_text, agg_text = _single_cell_sweep(tmp_path)
    report.cells[0] = dataclasses.replace(report.cells[0], support_hit_mean=report.cells[0].support_hit_mean + 1e-6)
    _, problems = workloads.check_sweep_cell(report, trials_text, agg_text, "romp", 3, 32, 6)
    assert any("aggregate support_hit_mean" in p for p in problems)


def test_recompute_aggregate_matches_numpy_quantile():
    values = [0.3, 1.7, 0.2, 5.0, 2.2, 0.9, 4.1]
    rows = [
        {"err2": repr(v), "ratio_meas": repr(v), "ratio_sig": "", "support_hit": "1.0", "iterations": "2", "termination": "zero-residual"}
        for v in values
    ]
    agg = workloads.recompute_aggregate(rows)
    assert agg["ratio_meas_q90"] == pytest.approx(float(np.quantile(values, 0.9)), rel=1e-15)
    assert agg["err2_median"] == float(np.median(values))
    assert agg["ratio_sig_mean"] is None and agg["failures"] == 0


def test_recovery_check_catches_a_wrong_estimate():
    matrix = ensembles.build_matrix(ensembles.EnsembleSpec(kind="gaussian", rows=48, cols=128, seed=1))
    signal, support = signals.generate_signal(signals.SignalSpec(kind="gaussian-sparse", dim=128, sparsity=4, seed=2))
    result = recovery.omp_recover(matrix, matrix @ signal, 4)
    assert workloads.check_recovery(result, signal, support, 4) == ([], True)
    result.estimate = result.estimate.copy()
    result.estimate[support[0]] += 1e-3
    problems, exact = workloads.check_recovery(result, signal, support, 4)
    assert exact and any("relative error" in p for p in problems)
    result.estimate[np.setdiff1d(np.arange(128), result.support)[0]] = 1.0
    problems, _ = workloads.check_recovery(result, signal, support, 4)
    assert any("outside the reported support" in p for p in problems)


# --- tracing ---------------------------------------------------------------


def test_tracer_counts_calls_and_restores_the_package():
    original = recovery.least_squares
    matrix = ensembles.build_matrix(ensembles.EnsembleSpec(kind="gaussian", rows=48, cols=128, seed=1))
    signal, _ = signals.generate_signal(signals.SignalSpec(kind="gaussian-sparse", dim=128, sparsity=4, seed=2))
    tracer = Tracer()
    with tracer.installed(rompkit):
        assert recovery.least_squares is not original
        assert rompkit.linalg.least_squares is recovery.least_squares
        result = recovery.omp_recover(matrix, matrix @ signal, 4)
    assert recovery.least_squares is original
    layer = tracer.layer_metrics(1, 1.0)
    assert layer["recovery.omp_recover.calls"] == 1
    assert layer["linalg.least_squares.calls"] == result.iterations
    assert layer["recovery.iterations"] == result.iterations
    assert layer[f"recovery.termination.{result.termination}"] == 1
    assert layer["recovery.correlation.flops_computed"] == 2 * 48 * 128 * result.iterations
    assert sum(tracer.self_s.values()) + layer["trace.unattributed_s"] == pytest.approx(1.0)
    assert all(v >= 0 for v in tracer.self_s.values())

