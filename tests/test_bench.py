import csv
import gc
import math
import sys
import weakref
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from rompkit import bench, recovery, svgplot
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
from rompkit.ensembles import PartialFourier
from rompkit.recovery import verify_iteration_invariants
from rompkit.rng import derive_seed, substream
from rompkit.signals import NoiseSpec, add_noise, best_m_term, generate_signal


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


@pytest.mark.parametrize("axis", ["sparsities", "measurement_counts"])
def test_config_rejects_an_empty_grid_axis(axis):
    with pytest.raises(ValueError, match="sparsities and measurement_counts must be nonempty"):
        small_config(**{axis: ()})


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
    "overrides",
    [dict(sparsities=2), dict(measurement_counts=np.int64(32)), dict(algorithms="romp"), dict(algorithms=b"omp")],
    ids=["int-sparsities", "numpy-int-measurements", "str-algorithms", "bytes-algorithms"],
)
def test_config_rejects_a_scalar_or_string_grid_axis(overrides):
    # A string would otherwise be split into one-letter algorithm names.
    name = next(iter(overrides))
    with pytest.raises(ValueError, match=f"{name} must be a sequence of grid values"):
        small_config(**overrides)


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
        # Non-integral values are rejected, never truncated through int().
        dict(sparsities=(2.5,)),
        dict(measurement_counts=(32.9,)),
        dict(seed=1.7),
        dict(trials=2.5),
        dict(dim=96.0),
        dict(sparsities=(np.float64(2.0),)),
        # NaN passes a plain `<=` bound test; the cell would fail mid-sweep.
        dict(signal_kind="power-law", power_exponent=float("nan")),
        dict(signal_kind="power-law", power_scale=float("inf")),
        dict(signal_kind="power-law", power_scale=float("nan")),
    ],
    ids=[
        "partial-fourier-odd-rows",
        "power-law-exponent-below-one",
        "fractional-sparsity",
        "fractional-measurements",
        "fractional-seed",
        "fractional-trials",
        "float-dim",
        "numpy-float-sparsity",
        "power-law-exponent-nan",
        "power-law-scale-inf",
        "power-law-scale-nan",
    ],
)
def test_config_rejects_cells_its_specs_reject(overrides):
    with pytest.raises(ValueError):
        small_config(**overrides)


def test_config_accepts_numpy_integers():
    config = small_config(
        dim=np.int64(64),
        sparsities=(np.int32(2),),
        measurement_counts=(np.int64(32),),
        trials=np.int64(3),
        seed=np.uint8(11),
    )
    assert config == small_config()
    values = (config.dim, config.trials, config.seed, *config.sparsities, *config.measurement_counts)
    assert all(type(v) is int for v in values)


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


@pytest.mark.parametrize(
    "overrides, algo, sparsity, measurements, message",
    [
        ({}, "lasso", 2, 32, "unknown algorithm"),
        ({}, "romp", 30, 32, r"need 3\*n <= dim = 64"),
        ({"fresh_matrix_per_trial": True}, "romp", 2, 100, "must not exceed cols"),
        ({"fresh_matrix_per_trial": True, "ensemble": "partial-fourier-real"}, "romp", 2, 31, "even number of rows"),
    ],
    ids=["unknown-algorithm", "3n-over-d", "fresh-gaussian-N-over-d", "fresh-partial-fourier-odd-N"],
)
def test_cell_is_checked_at_the_call(overrides, algo, sparsity, measurements, message):
    # No next: run_cell checks its cell by SweepConfig's rule before any
    # block runs, fresh cells included, and run_trial by the same check.
    config = small_config(**overrides)
    with pytest.raises(ValueError, match=message):
        bench.run_cell(config, algo, sparsity, measurements)
    with pytest.raises(ValueError, match=message):
        run_trial(config, algo, sparsity, measurements, 0)


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
    # The y-axis names the plotted metric: measurement noise, signal noise, none.
    cases = [
        ({}, "mean error-to-noise ratio"),
        ({"noise_target": "signal"}, "mean error / scaled 1-norm tail"),
        ({"sigma": 0.0}, "mean recovery error"),
    ]
    for k, (options, y_label) in enumerate(cases):
        svg_path = str(tmp_path / f"plot{k}.svg")
        config = small_config(
            sparsities=(2, 3), measurement_counts=(24, 32, 48), trials=2, svg_path=svg_path, **options
        )
        run_sweep(config)
        root = ET.parse(svg_path).getroot()
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 2  # one per sparsity level
        rotated = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text") if "transform" in t.attrib]
        assert rotated == [y_label]


def test_line_plot_widens_an_equal_range_past_2_53():
    # An added 1.0 is lost at 1e17, which left a zero-width range to divide by.
    for series in [[("a", [(1, 1e17), (2, 1e17)])], [("a", [(1e17, 1.0), (1e17, 2.0)])]]:
        svg = svgplot.line_plot(series)
        root = ET.fromstring(svg)
        assert len(root.findall(".//{http://www.w3.org/2000/svg}circle")) == 2
        assert "nan" not in svg


def test_line_plot_escapes_markup_in_title_labels_and_series():
    # &, < and > in any text become entities, so the SVG parses as XML and reads back as given.
    text = 'a & b < c > d "e"'
    svg = svgplot.line_plot([(text, [(1, 2), (3, 4)])], title=text, x_label=text, y_label=text)
    assert "a &amp; b &lt; c &gt; d \"e\"" in svg and "a & b" not in svg
    texts = [t.text for t in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert texts.count(text) == 4


def test_line_plot_stays_finite_when_a_range_width_overflows():
    # hi - lo is inf for these ranges, and lo + ulp(lo) is inf at the largest float.  Every
    # coordinate must be finite, and no tick label may read nan or inf, nor read back as one
    # (1.798e+308 does).  Each axis puts its five ticks at five distinct positions.
    top = sys.float_info.max
    cases = [
        [("a", [(1, -1e308), (2, 1e308)])],
        [("a", [(-1e308, 1.0), (1e308, 2.0)])],
        [("a", [(top, top), (top, top)])],
        [("a", [(1, -top), (2, top)])],
        [("a", [(-top, -top)])],
    ]
    svg_ns = "{http://www.w3.org/2000/svg}"
    for series in cases:
        svg = svgplot.line_plot(series)
        root = ET.fromstring(svg)
        assert "nan" not in svg and "inf" not in svg
        numbers = [e.get(name) for e in root.iter() for name in ("x", "y", "x1", "x2", "y1", "y2", "cx", "cy")]
        numbers += root.find(f".//{svg_ns}polyline").get("points").replace(",", " ").split()
        assert all(math.isfinite(float(v)) for v in numbers if v is not None)
        labels = [e.text for e in root.iter(f"{svg_ns}text") if e.text and e.text[-1].isdigit()]
        assert len(labels) == 10 and all(math.isfinite(float(text)) for text in labels), labels
        lines = list(root.iter(f"{svg_ns}line"))
        x_ticks = {e.get("x1") for e in lines if e.get("y2") == "429"}  # ticks below the plot
        y_ticks = {e.get("y1") for e in lines if e.get("x1") == "65"}  # ticks left of the plot
        assert len(x_ticks) == len(y_ticks) == 5, (x_ticks, y_ticks)


def test_traced_sweep_raises_on_violation_naming_the_cell(monkeypatch):
    monkeypatch.setattr(bench, "verify_iteration_invariants", lambda *args: ["planted violation"])
    with pytest.raises(RuntimeError, match=r"algo=romp, n=2, N=32, trial=0\): planted violation"):
        run_sweep(small_config(trace=True))
    monkeypatch.setattr(bench, "verify_iteration_invariants", lambda *args: [])
    monkeypatch.setattr(bench, "truncation_inequality_slack", lambda *args: 1.0)
    with pytest.raises(RuntimeError, match=r"algo=romp, n=2, N=32, trial=0\): truncation inequality violated"):
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


@pytest.mark.parametrize("algo", ["romp", "omp"])
@pytest.mark.parametrize(
    "ensemble, fresh",
    [
        ("gaussian", False),
        ("bernoulli", False),
        ("partial-fourier-real", True),
        ("gaussian", True),
        ("bernoulli", True),
    ],
    ids=["gaussian", "bernoulli", "fresh-partial-fourier", "fresh-gaussian", "fresh-bernoulli"],
)
def test_lockstep_cell_rows_equal_lone_trials(monkeypatch, algo, ensemble, fresh):
    # A budget of about three lanes splits the 10-trial cell into several
    # lockstep blocks; every row must still be the one run_trial gives.  In a
    # fresh cell each lane carries its own trial's matrix: its frequencies,
    # or its dense matrix, drawn from the trial's key.
    config = small_config(
        trials=10, ensemble=ensemble, algorithms=(algo,), sparsities=(3,), trace=True, fresh_matrix_per_trial=fresh
    )
    lane_bytes = recovery.LOCKSTEP_BYTES // recovery.lockstep_width(algo, 32, 64, 3)
    monkeypatch.setattr(recovery, "LOCKSTEP_BYTES", 3 * lane_bytes)
    assert recovery.lockstep_width(algo, 32, 64, 3) == 3
    outcomes = list(bench.run_cell(config, algo, 3, 32))
    assert [o.record for o in outcomes] == [run_trial(config, algo, 3, 32, t).record for t in range(10)]
    if fresh and ensemble == "partial-fourier-real":
        freqs = [o.matrix.freqs for o in outcomes]
        assert all(f.tobytes() == build_cell_matrix(config, 3, 32, t).freqs.tobytes() for t, f in enumerate(freqs))
        assert len({f.tobytes() for f in freqs}) == 10
    elif fresh:
        assert all(np.array_equal(o.matrix, build_cell_matrix(config, 3, 32, t)) for t, o in enumerate(outcomes))
        assert len({o.matrix.tobytes() for o in outcomes}) == 10


@pytest.mark.parametrize(
    "signal_kind, noise_target, ensemble, fresh",
    [
        ("flat-sparse", "measurement", "gaussian", False),
        ("gaussian-sparse", "signal", "gaussian", False),
        ("power-law", "signal", "gaussian", False),
        ("gaussian-sparse", "measurement", "partial-fourier-real", False),
        ("power-law", "signal", "partial-fourier-real", True),
    ],
    ids=["flat-sparse-measurement", "gaussian-sparse-signal", "power-law-signal", "shared-partial-fourier", "fresh-partial-fourier"],
)
def test_sweep_rows_follow_the_scalar_stream_rule(monkeypatch, signal_kind, noise_target, ensemble, fresh):
    # A cell derives its seeds and stream keys in batched passes, measures and
    # scores a block at once; each row must still be what derive_seed,
    # generate_signal, add_noise, the trial's own Phi and the per-row scores
    # give.  A partial-Fourier row is measured as its lone operator's apply
    # measures it, through one matrix or a stack of fresh ones.  The master
    # seed takes two 32-bit words, and a budget of three lanes spreads the
    # trials over four blocks.
    master = 2**32 + 7
    config = small_config(
        trials=10, sparsities=(3,), seed=master, signal_kind=signal_kind, noise_target=noise_target,
        ensemble=ensemble, fresh_matrix_per_trial=fresh,
    )
    lane_bytes = recovery.LOCKSTEP_BYTES // recovery.lockstep_width("romp", 32, 64, 3)
    monkeypatch.setattr(recovery, "LOCKSTEP_BYTES", 3 * lane_bytes)
    assert recovery.lockstep_width("romp", 32, 64, 3) == 3
    for t, outcome in enumerate(bench.run_cell(config, "romp", 3, 32)):
        phi = build_cell_matrix(config, 3, 32, t)
        measure = phi.apply if ensemble == "partial-fourier-real" else phi.__matmul__
        record = outcome.record
        assert record.seed == derive_seed(master, 1, 32, 3, t)
        base, support = generate_signal(bench._signal_spec(config, 3, derive_seed(record.seed, 2)))
        noise_dim = 64 if noise_target == "signal" else 32
        assert record.sigma == 0.1 * np.linalg.norm(measure(base)) / np.sqrt(noise_dim)
        noise = NoiseSpec(noise_target, record.sigma, derive_seed(record.seed, 3))
        if noise_target == "signal":
            signal = add_noise(base, noise)[0]
            measured = measure(signal)
            assert record.norm_e == 0.0
        else:
            signal = base
            measured, e = add_noise(measure(base), noise)
            assert record.norm_e == np.linalg.norm(e)
        assert outcome.signal.tobytes() == signal.tobytes()
        assert outcome.measured.tobytes() == measured.tobytes()
        estimate = outcome.estimate
        assert record.err2 == np.linalg.norm(estimate - signal)
        assert record.err2_2n == np.linalg.norm(estimate - best_m_term(signal, 6))
        assert record.tail1 == np.sum(np.abs(signal - best_m_term(signal, 3)))
        assert record.support_hit == np.intersect1d(support, outcome.result.support).size / support.size


@pytest.mark.parametrize(
    "ensemble, fresh",
    [("gaussian", False), ("partial-fourier-real", True), ("bernoulli", True)],
    ids=["shared-gaussian", "fresh-partial-fourier", "fresh-bernoulli"],
)
def test_sweep_output_does_not_depend_on_the_lockstep_budget(tmp_path, monkeypatch, ensemble, fresh):
    # A budget of one byte recovers each trial in a block of its own; the
    # default recovers each of these cells in one block.  The trial CSV and
    # the aggregates must be the same bytes.
    config = small_config(
        ensemble=ensemble, sparsities=(2, 4), measurement_counts=(16, 32), trials=6, algorithms=("romp", "omp"),
        fresh_matrix_per_trial=fresh,
    )
    assert recovery.lockstep_width("romp", 32, 64, 4) >= 6
    outputs = []
    for budget in (1, recovery.LOCKSTEP_BYTES):
        monkeypatch.setattr(recovery, "LOCKSTEP_BYTES", budget)
        path = str(tmp_path / f"budget-{budget}.csv")
        assert len(run_sweep(replace(config, csv_path=path)).records) == 48
        with open(path, "rb") as trials, open(aggregates_path(path), "rb") as cells:
            outputs.append((trials.read(), cells.read()))
    assert outputs[0] == outputs[1]


def test_fresh_dense_sweep_holds_one_block_of_matrices_at_a_time(monkeypatch):
    # run_sweep drops each outcome before the next; then a fresh dense cell
    # draws a block's matrices only once every matrix drawn for an earlier
    # block, and the stack the ensembles entry made of them, is gone.  At a
    # 32 KiB budget and d = 64, an N = 16 cell is one block of four 8 KiB
    # matrices and an N = 32 cell two blocks of two 16 KiB matrices.
    drawn, stacks, alive_at_draw = [], [], []

    def draw(spec, rng):
        gc.collect()
        alive_at_draw.append(sum(ref() is not None for ref in drawn))
        assert all(ref() is None for ref in stacks)
        matrix = draw_matrix(spec, rng)
        drawn.append(weakref.ref(matrix))
        return matrix

    def stack(matrices):
        operator = as_operator(matrices)
        (lanes,) = operator.lane_state
        stacks.append(weakref.ref(lanes))
        return operator

    draw_matrix, as_operator = bench._draw_matrix, bench._as_operator
    monkeypatch.setattr(bench, "_draw_matrix", draw)
    monkeypatch.setattr(bench, "_as_operator", stack)
    monkeypatch.setattr(recovery, "LOCKSTEP_BYTES", 32 << 10)
    for algo in ("romp", "omp"):
        assert recovery.lockstep_width(algo, 16, 64, 2) >= 4 and recovery.lockstep_width(algo, 32, 64, 2) >= 2
    for ensemble in ("gaussian", "bernoulli"):
        config = small_config(
            ensemble=ensemble,
            measurement_counts=(16, 32),
            trials=4,
            algorithms=("romp", "omp"),
            fresh_matrix_per_trial=True,
            trace=True,
        )
        assert len(run_sweep(config).records) == 16
    assert alive_at_draw == [0, 1, 2, 3, 0, 1, 0, 1] * 4
    assert len(stacks) == 12


def test_partial_fourier_cells_never_build_a_matrix(monkeypatch):
    # Traced sweeps check every trial's invariants through the operator too.
    monkeypatch.setattr(bench, "build_matrix", lambda spec: pytest.fail("built a dense matrix"))
    monkeypatch.setattr(PartialFourier, "dense", lambda self: pytest.fail("built a dense matrix"))
    for trace in (False, True):
        for fresh in (False, True):
            config = small_config(
                ensemble="partial-fourier-real", algorithms=("romp", "omp"), fresh_matrix_per_trial=fresh, trace=trace
            )
            assert len(run_sweep(config).records) == 6


@pytest.mark.parametrize("noise_target", ["measurement", "signal"])
def test_traced_fresh_partial_fourier_sweep_keeps_invariants(noise_target):
    # run_sweep checks every trial's trace through its own operator and
    # raises on a violation; check the outcomes here as well.
    config = small_config(
        ensemble="partial-fourier-real",
        signal_kind="power-law",
        noise_target=noise_target,
        sparsities=(2, 4),
        measurement_counts=(16, 32),
        trials=6,
        algorithms=("romp", "omp"),
        fresh_matrix_per_trial=True,
        trace=True,
    )
    report = run_sweep(config)
    assert len(report.records) == 48
    for n in (2, 4):
        for outcome in bench.run_cell(config, "romp", n, 32):
            assert outcome.result is not None and outcome.result.trace
            assert verify_iteration_invariants(outcome.matrix, outcome.measured, n, outcome.result) == []


def test_non_finite_shared_matrix_fails_and_leaves_csv_untouched(tmp_path, monkeypatch):
    out = tmp_path / "out.csv"
    out.write_bytes(b"previous result\n")

    def poisoned(spec):
        matrix = build_matrix(spec)
        matrix[1, 2] = np.nan
        return matrix

    build_matrix = bench.build_matrix
    monkeypatch.setattr(bench, "build_matrix", poisoned)
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        run_sweep(small_config(trials=4, sigma=0.0, csv_path=str(out)))
    assert out.read_bytes() == b"previous result\n"


def test_unwritable_output_fails_before_compute(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "run_cell", lambda *args: pytest.fail("sweep computed before failing"))
    bad = str(tmp_path / "missing-dir" / "out.csv")
    with pytest.raises(OSError):
        run_sweep(small_config(csv_path=bad))


def test_rank_deficient_trials_score_as_failures(monkeypatch):
    # Every column has a twin, so ROMP's first selection takes a pair of
    # equal columns and its refit is rank-deficient.
    config = small_config(sigma=0.0)
    phi = build_cell_matrix(config, 2, 32)
    phi[:, 1::2] = phi[:, 0::2]
    records = []
    with monkeypatch.context() as patch:
        patch.setattr(bench, "build_cell_matrix", lambda *args: phi)
        for trial in range(3):
            outcome = run_trial(config, "romp", 2, 32, trial)
            record = outcome.record
            assert (record.termination, record.iterations, record.support_hit) == ("rank-deficient", 0, 0.0)
            assert outcome.result is None
            assert not np.any(outcome.estimate)
            assert record.err2 == np.linalg.norm(outcome.signal)
            records.append(record)
    recovered = run_trial(config, "romp", 2, 32, 0).record
    assert recovered.termination != "rank-deficient"
    (cell,) = aggregate_records(records + [recovered])
    assert (cell.trials, cell.failures) == (4, 3)


@pytest.mark.parametrize("algo", ["romp", "omp"])
def test_trial_raises_other_recovery_errors(monkeypatch, algo):
    # Only a RankDeficiencyError is scored; a subnormal Phi's overflow
    # ValueError must come out of run_trial.
    config = small_config()
    phi = np.ldexp(build_cell_matrix(config, 2, 32), -1030)
    monkeypatch.setattr(bench, "build_cell_matrix", lambda *args: phi)
    with pytest.raises(ValueError, match="coefficients overflow"):
        run_trial(config, algo, 2, 32, 0)


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


@pytest.mark.parametrize("measure", [truncated_error, truncation_inequality_slack])
@pytest.mark.parametrize("sparsity", [2.5, 2.0, np.float64(1.0)])
def test_truncation_measures_reject_non_integer_sparsity(measure, sparsity):
    # Before, a sparsity of 2.5 silently ran as n = 2.
    v = np.arange(10.0)
    with pytest.raises(ValueError, match="sparsity must be an integer"):
        measure(v, v[::-1], sparsity)


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
