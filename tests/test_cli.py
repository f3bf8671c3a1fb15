import csv

import numpy as np
import pytest

from rompkit import cli, textio
from rompkit.bench import TRIAL_CSV_HEADER, SweepConfig, aggregates_path, run_sweep
from rompkit.ensembles import EnsembleSpec, build_matrix
from rompkit.recovery import romp_recover


@pytest.fixture()
def recovery_files(tmp_path):
    phi = build_matrix(EnsembleSpec("gaussian", 40, 96, seed=15))
    v = np.zeros(96)
    v[[8, 50, 70]] = [1.0, -2.0, 0.5]
    x = phi @ v
    matrix_path = str(tmp_path / "phi.txt")
    obs_path = str(tmp_path / "x.txt")
    textio.write_matrix(matrix_path, phi)
    textio.write_vector(obs_path, x)
    return phi, v, x, matrix_path, obs_path


def test_matrix_vector_roundtrip(tmp_path):
    m = np.array([[1.5, -2.25], [0.1, 1e-17]])
    path = str(tmp_path / "m.txt")
    textio.write_matrix(path, m)
    assert np.array_equal(textio.read_matrix(path), m)
    v = np.array([3.0, -0.125, 7.5e-12])
    vpath = str(tmp_path / "v.txt")
    textio.write_vector(vpath, v)
    assert np.array_equal(textio.read_vector(vpath), v)


def test_matrix_file_validation(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1.0 2.0 3.0\n")
    with pytest.raises(ValueError):
        textio.read_matrix(str(bad))
    nan = tmp_path / "nan.txt"
    nan.write_text("1\nnan\n")
    with pytest.raises(ValueError):
        textio.read_vector(str(nan))


def test_recover_roundtrip(recovery_files, tmp_path, capsys):
    phi, v, x, matrix_path, obs_path = recovery_files
    out_path = str(tmp_path / "vhat.txt")
    code = cli.main([
        "recover",
        "--matrix", matrix_path,
        "--observation", obs_path,
        "--sparsity", "3",
        "--output", out_path,
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "termination:" in printed
    v_hat = textio.read_vector(out_path)
    # matches the library run on the file-roundtripped inputs
    expected = romp_recover(textio.read_matrix(matrix_path), textio.read_vector(obs_path), 3)
    assert np.array_equal(v_hat, expected.estimate)
    assert np.linalg.norm(v_hat - v) <= 1e-6


def test_recover_trace_prints_iterations(recovery_files, capsys):
    _, _, _, matrix_path, obs_path = recovery_files
    code = cli.main([
        "recover",
        "--matrix", matrix_path,
        "--observation", obs_path,
        "--sparsity", "3",
        "--algo", "omp",
        "--trace",
    ])
    assert code == 0
    assert "iter 1:" in capsys.readouterr().out


def test_recover_missing_file_exits_nonzero(tmp_path, capsys):
    code = cli.main([
        "recover",
        "--matrix", str(tmp_path / "nope.txt"),
        "--observation", str(tmp_path / "nope2.txt"),
        "--sparsity", "2",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_writes_csv_and_svg(tmp_path, capsys):
    csv_path = str(tmp_path / "sweep.csv")
    svg_path = str(tmp_path / "sweep.svg")
    code = cli.main([
        "sweep",
        "--dim", "64",
        "--measurements", "24,32",
        "--sparsity", "2",
        "--trials", "3",
        "--seed", "5",
        "--csv", csv_path,
        "--svg", svg_path,
    ])
    assert code == 0
    with open(csv_path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == TRIAL_CSV_HEADER.split(",")
    assert len(rows) == 1 + 2 * 3
    assert open(svg_path, encoding="utf-8").read().startswith("<svg")
    assert "ran 6 trials" in capsys.readouterr().out


def test_sweep_defaults_reproduce_signal_noise_figure(tmp_path):
    # The signal-noise figure is `rompkit sweep --trials 500 --noise signal`;
    # this is that run at two trials per cell against the explicit config.
    cli_csv = str(tmp_path / "cli.csv")
    code = cli.main(["sweep", "--noise", "signal", "--trials", "2", "--seed", "0", "--csv", cli_csv])
    assert code == 0
    config_csv = str(tmp_path / "config.csv")
    run_sweep(SweepConfig(
        dim=256,
        sparsities=(4, 8, 12, 16, 20),
        measurement_counts=tuple(range(32, 257, 32)),
        trials=2,
        noise_target="signal",
        sigma=None,
        algorithms=("romp",),
        seed=0,
        csv_path=config_csv,
    ))
    for got, want in ((cli_csv, config_csv), (aggregates_path(cli_csv), aggregates_path(config_csv))):
        with open(got, "rb") as fh_got, open(want, "rb") as fh_want:
            assert fh_got.read() == fh_want.read()


def test_sweep_rejects_bad_grid(capsys):
    code = cli.main([
        "sweep",
        "--dim", "64",
        "--measurements", "128",
        "--sparsity", "2",
        "--trials", "2",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid",
    [
        ["--ensemble", "partial-fourier-real", "--measurements", "33"],
        ["--signal", "power-law", "--exponent", "0.5"],
        ["--sigma", "nan"],
        ["--measurements", "32,32"],
    ],
    ids=["partial-fourier-odd-rows", "power-law-exponent-below-one", "sigma-nan", "repeated-measurements"],
)
def test_sweep_rejecting_grid_leaves_existing_csv(tmp_path, capsys, grid):
    csv_path = tmp_path / "out.csv"
    csv_path.write_bytes(b"precious\n")
    code = cli.main(["sweep", *grid, "--sparsity", "4", "--trials", "2", "--csv", str(csv_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert csv_path.read_bytes() == b"precious\n"
    assert not (tmp_path / "out.agg.csv").exists()


def test_sweep_rejects_malformed_list():
    with pytest.raises(SystemExit):
        cli.main(["sweep", "--measurements", "a,b"])


def test_ric_probe_ensemble(capsys):
    code = cli.main([
        "ric-probe",
        "--dim", "64",
        "--measurements", "32",
        "--sparsity", "2,4",
        "--samples", "50",
        "--seed", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "m=2:" in out and "m=4:" in out
    assert "epsilon_hat=" in out


def test_ric_probe_matrix_file(tmp_path, capsys):
    path = str(tmp_path / "ident.txt")
    textio.write_matrix(path, np.eye(6))
    code = cli.main(["ric-probe", "--matrix", path, "--sparsity", "3", "--samples", "20"])
    assert code == 0
    assert "epsilon_hat=0.000000" in capsys.readouterr().out
