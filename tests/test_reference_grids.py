"""The reference-grid checker's digests, compare and update rules, on canned sweep outputs."""

import importlib.util
import json
import shlex
from pathlib import Path

from rompkit import cli

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("reference_grids", ROOT / "tools" / "reference_grids.py")
grids = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(grids)

HEADER = "algo,N,d,n,trial,seed,sigma,noise_target,norm_e,err2,err2_2n,tail1,ratio_meas,ratio_sig,iterations,support_hit,termination\n"
ROW = "romp,32,256,4,0,123,0.0,measurement,0.0,{err},,,,,2,1.0,{end}\n"
BUILD = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0", "blas_core": "SkylakeX"}


def outputs(err="1.5e-16", end="zero-residual"):
    return HEADER + ROW.format(err=err, end=end), "agg\n", "<svg/>\n"


def recorded(build=BUILD):
    digest, columns = grids.digests(*outputs())
    return {"build": build, "grids": [{"name": "g", "flags": "--seed 1", "digest": digest, "columns": columns}]}


def test_columns_digest_ignores_float_bits_and_reads_terminations():
    base = grids.digests(*outputs())
    float_drift = grids.digests(*outputs(err="1.6e-16"))
    relabelled = grids.digests(*outputs(end="support-budget"))
    assert float_drift[0] != base[0] and float_drift[1] == base[1]
    assert relabelled[0] != base[0] and relabelled[1] != base[1]
    # Each digest is 16 hex digits, and the full one covers all three files.
    assert all(len(d) == 16 and int(d, 16) >= 0 for d in base)
    assert grids.digests(HEADER, "agg\n", "<svg>\n")[0] != grids.digests(HEADER, "agg\n", "<svg/>\n")[0]


def test_compare_checks_full_digests_only_on_the_recorded_build():
    file = recorded()
    drift = {"g": grids.digests(*outputs(err="1.6e-16"))}
    assert grids.compare(file, {"g": grids.digests(*outputs())}, BUILD) == []
    assert grids.compare(file, drift, BUILD) == [f"g: digest {drift['g'][0]}, recorded {file['grids'][0]['digest']}"]
    # Another numpy, BLAS or BLAS kernel may move float bits: only the columns count there.
    for key in BUILD:
        assert grids.compare(file, drift, dict(BUILD, **{key: "other"})) == []
    relabelled = {"g": grids.digests(*outputs(end="support-budget"))}
    problems = grids.compare(file, relabelled, dict(BUILD, numpy="9.9"))
    assert problems == [f"g: columns digest {relabelled['g'][1]}, recorded {file['grids'][0]['columns']}"]
    assert grids.compare(file, {}, BUILD) == ["g: not run"]


def test_update_replaces_build_and_digests_and_keeps_flags():
    file = recorded(build={"numpy": "1.26.0", "blas": "unknown", "blas_core": "unknown"})
    file["about"] = "kept"
    measured = {"g": grids.digests(*outputs(end="support-budget"))}
    new = grids.updated(file, measured, BUILD)
    assert new == {
        "about": "kept",
        "build": BUILD,
        "grids": [{"name": "g", "flags": "--seed 1", "digest": measured["g"][0], "columns": measured["g"][1]}],
    }
    assert grids.compare(new, measured, BUILD) == []
    assert file["grids"][0]["digest"] == recorded()["grids"][0]["digest"]  # the input is not changed


def test_recorded_grids_are_sweep_command_lines():
    # Every grid's flags parse as `rompkit sweep` and leave the output paths to the checker.
    file = json.loads(grids.GRIDS.read_text(encoding="utf-8"))
    names = [grid["name"] for grid in file["grids"]]
    assert len(names) == len(set(names)) == 14
    assert set(file["build"]) == set(BUILD)
    parser = cli.build_parser()
    for grid in file["grids"]:
        args = parser.parse_args(["sweep", *shlex.split(grid["flags"])])
        assert args.csv_path is None and args.svg_path is None
        assert len(grid["digest"]) == len(grid["columns"]) == 16
