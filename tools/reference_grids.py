"""Run the reference sweep grids and compare their digests with ``tests/reference_grids.json``.

    python tools/reference_grids.py            # run every grid, compare, exit 1 on a mismatch
    python tools/reference_grids.py --update   # run every grid and rewrite the file

Each grid is one ``rompkit sweep`` command line.  It runs as a subprocess on
this checkout's ``src`` with ``OPENBLAS_NUM_THREADS=1``, writing ``out.csv``
(and so ``out.agg.csv``) and ``out.svg`` into a temporary directory.  Two
digests are taken, each the first 16 hex digits of a sha256:

- ``digest``, over the bytes of ``out.csv``, ``out.agg.csv`` and ``out.svg``;
- ``columns``, over the trial CSV's ``COLUMNS``, which hold no float bits.

Byte identity is promised only within one build, so the full digest is
checked only where the build matches the one recorded in the file: the numpy
version, its BLAS and the BLAS kernel picked for this CPU.  The columns
digest is checked on every build.  A PR that changes an output shows the new
digest in its diff of the file.
"""

import argparse
import csv
import ctypes
import glob
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GRIDS = ROOT / "tests" / "reference_grids.json"
COLUMNS = ("algo", "N", "d", "n", "trial", "seed", "iterations", "support_hit", "termination")


def build():
    """The numpy version, its BLAS and that BLAS's kernel for this CPU: what a full digest depends on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        name = "unknown"
    core = "unknown"
    # OpenBLAS picks its kernels at load time (DYNAMIC_ARCH); numpy wheels bundle it under numpy.libs.
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_char_p
                core = getter().decode()
                break
    return {"numpy": np.__version__, "blas": name, "blas_core": core}


def digests(trials_csv, aggregates_csv, svg):
    """``(digest, columns)`` of one sweep's three outputs, given as text."""
    full = hashlib.sha256((trials_csv + aggregates_csv + svg).encode()).hexdigest()[:16]
    rows = csv.DictReader(io.StringIO(trials_csv))
    picked = "".join(",".join(row[c] for c in COLUMNS) + "\n" for row in rows)
    return full, hashlib.sha256(picked.encode()).hexdigest()[:16]


def run_grid(flags):
    """Run ``rompkit sweep <flags>`` on this checkout and return its ``(digest, columns)``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory(prefix="rompkit-grid-") as tmp:
        out = Path(tmp)
        command = [sys.executable, "-m", "rompkit.cli", "sweep", *shlex.split(flags)]
        command += ["--csv", str(out / "out.csv"), "--svg", str(out / "out.svg")]
        subprocess.run(command, env=env, check=True, stdout=subprocess.DEVNULL)
        texts = [(out / name).read_text(encoding="utf-8") for name in ("out.csv", "out.agg.csv", "out.svg")]
    return digests(*texts)


def compare(recorded, measured, current):
    """Mismatch lines between the file's ``recorded`` dict and ``measured`` {name: (digest, columns)}.

    Full digests count only when ``current`` equals the recorded build.
    """
    same_build = recorded["build"] == current
    problems = []
    for grid in recorded["grids"]:
        name = grid["name"]
        if name not in measured:
            problems.append(f"{name}: not run")
            continue
        digest, columns = measured[name]
        if columns != grid["columns"]:
            problems.append(f"{name}: columns digest {columns}, recorded {grid['columns']}")
        if same_build and digest != grid["digest"]:
            problems.append(f"{name}: digest {digest}, recorded {grid['digest']}")
    return problems


def updated(recorded, measured, current):
    """The file's dict with ``current`` as its build and each grid's digests replaced by ``measured``."""
    grids = [dict(grid, digest=measured[grid["name"]][0], columns=measured[grid["name"]][1]) for grid in recorded["grids"]]
    return dict(recorded, build=current, grids=grids)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true", help="rewrite the file with this build's digests")
    args = parser.parse_args(argv)
    recorded = json.loads(GRIDS.read_text(encoding="utf-8"))
    current = build()
    measured = {}
    for grid in recorded["grids"]:
        measured[grid["name"]] = run_grid(grid["flags"])
        print(f"{grid['name']:24} {measured[grid['name']][0]}  {measured[grid['name']][1]}", flush=True)
    if args.update:
        GRIDS.write_text(json.dumps(updated(recorded, measured, current), indent=1) + "\n", encoding="utf-8")
        return 0
    if recorded["build"] != current:
        print(f"build {current} is not the recorded {recorded['build']}: full digests not checked")
    problems = compare(recorded, measured, current)
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
