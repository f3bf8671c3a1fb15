"""Run the kill table: every mutant in ``mutants/table.py`` must fail its tests.

    python mutants/run.py [NAME ...]

For each mutant, or only the named ones, this copies ``src/``, ``tests/``
and ``pyproject.toml`` (whose pytest settings make a RuntimeWarning an
error) into a fresh temporary directory, replaces the mutant's ``old``
snippet there, and runs ``pytest -x`` on the mutant's test files with that
copy of ``src`` on ``PYTHONPATH``.  It prints one line per mutant and exits
non-zero if a mutant survives, its ``old`` snippet does not occur exactly
once, or pytest ends in anything but failed tests (such as an import error).
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from table import MUTANTS  # noqa: E402


def run(mutant):
    """``(status, seconds)``: status is killed, SURVIVED, MISSING or BROKEN (pytest exit code 2 or more)."""
    with tempfile.TemporaryDirectory(prefix="rompkit-mutant-") as tmp:
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, Path(tmp, name), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        target = Path(tmp, mutant["file"])
        text = target.read_text(encoding="utf-8")
        if text.count(mutant["old"]) != 1:
            return "MISSING", 0.0
        target.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp, "src")), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant["tests"]]
        start = time.perf_counter()
        code = subprocess.run(command, cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        seconds = time.perf_counter() - start
    return {0: "SURVIVED", 1: "killed"}.get(code, "BROKEN"), seconds


def main(names):
    unknown = set(names) - {m["name"] for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(sorted(unknown))}")
    failed = 0
    for mutant in MUTANTS:
        if names and mutant["name"] not in names:
            continue
        status, seconds = run(mutant)
        failed += status != "killed"
        print(f"{status:8} {mutant['name']:28} {seconds:5.1f} s  {mutant['why']}", flush=True)
    if failed:
        sys.exit(f"{failed} mutant(s) not killed")


if __name__ == "__main__":
    main(sys.argv[1:])
