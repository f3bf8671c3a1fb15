import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SWEEP_WITHOUT_SCIPY = """
import sys
import rompkit
rompkit.run_sweep(rompkit.SweepConfig(
    dim=48, sparsities=(2, 4), measurement_counts=(24,), trials=3, algorithms=("romp", "omp")
))
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, f"scipy modules loaded: {loaded}"
"""


def test_sweep_runs_on_numpy_alone():
    # numpy is the only runtime dependency: importing rompkit and running both
    # algorithms through a sweep must never load scipy.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SWEEP_WITHOUT_SCIPY], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


IMPORT_WITHOUT_NETWORK_STACK = """
import sys
import rompkit
loaded = sorted(m for m in ("urllib.request", "http.client", "ssl", "socket", "email") if m in sys.modules)
assert not loaded, f"modules loaded: {loaded}"
"""


def test_import_loads_no_network_stack():
    # The SVG plotter escapes its own text: xml.sax.saxutils would import
    # urllib.request and with it http.client, ssl, socket and email, about
    # 20 ms of every run's start-up.  numpy itself loads urllib.parse.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_WITHOUT_NETWORK_STACK], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
