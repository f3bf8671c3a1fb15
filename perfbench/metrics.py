"""Percentiles, the sample-count rule, and validation of the result line.

Pure Python on purpose: ``run.py`` imports this module before numpy, and the
tests import it without the package under test.
"""

import json
import math
import re

# A tail percentile is reported only when at least this many samples lie
# beyond it; with fewer, one slow outlier decides the figure.
TAIL_SAMPLES = 10

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


def min_samples(q):
    """Smallest sample count with at least ``TAIL_SAMPLES`` beyond quantile ``q``."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    return math.ceil(round(TAIL_SAMPLES / (1.0 - q), 9))


def percentile(values, q):
    """Nearest-rank quantile: the smallest sample with a share >= ``q`` at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = math.ceil(round(q * len(ordered), 9))
    return ordered[max(rank, 1) - 1]


def median(values):
    """Middle value, or the mean of the two middle values."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def latency_summary(samples_s, prefix):
    """``<prefix>_p50_ms`` and ``<prefix>_p90_ms`` from latencies in seconds.

    Raises ValueError when the sample is too small for its p90 to have
    ``TAIL_SAMPLES`` samples beyond it.
    """
    need = min_samples(0.9)
    if len(samples_s) < need:
        raise ValueError(f"{prefix}: {len(samples_s)} samples, p90 needs at least {need}")
    return {
        f"{prefix}_p50_ms": 1e3 * median(samples_s),
        f"{prefix}_p90_ms": 1e3 * percentile(samples_s, 0.9),
    }


def load_spec(path):
    """Read BENCHMARK.json and return it with its metric lists validated."""
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    for section in ("end_to_end", "per_layer"):
        names = [m["name"] for m in spec[section]]
        for m in spec[section]:
            check_name(m["name"])
            check_unit(m["unit"])
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate metric name in {section}")
    return spec


def check_name(name):
    if not isinstance(name, str) or not NAME_RE.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")


def check_unit(unit):
    if not isinstance(unit, str) or not UNIT_RE.fullmatch(unit):
        raise ValueError(f"invalid metric unit {unit!r}")


def result_metrics(values, declared):
    """Pair each measured value with its declared unit, in declaration order.

    ``values`` maps metric name to number; ``declared`` is one metric list of
    BENCHMARK.json.  Every declared metric must be present, no undeclared one
    may be, and every value must be a finite number.
    """
    units = {}
    for m in declared:
        check_name(m["name"])
        check_unit(m["unit"])
        units[m["name"]] = m["unit"]
    for name in values:
        check_name(name)
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise ValueError(f"metric set differs from BENCHMARK.json: missing {missing}, undeclared {extra}")
    out = {}
    for name, unit in units.items():
        value = values[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name} has non-finite or non-numeric value {value!r}")
        out[name] = {"value": value, "unit": unit}
    return out
