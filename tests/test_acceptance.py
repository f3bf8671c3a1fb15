"""Acceptance gate: every criterion runs at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion; ``python -m rompkit.acceptance`` prints the same report.
"""

import pytest

from rompkit import acceptance, bench
from rompkit.acceptance import run_acceptance


@pytest.fixture(scope="module")
def outcomes():
    return {o.number: o for o in run_acceptance(verbose=False)}


def _check(outcomes, number):
    outcome = outcomes[number]
    print(outcome.line())
    assert outcome.passed, outcome.line()


def test_criterion_1_noiseless_exact_recovery(outcomes):
    _check(outcomes, 1)


def test_criterion_2_measurement_noise_stability(outcomes):
    _check(outcomes, 2)


def test_criterion_3_signal_perturbation_stability(outcomes):
    _check(outcomes, 3)


def test_criterion_4_regularization_oracle_equivalence(outcomes):
    _check(outcomes, 4)


def test_criterion_5_tail_norm_bound(outcomes):
    _check(outcomes, 5)


def test_criterion_6_iteration_invariants(outcomes):
    _check(outcomes, 6)


def test_criterion_7_truncation_inequality(outcomes):
    _check(outcomes, 7)


def test_criterion_8_figure_shape(outcomes):
    _check(outcomes, 8)


def test_criterion_9_sweep_determinism(outcomes):
    _check(outcomes, 9)


def test_invariant_violation_fails_criterion_6_instead_of_raising(monkeypatch):
    # Criteria 1-3 only record their traced runs; criterion 6 is the one
    # place that judges them, so a violation must show up there as FAIL.
    def planted(*args):
        return ["planted violation"]

    monkeypatch.setattr(bench, "verify_iteration_invariants", planted)
    monkeypatch.setattr(acceptance, "verify_iteration_invariants", planted)
    _, outcomes = acceptance.criterion_noiseless_exact()
    verdict = acceptance.criterion_iteration_invariants(outcomes)
    assert not verdict.passed
    assert "planted violation" in verdict.detail
