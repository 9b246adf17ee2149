"""The validate subcommand's suite: green on a healthy tree, red under mutation."""

import numpy as np
import pytest

from pairspec import numkit, observables
from pairspec.validation import run_validation


def test_suite_passes_quick():
    report = run_validation()
    assert report.passed, "\n".join(report.lines())


def test_report_lists_every_check_with_residual():
    report = run_validation()
    assert len(report.results) >= 12
    for line in report.lines():
        assert "measured=" in line and "tol=" in line
        assert line.startswith("[PASS]") or line.startswith("[FAIL]")


def test_corrupted_sylvester_solver_fails_suite(monkeypatch):
    # Mutation check: a subtly wrong solver must trip the residual gates.
    real = numkit.solve_sylvester

    def corrupted(A, B, C, **kwargs):
        X, report = real(A, B, C, **kwargs)
        X = X * (1.0 + 1e-4)
        return X, report

    monkeypatch.setattr(numkit, "solve_sylvester", corrupted)
    report = run_validation()
    assert not report.passed


def test_validate_cli_exit_code(monkeypatch):
    from pairspec.cli import main

    real = numkit.solve_sylvester

    def corrupted(A, B, C, **kwargs):
        X, report = real(A, B, C, **kwargs)
        return X + 1e-3 * np.linalg.norm(X), report

    monkeypatch.setattr(numkit, "solve_sylvester", corrupted)
    assert main(["validate"]) == 3


def test_corrupted_eigenbasis_lyapunov_fails_suite(monkeypatch):
    # Mutation check on the eigenbasis route that time_integrated_covariance
    # and propagate take: a 1e-4 relative error must trip the suite.
    real = numkit.solve_lyapunov_eigen

    def corrupted(*args, **kwargs):
        X, report = real(*args, **kwargs)
        return X * (1.0 + 1e-4), report

    monkeypatch.setattr(numkit, "solve_lyapunov_eigen", corrupted)
    report = run_validation()
    assert not report.passed


def test_validation_evaluates_wigner_grid_in_one_call(monkeypatch):
    calls = []
    real = observables.wigner

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(observables, "wigner", counting)
    report = run_validation()
    assert report.passed
    assert len(calls) == 1


def test_perturbed_secular_root_fails_suite(monkeypatch):
    # Mutation check on the secular route of the arrowhead core: one root
    # off by 1e-6, past the solver's own residual check, must trip the suite.
    real = numkit._secular_eig

    def perturbed(arrow):
        solved = real(arrow)
        if solved is None:
            return None
        values, vectors = solved
        values = values.copy()
        values[arrow.tip] += 1e-6
        return values, vectors

    monkeypatch.setattr(numkit, "_secular_eig", perturbed)
    report = run_validation()
    assert not report.passed
