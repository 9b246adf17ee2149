"""The validate subcommand's suite: green on a healthy tree, red under mutation."""

import numpy as np
import pytest

from pairspec import kernels, numkit, observables
from pairspec.validation import run_validation


def test_suite_passes_quick():
    report = run_validation()
    assert report.passed, "\n".join(report.lines())


def test_suite_passes_without_numpy_trapezoid(monkeypatch):
    # np.trapezoid exists only from numpy 2.0; pyproject declares numpy 1.24.
    monkeypatch.delattr(np, "trapezoid", raising=False)
    report = run_validation()
    assert report.passed and len(report.results) == 16, "\n".join(report.lines())


def test_report_lists_every_check_with_residual():
    report = run_validation()
    assert len(report.results) >= 12
    for line in report.lines():
        assert "measured=" in line and "tol=" in line
        assert line.startswith("[PASS]") or line.startswith("[FAIL]")


def test_corrupted_sylvester_solver_fails_suite(monkeypatch):
    # Mutation check: a subtly wrong solver must trip the residual gates.
    real = numkit.solve_sylvester

    def corrupted(A, C, **kwargs):
        X, report = real(A, C, **kwargs)
        X = X * (1.0 + 1e-4)
        return X, report

    monkeypatch.setattr(numkit, "solve_sylvester", corrupted)
    report = run_validation()
    assert not report.passed


def test_validate_cli_exit_code(monkeypatch):
    from pairspec.cli import main

    real = numkit.solve_sylvester

    def corrupted(A, C, **kwargs):
        X, report = real(A, C, **kwargs)
        return X + 1e-3 * np.linalg.norm(X), report

    monkeypatch.setattr(numkit, "solve_sylvester", corrupted)
    assert main(["validate"]) == 3


def test_corrupted_eigenbasis_lyapunov_fails_suite(monkeypatch):
    # Mutation check on the eigenbasis route that time_integrated_covariance
    # and propagate take: a 1e-4 relative error must trip the suite.
    real = numkit.solve_lyapunov

    def corrupted(*args, **kwargs):
        X, report = real(*args, **kwargs)
        return X * (1.0 + 1e-4), report

    monkeypatch.setattr(numkit, "solve_lyapunov", corrupted)
    report = run_validation()
    assert not report.passed


def test_third_order_step_map_fails_rk4_check(monkeypatch):
    # Mutation check on the RK4 oracle: its step map with the h^4 terms
    # dropped is a third-order method, and rk4_vs_expm must tell it apart.
    def third_order(W, theta0, dt, steps):
        T = np.array(theta0, dtype=complex)
        for _ in range(steps):
            term, acc = T, T.copy()
            for m in range(1, 4):
                term = dt / m * (W @ term + term @ W.conj().T)
                acc += term
            T = acc
        return T, steps, False

    monkeypatch.setattr(kernels, "rk4_lyapunov", third_order)
    report = run_validation()
    failed = [r.name for r in report.results if not r.passed]
    assert failed == ["rk4_vs_expm"], "\n".join(report.lines())


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
