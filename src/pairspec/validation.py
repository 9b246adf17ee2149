"""Oracle-equivalence and invariant suite over small (d <= 12) instances.

Each check reports a measured residual against its tolerance; the CLI
``validate`` subcommand prints one line per check and exits nonzero when any
fails.  Solver entry points are reached through their modules so a corrupted
solver (or a deliberate test mutation) is caught by the residual checks.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import model, numkit, observables, oracle, scattering, states


@dataclass
class CheckResult:
    name: str
    measured: float
    tolerance: float

    @property
    def passed(self):
        return bool(self.measured < self.tolerance)


@dataclass
class ValidationReport:
    results: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def lines(self):
        out = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            out.append(
                f"[{status}] {r.name:<38s} measured={r.measured:.3e}  tol={r.tolerance:.1e}"
            )
        return out


def _random_hermitian(rng, d, scale=1.0):
    H = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (H + H.conj().T) / 2.0


def _random_covariance(rng, d):
    C = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return C @ C.conj().T / d + 0.5 * np.eye(d)


def _small_model(n=6, m_count=1, g=0.2, sqrt_kappa=0.0):
    grid = model.build_grid(n, (0.8, 1.6), (0.8, 1.6))
    params = model.SystemParams(
        omega_c=1.2, material_freqs=(1.2,) * m_count, g=g, sqrt_kappa=sqrt_kappa
    )
    W = model.build_dynamical_matrix(grid, params)
    jsa = states.gaussian_jsa(grid, pump_center=2.4, sum_width=0.1, diff_width=0.35)
    theta = states.assemble_input_covariance(jsa, m_count)
    return grid, W, jsa, theta


def run_validation(seed=20250801):
    """Run every check on instances drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    t0 = time.monotonic()
    results = []

    def add(name, measured, tol):
        results.append(CheckResult(name=name, measured=float(measured), tolerance=tol))

    # --- Sylvester: reference (Kronecker) vs the Schur path and the
    # eigenbasis path that time_integrated_covariance takes ----------------
    agree = 0.0
    res_max = 0.0
    herm_max = 0.0
    for d in (4, 7, 10, 12):
        A = -1j * _random_hermitian(rng, d) - 0.05 * np.eye(d)
        C = _random_covariance(rng, d)
        Xk, _ = numkit.solve_sylvester(A, A.conj().T, C, method="kron")
        Xs, _ = numkit.solve_sylvester(A, A.conj().T, C, method="schur")
        Xe, _ = scattering.time_integrated_covariance(A, C, 0.0)
        for X in (Xs, Xe):
            agree = max(agree, np.linalg.norm(Xk - X) / np.linalg.norm(Xk))
            herm_max = max(herm_max, np.linalg.norm(X - X.conj().T) / np.linalg.norm(X))
        # Measured from the returned solutions, not from the solver's own
        # report: a corrupted solver returns a report that looks healthy.
        for X in (Xk, Xs, Xe):
            res_max = max(res_max, numkit.sylvester_residual(A, A.conj().T, C, X))
    add("sylvester_kron_schur_agreement", agree, 1e-8)
    add("sylvester_residual", res_max, 1e-8)
    add("sylvester_hermitian_solution", herm_max, 1e-10)

    # --- Lyapunov solve vs time-domain quadrature -------------------------
    eps = 1e-2
    worst = 0.0
    d = 6
    _, Wm, _, theta = _small_model(n=3, m_count=1, g=0.15, sqrt_kappa=0.0)
    instances = [
        (-1j * _random_hermitian(rng, d, scale=0.5), _random_covariance(rng, d)),
        (Wm.matrix, theta.matrix),
    ]
    for Wmat, theta0 in instances:
        X, _ = scattering.time_integrated_covariance(Wmat, theta0, eps)
        A = Wmat - eps * np.eye(Wmat.shape[0])
        margin = -float(np.max(np.linalg.eigvals(A).real))
        t_max = 14.0 / (2.0 * margin)
        quad = oracle.quadrature_time_integral(A, theta0, t_max, dt=0.05)
        worst = max(worst, np.linalg.norm(quad.value - X) / np.linalg.norm(X))
    add("lyapunov_vs_quadrature", worst, 1e-5)

    # --- RK4 vs matrix-exponential evolution ------------------------------
    d = 6
    Wm = -1j * _random_hermitian(rng, d, scale=0.8) - 0.1 * np.eye(d)
    theta0 = _random_covariance(rng, d)
    cfg = oracle.IntegrationConfig(t_max=0.5, dt=1e-3)
    got = oracle.integrate_sylvester(Wm, theta0, cfg)
    E = numkit.matrix_exponential(Wm, cfg.steps * cfg.dt)
    want = E @ theta0 @ E.conj().T
    add("rk4_vs_expm", np.linalg.norm(got - want) / np.linalg.norm(want), 1e-8)

    # --- Scattering-matrix defining identity ------------------------------
    grid1 = model.build_grid(1, (1.0, 1.0), (1.1, 1.1))
    params1 = model.SystemParams(omega_c=1.05, material_freqs=(1.05,), g=0.2, sqrt_kappa=0.3)
    W4 = model.build_dynamical_matrix(grid1, params1)
    smat, _ = scattering.scattering_matrix(W4, 1e-3)
    add("scattering_identity", smat.residual, 1e-10)

    # --- Governing equation on a small grid -------------------------------
    _, Wg, jsa, theta_in = _small_model(n=6, g=0.1, sqrt_kappa=0.4)
    prop = scattering.propagate(theta_in, Wg, epsilon=1e-3)
    add("governing_identity_gap", prop.identity_gap, 1e-8)
    add("theta_out_hermiticity", prop.hermiticity_defect, 1e-8)

    # --- g = 0 leaves the JSI unchanged ------------------------------------
    grid0, W0, jsa0, theta0_in = _small_model(n=8, g=0.0, sqrt_kappa=0.4)
    prop0 = scattering.propagate(theta0_in, W0, epsilon=1e-3)
    j_in = states.jsi_of(jsa0).values
    j_out = states.jsi_of(scattering.extract_output_jsa(prop0.theta_out)).values
    add("g0_jsi_identity", np.abs(j_out - j_in).max(), 1e-8)

    # --- Assemble/extract round trip ---------------------------------------
    back = scattering.extract_output_jsa(theta0_in)
    add("extract_assemble_roundtrip", np.abs(back.values - jsa0.values).max(), 1e-12)

    # --- Observable calibrations -------------------------------------------
    grid_s = model.build_grid(8, (0.9, 1.5), (0.9, 1.5))
    sep = states.gaussian_jsa(grid_s, pump_center=2.4, sum_width=0.2, diff_width=0.2)
    add(
        "entropy_separable_zero",
        observables.von_neumann_entropy(observables.schmidt(sep)),
        1e-10,
    )
    n_eq = 6
    eq = observables.schmidt(np.eye(n_eq) / np.sqrt(n_eq))
    add(
        "entropy_equal_modes_ln_n",
        abs(observables.von_neumann_entropy(eq) - np.log(n_eq)),
        1e-10,
    )
    add("purity_identity", abs(observables.purity(np.eye(6)).mu - 1.0), 1e-12)

    # Single-mode purity against the Wigner-overlap quadrature.
    theta1 = np.array([[0.8, 0.25], [0.25, 0.9]], dtype=complex)
    mu = observables.purity(theta1).mu
    L = 6.0 * np.sqrt(np.max(np.linalg.eigvalsh(theta1).real))
    axis = np.linspace(-L, L, 161)
    grid_xp = np.stack(np.meshgrid(axis, axis, indexing="ij", copy=False), axis=-1)
    vals = observables.wigner(theta1, grid_xp) ** 2
    overlap = (4.0 * np.pi) * np.trapezoid(np.trapezoid(vals, axis, axis=1), axis)
    add("purity_wigner_overlap", abs(overlap - mu) / mu, 1e-4)

    # --- Determinant vs singular-value product ------------------------------
    Mrand = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)) + 2.0 * np.eye(6)
    sv = numkit.svd(Mrand)
    prod = float(np.prod(sv))
    add(
        "determinant_vs_svd_product",
        abs(abs(numkit.determinant(Mrand)) - prod) / prod,
        1e-8,
    )

    return ValidationReport(results=results, elapsed=time.monotonic() - t0)
