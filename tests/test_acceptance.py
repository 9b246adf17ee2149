"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and reported quantities.  Criterion 8 audits the solver residuals
accumulated by the earlier criteria, so the module is meant to run in order
(it also performs its own full-size run, so selective invocation still
checks the hygiene gates on fresh data).
"""

import time

import numpy as np

from pairspec import (
    assemble_input_covariance,
    build_dynamical_matrix,
    build_grid,
    extract_output_jsa,
    gaussian_jsa,
    jsa_from_jsi,
    jsi_of,
    load_jsi,
    propagate,
    purity,
    save_jsi,
    schmidt,
    time_integrated_covariance,
    von_neumann_entropy,
    wigner,
)
from pairspec.model import SystemParams
from pairspec.observables import SchmidtSpectrum
from pairspec.oracle import quadrature_time_integral
from helpers import paper_system, small_system, trapezoid_2d, tv_distance

# Residuals and hermiticity defects accumulated across criteria for the
# criterion-8 audit.
_SYLVESTER_RESIDUALS = []
_HERMITICITY_DEFECTS = []


def _track(prop):
    _SYLVESTER_RESIDUALS.append(prop.lyapunov.residual_norm)
    _HERMITICITY_DEFECTS.append(prop.hermiticity_defect)
    return prop


def _report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _random_stable_instance(rng, d, freq_scale=0.3):
    H = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    W = -1j * freq_scale * (H + H.conj().T) / 2.0
    C = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    theta = C @ C.conj().T / d + 0.5 * np.eye(d)
    return W, theta


def test_criterion_1_oracle_equivalence():
    # >= 20 randomized d <= 12 instances at eps in {1e-2, 1e-3}:
    # algebraic all-time integral vs trapezoid quadrature to < 1e-5.
    rng = np.random.default_rng(20250809)
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for k in range(10):
        for eps in (1e-2, 1e-3):
            if k < 7:
                d = int(rng.integers(4, 13))
                W, theta = _random_stable_instance(rng, d)
            else:
                n = int(rng.integers(2, 5))
                g = float(rng.uniform(0.05, 0.25))
                _, _, Wdm, _, theta_cov = small_system(n=n, g=g, sqrt_kappa=0.0)
                W, theta = Wdm.matrix, theta_cov.matrix
            X, rep = time_integrated_covariance(W, theta, eps)
            _SYLVESTER_RESIDUALS.append(rep.residual_norm)
            A = W - eps * np.eye(W.shape[0])
            margin = -float(np.max(np.linalg.eigvals(A).real))
            t_max = 16.0 / (2.0 * margin)
            # Absolute trapezoid error is eps-independent while ||X|| grows
            # as 1/eps, so the coarse step is safe only at the smaller eps.
            dt = 0.03 if eps >= 5e-3 else 0.06
            quad = quadrature_time_integral(A, theta, t_max, dt)
            rel = np.linalg.norm(quad.value - X) / np.linalg.norm(X)
            worst = max(worst, rel)
            count += 1
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst < 1e-5 and elapsed < 30.0 and count >= 20,
        f"{count} instances, worst rel error {worst:.2e} (tol 1e-5), "
        f"runtime {elapsed:.1f} s (budget 30 s)",
    )


def test_criterion_2_governing_equation_identity():
    # Full vs algebraically reduced output map on toys and an n = 16 grid.
    gaps = []
    for n, g, sk in ((4, 0.1, 0.3), (5, 0.25, 0.0), (6, 0.05, 0.6)):
        _, _, W, _, theta = small_system(n=n, g=g, sqrt_kappa=sk)
        prop = _track(propagate(theta, W, epsilon=1e-3))
        gaps.append(prop.identity_gap)
    _, _, W16, _, theta16 = paper_system(n=16, g=0.5, sqrt_kappa=488.0)
    prop16 = _track(propagate(theta16, W16, epsilon=1e-3))
    gaps.append(prop16.identity_gap)
    worst = max(gaps)
    _report(2, worst < 1e-8, f"worst verbatim/reduced gap {worst:.2e} (tol 1e-8, incl n=16)")


def test_criterion_3_g0_identity():
    # g = 0 leaves the normalized JSI unchanged elementwise, for both the
    # Gaussian input and a file-loaded input, under 5 s at n = 64.
    t0 = time.perf_counter()
    grid, params, W, jsa, theta = paper_system(n=64, g=0.0, sqrt_kappa=488.0)
    prop = _track(propagate(theta, W, epsilon=1e-3))
    j_in = jsi_of(jsa).values
    j_out = jsi_of(extract_output_jsa(prop.theta_out)).values
    gauss_err = float(np.abs(j_out - j_in).max())

    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.csv")
        save_jsi(jsi_of(jsa), path)
        jsi_file = load_jsi(path)
    jsa_file = jsa_from_jsi(jsi_file)
    theta_file = assemble_input_covariance(jsa_file, params.n_material)
    W_file = build_dynamical_matrix(jsi_file.grid, params)
    prop_f = _track(propagate(theta_file, W_file, epsilon=1e-3))
    j_in_f = jsi_of(jsa_file).values
    j_out_f = jsi_of(extract_output_jsa(prop_f.theta_out)).values
    file_err = float(np.abs(j_out_f - j_in_f).max())
    elapsed = time.perf_counter() - t0
    _report(
        3,
        gauss_err < 1e-8 and file_err < 1e-8 and elapsed < 5.0,
        f"max elementwise JSI deviation: gaussian {gauss_err:.2e}, file {file_err:.2e} "
        f"(tol 1e-8), runtime {elapsed:.1f} s (budget 5 s)",
    )


def test_criterion_4_fig3_near_invariance():
    # omega_c = Omega = 1809 meV, sqrt_kappa = 488 meV, Gaussian peak at
    # (1790, 1819): peak moves <= 2 cells, TV distance < 0.15.
    grid, params, W, jsa, theta = paper_system(n=64, g=0.5, sqrt_kappa=488.0, omega_c=1809.0)
    prop = _track(propagate(theta, W, epsilon=1e-3))
    j_in = jsi_of(jsa).values
    j_out = jsi_of(extract_output_jsa(prop.theta_out)).values
    am_in = np.array(np.unravel_index(j_in.argmax(), j_in.shape))
    am_out = np.array(np.unravel_index(j_out.argmax(), j_out.shape))
    shift = int(np.abs(am_out - am_in).max())
    tv = tv_distance(j_in, j_out)
    _report(
        4,
        shift <= 2 and tv < 0.15,
        f"argmax shift {shift} cells (tol 2), TV distance {tv:.4f} (tol 0.15)",
    )


def _trend_run(n, g, sqrt_kappa, m_count, omega_c):
    grid = build_grid(n, (1740.0, 1860.0), (1740.0, 1860.0))
    params = SystemParams(
        omega_c=omega_c,
        material_freqs=(omega_c,) * m_count,
        g=g,
        sqrt_kappa=sqrt_kappa,
    )
    W = build_dynamical_matrix(grid, params)
    jsa = gaussian_jsa(grid, 3609.0, sum_width=8.0, diff_width=30.0, diff_offset=-29.0)
    theta = assemble_input_covariance(jsa, m_count)
    prop = _track(propagate(theta, W, epsilon=1e-3))
    jsa_out = extract_output_jsa(prop.theta_out)
    return grid, jsa, jsa_out


def test_criterion_5_fig4_trends():
    # Cavity resonant at the idler peak (1819 meV); sweeping sqrt_kappa up
    # must walk the idler centroid toward omega_c and strictly grow the JSI
    # mass in the disk of radius 3*dw around (omega_c, omega_c).
    omega_c = 1819.0
    n = 48
    ladder = (150.0, 200.0, 250.0, 300.0)
    grid = build_grid(n, (1740.0, 1860.0), (1740.0, 1860.0))
    dw = grid.signal_spacing
    S, I = np.meshgrid(grid.signal, grid.idler, indexing="ij")
    disk = (S - omega_c) ** 2 + (I - omega_c) ** 2 <= (3 * dw) ** 2

    def idler_centroid(j):
        p = j / j.sum()
        return float(p.sum(axis=0) @ grid.idler)

    def disk_mass(j):
        return float((j / j.sum())[disk].sum())

    jsa_in = gaussian_jsa(grid, 3609.0, sum_width=8.0, diff_width=30.0, diff_offset=-29.0)
    j_in = jsi_of(jsa_in).values
    mass_in = disk_mass(j_in)

    distances = []
    masses = []
    for sk in ladder:
        _, _, jsa_out = _trend_run(n, g=0.3, sqrt_kappa=sk, m_count=1, omega_c=omega_c)
        j_out = jsi_of(jsa_out).values
        distances.append(abs(idler_centroid(j_out) - omega_c))
        masses.append(disk_mass(j_out))

    monotone_approach = all(d2 < d1 for d1, d2 in zip(distances, distances[1:]))
    mass_increasing = all(m2 > m1 for m1, m2 in zip(masses, masses[1:]))
    above_input = all(m > mass_in for m in masses)
    _report(
        5,
        monotone_approach and mass_increasing and above_input,
        "idler-centroid distance to omega_c "
        + " > ".join(f"{d:.3f}" for d in distances)
        + f"; disk mass {', '.join(f'{m:.3e}' for m in masses)} vs input {mass_in:.3e}",
    )


def test_criterion_6_fig6_entropy_trends():
    # Monomer and dimer entropies vs sqrt_kappa: nonincreasing over the
    # low-to-mid ladder with dimer at or below monomer; a discrete-difference
    # sign change (revival) exists in the extended sweep.
    omega_c = 1819.0
    n = 48
    low_mid = (60.0, 100.0, 150.0, 200.0)
    extended = (60.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0, 500.0)

    entropies = {1: [], 2: []}
    for sk in extended:
        for m in (1, 2):
            _, _, jsa_out = _trend_run(n, g=0.2, sqrt_kappa=sk, m_count=m, omega_c=omega_c)
            entropies[m].append(von_neumann_entropy(schmidt(jsa_out)))

    k_low = len(low_mid)
    mono_low = entropies[1][:k_low]
    dimer_low = entropies[2][:k_low]
    mono_nonincreasing = all(b <= a for a, b in zip(mono_low, mono_low[1:]))
    dimer_nonincreasing = all(b <= a for a, b in zip(dimer_low, dimer_low[1:]))
    dimer_below = all(d <= m for d, m in zip(dimer_low, mono_low))

    diffs = np.diff(entropies[1])
    revival_idx = None
    for i in range(1, len(diffs)):
        if diffs[i - 1] < 0 and diffs[i] > 0:
            revival_idx = i
            break
    revival_at = extended[revival_idx + 1] if revival_idx is not None else None

    _report(
        6,
        mono_nonincreasing and dimer_nonincreasing and dimer_below and revival_idx is not None,
        f"monomer {['%.4f' % s for s in entropies[1]]}, "
        f"dimer(low-mid) {['%.4f' % s for s in dimer_low]}; "
        f"entropy revival first rises at sqrt_kappa ~ {revival_at} meV",
    )


def test_criterion_7_observable_calibrations():
    grid = build_grid(16, (1740.0, 1860.0), (1740.0, 1860.0))
    separable = gaussian_jsa(grid, 3600.0, sum_width=15.0, diff_width=15.0)
    s_sep = von_neumann_entropy(schmidt(separable))

    n_eq = 9
    s_eq = von_neumann_entropy(schmidt(np.eye(n_eq, dtype=complex)))
    eq_err = abs(s_eq - np.log(n_eq))

    mu_eye = purity(np.eye(10)).mu

    theta1 = np.array([[0.85, 0.3], [0.3, 1.05]], dtype=complex)
    mu = purity(theta1).mu
    axis = np.linspace(-7.0, 7.0, 181)
    grid_vals = np.array(
        [[wigner(theta1, np.array([x, p])) ** 2 for p in axis] for x in axis]
    )
    overlap = 4.0 * np.pi * trapezoid_2d(grid_vals, axis)
    overlap_err = abs(overlap - mu)

    _report(
        7,
        s_sep < 1e-10 and eq_err < 1e-10 and mu_eye == 1.0 and overlap_err < 1e-4,
        f"separable entropy {s_sep:.1e} (tol 1e-10), |S - ln n| {eq_err:.1e} (tol 1e-10), "
        f"purity(I) = {mu_eye}, Wigner-overlap mismatch {overlap_err:.1e} (tol 1e-4)",
    )


def test_criterion_8_numerical_hygiene():
    # Residuals and hermiticity accumulated above, plus a timed fresh run of
    # the full n = 64 pipeline.
    t0 = time.perf_counter()
    grid, params, W, jsa, theta = paper_system(n=64, g=0.5, sqrt_kappa=488.0)
    prop = _track(propagate(theta, W, epsilon=1e-3))
    jsa_out = extract_output_jsa(prop.theta_out)
    jsi_out = jsi_of(jsa_out)
    entropy = von_neumann_entropy(schmidt(jsa_out))
    mu = purity(prop.theta_out)
    elapsed = time.perf_counter() - t0

    worst_res = max(_SYLVESTER_RESIDUALS)
    worst_herm = max(_HERMITICITY_DEFECTS)
    _report(
        8,
        worst_res < 1e-8 and worst_herm < 1e-8 and elapsed < 10.0,
        f"{len(_SYLVESTER_RESIDUALS)} Sylvester solves, worst residual {worst_res:.2e} "
        f"(tol 1e-8); worst Theta_out hermiticity {worst_herm:.2e} (tol 1e-8); "
        f"n=64 pipeline {elapsed:.2f} s (budget 10 s; entropy {entropy:.4f}, "
        f"purity log|det| {mu.log_abs_det:.1f})",
    )
