"""End-to-end acceptance suite.

Each test covers one acceptance criterion, prints a single PASS/FAIL line
with the measured numbers, and enforces both the stated tolerance and a
wall-clock budget.  Run with `pytest -s tests/test_acceptance.py` to see
the table.
"""

import os
import time

import numpy as np
import sympy as sp

from spinkin.config import config_from_dict
from spinkin.diagnostics import DiagnosticsSeries, fit_frequency
from spinkin.eulerian import (
    ExtendedDistribution,
    eulerian_step,
    quantum_term_increment,
    uniform_velocity_axis,
)
from spinkin.ensemble import WavefunctionEnsemble, averaged_equation_residual
from spinkin.fields import FieldState, bound_current
from spinkin.fluid import DensityFloorError, FluidState, step_fluid
from spinkin.gauge import (
    GaugeTransformSpec,
    gauge_transform_state,
    gi_correction_series,
    gi_wigner_transform,
    kinetic_wigner_transform,
)
from spinkin.grid import SpatialGrid1D
from spinkin.kinetic_residual import PHI, THETA, VX, X, full_equation_residual_hbar2
from spinkin.params import PlasmaParams
from spinkin.pauli import (
    ExternalPotentials,
    SpinorField,
    init_state,
    spin_orientation,
    step_pauli,
)
from spinkin.scenarios import run_case
from spinkin.sphere import SphereQuadrature
from spinkin.transforms import (
    DensityMatrixSpin,
    PhaseSpaceField,
    WaveFunction1D,
    marginals,
    spin_moments_and_reconstruct,
    spin_q_transform,
    wigner_transform,
)

PARAMS = PlasmaParams()


def _criterion(num, name, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _series(run_dir):
    return DiagnosticsSeries.read_csv(os.path.join(run_dir, "diagnostics.csv"))


def test_criterion_01_spin_round_trip():
    t0 = time.perf_counter()
    quad = SphereQuadrature(16, 32)
    rng = np.random.default_rng(5)
    worst_err, worst_min = 0.0, 0.0
    for _ in range(1000):
        vec = rng.normal(size=3)
        vec *= rng.random() / np.linalg.norm(vec)
        rho = DensityMatrixSpin.from_bloch(vec)
        f = spin_q_transform(rho, quad)
        worst_min = min(worst_min, float(f.values.min()))
        _, _, back = spin_moments_and_reconstruct(f)
        worst_err = max(worst_err, float(np.max(np.abs(back.rho - rho.rho))))
    dt = time.perf_counter() - t0
    ok = worst_err < 1e-12 and worst_min >= -1e-12 and dt < 5.0
    _criterion(1, "spin transform round trip", ok,
               f"max reconstruction err {worst_err:.2e} (tol 1e-12), "
               f"min Q {worst_min:.2e} (>= -1e-12), {dt:.1f}s (< 5s)")


def test_criterion_02_wigner_marginals():
    t0 = time.perf_counter()
    grid = SpatialGrid1D(256, 20.0)
    p_axis = 2 * np.pi / grid.length * np.arange(-grid.n // 2, grid.n // 2)
    phases = np.exp(-1j * np.outer(p_axis, grid.x))
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        x0 = rng.uniform(6, 14)
        p0 = rng.uniform(-2, 2)
        w = rng.uniform(0.6, 1.6)
        env = np.exp(-((grid.x - x0) ** 2) / (2 * w**2))
        if rng.random() < 0.4:
            env = env + np.exp(-((grid.x - x0 - 3) ** 2) / (2 * w**2))
        psi = WaveFunction1D(grid, env * np.exp(1j * p0 * grid.x)).normalized()
        f = wigner_transform(psi, PARAMS)
        (_, dens_x), (_, dens_p) = marginals(f)
        psit = grid.dx / np.sqrt(2 * np.pi) * phases @ psi.psi
        worst = max(worst,
                    float(np.max(np.abs(dens_x - np.abs(psi.psi) ** 2))),
                    float(np.max(np.abs(dens_p - np.abs(psit) ** 2))))
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and dt < 30.0
    _criterion(2, "Wigner marginals over 20-state corpus", ok,
               f"max marginal err {worst:.2e} (tol 1e-6), {dt:.1f}s (< 30s)")


def test_criterion_03_spin_precession(tmp_path):
    t0 = time.perf_counter()
    B0 = 1.0
    cfg = config_from_dict(dict(scenario="precession", B0=B0, n_particles=400,
                                n_x=16, dt=0.2, t_end=320.0))
    d, status = run_case(cfg, out_dir=str(tmp_path))
    s = _series(d)
    fit = fit_frequency(s, "sigma_x")
    target = 2 * PARAMS.mu_B * B0 / PARAMS.hbar
    rel = abs(fit.omega - target) / target
    dev = float(np.max(s.columns["spin_norm_dev"]))
    dt = time.perf_counter() - t0
    ok = (status == "completed" and fit.conclusive and rel < 1e-3
          and dev < 1e-12 and dt < 10.0)
    _criterion(3, "spin precession frequency", ok,
               f"rel freq err {rel:.2e} (tol 1e-3), max | |s|-1 | {dev:.1e} "
               f"(< 1e-12), {dt:.1f}s (< 10s)")


def test_criterion_04_plasma_oscillation(tmp_path):
    t0 = time.perf_counter()
    L = 10.0
    cfg = config_from_dict(dict(scenario="plasma_osc", n_x=128,
                                n_particles=100_000, length=L, dt=0.1,
                                t_end=56.0))
    d, _ = run_case(cfg, out_dir=str(tmp_path / "pic"))
    fit = fit_frequency(_series(d), "E_mode")
    rel_pic = abs(fit.omega - 1.0)          # omega_p = 1 in code units
    cfg_f = config_from_dict(dict(scenario="plasma_osc_fluid",
                                  n_x=64, length=L, dt=0.01, t_end=56.0,
                                  cadence=10))
    d2, _ = run_case(cfg_f, out_dir=str(tmp_path / "fluid"))
    fit2 = fit_frequency(_series(d2), "n_mode")
    k = 2 * np.pi / L
    target2 = 1.0 + PARAMS.hbar**2 * k**4 / (4 * PARAMS.mass**2)
    rel_fluid = abs(fit2.omega**2 - target2) / target2
    dt = time.perf_counter() - t0
    ok = (fit.conclusive and rel_pic < 0.01 and fit2.conclusive
          and rel_fluid < 0.02 and dt < 60.0)
    _criterion(4, "plasma oscillation dispersion", ok,
               f"PIC rel err {rel_pic:.2e} (tol 1e-2), fluid omega^2 rel err "
               f"{rel_fluid:.2e} (tol 2e-2), {dt:.1f}s (< 60s)")


def _periodized_scalar(grid, width):
    L = grid.length
    env = sum(np.exp(-((grid.x - L / 2 - L * j) ** 2) / (2 * width**2))
              for j in range(-3, 4))
    psi = np.zeros((2, grid.n), dtype=complex)
    psi[0] = env
    return SpinorField(grid, psi).normalized()


def test_criterion_05_madelung_equivalence():
    t0 = time.perf_counter()
    grid = SpatialGrid1D(128, 20.0)
    # free spreading against the wavefunction solution, run until the
    # density-floor guard rejects a step or the time budget ends
    pot = ExternalPotentials(grid)
    psi = init_state("gaussian", dict(x0=10.0, width=3.5), grid)
    st = FluidState(grid, psi.density(), np.zeros(grid.n))
    dtau, linf = 0.002, 0.0
    for _ in range(500):
        try:
            st = step_fluid(st, None, PARAMS, dtau, n_floor_rel=1e-4)
        except DensityFloorError:
            break
        psi = step_pauli(psi, pot, PARAMS, dtau)
        linf = max(linf, float(np.max(np.abs(st.n - psi.density()))))
    # convergence order of the pair under time refinement, with a weak
    # potential so the lower-order member dominates the discrepancy
    phi = 0.05 * np.cos(2 * np.pi * grid.x / grid.length)
    potw = ExternalPotentials(grid, phi=phi)
    dts = [0.008, 0.004, 0.002]
    errs = []
    for h in dts:
        psi = _periodized_scalar(grid, 5.0)
        stf = FluidState(grid, psi.density(), np.zeros(grid.n))
        for _ in range(round(1.0 / h)):
            psi = step_pauli(psi, potw, PARAMS, h)
            stf = step_fluid(stf, phi, PARAMS, h)
        errs.append(np.max(np.abs(stf.n - psi.density())))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    dt = time.perf_counter() - t0
    ok = linf < 1e-3 and abs(slope - 2.0) < 0.2 and dt < 60.0
    _criterion(5, "Madelung-Pauli equivalence", ok,
               f"free-spreading Linf {linf:.2e} (tol 1e-3), refinement order "
               f"{slope:.2f} (2.0 +/- 0.2), {dt:.1f}s (< 60s)")


def _ensemble_member(grid, x0, width, mode, theta0, phi0):
    L = grid.length
    env = sum(np.exp(-((grid.x - x0 - L * j) ** 2) / (2 * width**2))
              for j in range(-3, 4))
    carrier = np.exp(2j * np.pi * mode * grid.x / L)
    return SpinorField(grid, np.outer(spin_orientation(theta0, phi0),
                                      env * carrier)).normalized()


def test_criterion_06_averaged_fluid_residuals():
    t0 = time.perf_counter()
    grid = SpatialGrid1D(128, 20.0)
    pot = ExternalPotentials(
        grid,
        phi=0.05 * np.cos(2 * np.pi * grid.x / grid.length),
        B=np.array([np.zeros(grid.n), np.zeros(grid.n),
                    0.3 + 0.1 * np.cos(2 * np.pi * grid.x / grid.length)]))
    probs = [0.6, 0.4]

    def norms_at(cadence):
        members = [_ensemble_member(grid, 8.0, 3.0, 2, 1.0, 0.3),
                   _ensemble_member(grid, 12.0, 3.0, -2, 2.0, 1.5)]
        dt_fine = 5e-4
        traj, times = [], []
        cur = members
        for level in range(3):
            times.append(level * cadence)
            traj.append(WavefunctionEnsemble(cur, probs))
            if level < 2:
                for _ in range(round(cadence / dt_fine)):
                    cur = [step_pauli(m, pot, PARAMS, dt_fine) for m in cur]
        return averaged_equation_residual(times, traj, pot, PARAMS).max_norms()

    cads = [0.04, 0.02, 0.01]
    norms = [norms_at(c) for c in cads]
    slopes = {key: np.polyfit(np.log(cads),
                              np.log([n[key] for n in norms]), 1)[0]
              for key in ("continuity", "momentum", "spin")}
    dt = time.perf_counter() - t0
    ok = all(abs(s - 2.0) < 0.2 for s in slopes.values()) and dt < 120.0
    _criterion(6, "averaged fluid equation residuals", ok,
               "orders " + ", ".join(f"{k} {v:.2f}" for k, v in slopes.items())
               + f" (2.0 +/- 0.2), {dt:.1f}s (< 120s)")


F_TEST = (sp.exp(-X**2 - VX**2)
          * (1 + sp.Rational(1, 2) * sp.sin(THETA) * sp.cos(PHI)))


def test_criterion_07_semiclassical_truncation():
    t0 = time.perf_counter()
    hbars = [0.05, 0.1, 0.2, 0.4]
    uni = full_equation_residual_hbar2(
        F_TEST, sp.Integer(3), (0, 1, 2), (0, 0, 1), PARAMS, hbars)
    quad = full_equation_residual_hbar2(
        F_TEST, X**2 / 2, (0, 0, 0), (0, 0, 1), PARAMS, hbars)
    flat = max(float(np.max(uni.rhs_norm)), float(np.max(quad.rhs_norm)))
    quartic = full_equation_residual_hbar2(
        F_TEST, X**4, (0, 0, 0), (0, 0, 1), PARAMS, hbars)
    slope = quartic.slope()
    dt = time.perf_counter() - t0
    ok = flat <= 1e-12 and abs(slope - 2.0) < 0.1 and dt < 60.0
    _criterion(7, "hbar^2-truncated bracket residual", ok,
               f"uniform/quadratic residual {flat:.1e} (<= 1e-12), quartic "
               f"slope {slope:.2f} (2.0 +/- 0.1), {dt:.1f}s (< 60s)")


def test_criterion_08_gauge_invariance():
    t0 = time.perf_counter()
    grid = SpatialGrid1D(128, 16.0)
    v = np.linspace(-4, 4, 33)[:-1]
    psi = init_state("gaussian", dict(x0=8.0, width=1.2, p0=1.0,
                                      theta0=np.pi / 2), grid)
    A = np.zeros((3, grid.n))
    A[0] = 0.4 * np.sin(2 * np.pi * grid.x / grid.length)
    pot = ExternalPotentials(grid, A=A, coulomb_gauge=False)
    g = GaugeTransformSpec(grid, "single_mode", dict(amplitude=0.3, mode=2))
    psi2, pot2 = gauge_transform_state(psi, pot, g, PARAMS)
    gi_gap = float(np.max(np.abs(
        gi_wigner_transform(psi, A, PARAMS, v).values
        - gi_wigner_transform(psi2, pot2.A, PARAMS, v).values)))
    kin_gap = float(np.max(np.abs(
        kinetic_wigner_transform(psi, A, PARAMS, v).values
        - kinetic_wigner_transform(psi2, pot2.A, PARAMS, v).values)))
    # hbar^4 closure of the corrected series against the dressed transform
    grid2 = SpatialGrid1D(512, 16.0)
    A2 = np.zeros((3, grid2.n))
    A2[0] = 0.4 * np.sin(2 * np.pi * grid2.x / grid2.length)
    v2 = np.linspace(-4, 4, 129)[:-1]
    hbars = [0.4, 0.283, 0.2, 0.141, 0.1]
    cor = []
    for h in hbars:
        P = PlasmaParams(hbar=h)
        psi_h = init_state("gaussian", dict(x0=8.0, width=2 * h, p0=0.5 * h,
                                            theta0=np.pi / 2), grid2)
        fg = gi_wigner_transform(psi_h, A2, P, v2).values[:, :, 0, 0]
        fk = kinetic_wigner_transform(psi_h, A2, P, v2).values[:, :, 0, 0]
        pf = PhaseSpaceField(grid2.x, P.mass * v2, fk, P.mass)
        cor.append(np.max(np.abs(gi_correction_series(pf, A2[0], P).values - fg)))
    lh = np.log(hbars)
    slope = np.polyfit(lh[2:], np.log(cor[2:]), 1)[0]
    dt = time.perf_counter() - t0
    ok = (gi_gap < 1e-10 and kin_gap > 1e-3 and abs(slope - 4.0) < 0.2
          and dt < 60.0)
    _criterion(8, "gauge invariance of dressed transform", ok,
               f"dressed gap {gi_gap:.1e} (< 1e-10), undressed gap "
               f"{kin_gap:.1e} (> 1e-3), correction slope {slope:.2f} "
               f"(4.0 +/- 0.2), {dt:.1f}s (< 60s)")


def test_criterion_09_magnetization_current():
    t0 = time.perf_counter()
    grid = SpatialGrid1D(128, 2 * np.pi)
    quad = SphereQuadrature(8, 16)
    v = uniform_velocity_axis(16, 2.0)
    k, c_amp = 2.0, 0.6
    gv = np.exp(-(v**2) / (2 * 0.6**2))
    texture = c_amp * np.cos(k * grid.x)
    sphere = (1 + np.multiply.outer(texture, quad.s_hat[:, :, 2])) / (4 * np.pi)
    vals = gv[None, :, None, None] * sphere[:, None, :, :]
    f = ExtendedDistribution(grid, (v,), quad, vals)
    n, _, M = f.moments(PARAMS)
    # independent sphere quadrature of the factor-3 moment rule
    fv = np.tensordot(vals, np.full(len(v), v[1] - v[0]), axes=([1], [0]))
    M_quad = -3 * PARAMS.mu_B * np.array(
        [quad.integrate(fv * quad.s_hat[None, :, :, i]) for i in range(3)])
    rule_err = float(np.max(np.abs(M - M_quad)))
    M0 = -PARAMS.mu_B * n[0] * c_amp
    j = bound_current(M, grid)
    scale = abs(M0 * k)
    curl_err = float(np.max(np.abs(j[1] - M0 * k * np.sin(k * grid.x)))) / scale
    dt = time.perf_counter() - t0
    ok = curl_err < 1e-8 and rule_err < 1e-12 and dt < 10.0
    _criterion(9, "magnetization bound current", ok,
               f"curl rel err {curl_err:.1e} (< 1e-8), factor-3 rule gap "
               f"{rule_err:.1e} (< 1e-12), {dt:.1f}s (< 10s)")


def test_criterion_10_stern_gerlach(tmp_path):
    t0 = time.perf_counter()
    B1 = 0.1
    cfg = config_from_dict(dict(scenario="stern_gerlach", B0=0.0, B1=B1,
                                n_particles=1000, n_x=32, dt=0.02, t_end=2.0))
    d, _ = run_case(cfg, out_dir=str(tmp_path))
    s = _series(d)
    target = PARAMS.mu_B * B1 / PARAMS.mass
    up = np.polyfit(s.time, s.columns["v_up"], 1)[0]
    down = np.polyfit(s.time, s.columns["v_down"], 1)[0]
    rel = max(abs(up + target), abs(down - target)) / target
    dt = time.perf_counter() - t0
    ok = rel < 5e-3 and dt < 10.0
    _criterion(10, "Stern-Gerlach beam splitting", ok,
               f"acceleration rel err {rel:.2e} (tol 5e-3), {dt:.1f}s (< 10s)")


def test_criterion_11_quantum_spin_gradient_term():
    t0 = time.perf_counter()
    grid = SpatialGrid1D(32, 2 * np.pi)
    quad = SphereQuadrature(8, 16)
    v = uniform_velocity_axis(32, 3.0)
    fs = FieldState(grid)
    fs.B[2] = 0.5 + 0.2 * np.sin(grid.x)
    gx = sum(np.exp(-((grid.x - np.pi - 2 * np.pi * j) ** 2) / (2 * 0.8**2))
             for j in (-1, 0, 1))
    gv = np.exp(-(v**2) / (2 * 0.6**2))

    def make_f(spin_vec):
        sphere = np.full((quad.n_theta, quad.n_phi), 1 / (4 * np.pi))
        if spin_vec is not None:
            sphere = (1 + quad.s_hat @ np.asarray(spin_vec)) / (4 * np.pi)
        vals = gx[:, None, None, None] * gv[None, :, None, None] * sphere
        return ExtendedDistribution(grid, (v,), quad, vals)

    f = make_f([0.4, 0.2, 0.3])
    errs, dts = [], [0.02, 0.01]
    for h in dts:
        on = eulerian_step(f, fs, PARAMS, h, quantum_term=True)
        off = eulerian_step(f, fs, PARAMS, h, quantum_term=False)
        expected = quantum_term_increment(f, fs, PARAMS, h)
        errs.append(float(np.max(np.abs(on.values - off.values - expected))))
    scale = float(np.max(np.abs(quantum_term_increment(f, fs, PARAMS, dts[0]))))
    slope = np.log(errs[0] / errs[1]) / np.log(dts[0] / dts[1])
    f_iso = make_f(None)
    on = eulerian_step(f_iso, fs, PARAMS, 0.02, quantum_term=True)
    off = eulerian_step(f_iso, fs, PARAMS, 0.02, quantum_term=False)
    iso_gap = float(np.max(np.abs(on.values - off.values)))
    dt = time.perf_counter() - t0
    ok = (errs[0] < 0.1 * scale and slope > 1.5 and iso_gap < 1e-13
          and dt < 30.0)
    _criterion(11, "quantum spin-gradient term", ok,
               f"increment err/scale {errs[0] / scale:.2e}, remainder order "
               f"{slope:.2f} (> 1.5), isotropic gap {iso_gap:.1e} (< 1e-13), "
               f"{dt:.1f}s (< 30s)")
