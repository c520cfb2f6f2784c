import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from spinkin.fields import solve_poisson
from spinkin.fluid import (
    DensityFloorError,
    FluidState,
    fluid_rhs,
    step_fluid,
)
from spinkin.grid import SpatialGrid1D
from spinkin.params import PlasmaParams
from spinkin.pauli import ExternalPotentials, init_state, step_pauli

PARAMS = PlasmaParams(hbar=1.0)


def reference_rhs(st, phi, params):
    """The per-derivative right-hand side: one spectral derivative per term
    and, for "poisson", d phi/dx = -E_x from a solve_poisson call on the
    neutralised density."""
    grid = st.grid
    if isinstance(phi, str):
        rho_c = -params.charge * (st.n - np.mean(st.n))
        rho_c -= np.mean(rho_c)
        dphi = -solve_poisson(rho_c, grid, params)
    else:
        dphi = grid.derivative(np.zeros(grid.n) if phi is None else phi)
    sqrt_n = np.sqrt(st.n)
    bohm = (params.hbar**2 / (2 * params.mass**2)) * grid.derivative(
        grid.derivative(sqrt_n, order=2) / sqrt_n)
    dn = -grid.derivative(st.n * st.u)
    du = (-st.u * grid.derivative(st.u)
          + (params.charge / params.mass) * dphi + bohm)
    return dn, du


def smooth_periodic(rng, grid, n_modes, amplitude):
    """A random real field with modes 1..n_modes of total amplitude <= amplitude."""
    m = np.arange(1, n_modes + 1)[:, None]
    c = rng.uniform(-1, 1, (2, n_modes, 1)) * amplitude / (2 * n_modes)
    kx = 2 * np.pi * m * grid.x[None, :] / grid.length
    return np.sum(c[0] * np.cos(kx) + c[1] * np.sin(kx), axis=0)


class TestFusedStage:
    # n carries a Nyquist component, which d^2 sqrt(n)/dx^2 keeps.  Grids
    # stop at N = 32: from N = 48 both forms sit ~1e-12 from a long-double
    # evaluation of the third derivative and differ by up to 7e-13 of max |rhs|
    @settings(max_examples=30, deadline=None)
    @given(seed=hs.integers(0, 2**32 - 1), n=hs.sampled_from([16, 32]),
           coupling=hs.sampled_from(["none", "external", "poisson"]),
           mass=hs.floats(0.5, 2.0), charge=hs.floats(0.5, 2.0),
           hbar=hs.floats(0.3, 2.0), epsilon0=hs.floats(0.5, 2.0))
    def test_rhs_matches_per_derivative_reference(self, seed, n, coupling,
                                                   mass, charge, hbar, epsilon0):
        rng = np.random.default_rng(seed)
        grid = SpatialGrid1D(n, rng.uniform(5.0, 20.0))
        params = PlasmaParams(mass=mass, charge=charge, hbar=hbar,
                              epsilon0=epsilon0)
        nyquist = 1e-3 * rng.uniform(-1, 1) * (-1.0) ** np.arange(n)
        st = FluidState(grid, 1 + smooth_periodic(rng, grid, 4, 0.8) + nyquist,
                        smooth_periodic(rng, grid, 4, 1.0))
        phi = {"none": None, "poisson": "poisson",
               "external": smooth_periodic(rng, grid, 4, 1.0)}[coupling]
        for got, want in zip(fluid_rhs(st, phi, params),
                             reference_rhs(st, phi, params)):
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale

    def test_unknown_coupling_rejected(self):
        grid = SpatialGrid1D(16, 10.0)
        st = FluidState(grid, np.ones(grid.n), np.zeros(grid.n))
        with pytest.raises(ValueError, match="poisson"):
            step_fluid(st, "Poisson", PARAMS, 0.01)

    def test_one_spectrum_per_stage(self, monkeypatch):
        # four FFT calls per RK4 stage: the stacked rfft/irfft pair and the
        # pair for the outer derivative of the Bohm quotient
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            orig = getattr(np.fft, name)

            def counted(*args, _orig=orig, _name=name, **kwargs):
                calls.append(_name)
                return _orig(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        grid = SpatialGrid1D(64, 10.0)
        st = FluidState(grid, 1 + 1e-3 * np.cos(2 * np.pi * grid.x / grid.length),
                        np.zeros(grid.n))
        step_fluid(st, "poisson", PARAMS, 0.01)
        assert len(calls) <= 16, calls

    def test_floor_checked_in_later_stages(self):
        # min n / max n is 5.0e-3 in stage 1, above the floor; the flow out
        # of x = 0 brings the stage-2 density there to 2.6e-3 of its
        # maximum, still positive but below the floor
        grid = SpatialGrid1D(64, 10.0)
        kx = 2 * np.pi * grid.x / grid.length
        st = FluidState(grid, 1 - 0.99 * np.cos(kx), np.sin(kx))
        k1n, _ = fluid_rhs(st, None, PARAMS, n_floor_rel=4e-3)
        n2 = st.n + 0.5 * k1n
        assert 0 < n2.min() < 4e-3 * n2.max()
        with pytest.raises(DensityFloorError) as err:
            step_fluid(st, None, PARAMS, 1.0, n_floor_rel=4e-3)
        assert err.value.x_where == 0.0


class TestFluidRhs:
    def test_equilibrium_is_stationary(self):
        grid = SpatialGrid1D(64, 10.0)
        st = FluidState(grid, np.ones(grid.n), np.zeros(grid.n))
        dn, du = fluid_rhs(st, None, PARAMS)
        assert np.max(np.abs(dn)) == 0.0
        assert np.max(np.abs(du)) < 1e-14

    def test_linearized_bohm_restoring_force(self):
        # n = 1 + eps cos kx, u = 0: du/dt = (hbar^2 k^3 eps / 4 m^2) sin kx + O(eps^2)
        grid = SpatialGrid1D(128, 2 * np.pi)
        k, eps = 3.0, 1e-7
        st = FluidState(grid, 1 + eps * np.cos(k * grid.x), np.zeros(grid.n))
        _, du = fluid_rhs(st, None, PARAMS)
        expected = (PARAMS.hbar**2 * k**3 * eps / (4 * PARAMS.mass**2)) * np.sin(k * grid.x)
        # roundoff floor: third spectral derivative amplifies eps_mach by k_max^3
        assert np.max(np.abs(du - expected)) < 1e-10

    def test_rhs_matches_oracle_time_derivative(self):
        grid = SpatialGrid1D(128, 24.0)
        pot = ExternalPotentials(grid)
        psi = init_state("gaussian", dict(x0=12.0, width=3.0), grid)
        dt = 1e-3
        fwd = step_pauli(psi, pot, PARAMS, dt)
        dn_oracle = (fwd.density() - psi.density()) / dt
        st = FluidState(grid, psi.density(), np.zeros(grid.n))
        dn, _ = fluid_rhs(st, None, PARAMS)
        # u = 0 initially so dn/dt = 0; the oracle derivative is O(dt)
        assert np.max(np.abs(dn - dn_oracle)) < 1e-4


class TestStepFluid:
    def test_equilibrium_persists(self):
        grid = SpatialGrid1D(64, 10.0)
        st = FluidState(grid, np.ones(grid.n), np.zeros(grid.n))
        for _ in range(1000):
            st = step_fluid(st, None, PARAMS, 0.01)
        assert np.max(np.abs(st.n - 1.0)) < 1e-13
        assert np.max(np.abs(st.u)) < 1e-13

    def test_mass_conservation(self):
        grid = SpatialGrid1D(64, 10.0)
        st = FluidState(grid, 1 + 0.3 * np.cos(2 * np.pi * grid.x / grid.length),
                        0.1 * np.sin(2 * np.pi * grid.x / grid.length))
        m0 = st.mass()
        for _ in range(1000):
            st = step_fluid(st, None, PARAMS, 0.002)
        assert abs(st.mass() - m0) / m0 < 1e-12

    def test_linear_quantum_oscillation_frequency(self):
        # free quantum dispersion omega = hbar k^2 / 2m for a standing wave
        grid = SpatialGrid1D(64, 2 * np.pi)
        k, eps = 2.0, 1e-6
        omega = PARAMS.hbar * k**2 / (2 * PARAMS.mass)
        st = FluidState(grid, 1 + eps * np.cos(k * grid.x), np.zeros(grid.n))
        t_end = 2 * np.pi / omega
        steps = 2000
        for _ in range(steps):
            st = step_fluid(st, None, PARAMS, t_end / steps)
        # after one full period the perturbation recurs
        assert np.max(np.abs(st.n - (1 + eps * np.cos(k * grid.x)))) < 1e-3 * eps

    def test_free_gaussian_matches_wavefunction_oracle(self):
        grid = SpatialGrid1D(128, 20.0)
        pot = ExternalPotentials(grid)
        psi = init_state("gaussian", dict(x0=10.0, width=3.5), grid)
        st = FluidState(grid, psi.density(), np.zeros(grid.n))
        dt, steps = 0.002, 250
        for _ in range(steps):
            psi = step_pauli(psi, pot, PARAMS, dt)
            st = step_fluid(st, None, PARAMS, dt)
        assert np.max(np.abs(st.n - psi.density())) < 1e-3

    def test_classical_characteristics_small_hbar(self):
        params = PlasmaParams(hbar=1e-6)
        grid = SpatialGrid1D(256, 2 * np.pi)
        a, k = 0.2, 1.0
        st = FluidState(grid, np.ones(grid.n), a * np.sin(k * grid.x))
        t_end, steps = 1.0, 500
        for _ in range(steps):
            st = step_fluid(st, None, params, t_end / steps)
        # invert x = x0 + t a sin(k x0) by Newton iteration
        x0 = grid.x.copy()
        for _ in range(50):
            x0 -= (x0 + t_end * a * np.sin(k * x0) - grid.x) / (
                1 + t_end * a * k * np.cos(k * x0))
        u_exact = a * np.sin(k * x0)
        n_exact = 1.0 / (1 + t_end * a * k * np.cos(k * x0))
        assert np.max(np.abs(st.u - u_exact)) < 1e-6
        assert np.max(np.abs(st.n - n_exact)) < 1e-6

    def test_density_floor_rejection(self):
        grid = SpatialGrid1D(64, 10.0)
        n = 1e-12 + np.exp(-((grid.x - 5.0) ** 2))
        st = FluidState(grid, n / grid.integrate(n), np.zeros(grid.n))
        with pytest.raises(DensityFloorError) as err:
            step_fluid(st, None, PARAMS, 0.01, n_floor_rel=1e-3)
        assert hasattr(err.value, "x_where")

    def test_nan_density_rejected(self):
        grid = SpatialGrid1D(64, 10.0)
        n = np.ones(grid.n)
        n[7] = np.nan
        st = FluidState(grid, n, np.zeros(grid.n))
        with pytest.raises(DensityFloorError, match="density nan") as err:
            step_fluid(st, None, PARAMS, 0.01)
        assert err.value.x_where == grid.x[7]

