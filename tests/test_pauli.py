import numpy as np
import pytest

from spinkin.gauge import GaugeTransformSpec, gauge_transform_state
from spinkin.grid import SpatialGrid1D
from spinkin.params import PlasmaParams
from spinkin.pauli import (
    ExternalPotentials,
    SpinorField,
    energy,
    init_state,
    spin_orientation,
    spinor_observables,
    step_pauli,
)
from spinkin.transforms import SIGMA

PARAMS = PlasmaParams(hbar=1.0)


def uniform_b(grid, bvec):
    B = np.repeat(np.asarray(bvec, dtype=float)[:, None], grid.n, axis=1)
    return ExternalPotentials(grid, B=B)


def evolve(state, pot, params, dt, steps):
    for _ in range(steps):
        state = step_pauli(state, pot, params, dt)
    return state


class TestInitState:
    def test_gaussian_spin_up(self):
        grid = SpatialGrid1D(128, 20.0)
        st = init_state("gaussian", dict(x0=10.0), grid)
        assert np.max(np.abs(st.psi[1])) == 0.0
        assert abs(st.norm() - 1.0) < 1e-12

    def test_gaussian_spin_x(self):
        grid = SpatialGrid1D(128, 20.0)
        st = init_state("gaussian", dict(x0=10.0, theta0=np.pi / 2, phi0=0.0), grid)
        assert np.max(np.abs(st.psi[0] - st.psi[1])) < 1e-12

    def test_spin_orientation_matches_bloch_vector(self):
        rng = np.random.default_rng(5)
        from spinkin.transforms import SIGMA

        for _ in range(20):
            t0, p0 = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            chi = spin_orientation(t0, p0)
            bloch = np.einsum("i,aij,j->a", chi.conj(), SIGMA, chi).real
            expected = [np.sin(t0) * np.cos(p0), np.sin(t0) * np.sin(p0), np.cos(t0)]
            assert np.max(np.abs(bloch - expected)) < 1e-12

    def test_plane_wave_velocity(self):
        grid = SpatialGrid1D(128, 20.0)
        p0 = 2 * np.pi * 4 / grid.length
        st = init_state("plane_wave", dict(p0=p0, theta0=1.0, phi0=0.3), grid)
        _, v, _ = spinor_observables(st, ExternalPotentials(grid), PARAMS)
        assert np.nanmax(np.abs(v - p0)) < 1e-10

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            init_state("vortex", {}, SpatialGrid1D(64, 10.0))

    @pytest.mark.parametrize("family", ["gaussian", "plane_wave",
                                        "superposition"])
    @pytest.mark.parametrize("key", ["widht", "hbar"])
    def test_unknown_key_rejected(self, family, key):
        # a misspelled key would silently give the default
        with pytest.raises(ValueError, match=rf"'{family}'.*'{key}'"):
            init_state(family, {key: 2.0}, SpatialGrid1D(64, 10.0))

    def test_superposition_packets_carry_opposite_momenta(self):
        # p1 defaults to -p0: each half holds one packet, whose mean
        # wavenumber Im(psi* dpsi/dx) / |psi|^2 is its phase gradient
        grid = SpatialGrid1D(256, 20.0)
        st = init_state("superposition", dict(p0=1.0), grid)
        dpsi = np.fft.ifft(1j * grid.k * np.fft.fft(st.psi, axis=1), axis=1)
        current = np.sum(np.imag(st.psi.conj() * dpsi), axis=0)
        left = grid.x < grid.length / 2
        for half, k0 in ((left, 1.0), (~left, -1.0)):
            k_mean = np.sum(current[half]) / np.sum(st.density()[half])
            assert abs(k_mean - k0) < 1e-3


class TestStepPauli:
    def test_free_gaussian_dispersion(self):
        grid = SpatialGrid1D(512, 60.0)
        pot = ExternalPotentials(grid)
        st = init_state("gaussian", dict(x0=30.0, width=1.0), grid)
        final = evolve(st, pot, PARAMS, 0.005, 400)
        n = final.density()
        # |psi|^2 variance of exp(-x^2/w(t)^2) is w(t)^2/2 with w^2 = 1 + t^2
        var = grid.integrate(n * (grid.x - 30.0) ** 2)
        expected = 0.5 * (1 + 2.0**2)
        assert abs(var / expected - 1) < 1e-4

    def test_uniform_field_precession(self):
        grid = SpatialGrid1D(64, 20.0)
        B0 = 0.8
        pot = uniform_b(grid, [0, 0, B0])
        st = init_state("gaussian", dict(x0=10.0, theta0=np.pi / 2), grid)
        dt, steps = 0.002, 500
        s = st
        for i in range(steps):
            s = step_pauli(s, pot, PARAMS, dt)
        n, _, sp = spinor_observables(s, pot, PARAMS)
        sigma1 = grid.integrate(np.where(np.isnan(sp[0]), 0.0, 2 * sp[0] / PARAMS.hbar * n))
        assert abs(sigma1 - np.cos(2 * PARAMS.mu_B * B0 * steps * dt / PARAMS.hbar)) < 1e-6

    def test_constant_potential_is_global_phase(self):
        grid = SpatialGrid1D(128, 20.0)
        st = init_state("gaussian", dict(x0=10.0), grid)
        free = evolve(st, ExternalPotentials(grid), PARAMS, 0.01, 50)
        shifted = evolve(st, ExternalPotentials(grid, phi=np.full(grid.n, 0.7)),
                         PARAMS, 0.01, 50)
        assert np.max(np.abs(shifted.density() - free.density())) < 1e-13

    def test_cfl_guard(self):
        grid = SpatialGrid1D(256, 10.0)
        st = init_state("gaussian", dict(x0=5.0), grid)
        pot = ExternalPotentials(grid)
        for _ in range(2):      # no factors are kept for a rejected dt
            with pytest.raises(ValueError, match="dt too large"):
                step_pauli(st, pot, PARAMS, 10.0)

    def test_norm_and_energy_conservation_long_run(self):
        grid = SpatialGrid1D(128, 20.0)
        pot = ExternalPotentials(
            grid,
            phi=0.1 * np.cos(2 * np.pi * grid.x / grid.length),
            B=np.array([np.zeros(grid.n), np.zeros(grid.n),
                        0.5 + 0.1 * np.sin(2 * np.pi * grid.x / grid.length)]))
        st = init_state("gaussian", dict(x0=10.0, width=2.0, theta0=1.0), grid)
        e0 = energy(st, pot, PARAMS)
        s = evolve(st, pot, PARAMS, 0.002, 10_000)
        assert abs(s.norm() - 1.0) < 1e-10
        assert abs(energy(s, pot, PARAMS) - e0) / abs(e0) < 1e-8

    def test_second_order_convergence(self):
        grid = SpatialGrid1D(128, 20.0)
        pot = ExternalPotentials(
            grid,
            phi=0.3 * np.cos(2 * np.pi * grid.x / grid.length),
            B=np.array([np.zeros(grid.n), np.zeros(grid.n),
                        np.full(grid.n, 0.7) + 0.2 * np.cos(4 * np.pi * grid.x / grid.length)]))
        st = init_state("gaussian", dict(x0=10.0, width=1.5, theta0=1.2, phi0=0.4), grid)
        t_end = 0.8
        oracle = evolve(st, pot, PARAMS, t_end / (400 * 16), 400 * 16)
        errs = []
        dts = []
        for steps in (100, 200, 400):
            s = evolve(st, pot, PARAMS, t_end / steps, steps)
            errs.append(np.max(np.abs(s.psi - oracle.psi)))
            dts.append(t_end / steps)
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.1


def reference_half_step(psi, pot, params, dt_half):
    """Uncached reference: the potential half step, every factor rebuilt."""
    A = pot.A
    scalar = (-params.charge * pot.phi
              + params.charge**2 * (A[1] ** 2 + A[2] ** 2) / (2 * params.mass))
    b = params.mu_B * pot.B
    bmag = np.sqrt(np.sum(b * b, axis=0))
    angle = bmag * dt_half / params.hbar
    cos_a = np.cos(angle)
    sinc = np.where(bmag > 0, np.sin(angle) / np.where(bmag > 0, bmag, 1.0),
                    dt_half / params.hbar)
    phase = np.exp(-1j * scalar * dt_half / params.hbar)
    bs = np.einsum("ni,ijk->njk", b.T, SIGMA)
    new = (cos_a[:, None] * psi.T
           - 1j * sinc[:, None] * np.einsum("njk,kn->nj", bs, psi))
    return (phase[:, None] * new).T


def reference_step(psi, pot, params, dt):
    """Uncached reference: one Strang step, every factor rebuilt."""
    hbar, m, e = params.hbar, params.mass, params.charge
    half = reference_half_step(psi, pot, params, dt / 2)
    kin = np.exp(-1j * (hbar * pot.grid.k + e * pot.A[0, 0]) ** 2
                 / (2 * m * hbar) * dt)
    psi_k = np.fft.fft(half, axis=1) * kin[None, :]
    return reference_half_step(np.fft.ifft(psi_k, axis=1), pot, params, dt / 2)


def mixed_potentials(grid):
    """Nonzero phi, A_y, A_z, uniform A_x, and a B that is zero at nodes."""
    x = grid.x
    kx = 2 * np.pi * x / grid.length
    A = np.array([np.full(grid.n, 0.3), 0.2 * np.sin(kx), 0.1 * np.cos(2 * kx)])
    bz = np.where(np.abs(x - grid.length / 2) < grid.length / 8, 0.0, 0.6)
    B = np.array([np.zeros(grid.n), 0.5 * bz, bz + 0.1 * np.sin(kx) * (bz > 0)])
    return ExternalPotentials(grid, phi=0.2 * np.cos(kx), A=A, B=B)


class TestStepFactorCache:
    def setup_case(self):
        grid = SpatialGrid1D(128, 20.0)
        st = init_state("gaussian", dict(x0=10.0, width=1.5, p0=0.4,
                                         theta0=1.1, phi0=0.5), grid)
        return grid, st, mixed_potentials(grid)

    def test_steps_byte_identical_to_uncached_reference(self):
        grid, st, pot = self.setup_case()
        assert np.any(np.all(pot.B == 0, axis=0))       # the sinc branch
        params = PlasmaParams(hbar=0.8, mass=1.3)
        psi, ref = st, st.psi
        for _ in range(40):
            psi = step_pauli(psi, pot, params, 0.01)
            ref = reference_step(ref, pot, params, 0.01)
        assert psi.psi.tobytes() == ref.tobytes()

    def test_new_dt_or_params_give_fresh_factors(self):
        _, _, pot = self.setup_case()
        first = pot.step_factors(PARAMS, 0.01)
        assert pot.step_factors(PARAMS, 0.01) is first
        assert pot.step_factors(PlasmaParams(hbar=1.0), 0.01) is first
        other_dt = pot.step_factors(PARAMS, 0.005)
        assert other_dt is not first
        assert not np.array_equal(other_dt[1], first[1])
        other_params = pot.step_factors(PlasmaParams(mass=2.0), 0.005)
        assert not np.array_equal(other_params[1], other_dt[1])
        # one entry: going back to dt = 0.01 builds it again, equal values
        again = pot.step_factors(PARAMS, 0.01)
        assert again is not first
        assert again[1].tobytes() == first[1].tobytes()

    def test_potential_arrays_are_read_only(self):
        grid, _, pot = self.setup_case()
        for name in ("phi", "A", "B", "E"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(pot, name)[0] += 1.0

    def test_caller_array_is_copied(self):
        grid = SpatialGrid1D(64, 10.0)
        B = np.zeros((3, grid.n))
        pot = ExternalPotentials(grid, B=B)
        B[2] = 1.0
        assert not np.any(pot.B)
        assert B.flags.writeable

    def test_reassigned_B_matches_new_potentials(self):
        grid, st, pot = self.setup_case()
        step_pauli(st, pot, PARAMS, 0.01)
        B = pot.B.copy()
        B[0] = 0.4 * np.cos(2 * np.pi * grid.x / grid.length)
        pot.B = B
        fresh = ExternalPotentials(grid, phi=pot.phi, A=pot.A, B=B)
        a, b = st, st
        for _ in range(10):
            a = step_pauli(a, pot, PARAMS, 0.01)
            b = step_pauli(b, fresh, PARAMS, 0.01)
        assert a.psi.tobytes() == b.psi.tobytes()

    def test_non_uniform_A_x_rejected(self):
        grid, st, pot = self.setup_case()
        spec = GaugeTransformSpec(grid, "single_mode", dict(amplitude=0.3, mode=2))
        st_g, pot_g = gauge_transform_state(st, pot, spec, PARAMS)
        for _ in range(2):
            with pytest.raises(ValueError, match="uniform A_x"):
                step_pauli(st_g, pot_g, PARAMS, 0.01)
        # a uniform A_x outside the Coulomb-gauge flag still steps
        pot_u = ExternalPotentials(grid, A=pot.A, coulomb_gauge=False)
        step_pauli(st, pot_u, PARAMS, 0.01)

    def test_energy_rejects_non_uniform_A_x(self):
        # the kinetic operator takes one value of A_x, so a gauge-shifted
        # pair would read a different energy
        grid, st, pot = self.setup_case()
        spec = GaugeTransformSpec(grid, "single_mode", dict(amplitude=0.4, mode=3))
        st_g, pot_g = gauge_transform_state(st, pot, spec, PARAMS)
        with pytest.raises(ValueError, match="energy needs a uniform A_x"):
            energy(st_g, pot_g, PARAMS)
        energy(st, pot, PARAMS)

    def test_grid_mismatch_rejected(self):
        grid, st, _ = self.setup_case()
        with pytest.raises(ValueError, match="different grids"):
            step_pauli(st, ExternalPotentials(SpatialGrid1D(128, 30.0)), PARAMS, 0.01)


class TestObservables:
    def test_uniform_spin_up_state(self):
        grid = SpatialGrid1D(64, 10.0)
        st = SpinorField(grid, np.array([np.ones(grid.n, complex),
                                         np.zeros(grid.n, complex)])).normalized()
        _, _, s = spinor_observables(st, ExternalPotentials(grid), PARAMS)
        assert np.max(np.abs(s[0])) < 1e-14
        assert np.max(np.abs(s[1])) < 1e-14
        assert np.max(np.abs(s[2] - PARAMS.hbar / 2)) < 1e-14

    def test_density_normalization(self):
        grid = SpatialGrid1D(128, 20.0)
        st = init_state("superposition", dict(width=1.2, p0=1.0), grid)
        n, _, _ = spinor_observables(st, ExternalPotentials(grid), PARAMS)
        assert abs(grid.integrate(n) - 1.0) < 1e-12

    def test_spin_magnitude_where_unmasked(self):
        grid = SpatialGrid1D(128, 20.0)
        st = init_state("gaussian", dict(x0=10.0, theta0=0.7, phi0=2.0), grid)
        _, _, s = spinor_observables(st, ExternalPotentials(grid), PARAMS)
        mag = np.linalg.norm(s, axis=0)
        ok = ~np.isnan(mag)
        assert np.max(np.abs(mag[ok] / (PARAMS.hbar / 2) - 1)) < 1e-10

    def test_phase_gradient_velocity(self):
        grid = SpatialGrid1D(256, 30.0)
        p0 = 2 * np.pi * 8 / grid.length  # mode-commensurate, no wrap seam
        # periodized envelope (image sum) so the spectral current is clean
        env = sum(np.exp(-((grid.x - 15.0 - 30.0 * j) ** 2) / (2 * 4.0**2))
                  for j in (-2, -1, 0, 1, 2))
        st = SpinorField(grid, np.array([env * np.exp(1j * p0 * grid.x),
                                         np.zeros(grid.n)])).normalized()
        _, v, _ = spinor_observables(st, ExternalPotentials(grid), PARAMS)
        ok = ~np.isnan(v)
        assert np.max(np.abs(v[ok] - p0)) < 1e-10


def test_vector_potential_curl_consistency():
    grid = SpatialGrid1D(128, 2 * np.pi)
    A = np.array([np.zeros(grid.n), np.sin(grid.x), np.cos(grid.x)])
    pot = ExternalPotentials(grid, A=A)
    assert np.max(np.abs(pot.B[2] - np.cos(grid.x))) < 1e-12
    assert np.max(np.abs(pot.B[1] - np.sin(grid.x))) < 1e-12
    with pytest.raises(ValueError):
        ExternalPotentials(grid, A=np.array([grid.x, np.zeros(grid.n), np.zeros(grid.n)]))
