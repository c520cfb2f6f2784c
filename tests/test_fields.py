import numpy as np
import pytest

from spinkin.fields import (
    FieldState,
    bound_current,
    external_profiles,
    field_energy,
    gauss_residual,
    maxwell_step,
    solve_poisson,
)
from spinkin.grid import SpatialGrid1D
from spinkin.params import PlasmaParams

PARAMS = PlasmaParams()


class TestPoisson:
    def test_single_mode(self):
        grid = SpatialGrid1D(128, 2 * np.pi)
        k, amp, e = 3.0, 0.2, PARAMS.charge
        delta_n = amp * np.cos(k * grid.x)
        E_x = solve_poisson(-e * delta_n, grid, PARAMS)
        assert np.max(np.abs(E_x - (-e * amp / (PARAMS.epsilon0 * k)) * np.sin(k * grid.x))) < 1e-13

    def test_neutral_uniform_gives_zero(self):
        grid = SpatialGrid1D(64, 10.0)
        E_x = solve_poisson(np.zeros(grid.n), grid, PARAMS)
        assert np.max(np.abs(E_x)) == 0.0

    def test_linearity(self):
        grid = SpatialGrid1D(128, 2 * np.pi)
        r1 = 0.3 * np.cos(2 * grid.x)
        r2 = -0.1 * np.sin(5 * grid.x)
        e12 = solve_poisson(r1 + r2, grid, PARAMS)
        e1 = solve_poisson(r1, grid, PARAMS)
        e2 = solve_poisson(r2, grid, PARAMS)
        assert np.max(np.abs(e12 - e1 - e2)) < 1e-13

    def test_one_fft_pair(self, monkeypatch):
        calls = []
        for name in ("fft", "ifft"):
            orig = getattr(np.fft, name)

            def counted(*args, _orig=orig, _name=name, **kwargs):
                calls.append(_name)
                return _orig(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        grid = SpatialGrid1D(64, 10.0)
        solve_poisson(np.cos(2 * np.pi * grid.x / grid.length), grid, PARAMS)
        assert calls == ["fft", "ifft"]

    def test_non_neutral_rejected(self):
        grid = SpatialGrid1D(64, 10.0)
        with pytest.raises(ValueError):
            solve_poisson(np.full(grid.n, 0.1), grid, PARAMS)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_source_rejected(self, bad):
        grid = SpatialGrid1D(64, 10.0)
        rho_c = np.cos(2 * np.pi * grid.x / grid.length)
        rho_c[5] = bad
        with pytest.raises(ValueError, match=f"not finite.*{bad}"):
            solve_poisson(rho_c, grid, PARAMS)


class TestMaxwellStep:
    def test_static_uniform_fields_unchanged(self):
        grid = SpatialGrid1D(64, 10.0)
        fs = FieldState(grid)
        fs.E[0] = 0.3
        fs.B[2] = 0.7
        out = maxwell_step(fs, np.zeros((3, grid.n)), np.zeros((3, grid.n)),
                           PARAMS, 0.05)
        assert np.max(np.abs(out.E - fs.E)) == 0.0
        assert np.max(np.abs(out.B - fs.B)) == 0.0

    def test_cfl_rejected(self):
        grid = SpatialGrid1D(64, 10.0)
        with pytest.raises(ValueError):
            maxwell_step(FieldState(grid), np.zeros((3, grid.n)),
                         np.zeros((3, grid.n)), PARAMS, 10.0)

    def test_vacuum_wave_phase_velocity_and_amplitude(self):
        # eigenvalues of the one-step map restricted to one mode give the
        # scheme's numerical frequency free of mode-admixture noise
        grid = SpatialGrid1D(64, 2 * np.pi)   # 64 points per wavelength
        k = 1.0
        dt = 0.9 * grid.dx / PARAMS.c
        zero = np.zeros((3, grid.n))
        mode = round(k * grid.length / (2 * np.pi))
        half_phase = np.exp(-1j * k * grid.dx / 2)

        def coeffs(fs):
            e = np.fft.fft(fs.E[1])[mode] * 2 / grid.n
            b = np.fft.fft(fs.B[2])[mode] * half_phase * 2 / grid.n
            return np.array([e, b])

        cols = []
        for component in ("E", "B"):
            fs = FieldState(grid)
            if component == "E":
                fs.E[1] = np.cos(k * grid.x)
            else:
                fs.B[2] = np.cos(k * (grid.x + grid.dx / 2))
            cols.append(coeffs(maxwell_step(fs, zero, zero, PARAMS, dt)))
        step_map = np.array(cols).T
        lam = np.linalg.eigvals(step_map)
        omega = np.max(np.abs(np.angle(lam))) / dt
        assert abs(omega / k - PARAMS.c) / PARAMS.c < 1e-4
        assert np.max(np.abs(np.abs(lam) - 1.0)) < 1e-12  # no dissipation

    def test_driven_magnetization_response(self):
        # M_z = M0 cos(kx) sin(wt) from rest: closed-form driven + transient
        grid = SpatialGrid1D(256, 2 * np.pi)
        k, M0, omega = 1.0, 1.0, 0.5
        c, eps0 = PARAMS.c, PARAMS.epsilon0
        A = M0 * k * omega / (eps0 * (omega**2 - (c * k) ** 2))
        fs = FieldState(grid)
        dt, steps = 0.02, 100
        for i in range(steps):
            t_mid = (i + 0.5) * dt
            M = np.zeros((3, grid.n))
            M[2] = M0 * np.cos(k * grid.x) * np.sin(omega * t_mid)
            fs = maxwell_step(fs, np.zeros((3, grid.n)), M, PARAMS, dt)
        t = steps * dt
        E_exact = A * np.sin(k * grid.x) * (np.cos(omega * t) - np.cos(c * k * t))
        x_half = grid.x + grid.dx / 2
        B_exact = -A * k * np.cos(k * x_half) * (np.sin(omega * t) / omega
                                                 - np.sin(c * k * t) / (c * k))
        assert np.max(np.abs(fs.E[1] - E_exact)) < 1e-4
        assert np.max(np.abs(fs.B[2] - B_exact)) < 1e-4

    def test_energy_exchange_bookkeeping(self):
        grid = SpatialGrid1D(128, 2 * np.pi)
        fs = FieldState(grid)
        fs.E[1] = 0.5 * np.cos(grid.x)
        fs.B[2] = 0.5 * np.cos(grid.x + grid.dx / 2)
        j = np.zeros((3, grid.n))
        j[1] = 0.3 * np.cos(2 * grid.x)
        dt = 0.1 * grid.dx
        work = 0.0
        u0 = field_energy(fs, PARAMS)
        cur = fs
        for _ in range(50):
            before = cur.E.copy()
            cur = maxwell_step(cur, j, np.zeros((3, grid.n)), PARAMS, dt)
            work += grid.integrate(np.sum(j * (before + cur.E) / 2, axis=0)) * dt
        du = field_energy(cur, PARAMS) - u0
        assert abs(du + work) < 1e-4 * max(abs(du), abs(work))

    def test_linearity_of_step(self):
        grid = SpatialGrid1D(64, 2 * np.pi)
        rng = np.random.default_rng(4)
        f1, f2 = FieldState(grid), FieldState(grid)
        f1.E[1] = np.cos(grid.x)
        f2.B[2] = np.sin(2 * grid.x)
        j1 = rng.normal(size=(3, grid.n)) * 0
        j1[1] = np.cos(3 * grid.x)
        zero = np.zeros((3, grid.n))
        dt = 0.5 * grid.dx
        fsum = FieldState(grid, f1.E + f2.E, f1.B + f2.B)
        a = maxwell_step(f1, j1, zero, PARAMS, dt)
        b = maxwell_step(f2, zero, zero, PARAMS, dt)
        ab = maxwell_step(fsum, j1, zero, PARAMS, dt)
        assert np.max(np.abs(ab.E - a.E - b.E)) < 1e-13
        assert np.max(np.abs(ab.B - a.B - b.B)) < 1e-13


class TestBoundCurrent:
    def test_uniform_magnetization_no_current(self):
        grid = SpatialGrid1D(64, 10.0)
        M = np.zeros((3, grid.n))
        M[2] = 0.8
        assert np.max(np.abs(bound_current(M, grid))) < 1e-12

    def test_single_mode_curl(self):
        grid = SpatialGrid1D(128, 2 * np.pi)
        k, M0 = 2.0, 0.6
        M = np.zeros((3, grid.n))
        M[2] = M0 * np.cos(k * grid.x)
        j = bound_current(M, grid)
        assert np.max(np.abs(j[1] - M0 * k * np.sin(k * grid.x))) < 1e-8
        # centered-difference cross-check carries O(dx^2) error
        jc = bound_current(M, grid, "centered")
        assert np.max(np.abs(jc[1] - j[1])) < M0 * k**3 * grid.dx**2
        with pytest.raises(ValueError):
            bound_current(M, grid, "upwind")


class TestExternalProfiles:
    def test_uniform_b(self):
        grid = SpatialGrid1D(32, 10.0)
        fs = external_profiles("uniform_B", dict(B0=1.5), grid)
        assert np.max(np.abs(fs.B[2] - 1.5)) == 0.0
        assert np.max(np.abs(fs.b_nodes() - fs.B)) == 0.0

    def test_uniform_b_gradient_is_exactly_zero(self):
        # a spectral derivative of the constant reads ~1e-15 at n = 100
        fs = external_profiles("uniform_B", dict(B0=1.3),
                               SpatialGrid1D(100, 10.0))
        assert np.array_equal(fs.db_nodes(), np.zeros((3, 100)))

    def test_gradient_b(self):
        grid = SpatialGrid1D(32, 10.0)
        fs = external_profiles("gradient_B", dict(B0=1.0, B1=0.2), grid)
        assert np.max(np.abs(fs.B[2] - (1.0 + 0.2 * (grid.x - 5.0)))) < 1e-14
        assert "note" in fs.metadata

    def test_single_mode_e(self):
        grid = SpatialGrid1D(32, 2 * np.pi)
        fs = external_profiles("single_mode_E", dict(E0=0.4, k=2.0), grid)
        assert np.max(np.abs(fs.E[0] - 0.4 * np.sin(2 * grid.x))) < 1e-14

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            external_profiles("helical_B", {}, SpatialGrid1D(32, 10.0))
        with pytest.raises(ValueError):
            external_profiles("uniform_B", dict(B9=1.0), SpatialGrid1D(32, 10.0))


def test_gauss_residual_diagnostic():
    grid = SpatialGrid1D(128, 2 * np.pi)
    rho = 0.3 * np.cos(2 * grid.x)
    E_x = solve_poisson(rho, grid, PARAMS)
    fs = FieldState(grid)
    fs.E[0] = E_x
    assert gauss_residual(fs, rho, PARAMS) < 1e-12
    fs.E[0] = E_x * 1.01
    assert gauss_residual(fs, rho, PARAMS) > 1e-3
