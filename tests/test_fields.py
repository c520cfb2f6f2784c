import numpy as np
import pytest

from spinkin.fields import (
    FieldState,
    bound_current,
    external_profiles,
    field_energy,
    gauss_residual,
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

    def test_nyquist_mode_dropped(self):
        grid = SpatialGrid1D(32, 10.0)
        rho_c = 0.5 * (-1.0) ** np.arange(grid.n)
        assert np.max(np.abs(solve_poisson(rho_c, grid, PARAMS))) == 0.0

    def test_field_has_zero_mean(self):
        grid = SpatialGrid1D(64, 10.0)
        rho_c = np.random.default_rng(3).normal(size=grid.n)
        rho_c -= np.mean(rho_c)
        assert abs(np.mean(solve_poisson(rho_c, grid, PARAMS))) < 1e-15


class TestFieldState:
    def test_zero_fields_at_nodes(self):
        grid = SpatialGrid1D(16, 10.0)
        fs = FieldState(grid)
        assert fs.E.shape == fs.B.shape == (3, grid.n)
        assert not np.any(fs.E) and not np.any(fs.B)
        assert fs.metadata == {}

    def test_instances_share_no_arrays(self):
        grid = SpatialGrid1D(16, 10.0)
        a, b = FieldState(grid), FieldState(grid)
        a.E[0] = 1.0
        a.B[2] = 2.0
        a.metadata["dB_nodes"] = np.ones((3, grid.n))
        assert not np.any(b.E) and not np.any(b.B)
        assert b.metadata == {}

    def test_db_nodes_spectral_without_overlay(self):
        grid = SpatialGrid1D(64, 2 * np.pi)
        fs = FieldState(grid)
        fs.B[1] = 0.4 * np.sin(2 * grid.x)
        fs.B[2] = 0.7 + 0.1 * np.cos(3 * grid.x)
        dB = fs.db_nodes()
        assert dB.shape == (3, grid.n)
        assert np.max(np.abs(dB[0])) == 0.0
        assert np.max(np.abs(dB[1] - 0.8 * np.cos(2 * grid.x))) < 1e-12
        assert np.max(np.abs(dB[2] + 0.3 * np.sin(3 * grid.x))) < 1e-12

    def test_db_nodes_reads_overlay_derivative(self):
        # the ramp is not periodic: its spectral derivative is far off B1
        grid = SpatialGrid1D(32, 10.0)
        fs = external_profiles("gradient_B", dict(B0=1.0, B1=0.2), grid)
        dB = fs.db_nodes()
        assert np.array_equal(dB[2], np.full(grid.n, 0.2))
        assert not np.any(dB[:2])
        assert np.max(np.abs(grid.derivative(fs.B[2]) - 0.2)) > 0.1


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
        jc = -(np.roll(M[2], -1) - np.roll(M[2], 1)) / (2 * grid.dx)
        assert np.max(np.abs(jc - j[1])) < M0 * k**3 * grid.dx**2


    def test_y_magnetization_gives_z_current(self):
        grid = SpatialGrid1D(64, 2 * np.pi)
        k, M0 = 3.0, 0.4
        M = np.zeros((3, grid.n))
        M[0] = 0.9  # M_x carries no 1D curl
        M[1] = M0 * np.cos(k * grid.x)
        j = bound_current(M, grid)
        assert np.max(np.abs(j[0])) == 0.0
        assert np.max(np.abs(j[1])) == 0.0
        assert np.max(np.abs(j[2] + M0 * k * np.sin(k * grid.x))) < 1e-12


class TestExternalProfiles:
    def test_uniform_b(self):
        grid = SpatialGrid1D(32, 10.0)
        fs = external_profiles("uniform_B", dict(B0=1.5), grid)
        assert np.max(np.abs(fs.B[2] - 1.5)) == 0.0

    def test_uniform_b_gradient_is_exactly_zero(self):
        # a spectral derivative of the constant reads ~1e-15 at n = 100
        fs = external_profiles("uniform_B", dict(B0=1.3),
                               SpatialGrid1D(100, 10.0))
        assert np.array_equal(fs.db_nodes(), np.zeros((3, 100)))

    def test_gradient_b(self):
        grid = SpatialGrid1D(32, 10.0)
        fs = external_profiles("gradient_B", dict(B0=1.0, B1=0.2), grid)
        assert np.max(np.abs(fs.B[2] - (1.0 + 0.2 * (grid.x - 5.0)))) < 1e-14

    def test_single_mode_e(self):
        grid = SpatialGrid1D(32, 2 * np.pi)
        fs = external_profiles("single_mode_E", dict(E0=0.4, k=2.0), grid)
        assert np.max(np.abs(fs.E[0] - 0.4 * np.sin(2 * grid.x))) < 1e-14

    def test_defaults(self):
        grid = SpatialGrid1D(32, 10.0)
        assert np.array_equal(external_profiles("uniform_B", {}, grid).B[2],
                              np.ones(grid.n))
        fs = external_profiles("single_mode_E", {}, grid)
        k = 2 * np.pi / grid.length
        assert np.max(np.abs(fs.E[0] - np.sin(k * grid.x))) < 1e-14

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


def test_field_energy_single_modes():
    # over one period, cos^2 and sin^2 average to 1/2
    grid = SpatialGrid1D(64, 2 * np.pi)
    fs = FieldState(grid)
    fs.E[1] = 0.5 * np.cos(grid.x)
    fs.B[2] = 0.3 * np.sin(grid.x)
    expected = (PARAMS.epsilon0 * 0.5**2 / 2 + 0.3**2 / (2 * PARAMS.mu0)) * np.pi
    assert abs(field_energy(fs, PARAMS) - expected) < 1e-13 * expected


def test_field_energy_uniform_fields():
    grid = SpatialGrid1D(16, 10.0)
    fs = FieldState(grid)
    fs.E[0] = 0.2
    fs.B[2] = 0.7
    expected = (PARAMS.epsilon0 * 0.2**2 / 2 + 0.7**2 / (2 * PARAMS.mu0)) * grid.length
    assert abs(field_energy(fs, PARAMS) - expected) < 1e-14 * expected
