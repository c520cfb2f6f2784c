import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from spinkin import gauge
from spinkin.gauge import (
    GaugeTransformSpec,
    _tau_average,
    _unit_phase,
    gauge_transform_state,
    gi_correction_series,
    gi_wigner_transform,
    kinetic_wigner_transform,
    line_integral_dressing,
)
from spinkin.grid import SpatialGrid1D
from spinkin.params import PlasmaParams
from spinkin.pauli import (
    ExternalPotentials,
    SpinorField,
    init_state,
    spin_orientation,
)
from spinkin.sphere import SphereQuadrature
from spinkin.transforms import (
    SIGMA,
    PhaseSpaceField,
    WaveFunction1D,
    phase_space_correlation,
    spin_q_transform,
)

PARAMS = PlasmaParams()


def momentum_expectation(psi, params):
    k = psi.grid.k
    total = 0.0
    for a in range(2):
        pk = np.fft.fft(psi.psi[a])
        total += np.sum(params.hbar * k * np.abs(pk) ** 2)
    return total / sum(np.sum(np.abs(np.fft.fft(psi.psi[a])) ** 2)
                       for a in range(2))


class TestGaugeTransformState:
    def setup_pair(self):
        grid = SpatialGrid1D(128, 16.0)
        psi = init_state("gaussian", dict(x0=8.0, width=1.5, p0=0.5,
                                          theta0=0.7, phi0=0.3), grid)
        pot = ExternalPotentials(grid)
        return grid, psi, pot

    def test_constant_gauge_leaves_observables(self):
        grid, psi, pot = self.setup_pair()
        g = GaugeTransformSpec(grid, "constant", dict(value=2.3))
        psi2, pot2 = gauge_transform_state(psi, pot, g, PARAMS)
        assert np.max(np.abs(psi2.density() - psi.density())) < 1e-13
        assert abs(momentum_expectation(psi2, PARAMS)
                   - momentum_expectation(psi, PARAMS)) < 1e-13
        assert np.max(np.abs(pot2.A - pot.A)) < 1e-14

    def test_linear_gauge_shifts_canonical_momentum(self):
        grid, psi, pot = self.setup_pair()
        alpha = 2 * np.pi * 4 / grid.length       # commensurate slope
        g = GaugeTransformSpec(grid, "linear", dict(alpha=alpha))
        psi2, pot2 = gauge_transform_state(psi, pot, g, PARAMS)
        offset = g.metadata["momentum_offset"]
        assert abs(offset + PARAMS.charge * alpha) < 1e-14
        shift = (momentum_expectation(psi2, PARAMS)
                 - momentum_expectation(psi, PARAMS))
        assert abs(shift - offset) < 1e-10
        assert np.max(np.abs(pot2.A[0] - alpha)) < 1e-14

    def test_incommensurate_linear_slope_rejected(self):
        grid, psi, pot = self.setup_pair()
        g = GaugeTransformSpec(grid, "linear", dict(alpha=0.3))
        with pytest.raises(ValueError, match="commensurate"):
            gauge_transform_state(psi, pot, g, PARAMS)

    def test_round_trip(self):
        grid, psi, pot = self.setup_pair()
        g = GaugeTransformSpec(grid, "single_mode", dict(amplitude=0.4, mode=3))
        ginv = GaugeTransformSpec(grid, "single_mode",
                                  dict(amplitude=-0.4, mode=3))
        psi2, pot2 = gauge_transform_state(psi, pot, g, PARAMS)
        psi3, pot3 = gauge_transform_state(psi2, pot2, ginv, PARAMS)
        assert np.max(np.abs(psi3.psi - psi.psi)) < 1e-14
        assert np.max(np.abs(pot3.A - pot.A)) < 1e-14

    def test_unsupported_family_rejected(self):
        grid = SpatialGrid1D(32, 10.0)
        with pytest.raises(ValueError, match="family"):
            GaugeTransformSpec(grid, "quadratic", dict(alpha=1.0))

    def test_grid_of_other_length_rejected(self):
        # same node count, different length: Lambda would be sampled at the
        # wrong x
        grid, psi, pot = self.setup_pair()
        other = SpatialGrid1D(grid.n, 2 * grid.length)
        g = GaugeTransformSpec(other, "single_mode", dict(amplitude=0.4))
        with pytest.raises(ValueError, match="different grids"):
            gauge_transform_state(psi, pot, g, PARAMS)

    def test_unused_parameters_rejected(self):
        grid, psi, pot = self.setup_pair()
        g = GaugeTransformSpec(grid, "constant", dict(value=1.0, slope=2.0))
        with pytest.raises(ValueError, match="unused"):
            gauge_transform_state(psi, pot, g, PARAMS)


class TestDressedTransform:
    def test_zero_potential_factorizes(self):
        # for a product state the dressed transform is the plain phase-space
        # transform (per unit velocity) times the sphere projection of the
        # spin density matrix
        grid = SpatialGrid1D(64, 12.0)
        chi = spin_orientation(0.9, 0.4)
        env = np.exp(-((grid.x - 6.0) ** 2) / 2) * np.exp(1j * 0.8 * grid.x)
        phi = WaveFunction1D(grid, env).normalized()
        psi = init_state("gaussian", dict(x0=6.0, width=1.0, p0=0.8,
                                          theta0=0.9, phi0=0.4), grid)
        quad = SphereQuadrature(6, 12)
        n_v, p_max = 64, PARAMS.mass * 5.0
        p = -p_max + 2.0 * p_max / n_v * np.arange(n_v)
        fw = phase_space_correlation(phi.psi[None], grid, p, PARAMS.hbar,
                                     [[[1.0]]])[0]
        fq = spin_q_transform(np.outer(chi, chi.conj()), quad)
        f = gi_wigner_transform(psi, np.zeros(grid.n), PARAMS, p / PARAMS.mass,
                                quad=quad)
        expect = (PARAMS.mass * fw[None, None]
                  * fq.values[:, :, None, None])
        got = np.moveaxis(f.values, (0, 1), (2, 3))
        assert np.max(np.abs(got - expect)) < 1e-12

    def test_uniform_potential_shifts_velocity(self):
        grid = SpatialGrid1D(128, 16.0)
        psi = init_state("gaussian", dict(x0=8.0, width=1.2, p0=0.5,
                                          theta0=0.5), grid)
        n_v = 64
        v = np.linspace(-4, 4, n_v + 1)[:-1]
        dv = v[1] - v[0]
        A0 = 2 * dv * PARAMS.mass / PARAMS.charge
        f0 = gi_wigner_transform(psi, np.zeros(grid.n), PARAMS, v)
        fA = gi_wigner_transform(psi, np.full(grid.n, A0), PARAMS, v)
        # f_A(v) equals the zero-potential result at v - e A0 / m
        assert np.max(np.abs(fA.values[:, 2:] - f0.values[:, :-2])) < 1e-10

    def gauge_pair(self, grid):
        psi = init_state("gaussian", dict(x0=8.0, width=1.2, p0=1.0,
                                          theta0=np.pi / 2), grid)
        A = np.zeros((3, grid.n))
        A[0] = 0.4 * np.sin(2 * np.pi * grid.x / grid.length)
        pot = ExternalPotentials(grid, A=A, coulomb_gauge=False)
        g = GaugeTransformSpec(grid, "single_mode", dict(amplitude=0.3, mode=2))
        psi2, pot2 = gauge_transform_state(psi, pot, g, PARAMS)
        return psi, A, psi2, pot2.A

    def test_gauge_invariance_of_dressed_transform(self):
        grid = SpatialGrid1D(128, 16.0)
        v = np.linspace(-4, 4, 33)[:-1]
        psi, A, psi2, A2 = self.gauge_pair(grid)
        f1 = gi_wigner_transform(psi, A, PARAMS, v)
        f2 = gi_wigner_transform(psi2, A2, PARAMS, v)
        assert np.max(np.abs(f1.values - f2.values)) < 1e-10

    def test_undressed_transform_is_gauge_dependent(self):
        grid = SpatialGrid1D(128, 16.0)
        v = np.linspace(-4, 4, 33)[:-1]
        psi, A, psi2, A2 = self.gauge_pair(grid)
        f1 = kinetic_wigner_transform(psi, A, PARAMS, v)
        f2 = kinetic_wigner_transform(psi2, A2, PARAMS, v)
        assert np.max(np.abs(f1.values - f2.values)) > 1e-3

    def test_line_integral_matches_reference(self):
        grid = SpatialGrid1D(128, 16.0)
        v = np.linspace(-4, 4, 33)[:-1]
        psi = init_state("gaussian", dict(x0=8.0, width=1.2), grid)
        A = 1.0 * np.sin(2 * np.pi * 3 * grid.x / grid.length)
        quad = SphereQuadrature(4, 8)
        got = np.moveaxis(gi_wigner_transform(psi, A, PARAMS, v, quad).values,
                          (0, 1), (2, 3))
        ref = reference_dressed(psi, A, PARAMS, v, quad, line_integral=True)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("mode", [1, 12, 20, 31])
    def test_line_integral_dressing_matches_analytic_phase(self, mode):
        # A = a cos(kx + phi): the line integral of A over [x - y/2, x + y/2]
        # is a [sin(k(x + y/2) + phi) - sin(k(x - y/2) + phi)] / k
        grid = SpatialGrid1D(64, 10.0)
        a, phi = 0.7, 0.4
        k = 2 * np.pi * mode / grid.length
        A = a * np.cos(k * grid.x + phi)
        y = np.arange(-grid.n // 2, grid.n // 2) * grid.dx
        xp = grid.x[:, None] + y[None, :] / 2
        xm = grid.x[:, None] - y[None, :] / 2
        ref = (PARAMS.charge / PARAMS.hbar) * a * (
            np.sin(k * xp + phi) - np.sin(k * xm + phi)) / k
        got = line_integral_dressing(A, grid, PARAMS)(y)
        assert np.allclose(np.abs(got), 1.0, rtol=0, atol=1e-15)
        err = np.abs(np.angle(got * np.exp(-1j * ref)))
        assert np.max(err) <= 1e-13 * np.max(np.abs(ref))


def test_dressing_factor_matches_complex_exp():
    # cos and sin written into one complex array give exp(i theta) to
    # rounding, for the small phases of a dressing and for large ones
    rng = np.random.default_rng(3)
    grid = SpatialGrid1D(256, 16.0)
    y = np.arange(-grid.n // 2, grid.n // 2) * grid.dx
    A = 0.4 * np.sin(2 * np.pi * grid.x / grid.length) + 0.2
    abar = _tau_average(A, grid, y)
    got = line_integral_dressing(A, grid, PARAMS)(y)
    ref = np.exp(1j * PARAMS.charge * abar * y[None, :] / PARAMS.hbar)
    assert np.max(np.abs(got - ref)) <= 4.5e-16
    theta = rng.uniform(-30.0, 30.0, (64, 64))
    assert np.max(np.abs(_unit_phase(theta) - np.exp(1j * theta))) <= 4.5e-16


@pytest.mark.parametrize("params", [PARAMS,
                                    PlasmaParams(mass=1.7, charge=0.9,
                                                 hbar=0.8)])
@pytest.mark.parametrize("amplitude, mode", [(0.25, 1), (0.37, 3)])
def test_dressing_phases_match_out_of_place_expressions(
        monkeypatch, params, amplitude, mode):
    # the wigner_chain grid and a single-mode gauge's A_x: the phases are
    # charge * abar * y / hbar and charge * A_x * y / hbar bit for bit, so
    # a rewrite that saves temporaries must keep this operation order
    grid = SpatialGrid1D(512, 32.0)
    k = 2 * np.pi * mode / grid.length
    A_x = amplitude * k * np.cos(k * grid.x) + 0.05
    y = np.arange(-grid.n // 2, grid.n // 2) * grid.dx
    # the kernel's lag vector: m = 0 .. N/2
    y_half = np.arange(grid.n // 2 + 1) * grid.dx
    e, hbar = params.charge, params.hbar
    phases = []

    def recording(theta):
        phases.append(theta.copy())
        return _unit_phase(theta)

    monkeypatch.setattr(gauge, "_unit_phase", recording)
    line_integral_dressing(A_x, grid, params)(y)
    assert np.array_equal(
        phases[-1], e * _tau_average(A_x, grid, y) * y[None, :] / hbar)
    psi = init_state("gaussian", dict(x0=16.0, width=1.2, p0=0.4,
                                      theta0=1.0, phi0=0.3), grid)
    kinetic_wigner_transform(psi, A_x, params, np.linspace(-2, 2, 4),
                             quad=SphereQuadrature(2, 4))
    assert np.array_equal(phases[-1],
                          e * A_x[:, None] * y_half[None, :] / hbar)
    assert len(phases) == 2


def reference_dressed(psi, A_x, params, v, quad, line_integral, n_tau=16):
    """The dressed transform as written before the shared correlation kernel,
    returned in the (n_theta, n_phi, N_x, N_v) layout of the projection."""
    grid = psi.grid
    hbar, m, e = params.hbar, params.mass, params.charge
    n = grid.n
    psi2 = np.empty((2, 2 * n), dtype=complex)
    for a in range(2):
        pk = np.fft.fft(psi.psi[a])
        padded = np.zeros(2 * n, dtype=complex)
        padded[:n // 2] = pk[:n // 2]
        padded[-n // 2:] = pk[-n // 2:]
        psi2[a] = np.fft.ifft(padded) * 2.0
    mm = np.arange(-n // 2, n // 2)
    y = mm * grid.dx
    idx = np.arange(n)
    plus = (2 * idx[:, None] + mm[None, :]) % (2 * n)
    minus = (2 * idx[:, None] - mm[None, :]) % (2 * n)
    if np.max(np.abs(A_x)) == 0:
        dress = np.ones((n, len(y)))
    elif line_integral:
        # A(x + tau y) summed mode by mode, averaged over tau in (-1/2, 1/2)
        nodes, weights = leggauss(2 * n_tau)
        arg = grid.x[:, None, None] + (nodes / 2)[None, None, :] * y[None, :, None]
        k = 2 * np.pi * np.fft.fftfreq(n, d=grid.dx)
        c = np.fft.fft(A_x) / n
        a_at = sum(ck * np.exp(1j * kk * arg) for ck, kk in zip(c, k)).real
        abar = a_at @ (weights / 2)
        dress = np.exp(1j * e * abar * y[None, :] / hbar)
    else:
        dress = np.exp(1j * e * A_x[:, None] * y[None, :] / hbar)
    phases = np.exp(-1j * m * np.outer(y, v) / hbar)
    W = np.empty((2, 2, n, len(v)), dtype=complex)
    for a in range(2):
        for b in range(2):
            corr = psi2[a][plus] * psi2[b][minus].conj()
            W[a, b] = (m * grid.dx / (2 * np.pi * hbar)) * (
                (corr * dress) @ phases)
    w0 = np.real(W[0, 0] + W[1, 1])
    wvec = np.real(np.einsum("iab,banv->inv", SIGMA, W))
    return (w0[None, None] + np.einsum("tpi,inv->tpnv", quad.s_hat, wvec)) / (4 * np.pi)


class TestDressedKernelPin:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mass=st.floats(0.5, 2.5),
           amplitude=st.sampled_from([0.0, 0.15, 0.4]),
           mode=st.integers(1, 3), line_integral=st.booleans())
    def test_matches_reference(self, seed, mass, amplitude, mode,
                               line_integral):
        grid = SpatialGrid1D(32, 12.0)
        params = PlasmaParams(mass=mass)
        rng = np.random.default_rng(seed)
        k = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
        coef = ((rng.normal(size=(2, grid.n)) + 1j * rng.normal(size=(2, grid.n)))
                * np.exp(-(k / 4.0) ** 2))
        psi = SpinorField(grid, np.fft.ifft(coef, axis=-1)).normalized()
        A_x = amplitude * np.sin(2 * np.pi * mode * grid.x / grid.length)
        v = np.linspace(-3, 3, 21)[:-1]
        quad = SphereQuadrature(3, 6)
        transform = gi_wigner_transform if line_integral else kinetic_wigner_transform
        got = np.moveaxis(transform(psi, A_x, params, v, quad=quad).values,
                          (0, 1), (2, 3))
        ref = reference_dressed(psi, A_x, params, v, quad, line_integral)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestCorrectionSeries:
    def test_identity_for_uniform_potential(self):
        grid = SpatialGrid1D(64, 12.0)
        v = np.linspace(-3, 3, 33)[:-1]
        vals = np.exp(-((grid.x[:, None] - 6) ** 2) - v[None, :] ** 2)
        f = PhaseSpaceField(grid.x, PARAMS.mass * v, vals, PARAMS.mass)
        for A in (np.zeros(grid.n), np.full(grid.n, 0.7)):
            out = gi_correction_series(f, A, PARAMS)
            assert np.max(np.abs(out.values - f.values)) < 1e-13

    @pytest.mark.parametrize("mass", [1.0, 2.0])
    def test_matches_closed_form(self, mass):
        # f = g(x) exp(-v^2/2) and A = a cos(kx): the correction is
        # (e hbar^2 / 24 m^3) (-a k^2 cos kx) g(x) (3v - v^3) exp(-v^2/2)
        P = PlasmaParams(mass=mass, hbar=0.3)
        grid = SpatialGrid1D(64, 2 * np.pi)
        v = np.linspace(-8, 8, 129)[:-1]
        g = 1 + 0.3 * np.sin(grid.x)
        gauss = np.exp(-v**2 / 2)
        f = PhaseSpaceField(grid.x, mass * v, g[:, None] * gauss[None, :],
                            mass)
        a, k = 0.7, 2.0
        out = gi_correction_series(f, a * np.cos(k * grid.x), P)
        expect = (P.charge * P.hbar**2 / (24 * mass**3)
                  * (-a * k**2 * np.cos(k * grid.x) * g)[:, None]
                  * ((3 * v - v**3) * gauss)[None, :])
        corr = out.values - f.values
        assert np.max(np.abs(corr - expect)) < 1e-10 * np.max(np.abs(expect))

    def test_hbar_scaling_against_dressed_transform(self):
        # states of fixed velocity-space width: the packet width follows
        # hbar so the series terms scale as pure powers of hbar
        grid = SpatialGrid1D(512, 16.0)
        A = np.zeros((3, grid.n))
        A[0] = 0.4 * np.sin(2 * np.pi * grid.x / grid.length)
        v = np.linspace(-4, 4, 129)[:-1]
        hbars = [0.4, 0.283, 0.2, 0.141, 0.1]
        raw, cor = [], []
        for h in hbars:
            P = PlasmaParams(hbar=h)
            psi = init_state("gaussian", dict(x0=8.0, width=2 * h, p0=0.5 * h,
                                              theta0=np.pi / 2), grid)
            fg = gi_wigner_transform(psi, A, P, v).values[:, :, 0, 0]
            fk = kinetic_wigner_transform(psi, A, P, v).values[:, :, 0, 0]
            pf = PhaseSpaceField(grid.x, P.mass * v, fk, P.mass)
            fc = gi_correction_series(pf, A[0], P)
            raw.append(np.max(np.abs(fk - fg)))
            cor.append(np.max(np.abs(fc.values - fg)))
        lh = np.log(hbars)
        raw_slope = np.polyfit(lh, np.log(raw), 1)[0]
        cor_slope = np.polyfit(lh[2:], np.log(cor[2:]), 1)[0]
        assert abs(raw_slope - 2.0) < 0.2
        assert abs(cor_slope - 4.0) < 0.2
        assert all(c < r for c, r in zip(cor, raw))

