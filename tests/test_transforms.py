import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinkin.grid import SpatialGrid1D
from spinkin.params import PlasmaParams
from spinkin.sphere import SphereQuadrature
from spinkin.transforms import (
    SIGMA,
    SPIN_BASIS,
    DensityMatrixSpin,
    WaveFunction1D,
    expect_phase_space,
    conjugate_momentum_axis,
    marginals,
    phase_space_correlation,
    spin_moments_and_reconstruct,
    spin_q_transform,
    wigner_transform,
)

PARAMS = PlasmaParams(hbar=1.0)
GRID = SpatialGrid1D(256, 20.0)
QUAD = SphereQuadrature(16, 32)


def gaussian_state(grid, x0=10.0, p0=0.0, width=1.0, hbar=1.0):
    env = np.exp(-((grid.x - x0) ** 2) / (2 * width**2))
    return WaveFunction1D(grid, env * np.exp(1j * p0 * grid.x / hbar)).normalized()


def spectral_momentum_density(psi, hbar):
    grid = psi.grid
    p = 2 * np.pi * hbar / grid.length * np.arange(-grid.n // 2, grid.n // 2)
    phases = np.exp(-1j * np.outer(p, grid.x) / hbar)
    psit = grid.dx / np.sqrt(2 * np.pi * hbar) * phases @ psi.psi
    return p, np.abs(psit) ** 2


class TestWignerTransform:
    def test_gaussian_matches_analytic(self):
        psi = gaussian_state(GRID)
        f = wigner_transform(psi, PARAMS)
        X, P = np.meshgrid(f.x, f.p, indexing="ij")
        exact = np.exp(-((X - 10.0) ** 2) - P**2) / np.pi
        assert np.max(np.abs(f.values - exact)) < 1e-6

    def test_total_integral_is_one(self):
        psi = gaussian_state(GRID, p0=2.0)
        f = wigner_transform(psi, PARAMS)
        assert abs(f.total() - 1.0) < 1e-8

    def test_zero_state_rejected(self):
        psi = WaveFunction1D(GRID, np.zeros(GRID.n))
        with pytest.raises(ValueError):
            wigner_transform(psi, PARAMS)

    def test_negative_vmax_rejected(self):
        psi = gaussian_state(GRID)
        with pytest.raises(ValueError):
            wigner_transform(psi, PARAMS, n_v=64, v_max=-1.0)

    def test_plane_wave_concentrates_on_one_mode(self):
        k0 = 2 * np.pi * 5 / GRID.length
        psi = WaveFunction1D(GRID, np.exp(1j * k0 * GRID.x)).normalized()
        f = wigner_transform(psi, PARAMS)
        _, (p, dens_p) = marginals(f)
        peak = np.argmax(dens_p)
        assert abs(p[peak] - k0) < 1e-12
        others = np.delete(dens_p, peak)
        assert np.max(np.abs(others)) < 1e-10


class TestMarginals:
    def test_gaussian_x_marginal(self):
        psi = gaussian_state(GRID)
        f = wigner_transform(psi, PARAMS)
        (x, dens_x), _ = marginals(f)
        assert np.max(np.abs(dens_x - np.exp(-((x - 10.0) ** 2)) / np.sqrt(np.pi))) < 1e-6

    def test_marginal_normalization(self):
        psi = gaussian_state(GRID, p0=1.5, width=0.7)
        f = wigner_transform(psi, PARAMS)
        (x, dens_x), _ = marginals(f)
        assert abs(np.sum(dens_x) * f.dx - 1.0) < 1e-8

    def test_cat_state_marginals_despite_negativity(self):
        env = (np.exp(-((GRID.x - 7.0) ** 2) / 2) + np.exp(-((GRID.x - 13.0) ** 2) / 2))
        psi = WaveFunction1D(GRID, env).normalized()
        f = wigner_transform(psi, PARAMS)
        assert f.values.min() < -1e-3  # genuinely negative in between
        (x, dens_x), (p, dens_p) = marginals(f)
        assert np.max(np.abs(dens_x - np.abs(psi.psi) ** 2)) < 1e-6
        p_or, dens_or = spectral_momentum_density(psi, PARAMS.hbar)
        assert np.max(np.abs(dens_p - dens_or)) < 1e-6

    def test_marginal_corpus(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x0 = rng.uniform(6, 14)
            p0 = rng.uniform(-2, 2)
            w = rng.uniform(0.6, 1.6)
            if rng.random() < 0.4:
                env = (np.exp(-((GRID.x - x0) ** 2) / (2 * w**2))
                       + np.exp(-((GRID.x - x0 - 3) ** 2) / (2 * w**2)))
            else:
                env = np.exp(-((GRID.x - x0) ** 2) / (2 * w**2))
            psi = WaveFunction1D(GRID, env * np.exp(1j * p0 * GRID.x)).normalized()
            f = wigner_transform(psi, PARAMS)
            (x, dens_x), (p, dens_p) = marginals(f)
            assert np.max(np.abs(dens_x - np.abs(psi.psi) ** 2)) < 1e-6
            _, dens_or = spectral_momentum_density(psi, PARAMS.hbar)
            assert np.max(np.abs(dens_p - dens_or)) < 1e-6


class TestExpectation:
    def test_unit_symbol(self):
        f = wigner_transform(gaussian_state(GRID), PARAMS)
        assert abs(expect_phase_space(f, np.ones_like(f.values)) - 1.0) < 1e-8

    def test_position_mean(self):
        f = wigner_transform(gaussian_state(GRID, x0=9.0), PARAMS)
        X, _ = np.meshgrid(f.x, f.p, indexing="ij")
        assert abs(expect_phase_space(f, X) - 9.0) < 1e-6

    def test_kinetic_energy_matches_spectral(self):
        psi = gaussian_state(GRID, p0=1.2, width=0.8)
        f = wigner_transform(psi, PARAMS)
        _, P = np.meshgrid(f.x, f.p, indexing="ij")
        got = expect_phase_space(f, P**2 / 2)
        psik = np.fft.fft(psi.psi)
        kin = np.sum(np.abs(psik) ** 2 * GRID.k**2 / 2) / np.sum(np.abs(psik) ** 2)
        assert abs(got - kin) < 1e-6

    def test_grid_mismatch_rejected(self):
        f = wigner_transform(gaussian_state(GRID), PARAMS)
        with pytest.raises(ValueError):
            expect_phase_space(f, np.ones((3, 3)))


def random_state(seed, n_comp, grid):
    """Normalized random band-limited components, shape (n_comp, N)."""
    rng = np.random.default_rng(seed)
    k = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    coef = ((rng.normal(size=(n_comp, grid.n))
             + 1j * rng.normal(size=(n_comp, grid.n)))
            * np.exp(-(k / (grid.n / 8)) ** 2))
    psi = np.fft.ifft(coef, axis=-1)
    return psi / np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)


def reference_wigner(psi, grid, p_axis, hbar):
    """The transform as written before the shared correlation kernel."""
    n = grid.n
    psi_k = np.fft.fft(psi)
    padded = np.zeros(2 * n, dtype=complex)
    padded[:n // 2] = psi_k[:n // 2]
    padded[-n // 2:] = psi_k[-n // 2:]
    psi2 = np.fft.ifft(padded) * 2.0
    m = np.arange(-n // 2, n // 2)
    idx = np.arange(n)
    plus = (2 * idx[:, None] + m[None, :]) % (2 * n)
    minus = (2 * idx[:, None] - m[None, :]) % (2 * n)
    corr = psi2[plus] * psi2[minus].conj()
    y = m * grid.dx
    phases = np.exp(-1j * np.outer(y, p_axis) / hbar)
    return (grid.dx / (2.0 * np.pi * hbar)) * (corr @ phases).real


def reference_pairs(psi, grid, p_axis, hbar, factor):
    """Every W_ab as the all-pairs loop computed it before the spin
    contraction moved into the kernel."""
    n = grid.n
    psi_k = np.fft.fft(psi, axis=-1)
    padded = np.zeros((len(psi), 2 * n), dtype=complex)
    padded[:, :n // 2] = psi_k[:, :n // 2]
    padded[:, -n // 2:] = psi_k[:, -n // 2:]
    psi2 = np.fft.ifft(padded, axis=-1) * 2.0
    m = np.arange(-n // 2, n // 2)
    idx = np.arange(n)
    plus = (2 * idx[:, None] + m[None, :]) % (2 * n)
    minus = (2 * idx[:, None] - m[None, :]) % (2 * n)
    phases = np.exp(-1j * np.outer(m * grid.dx, p_axis) / hbar)
    W = np.empty((len(psi), len(psi), n, len(p_axis)), dtype=complex)
    for a in range(len(psi)):
        for b in range(len(psi)):
            W[a, b] = (psi2[a][plus] * psi2[b][minus].conj() * factor) @ phases
    return W * grid.dx / (2.0 * np.pi * hbar)


class TestCorrelationKernel:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([16, 32, 48, 96]),
           mass=st.floats(0.3, 3.0), hbar=st.floats(0.3, 2.0),
           custom_axis=st.booleans())
    def test_wigner_matches_reference(self, seed, n, mass, hbar, custom_axis):
        grid = SpatialGrid1D(n, 12.0)
        params = PlasmaParams(mass=mass, hbar=hbar)
        psi = WaveFunction1D(grid, random_state(seed, 1, grid)[0])
        if custom_axis:
            f = wigner_transform(psi, params, n_v=24, v_max=2.5)
        else:
            f = wigner_transform(psi, params)
            assert np.array_equal(f.p, conjugate_momentum_axis(grid, hbar))
        ref = reference_wigner(psi.psi, grid, f.p, hbar)
        assert np.max(np.abs(f.values - ref)) <= 1e-13 * np.max(np.abs(ref))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([16, 32, 48, 96]),
           hbar=st.floats(0.3, 2.0), custom_axis=st.booleans(),
           dressed=st.booleans())
    def test_spin_basis_matches_pair_loop(self, seed, n, hbar, custom_axis,
                                          dressed):
        grid = SpatialGrid1D(n, 12.0)
        psi = random_state(seed, 2, grid)
        p = (np.linspace(-2.5, 2.5, 25)[:-1] if custom_axis
             else conjugate_momentum_axis(grid, hbar))

        def dress(y):
            return np.exp(0.7j * np.sin(grid.x)[:, None] * y[None, :] / hbar)

        got = phase_space_correlation(psi, grid, p, hbar, SPIN_BASIS,
                                      dress if dressed else None)
        W = reference_pairs(psi, grid, p, hbar,
                            dress(np.arange(-n // 2, n // 2) * grid.dx)
                            if dressed else 1.0)
        ref = np.real([W[0, 0] + W[1, 1],
                       *np.einsum("iab,banv->inv", SIGMA, W)])
        assert got.shape == (4, n, len(p))
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_conjugate_axis_is_one_fft_per_op(self, monkeypatch):
        grid = SpatialGrid1D(32, 12.0)
        psi = random_state(5, 2, grid)
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, np.shape(args[0])))
                return fn(*args, **kwargs)
            return wrapper

        for name in ("cos", "sin"):
            monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
        for name in ("fft", "irfft"):
            monkeypatch.setattr(np.fft, name,
                                counted(name, getattr(np.fft, name)))

        phase_space_correlation(psi, grid, conjugate_momentum_axis(grid, 0.8),
                                0.8, SPIN_BASIS)
        assert [c for c in calls if c[0] not in ("fft", "irfft")] == []
        assert ("fft", (32, 32)) not in calls
        assert calls.count(("irfft", (32, 17))) == 4

        calls.clear()
        phase_space_correlation(psi, grid, np.linspace(-2.5, 2.5, 25)[:-1],
                                0.8, SPIN_BASIS)
        assert calls.count(("cos", (17, 24))) == 1
        assert calls.count(("sin", (17, 24))) == 1
        assert ("fft", (32, 32)) not in calls
        assert [c for c in calls if c[0] == "irfft"] == []

    def test_non_hermitian_op_rejected(self):
        # the half-lag sum is exact only for Hermitian ops
        grid = SpatialGrid1D(32, 12.0)
        psi = random_state(6, 2, grid)
        p = conjugate_momentum_axis(grid, 1.0)
        for op in (np.array([[0, 1], [0, 0]]), np.diag([1.0, 1j])):
            with pytest.raises(ValueError, match="Hermitian"):
                phase_space_correlation(psi, grid, p, 1.0,
                                        np.stack([SPIN_BASIS[0], op]))
        # a 1e-13 asymmetry is rounding, as in spin_q_transform
        near = SPIN_BASIS[1] + np.array([[0, 1e-13], [0, 0]])
        assert phase_space_correlation(psi, grid, p, 1.0,
                                       near[None]).shape == (1, 32, 32)

    def test_diagonal_pairs_are_wigner_transforms(self):
        grid = SpatialGrid1D(64, 16.0)
        psi = random_state(4, 3, grid)
        p = conjugate_momentum_axis(grid, 1.0)
        projectors = np.array([np.diag(e) for e in np.eye(3)])
        W = phase_space_correlation(psi, grid, p, 1.0, projectors)
        assert W.shape == (3, 64, 64)
        for a in range(3):
            ref = reference_wigner(psi[a], grid, p, 1.0)
            assert np.max(np.abs(W[a] - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestSpinQTransform:
    def test_spin_up(self):
        f = spin_q_transform(DensityMatrixSpin(np.diag([1.0, 0.0])), QUAD)
        expected = (1 + QUAD.mu[:, None]) / (4 * np.pi) * np.ones((1, QUAD.n_phi))
        assert np.max(np.abs(f.values - expected)) < 1e-14

    def test_maximally_mixed(self):
        f = spin_q_transform(np.eye(2) / 2, QUAD)
        assert np.max(np.abs(f.values - 1 / (4 * np.pi))) < 1e-14

    def test_sigma_x_state(self):
        f = spin_q_transform(DensityMatrixSpin.from_bloch([1, 0, 0]), QUAD)
        sin_t = np.sqrt(1 - QUAD.mu**2)[:, None]
        expected = (1 + sin_t * np.cos(QUAD.phi)[None, :]) / (4 * np.pi)
        assert np.max(np.abs(f.values - expected)) < 1e-14

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            spin_q_transform(np.array([[1.0, 1.0], [0.0, 0.0]]), QUAD)

    def test_positivity_over_random_states(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            vec = rng.normal(size=3)
            vec *= rng.random() / np.linalg.norm(vec)
            f = spin_q_transform(DensityMatrixSpin.from_bloch(vec), QUAD)
            assert f.values.min() >= -1e-12

    def test_linearity(self):
        rho1 = DensityMatrixSpin.from_bloch([0.2, -0.3, 0.4]).rho
        rho2 = DensityMatrixSpin.from_bloch([-0.5, 0.1, 0.2]).rho
        a, b = 0.3, 0.7
        f12 = spin_q_transform(a * rho1 + b * rho2, QUAD)
        f1 = spin_q_transform(rho1, QUAD)
        f2 = spin_q_transform(rho2, QUAD)
        assert np.max(np.abs(f12.values - a * f1.values - b * f2.values)) < 1e-13


class TestSpinMoments:
    def test_uniform_distribution(self):
        from spinkin.transforms import SpinDistribution

        f = SpinDistribution(QUAD, np.full((16, 32), 1 / (4 * np.pi)))
        scalar, vector, rho = spin_moments_and_reconstruct(f)
        assert abs(scalar - 1.0) < 1e-12
        assert np.max(np.abs(vector)) < 1e-12
        assert np.max(np.abs(rho.rho - np.eye(2) / 2)) < 1e-12

    def test_spin_up_moments(self):
        f = spin_q_transform(DensityMatrixSpin(np.diag([1.0, 0.0])), QUAD)
        scalar, vector, rho = spin_moments_and_reconstruct(f)
        assert np.allclose(vector, [0, 0, 1], atol=1e-12)
        assert np.max(np.abs(rho.rho - np.diag([1.0, 0.0]))) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(n_theta=st.integers(2, 16), n_phi=st.integers(4, 32),
           length=st.floats(0.0, 1.0), cos_t=st.floats(-1.0, 1.0),
           phi=st.floats(0.0, 2 * np.pi))
    def test_round_trip_random_matrices(self, n_theta, n_phi, length, cos_t,
                                        phi):
        # Gauss-Legendre in mu and the trapezoid in phi integrate the l <= 2
        # products of the moments exactly from n_theta = 2 and n_phi = 4
        sin_t = np.sqrt(1.0 - cos_t**2)
        vec = length * np.array([sin_t * np.cos(phi), sin_t * np.sin(phi),
                                 cos_t])
        rho = DensityMatrixSpin.from_bloch(vec)
        quad = SphereQuadrature(n_theta, n_phi)
        _, _, back = spin_moments_and_reconstruct(spin_q_transform(rho, quad))
        assert np.max(np.abs(back.rho - rho.rho)) < 1e-12

    def test_invalid_distribution_flagged(self):
        from spinkin.transforms import SpinDistribution

        # overweight first moment -> reconstruction not PSD
        vals = (1 + 3 * QUAD.mu[:, None] * np.ones((1, 32))) / (4 * np.pi)
        with pytest.raises(ValueError):
            spin_moments_and_reconstruct(SpinDistribution(QUAD, vals))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrixSpin(np.array([[0.8, 0.0], [0.0, 0.1]])).validate()
    with pytest.raises(ValueError):
        DensityMatrixSpin(np.array([[1.2, 0.0], [0.0, -0.2]])).validate()
    DensityMatrixSpin.from_bloch([0.0, 0.0, 0.5]).validate()


def test_mu_B_is_derived():
    p = PlasmaParams(hbar=0.3)
    assert p.mu_B == p.charge * p.hbar / (2 * p.mass)
    with pytest.raises(ValueError):
        PlasmaParams(hbar=-1.0)
