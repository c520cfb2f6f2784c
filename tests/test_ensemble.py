import numpy as np
import pytest

from spinkin.ensemble import (
    WavefunctionEnsemble,
    averaged_equation_residual,
    ensemble_bohm_force,
    ensemble_moments,
)
from spinkin.fluid import bohm_force
from spinkin.grid import SpatialGrid1D
from spinkin.params import PlasmaParams
from spinkin.pauli import (
    ExternalPotentials,
    init_state,
    spinor_moments,
    step_pauli,
)

PARAMS = PlasmaParams(hbar=1.0)


def periodized_member(grid, x0, width, mode, theta0, phi0):
    """Exactly periodic Gaussian member: image-sum envelope, grid-mode momentum."""
    from spinkin.pauli import SpinorField, spin_orientation

    L = grid.length
    env = sum(np.exp(-((grid.x - x0 - L * j) ** 2) / (2 * width**2))
              for j in range(-3, 4))
    carrier = np.exp(2j * np.pi * mode * grid.x / L)
    return SpinorField(grid, np.outer(spin_orientation(theta0, phi0),
                                      env * carrier)).normalized()


def two_member_ensemble(grid):
    a = periodized_member(grid, 8.0, 3.0, 2, 1.0, 0.3)
    b = periodized_member(grid, 12.0, 3.0, -2, 2.0, 1.5)
    return WavefunctionEnsemble([a, b], [0.6, 0.4])


class TestEnsembleValidation:
    def test_probability_sum_enforced(self):
        grid = SpatialGrid1D(64, 10.0)
        st = init_state("gaussian", dict(x0=5.0, width=2.0), grid)
        with pytest.raises(ValueError):
            WavefunctionEnsemble([st, st], [0.6, 0.6])

    def test_negative_probability_rejected(self):
        grid = SpatialGrid1D(64, 10.0)
        st = init_state("gaussian", dict(x0=5.0, width=2.0), grid)
        with pytest.raises(ValueError):
            WavefunctionEnsemble([st, st], [1.5, -0.5])

    def test_mismatched_grids_rejected(self):
        a = init_state("gaussian", dict(x0=5.0, width=2.0), SpatialGrid1D(64, 10.0))
        b = init_state("gaussian", dict(x0=5.0, width=2.0), SpatialGrid1D(32, 10.0))
        with pytest.raises(ValueError):
            WavefunctionEnsemble([a, b], [0.5, 0.5])

    def test_unnormalized_member_rejected(self):
        grid = SpatialGrid1D(64, 10.0)
        st = init_state("gaussian", dict(x0=5.0, width=2.0), grid)
        from spinkin.pauli import SpinorField

        bad = SpinorField(grid, 2.0 * st.psi)
        with pytest.raises(ValueError):
            WavefunctionEnsemble([bad], [1.0])


class TestMoments:
    def test_single_member_matches_observables(self):
        grid = SpatialGrid1D(128, 20.0)
        pot = ExternalPotentials(grid)
        st = init_state("gaussian", dict(x0=10.0, width=3.0, p0=0.7, theta0=1.1), grid)
        mom = ensemble_moments(WavefunctionEnsemble([st], [1.0]), pot, PARAMS)
        n, nv, ns = spinor_moments(st, pot.A[0], PARAMS)
        ok = n >= 1e-12 * n.max()
        assert np.max(np.abs(mom.n - n)) < 1e-13
        assert np.max(np.abs(mom.v[ok] - nv[ok] / n[ok])) < 1e-13
        assert np.max(np.abs(mom.S[:, ok] - ns[:, ok] / n[ok])) < 1e-13
        assert np.max(np.abs(mom.pressure)) < 1e-12
        assert np.max(np.abs(mom.K)) < 1e-12
        assert np.max(np.abs(mom.Sigma_tilde)) < 1e-12
        # torque correction degenerates to its first term
        assert np.max(np.abs(mom.Omega_spin - mom.terms["Omega_spin_mean"])) < 1e-10

    def test_counterstreaming_plane_waves(self):
        grid = SpatialGrid1D(128, 20.0)
        p0 = 2 * np.pi * 5 / grid.length
        a = init_state("plane_wave", dict(p0=p0), grid)
        b = init_state("plane_wave", dict(p0=-p0), grid)
        mom = ensemble_moments(WavefunctionEnsemble([a, b], [0.5, 0.5]),
                               ExternalPotentials(grid), PARAMS)
        assert np.max(np.abs(mom.v)) < 1e-12
        expected_p = mom.n * p0**2 / PARAMS.mass
        assert np.max(np.abs(mom.pressure - expected_p)) < 1e-12

    def test_opposite_spins_cancel(self):
        grid = SpatialGrid1D(128, 20.0)
        a = init_state("gaussian", dict(x0=10.0, width=3.0, theta0=np.pi / 2, phi0=0.0), grid)
        b = init_state("gaussian", dict(x0=10.0, width=3.0, theta0=np.pi / 2, phi0=np.pi), grid)
        mom = ensemble_moments(WavefunctionEnsemble([a, b], [0.5, 0.5]),
                               ExternalPotentials(grid), PARAMS)
        assert np.max(np.abs(mom.S)) < 1e-13
        assert np.max(np.abs(mom.Sigma)) < 1e-24

    def test_member_vanishing_on_part_of_grid_gives_finite_moments(self):
        # member a is exactly 0 outside |x - 10| < 4: its ratios 1/n_a read
        # the clamped density there, and its weight n_a = 0 removes them
        from spinkin.pauli import SpinorField

        grid = SpatialGrid1D(128, 20.0)
        offset = grid.x - 10.0
        env = np.where(np.abs(offset) < 4.0, np.cos(np.pi * offset / 8.0) ** 4, 0.0)
        a = SpinorField(grid, np.array([env, np.zeros(grid.n)])).normalized()
        b = init_state("plane_wave", dict(p0=2 * np.pi * 3 / grid.length,
                                          theta0=1.0), grid)
        pot = ExternalPotentials(grid)
        mom = ensemble_moments(WavefunctionEnsemble([a, b], [0.5, 0.5]), pot,
                               PARAMS)
        for name in ("n", "v", "S", "pressure", "K", "Sigma", "Sigma_tilde",
                     "F_spin", "Omega_spin"):
            assert np.all(np.isfinite(getattr(mom, name))), name
        # where a vanishes the spin density is b's alone
        out = a.density() == 0.0
        assert out.sum() > grid.n // 2
        n_b, _, ns_b = spinor_moments(b, pot.A[0], PARAMS)
        assert np.max(np.abs(mom.S[:, out] - ns_b[:, out] / n_b[out])) < 1e-13


class TestResiduals:
    def test_too_few_levels_rejected(self):
        grid = SpatialGrid1D(64, 10.0)
        ens = WavefunctionEnsemble(
            [init_state("gaussian", dict(x0=5.0, width=2.0), grid)], [1.0])
        with pytest.raises(ValueError):
            averaged_equation_residual([0.0, 0.1], [ens, ens],
                                       ExternalPotentials(grid), PARAMS)

    def test_nonuniform_cadence_rejected(self):
        grid = SpatialGrid1D(64, 10.0)
        ens = WavefunctionEnsemble(
            [init_state("gaussian", dict(x0=5.0, width=2.0), grid)], [1.0])
        with pytest.raises(ValueError):
            averaged_equation_residual([0.0, 0.1, 0.3], [ens] * 3,
                                       ExternalPotentials(grid), PARAMS)

    def test_stationary_mixture_has_tiny_residuals(self):
        # plane waves with spins along a uniform B are stationary states
        grid = SpatialGrid1D(64, 20.0)
        B = np.zeros((3, grid.n))
        B[2] = 0.5
        pot = ExternalPotentials(grid, B=B)
        k1 = 2 * np.pi * 3 / grid.length
        members = [init_state("plane_wave", dict(p0=k1), grid),
                   init_state("plane_wave", dict(p0=-k1, theta0=np.pi), grid)]
        ens = WavefunctionEnsemble(members, [0.5, 0.5])
        dt = 0.01
        traj = [ens]
        cur = members
        for _ in range(2):
            cur = [step_pauli(m, pot, PARAMS, dt) for m in cur]
            traj.append(WavefunctionEnsemble(cur, [0.5, 0.5]))
        rep = averaged_equation_residual([0, dt, 2 * dt], traj, pot, PARAMS)
        norms = rep.max_norms()
        assert norms["continuity"] < 1e-8
        assert norms["momentum"] < 1e-8
        assert norms["spin"] < 1e-8

    def _trajectory_residual(self, cadence):
        grid = SpatialGrid1D(128, 20.0)
        pot = ExternalPotentials(
            grid,
            phi=0.05 * np.cos(2 * np.pi * grid.x / grid.length),
            B=np.array([np.zeros(grid.n), np.zeros(grid.n),
                        0.3 + 0.1 * np.cos(2 * np.pi * grid.x / grid.length)]))
        members = list(two_member_ensemble(grid).members)
        probs = [0.6, 0.4]
        dt_fine = 5e-4
        per_cad = round(cadence / dt_fine)
        traj, times = [], []
        cur = members
        for level in range(3):
            times.append(level * cadence)
            traj.append(WavefunctionEnsemble(cur, probs))
            if level < 2:
                for _ in range(per_cad):
                    cur = [step_pauli(m, pot, PARAMS, dt_fine) for m in cur]
        rep = averaged_equation_residual(times, traj, pot, PARAMS)
        return rep.max_norms()

    def test_residual_second_order_in_cadence(self):
        cads = [0.04, 0.02, 0.01]
        norms = [self._trajectory_residual(c) for c in cads]
        for key in ("continuity", "momentum", "spin"):
            errs = [n[key] for n in norms]
            slope = np.polyfit(np.log(cads), np.log(errs), 1)[0]
            assert abs(slope - 2.0) < 0.2, (key, errs)

    def test_bohm_forms_agree_for_single_member(self):
        # one member: the member sum is m n times the fluid Bohm force of n
        grid = SpatialGrid1D(128, 20.0)
        st = init_state("gaussian", dict(x0=10.0, width=3.0), grid)
        ens = WavefunctionEnsemble([st], [1.0])
        exact = ensemble_bohm_force(ens, PARAMS)
        n = st.density()
        coll = PARAMS.mass * n * bohm_force(grid, n, PARAMS)
        assert np.max(np.abs(exact - coll)) < 1e-10
