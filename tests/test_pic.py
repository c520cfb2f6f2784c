import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinkin import pic
from spinkin.config import config_from_dict
from spinkin.fields import FieldState, external_profiles
from spinkin.grid import SpatialGrid1D
from spinkin.params import PlasmaParams
from spinkin.pic import (
    ParticleEnsemble,
    deposit_charge,
    deposit_sources,
    fibonacci_sphere,
    gather,
    load_particles,
    push_particles,
)

PARAMS = PlasmaParams()


def single_particle(grid, v=(0.0, 0.0, 0.0), s=(0.0, 0.0, 1.0), x=None):
    x0 = grid.length / 2 if x is None else x
    return ParticleEnsemble(grid, np.array([x0]), np.array([v], dtype=float),
                            np.array([s], dtype=float), np.array([1.0]))


class TestPush:
    def test_constant_electric_force_exact(self):
        grid = SpatialGrid1D(32, 10.0)
        fs = FieldState(grid)
        fs.E[0] = 0.4
        ens = single_particle(grid, v=(0.3, 0.0, 0.0))
        dt, steps = 0.05, 40
        for _ in range(steps):
            ens = push_particles(ens, fs, PARAMS, dt)
        expected = 0.3 - (PARAMS.charge / PARAMS.mass) * 0.4 * steps * dt
        assert abs(ens.v[0, 0] - expected) < 1e-14

    def test_gyro_orbit_energy_and_frequency(self):
        grid = SpatialGrid1D(32, 10.0)
        B0 = 1.3
        fs = external_profiles("uniform_B", dict(B0=B0), grid)
        v0 = np.array([0.7, 0.2, 0.1])
        ens = single_particle(grid, v=tuple(v0))
        period = 2 * np.pi * PARAMS.mass / (PARAMS.charge * B0)
        steps_per = 40
        dt = period / steps_per
        ke0 = np.sum(ens.v**2)
        for _ in range(100 * steps_per):
            ens = push_particles(ens, fs, PARAMS, dt)
        # exact-angle rotation: energy to rounding, phase closes after 100 T
        assert abs(np.sum(ens.v**2) - ke0) < 1e-12
        assert np.max(np.abs(ens.v[0] - v0)) < 1e-6

    def test_uniform_b_gives_no_spin_force(self):
        grid = SpatialGrid1D(100, 10.0)
        fs = external_profiles("uniform_B", dict(B0=1.3), grid)
        ens = push_particles(single_particle(grid), fs, PARAMS, 0.05)
        assert np.array_equal(ens.v, np.zeros((1, 3)))

    def test_spin_precession_rate_and_magnitude(self):
        grid = SpatialGrid1D(32, 10.0)
        B0 = 0.9
        fs = external_profiles("uniform_B", dict(B0=B0), grid)
        ens = single_particle(grid, s=(1.0, 0.0, 0.0))
        omega = 2 * PARAMS.mu_B * B0 / PARAMS.hbar
        dt, steps = 0.02, 500
        for _ in range(steps):
            ens = push_particles(ens, fs, PARAMS, dt)
        t = steps * dt
        assert abs(ens.s_hat[0, 0] - np.cos(omega * t)) < 1e-12
        assert abs(ens.s_hat[0, 1] - np.sin(omega * t)) < 1e-12
        assert abs(np.linalg.norm(ens.s_hat[0]) - 1.0) < 1e-13

    def test_stern_gerlach_opposite_accelerations(self):
        grid = SpatialGrid1D(64, 10.0)
        B0, B1 = 1.0, 0.3
        fs = external_profiles("gradient_B", dict(B0=B0, B1=B1), grid)
        # keep omega_c * t small so gyration does not rotate the kick away
        dt, steps = 0.01, 4
        accels = {}
        for sz in (1.0, -1.0):
            ens = single_particle(grid, s=(0.0, 0.0, sz))
            for _ in range(steps):
                ens = push_particles(ens, fs, PARAMS, dt)
            accels[sz] = ens.v[0, 0] / (steps * dt)
        expected = PARAMS.mu_B * B1 / PARAMS.mass
        assert abs(accels[1.0] + expected) < 5e-3 * expected
        assert abs(accels[-1.0] - expected) < 5e-3 * expected

    def test_dt_guard(self):
        grid = SpatialGrid1D(32, 10.0)
        fs = external_profiles("uniform_B", dict(B0=5.0), grid)
        with pytest.raises(ValueError):
            push_particles(single_particle(grid), fs, PARAMS, 0.2)

    def test_spin_magnitude_long_run(self):
        grid = SpatialGrid1D(32, 2 * np.pi)
        fs = FieldState(grid)
        fs.B[2] = 0.8 + 0.2 * np.cos(grid.x)
        rng = np.random.default_rng(9)
        n = 50
        s = rng.normal(size=(n, 3))
        s /= np.linalg.norm(s, axis=1)[:, None]
        ens = ParticleEnsemble(grid, rng.uniform(0, grid.length, n),
                               rng.normal(size=(n, 3)) * 0.3, s, np.ones(n))
        for _ in range(10_000):
            ens = push_particles(ens, fs, PARAMS, 0.01)
        assert np.max(np.abs(np.linalg.norm(ens.s_hat, axis=1) - 1.0)) < 1e-12


class TestDeposit:
    def test_single_particle_charge_integral(self):
        grid = SpatialGrid1D(32, 10.0)
        ens = single_particle(grid, x=3.37)
        rho, _, _, _ = deposit_sources(ens, PARAMS)
        assert abs(grid.integrate(rho) + PARAMS.charge * 1.0) < 1e-14

    def test_uniform_spins_no_bound_current(self):
        grid = SpatialGrid1D(32, 10.0)
        n_p = 32 * 50
        ens = load_particles(grid, n_p, spin=[0, 0, 1])
        _, _, M, jb = deposit_sources(ens, PARAMS)
        assert np.max(np.abs(M[2] - M[2][0])) < 1e-12
        assert np.max(np.abs(jb)) < 1e-12

    def test_single_mode_magnetization_curl(self):
        grid = SpatialGrid1D(64, 2 * np.pi)
        n_p = 64 * 64
        x = (np.arange(n_p) + 0.5) * grid.length / n_p
        k = 2.0
        s = np.column_stack([np.sin(k * x), np.zeros(n_p), np.cos(k * x)])
        ens = ParticleEnsemble(grid, x, np.zeros((n_p, 3)), s,
                               np.full(n_p, grid.length / n_p))
        _, _, M, jb = deposit_sources(ens, PARAMS)
        mode = round(k * grid.length / (2 * np.pi))
        amp = np.real(np.fft.fft(M[2])[mode]) * 2 / grid.n
        fitted = amp * np.cos(k * grid.x)
        assert np.max(np.abs(M[2] - fitted)) < 1e-12  # deposition is single mode
        assert np.max(np.abs(jb[1] - amp * k * np.sin(k * grid.x))) < 1e-8
        # centered-difference cross-check within its O(dx^2) error
        jb_c = -(np.roll(M[2], -1) - np.roll(M[2], 1)) / (2 * grid.dx)
        assert np.max(np.abs(jb_c - jb[1])) < abs(amp) * k**3 * grid.dx**2

    def test_charge_continuity_convergence(self):
        errs, hs = [], []
        for ng in (32, 64, 128, 256):
            grid = SpatialGrid1D(ng, 2 * np.pi)
            cold = load_particles(grid, ng * 100, density_amplitude=0.1,
                                  spin=[0, 0, 1])
            v = np.zeros_like(cold.v)
            v[:, 0] = 0.8
            ens = ParticleEnsemble(grid, cold.x, v, cold.s_hat, cold.w)
            dt = 0.2 * grid.dx
            rho0, j0, _, _ = deposit_sources(ens, PARAMS)
            pushed = push_particles(ens, FieldState(grid), PARAMS, dt)
            rho1, j1, _, _ = deposit_sources(pushed, PARAMS)
            res = (rho1 - rho0) / dt + grid.derivative((j0[0] + j1[0]) / 2)
            spec = np.fft.fft(res) / grid.n
            errs.append(np.max(2 * np.abs(spec[1:8])))  # physical low modes
            hs.append(grid.dx)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.5


class TestLoading:
    def test_density_profile_recovered(self):
        grid = SpatialGrid1D(64, 2 * np.pi)
        amp = 0.08
        ens = load_particles(grid, 64 * 200, density_amplitude=amp, density_mode=1)
        rho, _, _, _ = deposit_sources(ens, PARAMS)
        n = -rho / PARAMS.charge
        assert np.max(np.abs(n - (1 + amp * np.cos(grid.x)))) < 1e-3

    def test_isotropic_spins_balance(self):
        s = fibonacci_sphere(5000)
        assert np.max(np.abs(np.linalg.norm(s, axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(np.mean(s, axis=0))) < 1e-3

    def test_weights_sum_to_target(self):
        grid = SpatialGrid1D(32, 10.0)
        ens = load_particles(grid, 1000, total_density=2.5)
        assert abs(np.sum(ens.w) - 2.5 * grid.length) < 1e-10

    def test_cold_start_at_rest_and_deterministic(self):
        grid = SpatialGrid1D(32, 10.0)
        a = load_particles(grid, 500, density_amplitude=0.3)
        b = load_particles(grid, 500, density_amplitude=0.3)
        assert not np.any(a.v)
        for name in ("x", "v", "s_hat", "w"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_uniform_positions_stratified(self):
        grid = SpatialGrid1D(32, 10.0)
        n_p = 400
        ens = load_particles(grid, n_p)
        expected = (np.arange(n_p) + 0.5) / n_p * grid.length
        assert np.max(np.abs(ens.x - expected)) < 1e-13

    def test_spin_axis_normalised(self):
        grid = SpatialGrid1D(32, 10.0)
        ens = load_particles(grid, 50, spin=[0.0, 3.0, 4.0])
        assert np.max(np.abs(ens.s_hat - [0.0, 0.6, 0.8])) < 1e-15

    def test_second_density_mode_recovered(self):
        grid = SpatialGrid1D(64, 2 * np.pi)
        amp = 0.08
        ens = load_particles(grid, 64 * 200, density_amplitude=amp, density_mode=2)
        n = -deposit_charge(ens, PARAMS) / PARAMS.charge
        assert np.max(np.abs(n - (1 + amp * np.cos(2 * grid.x)))) < 1e-3


class TestValidation:
    def test_non_unit_spin_rejected(self):
        grid = SpatialGrid1D(32, 10.0)
        with pytest.raises(ValueError):
            ParticleEnsemble(grid, np.array([1.0]), np.zeros((1, 3)),
                             np.array([[0.0, 0.0, 0.5]]), np.array([1.0]))

    def test_nan_spin_rejected(self):
        grid = SpatialGrid1D(32, 10.0)
        s_hat = np.array([[np.nan, 0.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="unit vectors.*nan"):
            ParticleEnsemble(grid, np.array([1.0, 2.0]), np.zeros((2, 3)),
                             s_hat, np.ones(2))

    def test_nonpositive_weight_rejected(self):
        grid = SpatialGrid1D(32, 10.0)
        with pytest.raises(ValueError):
            ParticleEnsemble(grid, np.array([1.0]), np.zeros((1, 3)),
                             np.array([[0.0, 0.0, 1.0]]), np.array([0.0]))

    def test_positions_wrapped(self):
        grid = SpatialGrid1D(32, 10.0)
        ens = ParticleEnsemble(grid, np.array([12.5, -0.5]), np.zeros((2, 3)),
                               np.tile([0.0, 0.0, 1.0], (2, 1)), np.ones(2))
        assert np.all((ens.x >= 0) & (ens.x < grid.length))
        assert abs(ens.x[0] - 2.5) < 1e-12

    def test_gather_linear_field(self):
        grid = SpatialGrid1D(64, 10.0)
        field = 2.0 + 0.0 * grid.x
        vals = gather(field, np.array([3.14, 7.5]), grid)
        assert np.max(np.abs(vals - 2.0)) < 1e-14


def add_at_deposit(ens, values):
    """Scatter-add CIC reference: sum_i values_i S_j(x_i) per node j."""
    grid = ens.grid
    xi = ens.x / grid.dx
    i0 = np.floor(xi).astype(int) % grid.n
    frac = xi - np.floor(xi)
    out = np.zeros(grid.n)
    np.add.at(out, i0, values * (1.0 - frac))
    np.add.at(out, (i0 + 1) % grid.n, values * frac)
    return out


def reference_push(ens, fs, params, dt):
    """Boris step gathering each field on its own, spin force per half kick."""
    grid = ens.grid
    e, m = params.charge, params.mass
    dB = fs.metadata.get("dB_nodes")
    if dB is None:
        dB = grid.derivative(fs.B)
    E_p = gather(fs.E, ens.x, grid).T
    B_p = gather(fs.B, ens.x, grid).T

    def half_kick(v):
        force = np.einsum("ap,pa->p", gather(dB, ens.x, grid), ens.s_hat)
        out = v + (-e / m) * E_p * dt / 2
        out[:, 0] += (-params.mu_B / m) * force * dt / 2
        return out

    Bmag = np.linalg.norm(B_p, axis=1)
    v = half_kick(ens.v)
    v = pic.rodrigues_rotate(v, B_p, (e / m) * Bmag * dt)
    v = half_kick(v)
    s_new = pic.rodrigues_rotate(ens.s_hat, B_p,
                                 (2 * params.mu_B / params.hbar) * Bmag * dt)
    return np.mod(ens.x + v[:, 0] * dt, grid.length), v, s_new


def random_ensemble(grid, n, seed):
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(n, 3))
    s /= np.linalg.norm(s, axis=1)[:, None]
    x = rng.uniform(0, grid.length, n)
    x[:2] = [0.0, grid.length - 1e-15]        # both sides of the wrap edge
    return ParticleEnsemble(grid, x, rng.normal(size=(n, 3)) * 0.3, s,
                            rng.uniform(0.5, 1.5, n))


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    orig = getattr(owner, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def tilted_fields(grid):
    fs = FieldState(grid)
    fs.E[0] = 0.2 * np.sin(grid.x)
    fs.E[1] = 0.1
    fs.E[2] = 0.05 * np.cos(2 * grid.x)
    fs.B[0] = 0.3
    fs.B[1] = 0.1 * np.cos(grid.x)
    fs.B[2] = 0.5 + 0.2 * np.sin(grid.x)
    return fs


def gradient_fields(grid):
    fs = external_profiles("gradient_B", dict(B0=0.5, B1=0.1), grid)
    fs.E[0] = 0.2 * np.sin(grid.x)
    return fs


class TestFusedStep:
    def test_bincount_deposit_matches_scatter_add(self):
        grid = SpatialGrid1D(32, 2 * np.pi)
        ens = random_ensemble(grid, 500, seed=1)
        rho, j_free, M, _ = deposit_sources(ens, PARAMS)
        cases = [(rho, -PARAMS.charge * ens.w),
                 (deposit_charge(ens, PARAMS), -PARAMS.charge * ens.w)]
        cases += [(j_free[a], -PARAMS.charge * ens.w * ens.v[:, a])
                  for a in range(3)]
        cases += [(M[a], -3 * PARAMS.mu_B * ens.w * ens.s_hat[:, a])
                  for a in range(3)]
        for got, values in cases:
            ref = add_at_deposit(ens, values) / grid.dx
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_shape_follows_reassigned_positions(self):
        grid = SpatialGrid1D(32, 10.0)
        ens = single_particle(grid, x=1.0)
        deposit_charge(ens, PARAMS)
        with pytest.raises(ValueError):
            ens.x[0] = 3.37             # in place would leave a stale shape
        ens.x = np.array([13.37])       # reassignment wraps and stays read-only
        assert abs(ens.x[0] - 3.37) < 1e-12
        with pytest.raises(ValueError):
            ens.x[0] = 1.0
        ref = add_at_deposit(ens, -PARAMS.charge * ens.w) / grid.dx
        assert np.max(np.abs(deposit_charge(ens, PARAMS) - ref)) < 1e-14

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(-20.0, 20.0),
                              st.floats(1e-3, 1e3)),
                    min_size=1, max_size=40))
    def test_deposited_charge_integrates_to_total(self, particles):
        grid = SpatialGrid1D(16, 5.0)
        x, w = np.array(particles).T
        n = len(w)
        ens = ParticleEnsemble(grid, x, np.zeros((n, 3)),
                               np.tile([0.0, 0.0, 1.0], (n, 1)), w)
        total = -PARAMS.charge * np.sum(w)
        assert abs(grid.integrate(deposit_charge(ens, PARAMS)) - total) \
            <= 1e-12 * abs(total)

    @pytest.mark.parametrize("fields", [tilted_fields, gradient_fields])
    def test_single_gather_push_matches_per_component_push(self, fields):
        grid = SpatialGrid1D(32, 2 * np.pi)
        fs = fields(grid)
        ens = random_ensemble(grid, 200, seed=2)
        for _ in range(5):
            x_ref, v_ref, s_ref = reference_push(ens, fs, PARAMS, 0.05)
            ens = push_particles(ens, fs, PARAMS, 0.05)
            assert np.max(np.abs(ens.x - x_ref)) <= 1e-14 * grid.length
            assert np.max(np.abs(ens.v - v_ref)) <= 1e-14
            assert np.max(np.abs(ens.s_hat - s_ref)) <= 1e-14

    def test_push_skips_constructor_but_keeps_spin_guard(self, monkeypatch):
        grid = SpatialGrid1D(32, 2 * np.pi)
        fs = tilted_fields(grid)
        ens = random_ensemble(grid, 50, seed=3)
        inits = counting(monkeypatch, ParticleEnsemble, "__post_init__")
        for _ in range(3):
            ens = push_particles(ens, fs, PARAMS, 0.05)
        assert inits == []
        assert np.all((ens.x >= 0) & (ens.x < grid.length))
        rotate = pic.rodrigues_rotate
        monkeypatch.setattr(pic, "rodrigues_rotate",
                            lambda v, axis, angle: 2 * rotate(v, axis, angle))
        with pytest.raises(ValueError, match="unit vectors"):
            push_particles(ens, fs, PARAMS, 0.05)
        assert inits == []

    def test_one_spin_force_and_one_gather_per_push(self, monkeypatch):
        grid = SpatialGrid1D(32, 2 * np.pi)
        fs = gradient_fields(grid)
        ens = random_ensemble(grid, 50, seed=4)
        forces = counting(monkeypatch, pic, "_spin_force")
        gathers = counting(monkeypatch, pic, "gather")
        for _ in range(4):
            ens = push_particles(ens, fs, PARAMS, 0.05)
        assert len(forces) == 4 and len(gathers) == 4

    def test_one_shape_evaluation_per_plasma_step(self, monkeypatch, tmp_path):
        from spinkin.scenarios import run_case

        shapes = counting(monkeypatch, pic, "_cic")
        cfg = config_from_dict(dict(scenario="plasma_osc", n_x=16,
                                    n_particles=400, dt=0.1, t_end=2.0))
        _, status = run_case(cfg, out_dir=str(tmp_path))
        assert status == "completed"
        # setup deposit + one per step; pushes and snapshots reuse them
        assert len(shapes) == cfg.n_steps + 1


def floor_cic(x, grid):
    """Floor-and-modulo CIC (i0, i1, w0, w1): the reference for `_cic`."""
    xi = x / grid.dx
    cell = np.floor(xi)
    i0 = cell.astype(int) % grid.n
    frac = xi - cell
    return i0, (i0 + 1) % grid.n, 1.0 - frac, frac


# on the second grid the position just below L has x / dx == n in floats
EDGE_GRIDS = (SpatialGrid1D(16, 5.0), SpatialGrid1D(12, 0.25))
positions = st.lists(st.floats(-40.0, 40.0), max_size=30)


class TestShapeAndWrap:
    def test_edge_grid_rounds_to_n(self):
        grid = EDGE_GRIDS[1]
        assert np.nextafter(grid.length, 0) / grid.dx == grid.n

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(EDGE_GRIDS), positions)
    def test_cached_shape_equals_floor_formula(self, grid, raw):
        L = grid.length
        x = np.mod(np.array([0.0, np.nextafter(L, 0)] + raw), L)
        ens = ParticleEnsemble(grid, x, np.zeros((len(x), 3)),
                               np.tile([0.0, 0.0, 1.0], (len(x), 1)),
                               np.ones(len(x)))
        idx, wts = ens.cic()
        i0, i1, w0, w1 = floor_cic(x, grid)
        assert idx.shape == wts.shape == (2, len(x))
        assert np.array_equal(idx, [i0, i1])
        assert wts.tobytes() == np.array([w0, w1]).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(EDGE_GRIDS), positions)
    def test_gather_takes_any_position_periodically(self, grid, raw):
        L = grid.length
        x = np.array([-L, -1e-300, L, 2.5 * L, np.nextafter(L, 0)] + raw)
        field = np.array([np.sin(grid.x), 1.0 + np.cos(3 * grid.x)])
        i0, i1, w0, w1 = floor_cic(np.mod(x, L), grid)
        ref = field[:, i0] * w0 + field[:, i1] * w1
        assert gather(field, x, grid).tobytes() == ref.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(EDGE_GRIDS), positions)
    def test_masked_wrap_is_np_mod(self, grid, raw):
        L = grid.length
        x = np.array([-0.0, 0.0, -1e-300, L, np.nextafter(L, 0), -L] + raw)
        before = x.copy()
        wrapped = pic._wrap(x, L)
        assert wrapped.tobytes() == np.mod(x, L).tobytes()
        assert x.tobytes() == before.tobytes()      # a copy, input untouched


class TestSpinStats:
    def test_cache_matches_recomputation_while_spins_rotate(self):
        grid = SpatialGrid1D(32, 10.0)
        fs = external_profiles("uniform_B", dict(B0=0.9), grid)
        ens = random_ensemble(grid, 300, seed=5)
        for _ in range(40):
            ens = push_particles(ens, fs, PARAMS, 0.05)
            mean, dev = ens.spin_stats()
            norm = np.sqrt(np.einsum("pa,pa->p", ens.s_hat, ens.s_hat))
            assert mean.tobytes() == np.mean(ens.s_hat, axis=0).tobytes()
            assert dev == float(np.max(np.abs(norm - 1.0)))

    def test_unrotated_spins_keep_their_stats(self):
        grid = SpatialGrid1D(32, 2 * np.pi)
        fs = FieldState(grid)
        fs.E[0] = 0.2 * np.sin(grid.x)
        ens = random_ensemble(grid, 100, seed=6)
        stats = ens.spin_stats()
        pushed = push_particles(ens, fs, PARAMS, 0.05)
        assert pushed.s_hat is ens.s_hat
        assert pushed.spin_stats()[0] is stats[0]

    def test_spins_read_only_and_caller_array_not_frozen(self):
        grid = SpatialGrid1D(32, 10.0)
        s = np.array([[0.0, 0.0, 1.0]])
        ens = ParticleEnsemble(grid, np.array([1.0]), np.zeros((1, 3)), s,
                               np.ones(1))
        with pytest.raises(ValueError):
            ens.s_hat[0, 0] = 1.0       # in place would leave stale stats
        s[0] = [1.0, 0.0, 0.0]          # the caller's array stays writeable
        assert np.array_equal(ens.s_hat, [[0.0, 0.0, 1.0]])

    def test_reassigned_spins_refresh_stats(self):
        grid = SpatialGrid1D(32, 10.0)
        ens = random_ensemble(grid, 50, seed=7)
        old_mean, _ = ens.spin_stats()
        new = pic.rodrigues_rotate(ens.s_hat, [0.0, 1.0, 0.0], 0.7)
        ens.s_hat = new
        mean, dev = ens.spin_stats()
        norm = np.sqrt(np.einsum("pa,pa->p", new, new))
        assert mean.tobytes() == np.mean(new, axis=0).tobytes()
        assert not np.array_equal(mean, old_mean)
        assert dev == float(np.max(np.abs(norm - 1.0)))
        with pytest.raises(ValueError):
            ens.s_hat[0, 0] = 1.0
        ens.s_hat = 2 * new
        with pytest.raises(ValueError, match="unit vectors"):
            ens.spin_stats()


def every_branch_fields(grid):
    """Tilted E and B with a gradient overlay: E, B and dB/dx rows all nonzero."""
    fs = gradient_fields(grid)
    fs.E[1] = 0.1
    fs.E[2] = 0.05 * np.cos(2 * grid.x)
    fs.B[0] = 0.3
    fs.B[1] = 0.1
    return fs


class TestNoWriteThrough:
    @pytest.mark.parametrize("fields", [tilted_fields, gradient_fields,
                                        every_branch_fields])
    def test_steps_leave_inputs_unchanged(self, fields):
        grid = SpatialGrid1D(32, 2 * np.pi)
        fs = fields(grid)
        ens = random_ensemble(grid, 300, seed=8)
        idx, wts = ens.cic()
        inputs = [ens.x, ens.v, ens.s_hat, ens.w, idx, wts, fs.E, fs.B]
        if "dB_nodes" in fs.metadata:
            inputs.append(fs.metadata["dB_nodes"])
        before = [a.tobytes() for a in inputs]
        sources = [a.tobytes() for a in deposit_sources(ens, PARAMS)]
        pushed = ens
        for _ in range(3):
            pushed = push_particles(pushed, fs, PARAMS, 0.05)
            deposit_charge(pushed, PARAMS)
            deposit_sources(pushed, PARAMS)
        assert [a.tobytes() for a in inputs] == before
        # the deposit scratch buffer moved on with the successors
        assert [a.tobytes() for a in deposit_sources(ens, PARAMS)] == sources
        fresh = ParticleEnsemble(grid, pushed.x, pushed.v, pushed.s_hat, pushed.w)
        assert ([a.tobytes() for a in deposit_sources(pushed, PARAMS)]
                == [a.tobytes() for a in deposit_sources(fresh, PARAMS)])
        assert ens.cic()[0] is idx and ens.cic()[1] is wts
        for new, old in ((pushed.x, ens.x), (pushed.v, ens.v),
                         (pushed.s_hat, ens.s_hat)):
            assert not np.shares_memory(new, old)

    def test_gather_leaves_field_and_positions_unchanged(self):
        grid = SpatialGrid1D(32, 2 * np.pi)
        ens = random_ensemble(grid, 100, seed=9)
        field = tilted_fields(grid).B
        x = np.array([-1.0, 0.5, 2 * grid.length, 3.0])
        before = field.tobytes(), x.tobytes(), ens.x.tobytes()
        gather(field, ens.x, grid, ens.cic())
        gather(field, x, grid)
        gather(field[2], x, grid)
        assert (field.tobytes(), x.tobytes(), ens.x.tobytes()) == before


def cdf_residual(ens, amp, mode):
    L = ens.grid.length
    k = 2 * np.pi * mode / L
    u = (np.arange(ens.n_particles) + 0.5) / ens.n_particles
    return np.max(np.abs((ens.x + amp * np.sin(k * ens.x) / k) / L - u))


class TestDensityInversion:
    @pytest.mark.parametrize("amp", [1e-3, 0.5, 0.99, -0.99])
    @pytest.mark.parametrize("mode", [1, 3])
    def test_cdf_residual_within_ulps(self, amp, mode):
        grid = SpatialGrid1D(64, 10.0)
        ens = load_particles(grid, 20_000, density_amplitude=amp,
                             density_mode=mode)
        assert cdf_residual(ens, amp, mode) <= 4 * np.finfo(float).eps

    def test_density_recovered_near_amplitude_one(self):
        grid = SpatialGrid1D(64, 2 * np.pi)
        amp = 0.99
        ens = load_particles(grid, 64 * 200, density_amplitude=amp)
        rho, _, _, _ = deposit_sources(ens, PARAMS)
        n = -rho / PARAMS.charge
        assert np.max(np.abs(n - (1 + amp * np.cos(grid.x)))) < 1e-2

    def test_plasma_osc_preset_takes_three_steps(self, monkeypatch):
        grid = SpatialGrid1D(128, 10.0)
        monkeypatch.setattr(pic, "_NEWTON_MAX_ITER", 3)
        ens = load_particles(grid, 100_000, density_amplitude=1e-3)
        assert cdf_residual(ens, 1e-3, 1) <= 4 * np.finfo(float).eps
        monkeypatch.setattr(pic, "_NEWTON_MAX_ITER", 2)
        with pytest.raises(ValueError, match="did not converge in 2 Newton"):
            load_particles(grid, 100_000, density_amplitude=1e-3)

    @pytest.mark.parametrize("amp", [1.0, -1.0, 1.5])
    def test_amplitude_of_one_or_more_raises(self, amp):
        with pytest.raises(ValueError, match="negative density"):
            load_particles(SpatialGrid1D(32, 10.0), 100, density_amplitude=amp)

    def test_run_aborts_at_step_zero_and_names_cause(self, tmp_path):
        from spinkin.scenarios import run_case

        cfg = config_from_dict(dict(scenario="plasma_osc", n_x=16,
                                    n_particles=400, dt=0.1, t_end=1.0,
                                    perturbation=1.5))
        run_dir, status = run_case(cfg, out_dir=str(tmp_path))
        assert status.startswith("aborted: density amplitude 1.5 gives a "
                                 "negative density")
        assert status.endswith("(step 0)")
        with open(f"{run_dir}/run.json") as fh:
            assert json.load(fh)["status"] == status
