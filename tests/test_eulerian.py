import numpy as np
import pytest

from spinkin import sphere
from spinkin.eulerian import (
    ExtendedDistribution,
    _add_increment,
    _closed_form_increment,
    _project_l1,
    _rotate_sphere,
    advect_axis,
    eulerian_step,
    quantum_term_increment,
    uniform_velocity_axis,
)
from spinkin.fields import FieldState, external_profiles
from spinkin.grid import SpatialGrid1D
from spinkin.params import PlasmaParams
from spinkin.sphere import SphereQuadrature

PARAMS = PlasmaParams()
QUAD = SphereQuadrature(8, 16)


def gaussian_1v(grid, v, x0=None, vw=0.6, xw=None, spin_vec=None,
                uniform_x=False):
    x0 = grid.length / 2 if x0 is None else x0
    xw = grid.length / 8 if xw is None else xw
    if uniform_x:
        gx = np.ones(grid.n)
    else:
        gx = sum(np.exp(-((grid.x - x0 - grid.length * j) ** 2) / (2 * xw**2))
                 for j in (-1, 0, 1))
    gv = np.exp(-(v**2) / (2 * vw**2))
    sphere = np.full((QUAD.n_theta, QUAD.n_phi), 1 / (4 * np.pi))
    if spin_vec is not None:
        sphere = (1 + QUAD.s_hat @ np.asarray(spin_vec)) / (4 * np.pi)
    vals = gx[:, None, None, None] * gv[None, :, None, None] * sphere
    return ExtendedDistribution(grid, (v,), QUAD, vals)


class TestFreeStreaming:
    def run_case(self, n_x, limiter):
        grid = SpatialGrid1D(n_x, 10.0)
        v = uniform_velocity_axis(16, 2.0)
        f = gaussian_1v(grid, v, xw=0.8)
        fs = FieldState(grid)
        t_end = 1.0
        steps = max(8, int(np.ceil(2.0 * t_end / (0.8 * grid.dx))))
        cur = f
        for _ in range(steps):
            cur = eulerian_step(cur, fs, PARAMS, t_end / steps, limiter=limiter)
        # exact solution: each v slice shifted by v t (periodically)
        err = 0.0
        for j, vj in enumerate(v):
            gx = sum(np.exp(-((np.mod(grid.x - vj * t_end, grid.length)
                               - 5.0 - 10.0 * k) ** 2) / (2 * 0.8**2))
                     for k in (-1, 0, 1))
            exact = gx * np.exp(-(vj**2) / (2 * 0.6**2)) / (4 * np.pi)
            err += np.sum(np.abs(cur.values[:, j, 0, 0] - exact)) * grid.dx
        return err

    def test_second_order_without_limiter(self):
        errs = [self.run_case(n, "none") for n in (32, 64, 128)]
        slope = np.polyfit(np.log([10.0 / n for n in (32, 64, 128)]),
                           np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.4

    def test_limited_scheme_converges_and_stays_positive(self):
        errs = [self.run_case(n, "mc") for n in (32, 64)]
        assert errs[1] < errs[0]
        grid = SpatialGrid1D(64, 10.0)
        v = uniform_velocity_axis(16, 2.0)
        f = gaussian_1v(grid, v)
        cur = f
        for _ in range(30):
            cur = eulerian_step(cur, FieldState(grid), PARAMS, 0.04)
        assert cur.values.min() >= 0.0

    def test_mass_conserved(self):
        grid = SpatialGrid1D(48, 10.0)
        v = uniform_velocity_axis(16, 2.0)
        f = gaussian_1v(grid, v, spin_vec=[0.3, 0.1, 0.5])
        fs = external_profiles("uniform_B", dict(B0=0.4), grid)
        cur = f
        m0 = cur.total()
        for _ in range(50):
            cur = eulerian_step(cur, fs, PARAMS, 0.02)
        assert abs(cur.total() - m0) < 1e-12 * m0


class TestSpinRotation:
    def test_rigid_rotation_about_z(self):
        grid = SpatialGrid1D(8, 10.0)
        v = uniform_velocity_axis(8, 1.0)
        f = gaussian_1v(grid, v, spin_vec=[0.6, 0.0, 0.0], uniform_x=True)
        B0 = 0.8
        fs = external_profiles("uniform_B", dict(B0=B0), grid)
        omega = 2 * PARAMS.mu_B * B0 / PARAMS.hbar
        quarter = np.pi / 2 / omega
        steps = 40
        cur = f
        for _ in range(steps):
            cur = eulerian_step(cur, fs, PARAMS, quarter / steps)
        # x_hat pattern becomes y_hat pattern
        expect = gaussian_1v(grid, v, spin_vec=[0.0, 0.6, 0.0], uniform_x=True)
        assert np.max(np.abs(cur.values - expect.values)) < 1e-12
        # full period returns the initial state
        for _ in range(3 * steps):
            cur = eulerian_step(cur, fs, PARAMS, quarter / steps)
        assert np.max(np.abs(cur.values - f.values)) < 1e-11

    def test_rotation_about_general_axis(self):
        grid = SpatialGrid1D(4, 10.0)
        v = uniform_velocity_axis(4, 1.0)
        vec = np.array([0.4, 0.0, 0.2])
        f = gaussian_1v(grid, v, spin_vec=vec, uniform_x=True)
        fs = FieldState(grid)
        B0 = 0.5
        fs.B[0] = B0  # uniform B along x, handled by the harmonic path
        omega = 2 * PARAMS.mu_B * B0 / PARAMS.hbar
        dt = 0.3 / omega
        cur = eulerian_step(f, fs, PARAMS, dt)
        from spinkin.rotation import rodrigues_rotate

        rotated = rodrigues_rotate(vec, [1.0, 0.0, 0.0], omega * dt)
        expect = gaussian_1v(grid, v, spin_vec=rotated, uniform_x=True)
        assert np.max(np.abs(cur.values - expect.values)) < 1e-11


class TestQuantumTerm:
    def setup_case(self):
        grid = SpatialGrid1D(32, 2 * np.pi)
        v = uniform_velocity_axis(32, 3.0)
        fs = FieldState(grid)
        fs.B[2] = 0.5 + 0.2 * np.sin(grid.x)
        f = gaussian_1v(grid, v, spin_vec=[0.4, 0.2, 0.3])
        return grid, v, fs, f

    def test_spin_independent_f_unaffected(self):
        grid, v, fs, _ = self.setup_case()
        f = gaussian_1v(grid, v)  # uniform over the sphere
        dt = 0.02
        on = eulerian_step(f, fs, PARAMS, dt, quantum_term=True)
        off = eulerian_step(f, fs, PARAMS, dt, quantum_term=False)
        assert np.max(np.abs(on.values - off.values)) < 1e-13

    def test_field_gradient_evaluated_once_per_step(self, monkeypatch):
        # a tilted B with no metadata['dB_nodes'], so d_x B is the spectral
        # derivative; the v acceleration and the quantum flux share it
        grid, v, fs, f = self.setup_case()
        fs.B[0] = 0.3
        assert "dB_nodes" not in fs.metadata
        db_nodes = FieldState.db_nodes
        calls = []

        def counted(self):
            calls.append(1)
            return db_nodes(self)

        monkeypatch.setattr(FieldState, "db_nodes", counted)
        for _ in range(3):
            f = eulerian_step(f, fs, PARAMS, 0.02, quantum_term=True)
        assert len(calls) == 3

    def test_one_step_difference_matches_analytic_increment(self):
        grid, v, fs, f = self.setup_case()
        errs = []
        dts = [0.02, 0.01]
        for dt in dts:
            on = eulerian_step(f, fs, PARAMS, dt, quantum_term=True)
            off = eulerian_step(f, fs, PARAMS, dt, quantum_term=False)
            diff = on.values - off.values
            expected = quantum_term_increment(f, fs, PARAMS, dt)
            errs.append(np.max(np.abs(diff - expected)))
        scale = np.max(np.abs(quantum_term_increment(f, fs, PARAMS, dts[0])))
        assert errs[0] < 0.1 * scale           # leading order captured
        slope = np.log(errs[0] / errs[1]) / np.log(dts[0] / dts[1])
        assert slope > 1.5                     # remainder is O(dt^2)


    @pytest.mark.parametrize("B_y", [0.0, 0.1])
    def test_increment_matches_closed_form(self, B_y):
        # f = g(x, v)(1 + s_hat . F)/4 pi has grad_s f = g (F - s_hat(s_hat .
        # F))/4 pi, so the increment is dt D_v g times G . that, with D_v the
        # solver's centered difference and G = (mu_B/m) d_x B
        grid, v, fs, f = self.setup_case()
        fs.B[1] = B_y * np.cos(grid.x)
        F = np.array([0.4, 0.2, 0.3])
        dt = 0.02
        s = QUAD.s_hat
        g = f.values[..., 0, 0] / ((1 + s[0, 0] @ F) / (4 * np.pi))
        padded = np.pad(g, [(0, 0), (1, 1)])
        dg = (padded[:, 2:] - padded[:, :-2]) / (2 * (v[1] - v[0]))
        grad = (F - s * (s @ F)[..., None]) / (4 * np.pi)
        G = (PARAMS.mu_B / PARAMS.mass) * fs.db_nodes()
        flux = np.einsum("ax,tpa->xtp", G, grad)
        expected = dt * dg[..., None, None] * flux[:, None]
        got = quantum_term_increment(f, fs, PARAMS, dt)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def sphere_moments(values, quad):
    """(F0, F) = (int f dOmega, int s_hat f dOmega) per cell, shape (..., 4)."""
    w = quad.weights
    return np.concatenate(
        [np.einsum("...tp,tp->...", values, w)[..., None],
         np.einsum("...tp,tp,tpa->...a", values, w, quad.s_hat)], axis=-1)


def l_ge_2_part(values, quad):
    """max |f - (F0 + 3 s_hat . F)/4 pi|, the part of f outside l <= 1."""
    m = sphere_moments(values, quad)
    l1 = (m[..., None, None, 0]
          + 3 * np.einsum("...a,tpa->...tp", m[..., 1:], quad.s_hat))
    return np.max(np.abs(values - l1 / (4 * np.pi)))


def closed_form_increment(f, fs, dt):
    """The step's quantum increment over dt on f's moments, as one array."""
    m = sphere_moments(f.values, f.quad)
    dF, K = _closed_form_increment(m[..., 1:], f.quad, fs.db_nodes(), PARAMS,
                                   dt, f.dv[0])
    return _add_increment(np.zeros(f.values.shape), dF, K)


def with_l2_content(f):
    """f plus an l = 2 pattern 0.3 (3 (s_hat . n)^2 - 1) times |f|'s x-v
    profile."""
    n = np.random.default_rng(5).normal(size=3)
    n /= np.linalg.norm(n)
    y2 = 3 * (f.quad.s_hat @ n) ** 2 - 1
    g = np.max(np.abs(f.values), axis=(-2, -1))
    vals = f.values + 0.3 * g[..., None, None] * y2
    return ExtendedDistribution(f.grid, f.v_axes, f.quad, vals)


class TestClosedFormQuantumTerm:
    """With the quantum term on, a step projects its input onto l <= 1 and
    adds the term in closed form from the moments (F0, F)."""

    def test_projection_keeps_moments_and_is_idempotent(self):
        f, _ = eulerian_spin_case(2011)
        f = with_l2_content(f)
        once = np.empty(f.values.shape)
        moments = _project_l1(f.values, f.quad, once)
        ref = sphere_moments(f.values, f.quad)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(moments - ref)) <= 1e-14 * scale
        assert np.max(np.abs(sphere_moments(once, f.quad) - ref)) <= 1e-14 * scale
        assert l_ge_2_part(f.values, f.quad) > 0.1 * np.max(f.values)
        twice = np.empty(once.shape)
        _project_l1(once, f.quad, twice)
        assert np.max(np.abs(twice - once)) <= 1e-14 * np.max(np.abs(once))

    @staticmethod
    def two_gradients_case():
        # TestQuantumTerm's case with B_y = 0.1 cos x beside B_z's gradient
        grid = SpatialGrid1D(32, 2 * np.pi)
        fs = FieldState(grid)
        fs.B[1] = 0.1 * np.cos(grid.x)
        fs.B[2] = 0.5 + 0.2 * np.sin(grid.x)
        f = gaussian_1v(grid, uniform_velocity_axis(32, 3.0),
                        spin_vec=[0.4, 0.2, 0.3])
        return f, fs

    @staticmethod
    def two_v_case():
        f, _ = drifting_2v_case()
        fs = FieldState(f.grid)
        fs.B[0] = 0.3
        fs.B[2] = 0.5 + 0.2 * np.sin(2 * np.pi * f.grid.x / f.grid.length)
        return f, fs

    @pytest.mark.parametrize("case", ["eulerian_spin", "two_gradients",
                                      "two_v"])
    def test_increment_matches_sphere_gradient(self, case):
        f, fs = {"eulerian_spin": lambda: eulerian_spin_case(2011),
                 "two_gradients": self.two_gradients_case,
                 "two_v": self.two_v_case}[case]()
        expected = quantum_term_increment(f, fs, PARAMS, 0.02)
        got = closed_form_increment(f, fs, 0.02)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_isotropic_input_unchanged(self):
        f, fs = eulerian_spin_case(2011)
        n0 = np.sum(f.values * f.quad.weights, axis=(-2, -1)) / (4 * np.pi)
        iso = n0[..., None, None] * np.ones(f.quad.weights.shape)
        projected = np.empty(iso.shape)
        _project_l1(iso, f.quad, projected)
        assert np.max(np.abs(projected - iso)) < 1e-13
        f_iso = ExtendedDistribution(f.grid, f.v_axes, f.quad, iso)
        assert np.max(np.abs(closed_form_increment(f_iso, fs, 0.02))) < 1e-13

    def test_step_advances_the_projection_of_its_input(self):
        f, fs = eulerian_spin_case(2016)
        rough = with_l2_content(f)
        projected = np.empty(f.values.shape)
        _project_l1(rough.values, f.quad, projected)
        ref = eulerian_step(ExtendedDistribution(f.grid, f.v_axes, f.quad,
                                                 projected),
                            fs, PARAMS, 0.02, quantum_term=True)
        got = eulerian_step(rough, fs, PARAMS, 0.02, quantum_term=True)
        assert np.max(np.abs(got.values - ref.values)) <= (
            1e-13 * np.max(np.abs(ref.values)))


class TestQuantumTermLongRun:
    def test_l1_part_stays_bounded_over_400_steps(self):
        # the eulerian_spin field and spin on 32 x 32 cells: on the sphere
        # grid, an l >= 2 part left in f grows under the quantum term without
        # bound (unprojected, max |f| reaches 64 x its initial max and the
        # l >= 2 part 62 x by step 400); projected steps read 0.75 and 1.4e-3
        f, fs = eulerian_spin_case(2011, n=32)
        f_max = np.max(np.abs(f.values))
        for _ in range(400):
            f = eulerian_step(f, fs, PARAMS, 0.02, quantum_term=True)
        assert np.max(np.abs(f.values)) <= 1.0 * f_max
        assert l_ge_2_part(f.values, f.quad) <= 1e-2 * f_max


class TestForcesAndCfl:
    def test_uniform_electric_force_shifts_mean_velocity(self):
        grid = SpatialGrid1D(16, 10.0)
        v = uniform_velocity_axis(64, 3.0)
        f = gaussian_1v(grid, v, vw=0.5)
        fs = FieldState(grid)
        fs.E[0] = 0.3
        dt, steps = 0.02, 50
        cur = f
        for _ in range(steps):
            cur = eulerian_step(cur, fs, PARAMS, dt)
        fv = np.sum(cur.values * cur.quad.weights, axis=(0, 2, 3))
        mean_v = np.sum(fv * v) / np.sum(fv)
        expected = -(PARAMS.charge / PARAMS.mass) * 0.3 * steps * dt
        assert abs(mean_v - expected) < 2e-3

    def test_cfl_rejections_quote_ratio(self):
        grid = SpatialGrid1D(16, 10.0)
        v = uniform_velocity_axis(8, 2.0)
        f = gaussian_1v(grid, v)
        with pytest.raises(ValueError, match="ratio"):
            eulerian_step(f, FieldState(grid), PARAMS, 10.0)
        fs = external_profiles("uniform_B", dict(B0=3.0), grid)
        with pytest.raises(ValueError, match="spin rotation"):
            eulerian_step(f, fs, PARAMS, 0.3)

    def test_invalid_limiter_rejected(self):
        grid = SpatialGrid1D(16, 10.0)
        v = uniform_velocity_axis(8, 2.0)
        f = gaussian_1v(grid, v)
        with pytest.raises(ValueError):
            eulerian_step(f, FieldState(grid), PARAMS, 0.01, limiter="superbee")


class TestTwoV:
    def test_mean_velocity_gyrates(self):
        grid = SpatialGrid1D(4, 10.0)
        vx = uniform_velocity_axis(48, 3.0)
        vy = uniform_velocity_axis(48, 3.0)
        quad = QUAD
        v0, vw = 1.0, 0.45
        gx = np.ones(grid.n)
        fv = (np.exp(-((vx[:, None] - v0) ** 2 + vy[None, :] ** 2) / (2 * vw**2)))
        vals = (gx[:, None, None, None, None]
                * fv[None, :, :, None, None]
                * np.full((quad.n_theta, quad.n_phi), 1 / (4 * np.pi)))
        f = ExtendedDistribution(grid, (vx, vy), quad, vals)
        B0 = 0.5
        fs = external_profiles("uniform_B", dict(B0=B0), grid)
        omega_c = PARAMS.charge * B0 / PARAMS.mass
        quarter = np.pi / 2 / omega_c
        steps = 60
        cur = f
        for _ in range(steps):
            cur = eulerian_step(cur, fs, PARAMS, quarter / steps)
        fvv = np.sum(cur.values * quad.weights, axis=(0, 3, 4))
        norm = np.sum(fvv)
        mean_vx = np.sum(fvv * vx[:, None]) / norm
        mean_vy = np.sum(fvv * vy[None, :]) / norm
        # dv/dt = (e/m) B x v: after a quarter period x_hat -> y_hat
        assert abs(mean_vx) < 0.02
        assert abs(mean_vy - v0) < 0.02


def test_moments_factor_three_rule():
    grid = SpatialGrid1D(16, 10.0)
    v = uniform_velocity_axis(16, 2.0)
    vec = [0.2, -0.1, 0.4]
    f = gaussian_1v(grid, v, spin_vec=vec)
    n, j_free, M = f.moments(PARAMS)
    # M = -3 mu_B n <s_hat>, and the Q-type first moment is vec/3
    expected = -3 * PARAMS.mu_B * n[None, :] * np.asarray(vec)[:, None] / 3
    assert np.max(np.abs(M - expected)) < 1e-12
    assert np.max(np.abs(j_free)) < 1e-12  # symmetric velocity profile


def reference_mc_slope(qm, q, qp):
    s1 = qp - q
    s2 = q - qm
    mono = s1 * s2 > 0
    return np.where(mono, np.sign(s1) * np.minimum(
        np.minimum(2 * np.abs(s1), 2 * np.abs(s2)), 0.5 * np.abs(s1 + s2)), 0.0)


def reference_advect_axis(values, axis, speed, dt, h, limiter, periodic):
    """MUSCL sweep with speed arrays padded to the full swept shape."""
    q = np.moveaxis(values, axis, 0)
    u = np.broadcast_to(np.moveaxis(np.asarray(speed, dtype=float), axis, 0),
                        q.shape)
    if periodic:
        qp = np.concatenate([q[-2:], q, q[:2]], axis=0)
        up = np.concatenate([u[-2:], u, u[:2]], axis=0)
    else:
        zeros = np.zeros_like(q[:2])
        qp = np.concatenate([zeros, q, zeros], axis=0)
        up = np.concatenate([u[:1], u[:1], u, u[-1:], u[-1:]], axis=0)
    if limiter == "mc":
        sigma = reference_mc_slope(qp[:-2], qp[1:-1], qp[2:])
    else:
        sigma = (qp[2:] - qp[:-2]) / 2
    nu = up * dt / h
    uf = up[1:-2]
    f_pos = uf * (qp[1:-2] + 0.5 * (1 - nu[1:-2]) * sigma[:-1])
    un = up[2:-1]
    f_neg = un * (qp[2:-1] - 0.5 * (1 + nu[2:-1]) * sigma[1:])
    flux = np.where(uf >= 0, f_pos, f_neg)
    out = q - dt / h * (flux[1:] - flux[:-1])
    return np.moveaxis(out, 0, axis)


class TestKernelsMatchReference:
    rng = np.random.default_rng(7)
    V1 = rng.random((12, 10, 4, 8))
    V2 = rng.random((6, 8, 7, 4, 8))
    # flat patches and exact zeros exercise the limiter's sign cases
    V1[:, 3:5] = 0.25
    V2[V2 < 0.15] = 0.0
    SWEEPS = [
        (V1, 0, np.linspace(-2.0, 2.0, 10).reshape(1, 10, 1, 1)),
        (V1, 1, rng.normal(size=(12, 1, 4, 8))),
        (V2, 0, np.linspace(-1.0, 3.0, 8).reshape(1, 8, 1, 1, 1)),
        (V2, 1, rng.normal(size=(6, 1, 7, 4, 8))),
        (V2, 2, rng.normal(size=(6, 8, 1, 1, 1))),
    ]

    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("limiter", ["mc", "none"])
    @pytest.mark.parametrize("case", range(len(SWEEPS)))
    def test_advect_axis_matches_padded_speed_sweep(self, case, limiter,
                                                    periodic):
        values, axis, speed = self.SWEEPS[case]
        got = advect_axis(values, axis, speed, 0.04, 0.1, limiter, periodic)
        ref = reference_advect_axis(values, axis, speed, 0.04, 0.1, limiter,
                                    periodic)
        assert np.sign(speed).min() < 0 < np.sign(speed).max()
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_speed_varying_along_swept_axis_rejected(self):
        speed = np.linspace(-1.0, 1.0, 10).reshape(1, 10, 1, 1)
        with pytest.raises(ValueError, match="size 1 on axis 1"):
            advect_axis(self.V1, 1, speed, 0.01, 0.1)
        with pytest.raises(ValueError, match="size 1 on axis 0"):
            advect_axis(self.V1, 0, np.ones(self.V1.shape), 0.01, 0.1)

    def test_nonuniform_step_builds_rotations_once_without_harmonics(
            self, monkeypatch):
        counts = {"harmonic": 0, "batched": 0, "scalar": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        Q = sphere.SphereQuadrature
        monkeypatch.setattr(Q, "harmonic_matrix",
                            counted("harmonic", Q.harmonic_matrix))
        monkeypatch.setattr(Q, "rotation_interp_matrices",
                            counted("batched", Q.rotation_interp_matrices))
        monkeypatch.setattr(Q, "rotation_interp_matrix",
                            counted("scalar", Q.rotation_interp_matrix))
        grid = SpatialGrid1D(16, 2 * np.pi)
        fs = FieldState(grid)
        fs.B[0] = 0.3
        fs.B[2] = 0.5 + 0.2 * np.sin(grid.x)
        f = gaussian_1v(grid, uniform_velocity_axis(16, 3.0),
                        spin_vec=[0.4, 0.2, 0.3])
        eulerian_step(f, fs, PARAMS, 0.02, quantum_term=True)
        assert counts == {"harmonic": 0, "batched": 1, "scalar": 0}

    def test_rotation_keys_merge_rows_equal_to_rounding(self, monkeypatch):
        # B_z = 0.5 + 0.2 sin x on 64 nodes takes 33 distinct values, of
        # which exact row equality tells 52 apart
        Q = sphere.SphereQuadrature
        batched = Q.rotation_interp_matrices
        built = []

        def counted(quad, axes, angles, lmax=None):
            built.append(len(angles))
            return batched(quad, axes, angles, lmax)

        monkeypatch.setattr(Q, "rotation_interp_matrices", counted)
        grid = SpatialGrid1D(64, 2 * np.pi)
        fs = FieldState(grid)
        fs.B[0] = 0.3
        fs.B[2] = 0.5 + 0.2 * np.sin(grid.x)
        f = gaussian_1v(grid, uniform_velocity_axis(8, 3.0),
                        spin_vec=[0.4, 0.2, 0.3])
        dt = 0.02
        eulerian_step(f, fs, PARAMS, dt)
        assert built == [33]

        angle = (2 * PARAMS.mu_B / PARAMS.hbar
                 * np.linalg.norm(fs.B, axis=0) * dt)
        per_node = batched(QUAD, fs.B.T, angle)
        flat = f.values.reshape(grid.n, -1, QUAD.n_theta * QUAD.n_phi)
        ref = np.einsum("xvj,xij->xvi", flat, per_node).reshape(f.values.shape)
        got = _rotate_sphere(f.values, QUAD, fs.B, PARAMS, dt)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


# The MUSCL kernels as written when every block allocated its own padded
# copy, slopes and faces: the buffered sweeps must match them bit for bit.
_PARENT_BLOCK_CELLS = 1 << 14


def parent_mc_slope(qp):
    d = np.diff(qp, axis=1)
    sign = np.sign(d)
    factor = sign[:, 1:] + sign[:, :-1]
    a = np.abs(d)
    lim = np.minimum(a[:, 1:], a[:, :-1])
    centered = d[:, 1:] + d[:, :-1]
    np.abs(centered, out=centered)
    centered *= 0.25
    np.minimum(lim, centered, out=lim)
    lim *= factor
    return lim


def parent_muscl_sweep(q, u, dt, h, limiter, periodic):
    if periodic:
        qp = np.concatenate([q[:, -2:], q, q[:, :2]], axis=1)
    else:
        zeros = np.zeros_like(q[:, :2])
        qp = np.concatenate([zeros, q, zeros], axis=1)
    if limiter == "mc":
        sigma = parent_mc_slope(qp)
    else:
        sigma = (qp[:, 2:] - qp[:, :-2]) / 2
    nu = u * dt / h
    from_left = 0.5 * (1 - nu) * sigma[:, :-1]
    from_left += qp[:, 1:-2]
    from_right = 0.5 * (1 + nu) * sigma[:, 1:]
    np.subtract(qp[:, 2:-1], from_right, out=from_right)
    flux = np.where(u >= 0, from_left, from_right)
    flux *= u
    div = np.diff(flux, axis=1)
    div *= dt / h
    return q - div


def parent_advect_axis(values, axis, speed, dt, h, limiter="mc",
                       periodic=False):
    values = np.ascontiguousarray(values, dtype=float)
    u = np.asarray(speed, dtype=float)
    u = u.reshape((1,) * (values.ndim - u.ndim) + u.shape)
    n = values.shape[axis]
    rows = int(np.prod(values.shape[:axis]))
    cols = int(np.prod(values.shape[axis + 1:]))
    q = values.reshape(rows, n, cols)
    u = np.broadcast_to(u, (*values.shape[:axis], 1, *values.shape[axis + 1:]))
    u = u.reshape(rows, 1, cols)
    out = np.empty_like(q)
    row_step = max(1, _PARENT_BLOCK_CELLS // (n * cols))
    col_step = cols if row_step > 1 else max(1, _PARENT_BLOCK_CELLS // n)
    for r in range(0, rows, row_step):
        for c in range(0, cols, col_step):
            block = (slice(r, r + row_step), slice(None), slice(c, c + col_step))
            out[block] = parent_muscl_sweep(q[block], u[block], dt, h, limiter,
                                            periodic)
    return out.reshape(values.shape)


def _sweep_values(shape, seed):
    """Random f with flat patches, exact zeros and signed zeros, so every
    sign case of the limiter occurs."""
    rng = np.random.default_rng(seed)
    values = rng.random(shape)
    values[values < 0.15] = 0.0
    flat = values.reshape(-1)
    flat[::17] = 0.25
    flat[5::23] = -0.0
    return values


def _sweep_speed(shape, axis, sign, seed):
    """One speed per swept line: all >= 0 (with exact zeros), all < 0, or
    both signs inside every block."""
    rng = np.random.default_rng(seed)
    speed_shape = tuple(1 if a == axis else s for a, s in enumerate(shape))
    u = rng.uniform(0.0, 2.0, speed_shape)
    if sign == "nonneg":
        u.reshape(-1)[::7] = 0.0
    elif sign == "neg":
        u = -u - 1e-3
    else:
        u.reshape(-1)[::2] *= -1.0
        u.reshape(-1)[::11] = 0.0
    return u


class TestSweepsBitIdentical:
    # (shape, axis): the first two split into blocks along rows (last one
    # partial), the next two along columns (n * cols > one block), and the
    # last sweeps axis 2 of a five-axis array in row blocks
    LAYOUTS = [((40, 30, 20), 1), ((3, 4, 50, 100), 2), ((70, 10, 30), 0),
               ((6, 90, 200), 1), ((4, 3, 5, 40, 12), 2)]

    @pytest.mark.parametrize("sign", ["nonneg", "neg", "mixed"])
    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("limiter", ["mc", "none"])
    @pytest.mark.parametrize("layout", range(len(LAYOUTS)))
    def test_advect_axis_matches_per_block_allocating_sweep(
            self, layout, limiter, periodic, sign):
        shape, axis = self.LAYOUTS[layout]
        values = _sweep_values(shape, layout)
        speed = _sweep_speed(shape, axis, sign, 10 + layout)
        got = advect_axis(values, axis, speed, 0.04, 0.1, limiter, periodic)
        ref = parent_advect_axis(values, axis, speed, 0.04, 0.1, limiter,
                                 periodic)
        assert got.shape == values.shape
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))

    def test_layouts_split_blocks_both_ways(self):
        for shape, axis in self.LAYOUTS:
            n = shape[axis]
            rows = int(np.prod(shape[:axis]))
            cols = int(np.prod(shape[axis + 1:]))
            row_step = max(1, _PARENT_BLOCK_CELLS // (n * cols))
            col_step = cols if row_step > 1 else _PARENT_BLOCK_CELLS // n
            assert rows > row_step or cols > col_step
        assert any(s[a] * int(np.prod(s[a + 1:])) > _PARENT_BLOCK_CELLS
                   for s, a in self.LAYOUTS)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_broadcast_speed_on_every_axis(self, axis):
        values = _sweep_values((9, 11, 13, 4), 3)
        shape = [1] * values.ndim
        shape[(axis + 1) % values.ndim] = values.shape[(axis + 1) % values.ndim]
        speed = np.linspace(-1.5, 1.5, int(np.prod(shape))).reshape(shape)
        for periodic in (True, False):
            got = advect_axis(values, axis, speed, 0.03, 0.1, "mc", periodic)
            ref = parent_advect_axis(values, axis, speed, 0.03, 0.1, "mc",
                                     periodic)
            assert np.array_equal(got, ref)

    # a 2V array whose sweeps on every axis split into several blocks
    SHAPE_2V = (12, 20, 16, 4, 8)

    @pytest.mark.parametrize("sign", ["nonneg", "neg", "mixed"])
    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("limiter", ["mc", "none"])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_in_place_matches_out_of_place(self, axis, limiter, periodic,
                                           sign):
        values = _sweep_values(self.SHAPE_2V, 30 + axis)
        speed = _sweep_speed(self.SHAPE_2V, axis, sign, 40 + axis)
        ref = advect_axis(values, axis, speed, 0.04, 0.1, limiter, periodic)
        got = advect_axis(values, axis, speed, 0.04, 0.1, limiter, periodic,
                          out=values)
        assert got is values
        assert got.tobytes() == ref.tobytes()


def eulerian_spin_case(seed, n=64):
    """The eulerian_spin benchmark inputs: tilted B with B_z = 0.5 + 0.2 sin x
    and an l <= 1 Gaussian whose spin vector the seed picks, on n x and n v
    cells (64 in the benchmark)."""
    rng = np.random.default_rng([seed, 1])
    direction = rng.normal(size=3)
    spin = rng.uniform(0.3, 0.8) * direction / np.linalg.norm(direction)
    grid = SpatialGrid1D(n, 2 * np.pi)
    quad = SphereQuadrature(8, 16)
    v = uniform_velocity_axis(n, 3.0)
    fs = FieldState(grid)
    fs.B[0] = 0.3
    fs.B[2] = 0.5 + 0.2 * np.sin(grid.x)
    gx = sum(np.exp(-((grid.x - np.pi - 2 * np.pi * j) ** 2) / (2 * 0.8**2))
             for j in (-1, 0, 1))
    gv = np.exp(-(v**2) / (2 * 0.6**2))
    sphere_part = (1 + quad.s_hat @ spin) / (4 * np.pi)
    vals = gx[:, None, None, None] * gv[None, :, None, None] * sphere_part
    return ExtendedDistribution(grid, (v,), quad, vals), fs


def masked_rotate_sphere(values, quad, B_nodes, params, dt):
    """`_rotate_sphere` as written with one boolean-mask gather and scatter
    per distinct B node."""
    Bmag = np.linalg.norm(B_nodes, axis=0)
    angle = (2 * params.mu_B / params.hbar) * Bmag * dt
    _, first, inverse = np.unique(np.round(B_nodes.T, 12), axis=0,
                                  return_index=True, return_inverse=True)
    inverse = inverse.reshape(-1)
    mats = quad.rotation_interp_matrices(B_nodes.T[first], angle[first])
    flat = values.reshape(values.shape[0], -1, quad.n_theta * quad.n_phi)
    out = np.empty_like(flat)
    for k, mat in enumerate(mats):
        rows = inverse == k
        out[rows] = flat[rows] @ mat.T
    return out.reshape(values.shape)


def uniform_b_2v_case():
    """48 x nodes sharing one rotation, over a (48, 12) velocity plane."""
    grid = SpatialGrid1D(48, 2 * np.pi)
    fs = FieldState(grid)
    fs.B[0] = 0.3
    fs.B[2] = 0.5
    rng = np.random.default_rng(17)
    return rng.random((48, 48, 12, 8, 16)), fs.B


@pytest.mark.parametrize("case", ["eulerian_spin", "uniform_b_2v"])
def test_rotation_matches_masked_loop_bit_for_bit(case):
    if case == "eulerian_spin":
        f, fs = eulerian_spin_case(1431)
        values, B = f.values, fs.B
    else:
        values, B = uniform_b_2v_case()
    got = _rotate_sphere(values.copy(), QUAD, B, PARAMS, 0.02)
    ref = masked_rotate_sphere(values, SphereQuadrature(8, 16), B, PARAMS,
                               0.02)
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", [1431, 1436])
def test_steps_match_fresh_quadrature_every_step(seed):
    f, fs = eulerian_spin_case(seed)
    ref = f
    for _ in range(5):
        f = eulerian_step(f, fs, PARAMS, 0.02, quantum_term=True)
        fresh = ExtendedDistribution(ref.grid, ref.v_axes,
                                     SphereQuadrature(8, 16), ref.values)
        ref = eulerian_step(fresh, fs, PARAMS, 0.02, quantum_term=True)
        assert np.array_equal(f.values, ref.values)


class TestRotationMemoInStep:
    """A step that reuses the quadrature's rotation stack gives the bytes of
    a step on a fresh quadrature, whatever changed in between."""

    def fresh_step(self, f, fs, dt):
        fresh = ExtendedDistribution(f.grid, f.v_axes, SphereQuadrature(8, 16),
                                     f.values)
        return eulerian_step(fresh, fs, PARAMS, dt, quantum_term=True).values

    def test_in_place_field_edit_between_steps(self):
        f, fs = eulerian_spin_case(1437)
        f = eulerian_step(f, fs, PARAMS, 0.02, quantum_term=True)
        fs.B[2] *= 1.1
        fs.B[0, 3] = 0.31
        got = eulerian_step(f, fs, PARAMS, 0.02, quantum_term=True)
        assert np.array_equal(got.values, self.fresh_step(f, fs, 0.02))

    def test_changed_dt_between_steps(self):
        f, fs = eulerian_spin_case(1438)
        f = eulerian_step(f, fs, PARAMS, 0.02, quantum_term=True)
        got = eulerian_step(f, fs, PARAMS, 0.015, quantum_term=True)
        assert np.array_equal(got.values, self.fresh_step(f, fs, 0.015))


def drifting_2v_case():
    """A drifting Maxwellian over a (24, 24) velocity plane in uniform B_z."""
    grid = SpatialGrid1D(16, 10.0)
    vx = uniform_velocity_axis(24, 3.0)
    vy = uniform_velocity_axis(24, 3.0)
    fv = np.exp(-((vx[:, None] - 1.0) ** 2 + vy[None, :] ** 2) / (2 * 0.45**2))
    sphere_part = (1 + QUAD.s_hat @ np.array([0.3, -0.2, 0.4])) / (4 * np.pi)
    vals = (np.ones(grid.n)[:, None, None, None, None]
            * fv[None, :, :, None, None] * sphere_part)
    fs = external_profiles("uniform_B", dict(B0=0.5), grid)
    return ExtendedDistribution(grid, (vx, vy), QUAD, vals), fs


def gradient_b_case():
    """1V with an overlay's exact d_x B in metadata['dB_nodes']."""
    grid = SpatialGrid1D(32, 10.0)
    fs = external_profiles("gradient_B", dict(B0=1.0, B1=0.05), grid)
    f = gaussian_1v(grid, uniform_velocity_axis(16, 3.0),
                    spin_vec=[0.2, 0.4, -0.3])
    return f, fs


class TestStepBuffers:
    """A step writes one output array of its own and nothing it was given."""

    CASES = {"eulerian_spin": (lambda: eulerian_spin_case(2011), True),
             "gradient_b": (gradient_b_case, True),
             "uniform_b_2v": (drifting_2v_case, False)}

    @pytest.mark.parametrize("case", list(CASES))
    def test_inputs_untouched_and_output_fresh(self, case):
        make, quantum = self.CASES[case]
        f, fs = make()

        def state():
            return [f.values.tobytes(), fs.E.tobytes(), fs.B.tobytes(),
                    {k: v.tobytes() for k, v in fs.metadata.items()}]

        before = state()
        out = eulerian_step(f, fs, PARAMS, 0.02, quantum_term=quantum)
        assert state() == before
        for arr in (f.values, fs.E, fs.B, *fs.metadata.values()):
            assert not np.shares_memory(out.values, arr)
        assert not np.array_equal(out.values, f.values)

    @pytest.mark.parametrize("case, quantum, budget", [
        ("eulerian_spin", True, 1.5),
        ("eulerian_spin", False, 1.5),
        ("uniform_b_2v", False, 1.5)])
    def test_step_peak_memory(self, case, quantum, budget):
        # traced peak of one warm step above its input, in units of one f:
        # the output and small buffers (sweep work, the spin moments and the
        # quantum term's block buffer); no f-sized increment
        import tracemalloc

        f, fs = self.CASES[case][0]()
        # the first step builds and keeps the rotation stack
        eulerian_step(f, fs, PARAMS, 0.02, quantum_term=quantum)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            eulerian_step(f, fs, PARAMS, 0.02, quantum_term=quantum)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        nbytes = f.values.nbytes
        assert peak <= budget * nbytes, f"{peak / nbytes:.2f} f"
