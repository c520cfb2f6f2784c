"""The three benchmark workloads: inputs from a seed, one timed pass, gates.

A workload builds its inputs once (`setup`), then the worker repeats
`run_pass` on those same inputs.  Every pass does identical work, so pass
times are comparable samples and per-pass call counts repeat exactly.  A
pass returns its wall time, the phase times its named rates need, and the
correctness checks it made as (name, ok, detail) triples.

spinkin names are looked up through their module objects at call time
(`eulerian.eulerian_step`, never a bound local copy), so the traced run's
wrappers see every call.
"""

import io
import os
import time
from contextlib import redirect_stdout

import numpy as np

# Mass may grow by no more than this relative rounding allowance per step.
MASS_ROUND_REL = 1e-13
# Relative mass loss allowed over one eulerian_spin pass (outflow through
# the v edges).  Seed runs lost 7.4e-9 per pass on every seed tried (the
# l = 1 spin part carries no mass), so this leaves a 13x margin.
MASS_DRIFT_MAX = 1e-7
# Criterion 8 (dressed-transform gauge invariance) and criterion 2
# (Wigner x-marginal) tolerances of tests/test_acceptance.py.
GI_AGREEMENT_TOL = 1e-10
MARGINAL_TOL = 1e-6


class CheckAll:
    name = "check_all"
    why = ("the five spinkin check suites at preset sizes: the end-to-end "
           "contract, dominated by the PIC particle loop and the fluid RK4 "
           "loop")
    seeded = False      # the presets are fixed quiet starts; the seed does not apply

    def setup(self, seed):
        from spinkin import cli
        from spinkin.config import config_from_dict

        self.cli = cli
        self.suites = list(cli.CHECKS)
        pic = config_from_dict(dict(cli.CHECK_PRESETS["plasma_osc"]))
        fluid = config_from_dict(dict(cli.CHECK_PRESETS["plasma_osc_fluid"]))
        self.pic_particle_steps = pic.n_particles * pic.n_steps
        self.fluid_steps = fluid.n_steps

    def inputs(self):
        return {"presets": {s: self.cli.CHECK_PRESETS[s] for s in self.suites}}

    def run_pass(self, tmp):
        checks, suite_s = [], {}
        t_pass = time.perf_counter()
        for suite in self.suites:
            out = io.StringIO()
            t = time.perf_counter()
            with redirect_stdout(out):
                rc = self.cli.main(["check", suite, "--out", tmp])
            suite_s[suite] = time.perf_counter() - t
            checks.append((suite, rc == 0, out.getvalue().strip()))
        return dict(wall_s=time.perf_counter() - t_pass, checks=checks,
                    suite_s=suite_s)

    def rates(self, passes):
        return {
            "pic_particle_steps_per_s": (
                [self.pic_particle_steps / p["suite_s"]["plasma_osc"]
                 for p in passes], "1/s"),
            "fluid_steps_per_s": (
                [self.fluid_steps / p["suite_s"]["plasma_osc_fluid"]
                 for p in passes], "1/s"),
        }


class EulerianSpin:
    name = "eulerian_spin"
    why = ("eulerian_step on the 1V (x, v, s_hat) spin-gradient problem in a "
           "tilted non-uniform B: MUSCL sweeps and the general sphere rotation")
    seeded = True
    n_x, n_v, v_max, n_theta, n_phi = 64, 64, 3.0, 8, 16
    dt = 0.02
    steps = 5

    def setup(self, seed):
        from spinkin import eulerian
        from spinkin.fields import FieldState
        from spinkin.grid import SpatialGrid1D
        from spinkin.params import PlasmaParams
        from spinkin.sphere import SphereQuadrature

        self.eulerian = eulerian
        rng = np.random.default_rng([seed, 1])
        direction = rng.normal(size=3)
        self.spin = rng.uniform(0.3, 0.8) * direction / np.linalg.norm(direction)

        grid = SpatialGrid1D(self.n_x, 2 * np.pi)
        quad = SphereQuadrature(self.n_theta, self.n_phi)
        v = eulerian.uniform_velocity_axis(self.n_v, self.v_max)
        # uniform B_x keeps FieldState's 1D div B constraint; B_z varies in x
        self.fs = FieldState(grid)
        self.fs.B[0] = 0.3
        self.fs.B[2] = 0.5 + 0.2 * np.sin(grid.x)
        self.fs.metadata["staggered"] = False
        self.params = PlasmaParams()
        gx = sum(np.exp(-((grid.x - np.pi - 2 * np.pi * j) ** 2) / (2 * 0.8**2))
                 for j in (-1, 0, 1))
        gv = np.exp(-(v**2) / (2 * 0.6**2))
        sphere = (1 + quad.s_hat @ self.spin) / (4 * np.pi)      # l <= 1
        vals = gx[:, None, None, None] * gv[None, :, None, None] * sphere
        self.f0 = eulerian.ExtendedDistribution(grid, (v,), quad, vals)
        self.cells = self.f0.values.size

    def inputs(self):
        return {"spin_vector": self.spin.tolist(), "dt": self.dt,
                "steps_per_pass": self.steps}

    def run_pass(self, tmp):
        f = self.f0
        m0 = m_prev = f.total()
        grew = 0.0
        step_s = 0.0
        t_pass = time.perf_counter()
        for _ in range(self.steps):
            t = time.perf_counter()
            f = self.eulerian.eulerian_step(f, self.fs, self.params, self.dt,
                                            quantum_term=True)
            step_s += time.perf_counter() - t
            m = f.total()
            grew = max(grew, (m - m_prev) / m0)
            m_prev = m
        wall = time.perf_counter() - t_pass
        drift = (m0 - m_prev) / m0
        finite = bool(np.all(np.isfinite(f.values)))
        checks = [
            ("f_finite", finite, f"min f {f.values.min():.3e}"),
            ("mass_non_increasing", grew <= MASS_ROUND_REL,
             f"largest per-step relative gain {grew:.2e} "
             f"(allowed {MASS_ROUND_REL:.0e})"),
            ("mass_drift", 0.0 <= drift < MASS_DRIFT_MAX,
             f"relative loss over {self.steps} steps {drift:.2e} "
             f"(< {MASS_DRIFT_MAX:.0e})"),
        ]
        return dict(wall_s=wall, checks=checks, step_s=step_s)

    def rates(self, passes):
        work = self.cells * self.steps
        return {"eulerian_cell_steps_per_s":
                ([work / p["step_s"] for p in passes], "1/s")}


class WignerChain:
    name = "wigner_chain"
    why = ("Pauli split-step with snapshots through spinkin transform "
           "gi/wigner/spinq, one copy gauge-shifted: dense correlation kernels "
           "and snapshot I/O")
    seeded = True
    n, length, dt = 512, 32.0, 0.002
    steps_per_snapshot = 100
    snapshots = 2

    def setup(self, seed):
        from spinkin import cli, gauge, pauli, snapshots
        from spinkin.grid import SpatialGrid1D
        from spinkin.params import PlasmaParams

        self.cli, self.gauge, self.pauli, self.snap = cli, gauge, pauli, snapshots
        rng = np.random.default_rng([seed, 2])
        grid = SpatialGrid1D(self.n, self.length)
        self.grid = grid
        self.params = PlasmaParams()
        self.packet = dict(x0=rng.uniform(12.0, 20.0), width=rng.uniform(0.8, 1.6),
                           p0=rng.uniform(-1.5, 1.5),
                           theta0=rng.uniform(0.2, np.pi - 0.2),
                           phi0=rng.uniform(0.0, 2 * np.pi))
        self.gauge_parameters = dict(amplitude=rng.uniform(0.1, 0.4),
                                     mode=int(rng.integers(1, 4)))
        B = np.zeros((3, grid.n))
        B[0] = 0.3
        B[2] = 0.5 + 0.2 * np.sin(2 * np.pi * grid.x / grid.length)
        self.pot = pauli.ExternalPotentials(grid, B=B, coulomb_gauge=True)
        self.psi0 = pauli.init_state("gaussian", self.packet, grid)
        self.spec = gauge.GaugeTransformSpec(grid, "single_mode",
                                             self.gauge_parameters)

    def inputs(self):
        return {"packet": self.packet, "gauge": self.gauge_parameters,
                "snapshots_per_pass": self.snapshots,
                "steps_per_snapshot": self.steps_per_snapshot}

    def _write(self, base, psi, extra):
        data = np.stack([psi.psi.real, psi.psi.imag], axis=-1)
        axes = {"component": {"n": 2},
                "x": {"n": self.grid.n, "spacing": self.grid.dx, "origin": 0.0},
                "part": {"names": ["re", "im"]}}
        self.snap.write_snapshot(base, data, axes,
                                 extra=dict(extra, length=self.grid.length,
                                            hbar=self.params.hbar))

    def _transform(self, base, kind):
        with redirect_stdout(io.StringIO()):
            rc = self.cli.main(["transform", "--input", base, "--kind", kind])
        return rc

    def run_pass(self, tmp):
        psi = self.psi0
        checks = []
        pauli_s = transform_s = 0.0
        n_transforms = 0
        t_pass = time.perf_counter()
        for k in range(self.snapshots):
            t = time.perf_counter()
            for _ in range(self.steps_per_snapshot):
                psi = self.pauli.step_pauli(psi, self.pot, self.params, self.dt)
            pauli_s += time.perf_counter() - t

            plain = os.path.join(tmp, f"snap{k}")
            dressed = os.path.join(tmp, f"snap{k}-gauge")
            psi_g, pot_g = self.gauge.gauge_transform_state(
                psi, self.pot, self.spec, self.params)
            self._write(plain, psi, {})
            self._write(dressed, psi_g, {"A_x": pot_g.A[0].tolist()})

            t = time.perf_counter()
            jobs = ((plain, "gi"), (dressed, "gi"), (plain, "wigner"),
                    (plain, "spinq"))
            codes = [self._transform(base, kind) for base, kind in jobs]
            transform_s += time.perf_counter() - t
            n_transforms += sum(rc == 0 for rc in codes)
            for (base, kind), rc in zip(jobs, codes):
                checks.append((f"transform_{kind}_exit", rc == 0,
                               f"{os.path.basename(base)} exit {rc}"))

            gi_plain, _ = self.snap.read_snapshot(plain + ".gi")
            gi_dressed, _ = self.snap.read_snapshot(dressed + ".gi")
            gap = float(np.max(np.abs(gi_plain - gi_dressed)))
            checks.append(("gi_gauge_agreement", gap < GI_AGREEMENT_TOL,
                           f"snapshot {k}: max gap {gap:.2e} "
                           f"(< {GI_AGREEMENT_TOL:.0e})"))
            wig, meta = self.snap.read_snapshot(plain + ".wigner")
            self.snap.read_snapshot(plain + ".spinq")
            dv = meta["axes"]["v"]["spacing"]
            err = float(np.max(np.abs(np.sum(wig, axis=1) * dv
                                      - psi.normalized().density())))
            checks.append(("wigner_x_marginal", err < MARGINAL_TOL,
                           f"snapshot {k}: max error {err:.2e} "
                           f"(< {MARGINAL_TOL:.0e})"))
        return dict(wall_s=time.perf_counter() - t_pass, checks=checks,
                    pauli_s=pauli_s, transform_s=transform_s,
                    n_transforms=n_transforms)

    def rates(self, passes):
        steps = self.snapshots * self.steps_per_snapshot
        return {
            "transforms_per_s": (
                [p["n_transforms"] / p["transform_s"] for p in passes], "1/s"),
            "pauli_steps_per_s": (
                [steps / p["pauli_s"] for p in passes], "1/s"),
        }


WORKLOADS = {w.name: w for w in (CheckAll, EulerianSpin, WignerChain)}

# Layer metric -> the end-to-end metric it should move, on which workload.
# On every other workload the prediction is no move.
PREDICTIONS = [
    ("pic.push_particles, pic.gather, pic.deposit_sources, "
     "pic.ParticleEnsemble.init, fields.solve_poisson",
     "pic_particle_steps_per_s, wall_s", "check_all"),
    ("fields.solve_poisson", "fluid_steps_per_s", "check_all"),
    ("scenarios.<suite>.{setup,step,diagnose,snapshot}_s, "
     "diagnostics.DiagnosticsRecorder.add, diagnostics.fit_frequency, "
     "snapshots.write_snapshot", "wall_s", "check_all"),
    ("fluid.step_fluid, fluid.fluid_rhs, fluid.bohm_force, "
     "grid.SpatialGrid1D.derivative", "fluid_steps_per_s", "check_all"),
    ("eulerian.eulerian_step, eulerian.advect_axis, "
     "eulerian.ExtendedDistribution.init, "
     "sphere.SphereQuadrature.{rotation_interp_matrix,harmonic_matrix,"
     "tangential_gradient}, rotation.rodrigues_rotate",
     "eulerian_cell_steps_per_s", "eulerian_spin"),
    ("transforms.wigner_transform, transforms.spin_q_transform, "
     "gauge.gi_wigner_transform, gauge.kinetic_wigner_transform, "
     "snapshots.read_snapshot, snapshots.write_snapshot",
     "transforms_per_s", "wigner_chain"),
    ("pauli.step_pauli", "pauli_steps_per_s", "wigner_chain"),
]
