"""Named scenario presets and the run loop shared by all backends.

Each scenario supplies setup/step/diagnose/snapshot callbacks; run_case
drives the loop, writes the expanded config, a diagnostics CSV, cadence
snapshots and a status file into a self-describing run directory, named
`<scenario>` (then `<scenario>-1`, `<scenario>-2`, ... if taken).  A
rejected step aborts the run but preserves every file written so far,
including the last valid snapshot.
"""

import json
import os
from dataclasses import dataclass
from importlib import metadata

import numpy as np

from .config import RunConfig
from .diagnostics import DiagnosticsRecorder
from .eulerian import ExtendedDistribution, eulerian_step, uniform_velocity_axis
from .fields import FieldState, external_profiles, field_energy, solve_poisson
from .fluid import FluidState, step_fluid
from .grid import SpatialGrid1D
from .pic import (
    ParticleEnsemble,
    deposit_charge,
    deposit_sources,
    load_particles,
    push_particles,
)
from .snapshots import write_snapshot
from .sphere import SphereQuadrature

FORMAT_VERSION = 1


def _code_version():
    try:
        return metadata.version("spinkin")
    except metadata.PackageNotFoundError:
        return "unknown"


@dataclass
class Scenario:
    """Callbacks driving one preset: state dict in, state dict out."""

    columns: tuple
    setup: callable
    step: callable
    diagnose: callable
    snapshot: callable


# -- precession: uniform B0 z, external field only, spins start along x --

def _precession_setup(cfg):
    grid = SpatialGrid1D(cfg.n_x, cfg.length)
    fs = external_profiles("uniform_B", dict(B0=cfg.B0), grid)
    ens = load_particles(grid, cfg.n_particles, spin=[1.0, 0.0, 0.0],
                         total_density=cfg.density)
    return dict(ens=ens, fs=fs, params=cfg.params)


def _precession_step(state, dt):
    state["ens"] = push_particles(state["ens"], state["fs"], state["params"], dt)
    return state


def _particle_diagnose(state):
    ens, params = state["ens"], state["params"]
    mean_s, dev = ens.spin_stats()
    kinetic = 0.5 * params.mass * float(np.einsum("p,pa,pa->", ens.w, ens.v, ens.v))
    charge = -params.charge * float(np.sum(ens.w))
    return dict(kinetic_energy=kinetic,
                field_energy=field_energy(state["fs"], params),
                total_charge=charge,
                sigma_x=mean_s[0], sigma_y=mean_s[1], sigma_z=mean_s[2],
                spin_norm_dev=dev)


def _particle_snapshot(state):
    ens = state["ens"]
    rho_c, j_free, M, _ = deposit_sources(ens, state["params"])
    arr = np.stack([rho_c, j_free[0], M[0], M[1], M[2]])
    axes = {"channel": {"names": ["rho_c", "j_free_x", "M_x", "M_y", "M_z"]},
            "x": {"n": ens.grid.n, "spacing": ens.grid.dx, "origin": 0.0}}
    return arr, axes


_PARTICLE_COLUMNS = ("kinetic_energy", "field_energy", "total_charge",
                     "sigma_x", "sigma_y", "sigma_z", "spin_norm_dev")


# -- plasma_osc: cold electrostatic PIC with a seeded density mode --

def _plasma_setup(cfg):
    grid = SpatialGrid1D(cfg.n_x, cfg.length)
    ens = load_particles(grid, cfg.n_particles,
                         density_amplitude=cfg.perturbation,
                         density_mode=cfg.mode, total_density=cfg.density)
    fs = FieldState(grid)
    state = dict(ens=ens, fs=fs, params=cfg.params, mode=cfg.mode)
    _plasma_fields(state)
    return state


def _plasma_fields(state):
    ens, params = state["ens"], state["params"]
    # charge-only deposit (the full source deposit is done for snapshots)
    rho_c = deposit_charge(ens, params)
    rho_c -= np.mean(rho_c)                 # neutralizing ion background
    state["fs"].E[0] = solve_poisson(rho_c, ens.grid, params)


def _plasma_step(state, dt):
    state["ens"] = push_particles(state["ens"], state["fs"], state["params"], dt)
    _plasma_fields(state)
    return state


def _plasma_diagnose(state):
    out = _particle_diagnose(state)
    grid = state["ens"].grid
    E_k = np.fft.fft(state["fs"].E[0]) / grid.n
    # signed sin(kx) coefficient: oscillates as cos(omega t) for the
    # cos(kx) density perturbation of the quiet start
    out["E_mode"] = -2 * float(np.imag(E_k[state["mode"]]))
    return out


# -- plasma_osc_fluid: Madelung backend with the Bohm dispersion term --

def _fluid_setup(cfg):
    grid = SpatialGrid1D(cfg.n_x, cfg.length)
    k = 2 * np.pi * cfg.mode / cfg.length
    n = cfg.density * (1 + cfg.perturbation * np.cos(k * grid.x))
    state = FluidState(grid, n, np.zeros(grid.n))
    return dict(fluid=state, params=cfg.params, mode=cfg.mode)


def _fluid_step(state, dt):
    state["fluid"] = step_fluid(state["fluid"], "poisson", state["params"], dt)
    return state


def _fluid_diagnose(state):
    fl, params = state["fluid"], state["params"]
    grid = fl.grid
    n_k = np.fft.fft(fl.n) / grid.n
    kinetic = 0.5 * params.mass * grid.integrate(fl.n * fl.u**2)
    rho_c = -params.charge * (fl.n - np.mean(fl.n))
    # re-zero the mean so rounding residue cannot trip the neutrality
    # check when the density perturbation passes through zero
    rho_c -= np.mean(rho_c)
    E_x = solve_poisson(rho_c, grid, params)
    return dict(kinetic_energy=kinetic,
                field_energy=0.5 * params.epsilon0 * grid.integrate(E_x**2),
                total_charge=-params.charge * fl.mass(),
                n_mode=2 * float(np.real(n_k[state["mode"]])),
                mass=fl.mass())


def _fluid_snapshot(state):
    fl = state["fluid"]
    arr = np.stack([fl.n, fl.u])
    axes = {"channel": {"names": ["n", "u"]},
            "x": {"n": fl.grid.n, "spacing": fl.grid.dx, "origin": 0.0}}
    return arr, axes


# -- free_stream: Eulerian advection test against the exact translation --

def _stream_setup(cfg):
    grid = SpatialGrid1D(cfg.n_x, cfg.length)
    # f is spin-isotropic (1/4 pi on the sphere) and field-free, so the
    # sphere's size changes only rounding; 2 x 4 keeps it cheap
    quad = SphereQuadrature(2, 4)
    v = uniform_velocity_axis(cfg.n_v, cfg.v_max)
    xw, vw = cfg.length / 12, cfg.v_max / 4

    def exact(t):
        gx = sum(np.exp(-((np.mod(grid.x[:, None] - v[None, :] * t, cfg.length)
                           - cfg.length / 2 - cfg.length * j) ** 2)
                        / (2 * xw**2)) for j in (-1, 0, 1))
        gv = np.exp(-(v**2) / (2 * vw**2))
        return (gx * gv[None, :])[:, :, None, None] * np.full(
            (quad.n_theta, quad.n_phi), 1 / (4 * np.pi))

    f = ExtendedDistribution(grid, (v,), quad, exact(0.0))
    return dict(f=f, fs=FieldState(grid), params=cfg.params, exact=exact, t=0.0)


def _stream_step(state, dt):
    state["f"] = eulerian_step(state["f"], state["fs"], state["params"], dt)
    state["t"] += dt
    return state


def _stream_diagnose(state):
    f = state["f"]
    err = state["exact"](state["t"]) - f.values
    dvol = f.grid.dx * np.prod(f.dv)
    return dict(mass=f.total(),
                l1_error=float(np.sum(np.abs(err) * f.quad.weights) * dvol),
                min_f=float(f.values.min()))


def _stream_snapshot(state):
    f = state["f"]
    fv = np.sum(f.values * f.quad.weights, axis=(2, 3))
    axes = {"x": {"n": f.grid.n, "spacing": f.grid.dx, "origin": 0.0},
            "v": {"n": len(f.v_axes[0]), "spacing": f.dv[0],
                  "origin": float(f.v_axes[0][0])}}
    return fv, axes


# -- stern_gerlach: gradient-B beam splitting, spins pinned to +/- z --

def _sg_setup(cfg):
    grid = SpatialGrid1D(cfg.n_x, cfg.length)
    fs = external_profiles("gradient_B", dict(B0=cfg.B0, B1=cfg.B1), grid)
    n = cfg.n_particles
    half = n // 2
    x = np.full(n, grid.length / 2)
    v = np.zeros((n, 3))
    s_hat = np.zeros((n, 3))
    s_hat[:half, 2] = 1.0
    s_hat[half:, 2] = -1.0
    w = np.full(n, cfg.density * grid.length / n)
    ens = ParticleEnsemble(grid, x, v, s_hat, w)
    return dict(ens=ens, fs=fs, params=cfg.params, half=half)


def _sg_diagnose(state):
    out = _particle_diagnose(state)
    ens, half = state["ens"], state["half"]
    out["v_up"] = float(np.mean(ens.v[:half, 0]))
    out["v_down"] = float(np.mean(ens.v[half:, 0]))
    return out


SCENARIOS = {
    "precession": Scenario(
        _PARTICLE_COLUMNS, _precession_setup, _precession_step,
        _particle_diagnose, _particle_snapshot),
    "plasma_osc": Scenario(
        _PARTICLE_COLUMNS + ("E_mode",),
        _plasma_setup, _plasma_step, _plasma_diagnose, _particle_snapshot),
    "plasma_osc_fluid": Scenario(
        ("kinetic_energy", "field_energy", "total_charge", "n_mode", "mass"),
        _fluid_setup, _fluid_step, _fluid_diagnose, _fluid_snapshot),
    "free_stream": Scenario(
        ("mass", "l1_error", "min_f"),
        _stream_setup, _stream_step, _stream_diagnose, _stream_snapshot),
    "stern_gerlach": Scenario(
        _PARTICLE_COLUMNS + ("v_up", "v_down"),
        _sg_setup, _precession_step, _sg_diagnose, _particle_snapshot),
}


def _run_directory(cfg: RunConfig, out_dir=None):
    base = out_dir if out_dir is not None else cfg.out_dir
    os.makedirs(base, exist_ok=True)
    path = os.path.join(base, cfg.scenario)
    suffix = 0
    # makedirs itself is the existence test, so concurrent runs with the
    # same scenario cannot both claim one directory
    while True:
        try:
            os.makedirs(path)
            return path
        except FileExistsError:
            suffix += 1
            path = os.path.join(base, f"{cfg.scenario}-{suffix}")


def run_case(cfg: RunConfig, out_dir=None):
    """Execute one configured scenario; returns (run_dir, status).

    status is "completed" or "aborted: <reason> (step <k>)"; on abort every
    file written so far, including the last cadence snapshot, is
    preserved, and diagnostics.csv and run.json are written in any case.
    """
    if cfg.scenario not in SCENARIOS:
        raise ValueError(
            f"unknown scenario '{cfg.scenario}'; "
            f"available: {sorted(SCENARIOS)}")
    scenario = SCENARIOS[cfg.scenario]
    run_dir = _run_directory(cfg, out_dir)
    cfg.dump(os.path.join(run_dir, "config.json"))

    rec = DiagnosticsRecorder(scenario.columns)

    def snap(step, name):
        arr, axes = scenario.snapshot(state)
        write_snapshot(os.path.join(run_dir, name), arr, axes,
                       extra={"time": step * cfg.dt, "step": step})

    # diagnostics every cadence steps; the rolling snapshot at most ~20
    # times per run (replaced atomically, so an abort inside a later step
    # still leaves the last valid one)
    snap_every = cfg.cadence * max(1, (cfg.n_steps // cfg.cadence) // 20)
    step = 0
    try:
        state = scenario.setup(cfg)
        rec.add(0.0, **scenario.diagnose(state))
        snap(0, "snap_initial")
        for step in range(1, cfg.n_steps + 1):
            state = scenario.step(state, cfg.dt)
            if step % cfg.cadence == 0:
                rec.add(step * cfg.dt, **scenario.diagnose(state))
            if step % snap_every == 0:
                snap(step, "snap_last")
        status = "completed"
    except ValueError as exc:
        status = f"aborted: {exc} (step {step})"
    except BaseException as exc:
        status = f"failed: {type(exc).__name__}: {exc} (step {step})"
        raise
    finally:
        rec.series().write_csv(os.path.join(run_dir, "diagnostics.csv"))
        manifest = {"format_version": FORMAT_VERSION,
                    "code_version": _code_version(),
                    "status": status,
                    "scenario": cfg.scenario}
        with open(os.path.join(run_dir, "run.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return run_dir, status
