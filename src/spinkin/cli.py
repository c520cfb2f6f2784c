"""Command-line interface: run, check, transform, fit.

`spinkin run` executes a configured scenario: the config file is its
whole input, and `--out` only chooses where the run directory goes.
`spinkin check` runs the acceptance presets and prints a pass/fail table
(exit code 0 only when everything passes); `spinkin transform` applies a
phase-space or spin transform to a stored state snapshot; `spinkin fit`
extracts frequency and damping from a diagnostics CSV column.  The only
environment override is the output directory (SPINKIN_OUT).
"""

import argparse
import functools
import os
import sys

import numpy as np

from .config import config_from_dict, load_config
from .diagnostics import DiagnosticsSeries, fit_frequency
from .scenarios import run_case

CHECK_PRESETS = {
    "precession": dict(scenario="precession", B0=1.0, n_particles=400,
                       n_x=16, dt=0.2, t_end=320.0),
    "plasma_osc": dict(scenario="plasma_osc", n_x=128, n_particles=100000,
                       length=10.0, dt=0.1, t_end=56.0, perturbation=1e-3),
    "plasma_osc_fluid": dict(scenario="plasma_osc_fluid", n_x=64, length=10.0,
                             dt=0.01, t_end=56.0, cadence=10,
                             perturbation=1e-3),
    "stern_gerlach": dict(scenario="stern_gerlach", B0=0.0, B1=0.1,
                          n_particles=1000, n_x=32, dt=0.02, t_end=2.0),
    "free_stream": dict(scenario="free_stream", n_x=32, n_v=24, v_max=4.0,
                        dt=0.025, t_end=1.0),
}


def _out_from_env(explicit):
    return explicit if explicit is not None else os.environ.get("SPINKIN_OUT")


def cmd_run(args):
    cfg = load_config(args.config)
    run_dir, status = run_case(cfg, out_dir=_out_from_env(args.out))
    print(f"{run_dir}: {status}")
    return 0 if status == "completed" else 1


def _series_from_run(preset, out_dir):
    cfg = config_from_dict(dict(preset))
    run_dir, status = run_case(cfg, out_dir=out_dir)
    if status != "completed":
        raise RuntimeError(f"run {cfg.scenario} {status}")
    series = DiagnosticsSeries.read_csv(
        os.path.join(run_dir, "diagnostics.csv"))
    return cfg, series


def _check_precession(out_dir):
    cfg, series = _series_from_run(CHECK_PRESETS["precession"], out_dir)
    params = cfg.params
    target = 2 * params.mu_B * cfg.B0 / params.hbar
    fit = fit_frequency(series, "sigma_x")
    dev = np.max(series.columns["spin_norm_dev"])
    rel = abs(fit.omega - target) / target if fit.conclusive else np.inf
    ok = fit.conclusive and rel < 1e-3 and dev < 1e-12
    return ok, (f"freq rel err {rel:.2e} (tol 1e-3), "
                f"|s| dev {dev:.2e} (tol 1e-12)")


def _check_plasma_osc(out_dir):
    cfg, series = _series_from_run(CHECK_PRESETS["plasma_osc"], out_dir)
    omega_p = np.sqrt(cfg.density / 1.0)       # n0 e^2 / (eps0 m) in code units
    fit = fit_frequency(series, "E_mode")
    rel = abs(fit.omega - omega_p) / omega_p if fit.conclusive else np.inf
    return fit.conclusive and rel < 0.01, f"omega rel err {rel:.2e} (tol 1e-2)"


def _check_plasma_osc_fluid(out_dir):
    cfg, series = _series_from_run(CHECK_PRESETS["plasma_osc_fluid"], out_dir)
    k = 2 * np.pi * cfg.mode / cfg.length
    omega_p2 = cfg.density
    target2 = omega_p2 + cfg.hbar**2 * k**4 / 4
    fit = fit_frequency(series, "n_mode")
    rel = abs(fit.omega**2 - target2) / target2 if fit.conclusive else np.inf
    return (fit.conclusive and rel < 0.02,
            f"omega^2 rel err {rel:.2e} (tol 2e-2)")


def _check_stern_gerlach(out_dir):
    cfg, series = _series_from_run(CHECK_PRESETS["stern_gerlach"], out_dir)
    params = cfg.params
    target = params.mu_B * cfg.B1 / params.mass
    t = series.time
    rels = []
    for col, sign in (("v_up", -1.0), ("v_down", 1.0)):
        slope = np.polyfit(t, series.columns[col], 1)[0]
        rels.append(abs(slope - sign * target) / target)
    rel = max(rels)
    return rel < 5e-3, f"acceleration rel err {rel:.2e} (tol 5e-3)"


def _check_free_stream(out_dir):
    errs = []
    for n_x, dt in ((32, 0.025), (64, 0.0125)):
        preset = dict(CHECK_PRESETS["free_stream"], n_x=n_x, dt=dt)
        _, series = _series_from_run(preset, out_dir)
        errs.append(series.columns["l1_error"][-1])
    ratio = errs[0] / errs[1]
    return ratio > 2.8, f"refinement error ratio {ratio:.2f} (need > 2.8)"


CHECKS = {
    "precession": _check_precession,
    "plasma_osc": _check_plasma_osc,
    "plasma_osc_fluid": _check_plasma_osc_fluid,
    "stern_gerlach": _check_stern_gerlach,
    "free_stream": _check_free_stream,
}


def cmd_check(args):
    out_dir = _out_from_env(args.out) or "runs-check"
    names = list(CHECKS) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in CHECKS:
            print(f"unknown suite '{name}'; available: "
                  f"{['all'] + sorted(CHECKS)}", file=sys.stderr)
            return 2
    all_ok = True
    for name in names:
        ok, detail = CHECKS[name](out_dir)
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:18s} {detail}")
    return 0 if all_ok else 1


def cmd_transform(args):
    from .gauge import line_integral_dressing
    from .grid import SpatialGrid1D
    from .params import PlasmaParams
    from .pauli import SpinorField
    from .snapshots import read_snapshot, write_snapshot
    from .sphere import SphereQuadrature
    from .transforms import (IDENTITY2, conjugate_momentum_axis,
                             phase_space_correlation, spin_q_transform)

    data, meta = read_snapshot(args.input)
    extra = meta.get("extra", {})
    if data.ndim != 3 or data.shape[0] != 2 or data.shape[2] != 2:
        print("transform input must be a (2, N, 2) spinor snapshot "
              "(component, x, re/im)", file=sys.stderr)
        return 2
    missing = [key for key in ("length", "hbar") if key not in extra]
    if missing:
        raise ValueError(f"{args.input}: sidecar extra lacks "
                         + ", ".join(missing))
    grid = SpatialGrid1D(data.shape[1], float(extra["length"]))
    params = PlasmaParams(hbar=float(extra["hbar"]))
    psi = SpinorField(grid, data[:, :, 0] + 1j * data[:, :, 1]).normalized()
    out_base = args.out or (args.input + "." + args.kind)

    if args.kind == "spinq":
        quad = SphereQuadrature(8, 16)
        rho = (psi.psi * psi.grid.dx) @ psi.psi.conj().T
        f = spin_q_transform(rho, quad)
        axes = {"theta": {"n": quad.n_theta}, "phi": {"n": quad.n_phi}}
        write_snapshot(out_base, f.values, axes, extra={"kind": "spinq"})
    else:
        # the kernel gets the conjugate axis itself, so it takes its FFT path
        p = conjugate_momentum_axis(grid, params.hbar)
        v = p / params.mass
        # the sphere integral of (w_0 + s_hat . w) / 4 pi is w_0 = Re Tr W
        A = np.zeros(grid.n)
        if args.kind == "gi":
            A = extra.get("A_x", A)
        dress = line_integral_dressing(A, grid, params)
        f_xv = phase_space_correlation(psi.psi, grid, p, params.hbar,
                                       IDENTITY2[None], dress)[0]
        f_xv *= params.mass
        axes = {"x": {"n": grid.n, "spacing": grid.dx, "origin": 0.0},
                "v": {"n": len(v), "spacing": float(v[1] - v[0]),
                      "origin": float(v[0])}}
        write_snapshot(out_base, f_xv, axes, extra={"kind": args.kind})
    print(out_base)
    return 0


def cmd_fit(args):
    series = DiagnosticsSeries.read_csv(args.input)
    fit = fit_frequency(series, args.column)
    if not fit.conclusive:
        print(f"inconclusive: {fit.reason}")
        return 3
    print(f"omega={fit.omega!r} gamma={fit.gamma!r} "
          f"uncertainty={fit.uncertainty!r}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinkin",
        description="spin-kinetic plasma toolkit runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a configured scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("check", help="run acceptance scenario presets")
    p.add_argument("suite", nargs="?", default="all")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("transform", help="transform a stored state snapshot")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", required=True, choices=("wigner", "spinq", "gi"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("fit", help="fit frequency/damping of a CSV column")
    p.add_argument("--input", required=True)
    p.add_argument("--column", required=True)
    p.set_defaults(func=cmd_fit)
    return parser


@functools.cache
def _parser():
    """The argument parser, built on first use and reused by every `main`."""
    return build_parser()


def main(argv=None):
    """Run one command and return its exit code, argparse's included."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
