"""Quantum-corrected plasma oscillation dispersion.

A cold electron fluid with a small standing density perturbation oscillates
at omega^2 = omega_p^2 + hbar^2 k^4 / 4 m^2: the plasma frequency plus the
Bohm (wavepacket dispersion) correction, which grows quickly with the mode
number.  The demo runs the fluid backend for three modes and tabulates the
fitted frequency against the dispersion relation.
"""

import os

import numpy as np

from spinkin.config import config_from_dict
from spinkin.diagnostics import DiagnosticsSeries, fit_frequency
from spinkin.params import PlasmaParams
from spinkin.scenarios import run_case

params = PlasmaParams()
L = 10.0

print(f"{'mode':>4} {'k':>7} {'omega fit':>11} {'omega theory':>13} {'rel err':>9}")
for mode in (1, 2, 3):
    cfg = config_from_dict(dict(scenario="plasma_osc_fluid", n_x=32,
                                length=L, mode=mode, dt=0.02,
                                t_end=56.0, cadence=5, out_dir="demo-output"))
    run_dir, _ = run_case(cfg)
    series = DiagnosticsSeries.read_csv(os.path.join(run_dir, "diagnostics.csv"))
    fit = fit_frequency(series, "n_mode")
    k = 2 * np.pi * mode / L
    # omega_p = 1 in code units for unit density
    omega = np.sqrt(1.0 + params.hbar**2 * k**4 / (4 * params.mass**2))
    print(f"{mode:>4} {k:>7.3f} {fit.omega:>11.6f} {omega:>13.6f} "
          f"{abs(fit.omega - omega) / omega:>9.2e}")
