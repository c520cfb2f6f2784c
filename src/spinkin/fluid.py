"""Madelung quantum-fluid solver (scalar case).

The momentum equation carries the Bohm-de Broglie term; spatial derivatives
are spectral on the periodic grid and time stepping is classical RK4.  Each
RK4 stage is one spectral evaluation: one rfft of the stacked rows
[n u, u, phi source, sqrt n], one product with factors precomputed per grid
and parameters, one irfft, and one more rfft/irfft pair for the outer
derivative of the Bohm quotient.  The Nyquist convention is that of
SpatialGrid1D.derivative: the mode is zeroed for first derivatives and kept
for the second derivative of sqrt n.

The electrostatic coupling `phi` is None (no field), an array (an external
potential, fixed over the step) or the string "poisson": the self-consistent
potential of d^2 phi/dx^2 = q (n - mean n) / epsilon0, that is the electron
charge -q n over a neutralising background equal to the mean of n, solved
in the stage spectrum as phi_k = -q n_k / (epsilon0 k^2) at k != 0.

Spin transport is not stepped here: `ensemble` evaluates the spin equation
of the fluid moment hierarchy on wavefunction ensembles.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import SpatialGrid1D
from .params import PlasmaParams

DENSITY_FLOOR_REL = 1e-10


class DensityFloorError(ValueError):
    """Raised when the density drops below the configured floor."""

    def __init__(self, x_where, n_min, floor):
        self.x_where = x_where
        super().__init__(
            f"density {n_min:.3e} below floor {floor:.3e} at x = {x_where:.4f}; "
            "step rejected")


@dataclass
class FluidState:
    """Density and velocity on the periodic grid."""

    grid: SpatialGrid1D
    n: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        self.n = np.asarray(self.n, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        if self.n.shape != (self.grid.n,) or self.u.shape != (self.grid.n,):
            raise ValueError("n and u must match the grid size")
        if self.n.min() < 0:
            raise ValueError("density must be nonnegative")

    def mass(self) -> float:
        return self.grid.integrate(self.n)


def bohm_force(grid: SpatialGrid1D, n, params: PlasmaParams):
    """(hbar^2 / 2 m^2) d/dx [ (d^2/dx^2 sqrt(n)) / sqrt(n) ]."""
    sqrt_n = np.sqrt(n)
    quantum_potential_over = grid.derivative(sqrt_n, order=2) / sqrt_n
    return (params.hbar**2 / (2 * params.mass**2)) * grid.derivative(quantum_potential_over)


def _check_floor(grid, n, n_floor_rel):
    floor = n_floor_rel * n.max()
    if not n.min() > floor:         # a NaN density fails too
        i = int(np.argmin(n))
        raise DensityFloorError(grid.x[i], n.min(), floor)


@lru_cache(maxsize=8)
def _stage_factors(grid: SpatialGrid1D, params: PlasmaParams, poisson: bool):
    """Read-only spectral factors (rfft order) of one RK4 stage.

    Rows act on [n u, u, phi source, sqrt n]: d/dx, d/dx, (q/m) d/dx of
    phi (of the Poisson potential of n when `poisson`), and
    (hbar^2 / 2 m^2) d^2/dx^2.  The second value is d/dx alone, for the
    outer derivative of the Bohm quotient.
    """
    k = grid.k[: grid.n // 2 + 1]
    ddx = 1j * k
    ddx[-1] = 0.0
    field = (params.charge / params.mass) * ddx
    if poisson:
        field[1:] *= -params.charge / (params.epsilon0 * k[1:] ** 2)
    factors = np.stack([ddx, ddx, field,
                        -(params.hbar**2 / (2 * params.mass**2)) * k**2])
    factors.flags.writeable = False
    ddx.flags.writeable = False
    return factors, ddx


def _fluid_rhs(grid: SpatialGrid1D, phi, params: PlasmaParams, n_floor_rel):
    """The right-hand side (n, u) -> (dn/dt, du/dt) for one coupling `phi`
    (see the module docstring); each call is four FFT calls."""
    poisson = isinstance(phi, str)
    if poisson and phi != "poisson":
        raise ValueError(f"phi must be None, an array or 'poisson', got {phi!r}")
    if not poisson:
        phi = np.zeros(grid.n) if phi is None else np.asarray(phi, dtype=float)
    factors, ddx = _stage_factors(grid, params, poisson)

    def rhs(n, u):
        _check_floor(grid, n, n_floor_rel)
        sqrt_n = np.sqrt(n)
        rows = np.stack([n * u, u, n if poisson else phi, sqrt_n])
        d = np.fft.irfft(np.fft.rfft(rows) * factors, grid.n)
        bohm = np.fft.irfft(np.fft.rfft(d[3] / sqrt_n) * ddx, grid.n)
        return -d[0], -u * d[1] + d[2] + bohm

    return rhs


def fluid_rhs(state: FluidState, phi, params: PlasmaParams,
              n_floor_rel=DENSITY_FLOOR_REL):
    """Time derivatives (dn/dt, du/dt) of the quantum fluid equations.

    dn/dt = -d(nu)/dx
    du/dt = -u du/dx + (e/m) dphi/dx + Bohm force

    `phi` is None, an external potential array or "poisson".
    """
    return _fluid_rhs(state.grid, phi, params, n_floor_rel)(state.n, state.u)


def step_fluid(state: FluidState, phi, params: PlasmaParams, dt,
               n_floor_rel=DENSITY_FLOOR_REL) -> FluidState:
    """One RK4 step.  `phi` is None, an external potential array or
    "poisson" for the self-consistent field, re-solved in every stage."""
    rhs = _fluid_rhs(state.grid, phi, params, n_floor_rel)
    n0, u0 = state.n, state.u
    k1n, k1u = rhs(n0, u0)
    k2n, k2u = rhs(n0 + dt / 2 * k1n, u0 + dt / 2 * k1u)
    k3n, k3u = rhs(n0 + dt / 2 * k2n, u0 + dt / 2 * k2u)
    k4n, k4u = rhs(n0 + dt * k3n, u0 + dt * k3u)
    n1 = n0 + dt / 6 * (k1n + 2 * k2n + 2 * k3n + k4n)
    u1 = u0 + dt / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
    return FluidState(state.grid, n1, u1)
