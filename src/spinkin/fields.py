"""Electrostatic Poisson solver, the field container and analytic overlays.

E and B (3 components each) live at the integer grid nodes.  A run
evolves at most the longitudinal E_x, re-solved from the charge by
`solve_poisson`; every other component is a fixed external overlay.
Magnetization enters through the bound current curl(M), and Gauss's law
is a monitored residual.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import SpatialGrid1D
from .params import PlasmaParams


@dataclass
class FieldState:
    """E and B, each (3, N) at the grid nodes and zero at construction.

    `metadata` may carry an overlay's exact derivative under 'dB_nodes'.
    """

    grid: SpatialGrid1D
    E: np.ndarray = field(init=False)
    B: np.ndarray = field(init=False)
    metadata: dict = field(default_factory=dict, init=False)

    def __post_init__(self):
        self.E = np.zeros((3, self.grid.n))
        self.B = np.zeros((3, self.grid.n))

    def db_nodes(self) -> np.ndarray:
        """dB/dx at the nodes: an overlay's exact metadata['dB_nodes'],
        else the spectral derivative of B's rows that are not all zero
        (the others are exact zeros)."""
        dB = self.metadata.get("dB_nodes")
        if dB is not None:
            return dB
        dB = np.zeros_like(self.B)
        rows = np.any(self.B, axis=1)
        if rows.any():
            dB[rows] = self.grid.derivative(self.B[rows])
        return dB


def solve_poisson(rho_c, grid: SpatialGrid1D, params: PlasmaParams):
    """E_x = -d phi/dx of the spectral solve d^2 phi / dx^2 = -rho_c / epsilon0.

    E_k = -i k phi_k = -i rho_k / (epsilon0 k) from one forward and one
    inverse FFT; the mean and the Nyquist mode of E are zero.  The
    periodic domain requires a neutral source; net charge above 1e-10
    relative, and a non-finite source, are rejected.
    """
    rho_c = np.asarray(rho_c, dtype=float)
    net = np.mean(rho_c)
    scale = np.max(np.abs(rho_c))
    if not np.isfinite(scale):
        raise ValueError(f"source is not finite: max |rho_c| = {scale}")
    if abs(net) > 1e-10 * (scale if scale > 0 else 1.0):
        raise ValueError(f"source is not neutral: net charge density {net:.3e}")
    k = grid.k
    rho_k = np.fft.fft(rho_c - net)
    E_k = np.zeros_like(rho_k)
    E_k[1:] = -1j * rho_k[1:] / (params.epsilon0 * k[1:])
    E_k[grid.n // 2] = 0.0
    return np.fft.ifft(E_k).real


def bound_current(M, grid: SpatialGrid1D):
    """curl(M) in 1D: (0, -dM_z/dx, dM_y/dx) at the nodes, spectral."""
    return np.array([np.zeros(grid.n), -grid.derivative(M[2]),
                     grid.derivative(M[1])])


def field_energy(fs: FieldState, params: PlasmaParams) -> float:
    """epsilon0 E^2 / 2 + B^2 / 2 mu0 integrated over the domain."""
    dens = (params.epsilon0 * np.sum(fs.E**2, axis=0) / 2
            + np.sum(fs.B**2, axis=0) / (2 * params.mu0))
    return fs.grid.integrate(dens)


def gauss_residual(fs: FieldState, rho_c, params: PlasmaParams) -> float:
    """max |dE_x/dx - rho_c/epsilon0|, the monitored Gauss-law defect."""
    return float(np.max(np.abs(fs.grid.derivative(fs.E[0]) - rho_c / params.epsilon0)))


def external_profiles(kind, parameters, grid: SpatialGrid1D) -> FieldState:
    """Analytic external field overlays, added at gather time, never evolved."""
    p = dict(parameters)
    fs = FieldState(grid)
    if kind == "uniform_B":
        fs.B[2] = p.pop("B0", 1.0)
        # exactly zero, where a spectral derivative of the constant leaves
        # rounding noise that pushes would read as a spin-gradient force
        fs.metadata["dB_nodes"] = np.zeros((3, grid.n))
    elif kind == "gradient_B":
        B0 = p.pop("B0", 1.0)
        B1 = p.pop("B1", 0.1)
        fs.B[2] = B0 + B1 * (grid.x - grid.length / 2)
        # the linear ramp is not periodic; gatherers must use this exact
        # derivative instead of a spectral one
        dB = np.zeros((3, grid.n))
        dB[2] = B1
        fs.metadata["dB_nodes"] = dB
    elif kind == "single_mode_E":
        E0 = p.pop("E0", 1.0)
        k = p.pop("k", 2 * np.pi / grid.length)
        fs.E[0] = E0 * np.sin(k * grid.x)
    else:
        raise ValueError(f"unknown external profile kind '{kind}'")
    if p:
        raise ValueError(f"unused parameters for '{kind}': {sorted(p)}")
    return fs
