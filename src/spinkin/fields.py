"""Electrostatic Poisson solver and 1D electromagnetic update.

The electromagnetic part is a staggered leapfrog: E (3 components) lives
at integer nodes, B_y and B_z at half nodes, with magnetization entering
Ampere's law only through the bound current curl(M).  The longitudinal
E_x is advanced from the current so Gauss's law is a monitored residual,
not a constraint re-imposed each step.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import SpatialGrid1D
from .params import PlasmaParams


@dataclass
class FieldState:
    """Electromagnetic fields and spin sources on the staggered 1D grid.

    E and M are sampled at integer nodes x_i; B_y, B_z at half nodes
    x_i + dx/2 (B_x must be uniform in 1D).
    """

    grid: SpatialGrid1D
    E: np.ndarray = None        # type: ignore[assignment]
    B: np.ndarray = None        # type: ignore[assignment]
    phi: np.ndarray = None      # type: ignore[assignment]
    A: np.ndarray = None        # type: ignore[assignment]
    M: np.ndarray = None        # type: ignore[assignment]
    j_free: np.ndarray = None   # type: ignore[assignment]
    j_bound: np.ndarray = None  # type: ignore[assignment]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.grid.n
        for name in ("E", "B", "M", "j_free", "j_bound"):
            val = getattr(self, name)
            val = np.zeros((3, n)) if val is None else np.asarray(val, dtype=float)
            if val.shape != (3, n):
                raise ValueError(f"{name} must have shape (3, {n})")
            setattr(self, name, val)
        if self.phi is not None:
            self.phi = np.asarray(self.phi, dtype=float)
        if np.ptp(self.B[0]) > 1e-12:
            raise ValueError("B_x must be uniform in 1D")

    def H(self, params: PlasmaParams) -> np.ndarray:
        return self.B / params.mu0 - self.M

    def b_nodes(self) -> np.ndarray:
        """B sampled at integer nodes (averages the staggered components).

        External overlays built by external_profiles are already nodal and
        are returned unchanged (metadata['staggered'] = False).
        """
        if not self.metadata.get("staggered", True):
            return self.B
        out = self.B.copy()
        out[1] = (out[1] + np.roll(out[1], 1)) / 2
        out[2] = (out[2] + np.roll(out[2], 1)) / 2
        return out

    def db_nodes(self) -> np.ndarray:
        """dB/dx at integer nodes: an overlay's exact metadata['dB_nodes'],
        else the spectral derivative of b_nodes()."""
        dB = self.metadata.get("dB_nodes")
        return self.grid.derivative(self.b_nodes()) if dB is None else dB

    def copy(self) -> "FieldState":
        return FieldState(self.grid, self.E.copy(), self.B.copy(),
                          None if self.phi is None else self.phi.copy(),
                          None if self.A is None else self.A.copy(),
                          self.M.copy(), self.j_free.copy(), self.j_bound.copy(),
                          dict(self.metadata))


def solve_poisson(rho_c, grid: SpatialGrid1D, params: PlasmaParams):
    """Spectral solve of d^2 phi / dx^2 = -rho_c / epsilon0, zero-mean phi.

    The periodic domain requires a neutral source; net charge above
    1e-10 relative is rejected.
    """
    rho_c = np.asarray(rho_c, dtype=float)
    net = np.mean(rho_c)
    scale = np.max(np.abs(rho_c)) if np.max(np.abs(rho_c)) > 0 else 1.0
    if abs(net) > 1e-10 * scale:
        raise ValueError(f"source is not neutral: net charge density {net:.3e}")
    k = grid.k
    rho_k = np.fft.fft(rho_c - net)
    phi_k = np.zeros_like(rho_k)
    phi_k[1:] = rho_k[1:] / (params.epsilon0 * k[1:] ** 2)
    phi = np.fft.ifft(phi_k).real
    return phi, -grid.derivative(phi)


def _ddx_half_to_int(u, dx):
    """Centered difference of a half-node field, result at integer nodes."""
    return (u - np.roll(u, 1, axis=-1)) / dx


def _ddx_int_to_half(u, dx):
    """Centered difference of an integer-node field, result at half nodes."""
    return (np.roll(u, -1, axis=-1) - u) / dx


def bound_current(M, grid: SpatialGrid1D, scheme="spectral"):
    """curl(M) in 1D: (0, -dM_z/dx, dM_y/dx) at integer nodes."""
    if scheme == "spectral":
        ddx = grid.derivative
    elif scheme == "centered":
        def ddx(u):
            return (np.roll(u, -1, axis=-1) - np.roll(u, 1, axis=-1)) / (2 * grid.dx)
    else:
        raise ValueError("scheme must be 'spectral' or 'centered'")
    return np.array([np.zeros(grid.n), -ddx(M[2]), ddx(M[1])])


def maxwell_step(fs: FieldState, j_free, M, params: PlasmaParams, dt,
                 curl_scheme="spectral") -> FieldState:
    """One leapfrog step of Faraday + Ampere with bound current curl(M).

    j_free and M are the sources at the midpoint of the step (second
    order).  B is advanced in two half steps so the stored state stays
    time synchronized with E.
    """
    grid = fs.grid
    nu = params.c * dt / grid.dx
    if nu > 1.0:
        raise ValueError(f"CFL violation: c dt/dx = {nu:.3f} > 1")
    dx = grid.dx
    out = fs.copy()
    out.j_free = np.asarray(j_free, dtype=float).copy()
    out.M = np.asarray(M, dtype=float).copy()
    out.j_bound = bound_current(out.M, grid, curl_scheme)
    j_total = out.j_free + out.j_bound

    E, B = out.E, out.B
    # Faraday half step: dB_y/dt = +dE_z/dx, dB_z/dt = -dE_y/dx (half nodes)
    B[1] += dt / 2 * _ddx_int_to_half(E[2], dx)
    B[2] -= dt / 2 * _ddx_int_to_half(E[1], dx)
    # Ampere full step at integer nodes
    c2 = params.c**2
    E[0] += dt * (-j_total[0] / params.epsilon0)
    E[1] += dt * (-c2 * _ddx_half_to_int(B[2], dx) - j_total[1] / params.epsilon0)
    E[2] += dt * (c2 * _ddx_half_to_int(B[1], dx) - j_total[2] / params.epsilon0)
    # Faraday second half step
    B[1] += dt / 2 * _ddx_int_to_half(E[2], dx)
    B[2] -= dt / 2 * _ddx_int_to_half(E[1], dx)
    return out


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
    fs.metadata["staggered"] = False
    if kind == "uniform_B":
        fs.B[2] = p.pop("B0", 1.0)
        # exactly zero, where a spectral derivative of the constant leaves
        # rounding noise that pushes would read as a spin-gradient force
        fs.metadata.update(kind="uniform_B", dB_nodes=np.zeros((3, grid.n)))
    elif kind == "gradient_B":
        B0 = p.pop("B0", 1.0)
        B1 = p.pop("B1", 0.1)
        fs.B[2] = B0 + B1 * (grid.x - grid.length / 2)
        # the linear ramp is not periodic; gatherers must use this exact
        # derivative instead of a spectral one
        dB = np.zeros((3, grid.n))
        dB[2] = B1
        fs.metadata.update(kind="gradient_B", dB_nodes=dB,
                           note="1D div B = 0 holds trivially for B_z(x)")
    elif kind == "single_mode_E":
        E0 = p.pop("E0", 1.0)
        k = p.pop("k", 2 * np.pi / grid.length)
        fs.E[0] = E0 * np.sin(k * grid.x)
        fs.metadata["kind"] = "single_mode_E"
    else:
        raise ValueError(f"unknown external profile kind '{kind}'")
    if p:
        raise ValueError(f"unused parameters for '{kind}': {sorted(p)}")
    return fs
