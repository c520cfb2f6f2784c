"""Split-step spectral propagator for the 1D Pauli equation.

Serves as the wavefunction-level ground truth for the fluid and transform
layers.  H = (p + e A)^2 / 2m + mu_B B.sigma - e phi with prescribed static
potentials; Strang splitting kinetic / (potential + Zeeman), the Zeeman
factor applied as an exact 2x2 rotation, so the norm is conserved to
rounding per step and the scheme is globally second order in dt.  The
potentials are immutable and keep the step factors (Zeeman rotation,
scalar and kinetic phases) for the most recent (params, dt), so a step
with unchanged inputs is two 2x2 rotations and one FFT pair.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import SpatialGrid1D
from .params import PlasmaParams
from .transforms import SIGMA

DENSITY_MASK_REL = 1e-12


@dataclass
class SpinorField:
    """Two-component wavefunction (psi_up, psi_down) on a shared grid."""

    grid: SpatialGrid1D
    psi: np.ndarray  # (2, N) complex

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex)
        if self.psi.shape != (2, self.grid.n):
            raise ValueError(f"spinor shape must be (2, {self.grid.n})")

    def norm(self) -> float:
        return float(np.sum(np.abs(self.psi) ** 2) * self.grid.dx)

    def normalized(self) -> "SpinorField":
        nrm = self.norm()
        if nrm <= 0.0:
            raise ValueError("cannot normalize a zero spinor")
        return SpinorField(self.grid, self.psi / np.sqrt(nrm))

    def density(self) -> np.ndarray:
        return np.sum(np.abs(self.psi) ** 2, axis=0)


@dataclass
class ExternalPotentials:
    """Prescribed scalar/vector potentials and fields on the grid.

    Either supply A (3, N) and let B follow from the 1D curl
    (B_y = -dA_z/dx, B_z = dA_y/dx, B_x uniform), or supply B directly for
    external-field tests; an absent A is zeros (and so is B if also absent).
    In Coulomb-gauge mode A_x must be uniform.

    phi, A, B and E are read-only: every assignment, in the constructor or
    later, freezes the array (a caller's writeable array is copied first)
    and drops the cached step factors of `step_pauli`.  So the cache
    cannot go stale: change a potential by assigning a new array (or
    building new potentials), not by editing it in place.
    """

    grid: SpatialGrid1D
    phi: np.ndarray = None          # type: ignore[assignment]
    A: np.ndarray = None            # type: ignore[assignment]
    B: np.ndarray = None            # type: ignore[assignment]
    E: np.ndarray = None            # type: ignore[assignment]
    coulomb_gauge: bool = True
    _factors: tuple = field(default=None, init=False, repr=False,
                            compare=False)

    def __setattr__(self, name, value):
        if name in ("phi", "A", "B", "E") and value is not None:
            value = np.asarray(value, dtype=float)
            if value.flags.writeable or value.base is not None:
                value = value.copy()        # a caller's array stays theirs
                value.flags.writeable = False
        if name != "_factors":
            object.__setattr__(self, "_factors", None)
        object.__setattr__(self, name, value)

    def __post_init__(self):
        n = self.grid.n
        if self.phi is None:
            self.phi = np.zeros(n)
        if self.A is None:
            self.A = np.zeros((3, n))
            if self.B is None:
                self.B = np.zeros((3, n))
        self.A = np.atleast_2d(self.A)
        if self.A.shape != (3, n):
            raise ValueError("A must have shape (3, N)")
        if self.coulomb_gauge and np.ptp(self.A[0]) > 1e-12:
            raise ValueError("Coulomb gauge requires uniform A_x in 1D")
        if self.B is None:
            self.B = [np.zeros(n), -self.grid.derivative(self.A[2]),
                      self.grid.derivative(self.A[1])]
        if self.B.shape != (3, n):
            raise ValueError("B must have shape (3, N)")
        if self.E is None:
            self.E = [-self.grid.derivative(self.phi), np.zeros(n), np.zeros(n)]

    def step_factors(self, params: PlasmaParams, dt: float):
        """(half, kin): the Strang factors of `step_pauli` for (params, dt).

        half = (cos_a, i sinc, b.sigma, phase) of the potential half step
        over dt/2 and kin the kinetic phase on the FFT wavenumbers.  The
        entry for the most recent (params, dt) is kept; the dt guard and
        the uniform-A_x check run when an entry is built, so they raise on
        every call that would build one.
        """
        key = (params, dt)
        if self._factors is None or self._factors[0] != key:
            self._factors = (key, _build_step_factors(self, params, dt))
        return self._factors[1]


def spin_orientation(theta0, phi0) -> np.ndarray:
    """Unit spinor with Bloch vector (sin t cos p, sin t sin p, cos t)."""
    return np.array([np.cos(theta0 / 2), np.exp(1j * phi0) * np.sin(theta0 / 2)], dtype=complex)


def init_state(family, parameters, grid: SpatialGrid1D) -> SpinorField:
    """Build a normalized spinor from a named family.

    Families: 'gaussian' (x0, width, p0, theta0, phi0), 'plane_wave'
    (p0 snapped to the nearest grid mode, theta0, phi0), 'superposition'
    (two gaussian envelopes at x0 and x1 with phase gradients p0 and p1,
    default -p0; optional separate spin theta1, phi1).  p0 is the phase
    gradient: a packet is built as exp(i p0 x), so its momentum is hbar p0.
    A key the family does not read raises ValueError.
    """
    p = dict(parameters)
    theta0 = p.pop("theta0", 0.0)
    phi0 = p.pop("phi0", 0.0)
    chi = spin_orientation(theta0, phi0)
    x = grid.x

    def packet(x0, width, p0):
        return np.exp(-((x - x0) ** 2) / (2 * width**2)) * np.exp(1j * p0 * x)

    if family == "gaussian":
        psi = np.outer(chi, packet(p.pop("x0", grid.length / 2),
                                   p.pop("width", 1.0), p.pop("p0", 0.0)))
    elif family == "plane_wave":
        mode = round(p.pop("p0", 0.0) * grid.length / (2 * np.pi))
        psi = np.outer(chi, np.exp(1j * (2 * np.pi * mode / grid.length) * x))
    elif family == "superposition":
        width = p.pop("width", 1.0)
        p0 = p.pop("p0", 0.0)
        chi1 = spin_orientation(p.pop("theta1", theta0), p.pop("phi1", phi0))
        psi = (np.outer(chi, packet(p.pop("x0", grid.length / 3), width, p0))
               + np.outer(chi1, packet(p.pop("x1", 2 * grid.length / 3),
                                       width, p.pop("p1", -p0))))
    else:
        raise ValueError(f"unknown state family '{family}'")
    if p:
        raise ValueError(f"unused parameters for '{family}': {sorted(p)}")
    return SpinorField(grid, psi).normalized()


def _require_uniform_ax(A, caller):
    """Reject an A_x that varies: `caller` takes one value, A[0, 0]."""
    spread = np.ptp(A[0])
    if spread > 1e-12:
        raise ValueError(
            f"{caller} needs a uniform A_x: the kinetic operator uses one "
            f"value of A_x, but this A_x varies by {spread:.3g} over the grid "
            "(a non-Coulomb gauge, e.g. from gauge_transform_state)")


def _build_step_factors(pot, params, dt):
    """Half-step and kinetic factors of one Strang step (see step_factors)."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    hbar, m, e = params.hbar, params.mass, params.charge
    A = pot.A
    _require_uniform_ax(A, "step_pauli")
    k = pot.grid.k
    kin_phase_max = (hbar * np.abs(k).max() + e * np.abs(A[0]).max()) ** 2 / (2 * m) * dt / hbar
    if kin_phase_max > np.pi:
        raise ValueError(
            f"dt too large: spectral phase per step {kin_phase_max:.3f} exceeds pi "
            "at the maximum wavenumber")

    dt_half = dt / 2
    scalar = (-e * pot.phi + e**2 * (A[1] ** 2 + A[2] ** 2) / (2 * m))
    b = params.mu_B * pot.B  # (3, N)
    bmag = np.sqrt(np.sum(b * b, axis=0))
    angle = bmag * dt_half / hbar
    cos_a = np.cos(angle)[:, None]
    # sin(angle)/|b| without 0/0
    sinc = np.where(bmag > 0, np.sin(angle) / np.where(bmag > 0, bmag, 1.0), dt_half / hbar)
    phase = np.exp(-1j * scalar * dt_half / hbar)[:, None]
    bs = np.einsum("ni,ijk->njk", b.T, SIGMA)  # (N, 2, 2)
    kin = np.exp(-1j * (hbar * k + e * A[0, 0]) ** 2 / (2 * m * hbar) * dt)
    return (cos_a, 1j * sinc[:, None], bs, phase), kin[None, :]


def _potential_half_step(psi, half):
    """Exact exponential of the x-diagonal part of H over dt/2, on (2, N)."""
    cos_a, isinc, bs, phase = half
    new = cos_a * psi.T - isinc * np.einsum("njk,kn->nj", bs, psi)
    return (phase * new).T


def step_pauli(state: SpinorField, pot: ExternalPotentials, params: PlasmaParams,
               dt: float) -> SpinorField:
    """One Strang step of the Pauli propagator (static potentials).

    The factors come from `pot.step_factors(params, dt)`, built once per
    (potentials, params, dt); a step is two 2x2 rotations and one FFT pair.
    """
    if state.grid != pot.grid:
        raise ValueError("state and potentials use different grids")
    half, kin = pot.step_factors(params, dt)
    psi_k = np.fft.fft(_potential_half_step(state.psi, half), axis=1) * kin
    return SpinorField(state.grid,
                       _potential_half_step(np.fft.ifft(psi_k, axis=1), half))


def spinor_moments(state: SpinorField, A_x, params: PlasmaParams):
    """Density, current / m and spin density (n, n v, n s), undivided.

    n v is the probability current over m with A_x the longitudinal vector
    potential; n s = (hbar/2) psi^dag sigma psi.
    """
    dpsi = state.grid.derivative(state.psi)
    current = np.sum((state.psi.conj() * (-1j * params.hbar * dpsi
                                          + params.charge * A_x * state.psi)).real, axis=0)
    ns = (params.hbar / 2) * np.einsum("in,aij,jn->an", state.psi.conj(), SIGMA,
                                       state.psi).real
    return state.density(), current / params.mass, ns


def spinor_observables(state: SpinorField, pot: ExternalPotentials,
                       params: PlasmaParams):
    """Density, velocity and spin density (n, v, s) with low-density masking.

    v uses the probability-current form, well defined wherever n > 0;
    s = (hbar/2) psi^dag sigma psi / n.  Points with n below
    DENSITY_MASK_REL * max(n) are returned as NaN in v and s.
    """
    n, nv, ns = spinor_moments(state, pot.A[0], params)
    mask = n < DENSITY_MASK_REL * n.max()
    safe_n = np.where(mask, 1.0, n)
    v = np.where(mask, np.nan, nv / safe_n)
    s = np.where(mask[None, :], np.nan, ns / safe_n[None, :])
    return n, v, s


def energy(state: SpinorField, pot: ExternalPotentials, params: PlasmaParams) -> float:
    """Expectation of H, spectral kinetic part; A_x must be uniform."""
    grid = state.grid
    hbar, m, e = params.hbar, params.mass, params.charge
    A = pot.A
    _require_uniform_ax(A, "energy")
    psi_k = np.fft.fft(state.psi, axis=1)
    kin_op = (hbar * grid.k + e * A[0, 0]) ** 2 / (2 * m)
    kinetic = np.sum(np.abs(psi_k) ** 2 * kin_op[None, :]) / grid.n**2 * grid.length
    n = state.density()
    scalar = (-e * pot.phi + e**2 * (A[1] ** 2 + A[2] ** 2) / (2 * m))
    spin_raw = np.einsum("in,aij,jn->an", state.psi.conj(), SIGMA, state.psi).real
    zeeman = params.mu_B * np.sum(pot.B * spin_raw, axis=0)
    return float(kinetic + grid.integrate(scalar * n + zeeman))
