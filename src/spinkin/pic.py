"""Particle-in-cell backend for the semiclassical spin-Vlasov system.

Particles carry position, 3-component velocity, a unit spin direction and
a statistical weight.  The pusher is a Boris scheme with the magnetic
rotation applied at the exact angle, the spin-gradient force added as
half-kicks, and the spin advanced by exact rotation, so gyro-frequency
and |s_hat| = 1 hold to rounding.  Gather and deposit share the linear
cloud-in-cell shape function (Birdsall & Langdon), evaluated once per set
of positions: the ensemble caches it, so a step's charge deposit and the
next push's gather of every nonzero field row use one evaluation.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .fields import FieldState, bound_current
from .grid import SpatialGrid1D
from .params import PlasmaParams
from .rotation import rodrigues_rotate


def _check_unit_spins(s_hat):
    mag = np.sqrt(np.einsum("pa,pa->p", s_hat, s_hat))
    if np.max(np.abs(mag - 1.0)) > 1e-12:
        raise ValueError("spin directions must be unit vectors")


@dataclass
class ParticleEnsemble:
    """Arrays of particle coordinates: x (N,), v (N, 3), s_hat (N, 3), w (N,).

    Every assignment to x, in the constructor or later, wraps it into
    [0, L), makes it read-only and drops the cached shape function of
    `cic`, so the cache cannot go stale: move particles by assigning a
    new x array (or building a new ensemble), not by editing x in place.
    """

    grid: SpatialGrid1D
    x: np.ndarray
    v: np.ndarray
    s_hat: np.ndarray
    w: np.ndarray
    _shape: tuple = dataclasses.field(default=None, init=False, repr=False,
                                      compare=False)

    def __setattr__(self, name, value):
        if name == "x":
            value = np.mod(np.asarray(value, dtype=float), self.grid.length)
            value.flags.writeable = False
            object.__setattr__(self, "_shape", None)
        object.__setattr__(self, name, value)

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        self.s_hat = np.asarray(self.s_hat, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        n = self.x.shape[0]
        if self.v.shape != (n, 3) or self.s_hat.shape != (n, 3) or self.w.shape != (n,):
            raise ValueError("inconsistent particle array shapes")
        if np.any(self.w <= 0):
            raise ValueError("weights must be positive")
        _check_unit_spins(self.s_hat)

    def _advanced(self, x, v, s_hat):
        """Successor built by the pusher, skipping the constructor.

        Shapes and weights are those of self (w is shared); x is wrapped
        on assignment.  A rotated spin array is re-checked against the
        |s_hat| = 1 guard.
        """
        out = object.__new__(type(self))
        out.grid, out.w = self.grid, self.w
        out.x, out.v, out.s_hat = x, v, s_hat
        if s_hat is not self.s_hat:
            _check_unit_spins(s_hat)
        return out

    @property
    def n_particles(self) -> int:
        return self.x.shape[0]

    def cic(self):
        """Cloud-in-cell (i0, i1, w0, w1) of the current positions, cached."""
        if self._shape is None:
            self._shape = _cic(self.x, self.grid)
        return self._shape


def _cic(x, grid: SpatialGrid1D):
    """Cloud-in-cell node indices and weights for positions x."""
    xi = x / grid.dx
    cell = np.floor(xi)
    i0 = cell.astype(int) % grid.n
    frac = xi - cell
    i1 = (i0 + 1) % grid.n
    return i0, i1, 1.0 - frac, frac


def gather(field, x, grid: SpatialGrid1D, shape=None):
    """Linear interpolation of a nodal field (last axis = grid) to positions.

    `shape` is `_cic(x, grid)` when the caller already has it
    (`ParticleEnsemble.cic`).
    """
    i0, i1, w0, w1 = _cic(x, grid) if shape is None else shape
    return (np.take(field, i0, axis=-1) * w0
            + np.take(field, i1, axis=-1) * w1)


def _spin_force(dB_p, s_hat):
    """x-acceleration -mu_B/m * d(B.s_hat)/dx per particle (mu_B/m applied by caller).

    dB_p holds the gathered nonzero rows of dB/dx and s_hat the matching
    spin columns.
    """
    return np.einsum("ap,pa->p", dB_p, s_hat)


def push_particles(ens: ParticleEnsemble, fs: FieldState, params: PlasmaParams,
                   dt) -> ParticleEnsemble:
    """One Boris step with spin-gradient force and exact spin precession.

    Velocity sequence: half electric + spin-force kick, exact-angle
    magnetic rotation, second half kick; then position drift and spin
    rotation about B at 2 mu_B |B| / hbar.  The nonzero rows of E, B and
    dB/dx are gathered together in one call, and the spin force, which
    both half kicks take at the old x and s_hat, is evaluated once.
    """
    grid = ens.grid
    e, m = params.charge, params.mass
    B_nodes = fs.b_nodes()
    omega_c = e * np.max(np.linalg.norm(B_nodes, axis=0)) / m
    if dt * omega_c >= 0.5:
        raise ValueError(
            f"dt too large: dt * omega_c = {dt * omega_c:.3f} >= 0.5")

    dB = fs.metadata.get("dB_nodes")
    if dB is None:
        dB = grid.derivative(B_nodes)
    E_rows = np.flatnonzero(np.any(fs.E, axis=1))
    B_rows = np.flatnonzero(np.any(B_nodes, axis=1))
    dB_rows = np.flatnonzero(np.any(dB, axis=1))
    rows = np.concatenate([fs.E[E_rows], B_nodes[B_rows], dB[dB_rows]])
    E_g, B_g, dB_g = np.split(gather(rows, ens.x, grid, ens.cic()),
                              [len(E_rows), len(E_rows) + len(B_rows)])
    E_kick = (-e / m) * E_g * dt / 2
    spin_kick = None
    if len(dB_rows):
        spin_kick = ((-params.mu_B / m) * _spin_force(dB_g, ens.s_hat[:, dB_rows])
                     * dt / 2)

    def half_kick(v):
        for a, kick in zip(E_rows, E_kick):
            v[:, a] += kick
        if spin_kick is not None:
            v[:, 0] += spin_kick

    v = ens.v.copy()
    half_kick(v)
    s_new = ens.s_hat
    if len(B_rows):
        B_p = np.zeros((ens.n_particles, 3))
        B_p[:, B_rows] = B_g.T
        # electron charge -e: dv/dt = (e/m) B x v, rotation about B_hat
        Bmag = np.linalg.norm(B_p, axis=1)
        v = rodrigues_rotate(v, B_p, (e / m) * Bmag * dt)
        s_new = rodrigues_rotate(ens.s_hat, B_p,
                                 (2 * params.mu_B / params.hbar) * Bmag * dt)
    half_kick(v)
    return ens._advanced(ens.x + v[:, 0] * dt, v, s_new)


def _accumulate(ens: ParticleEnsemble, values):
    """sum_i values_i S_j(x_i) per node j, from the cached CIC shape.

    One bincount over the i0 then the i1 contributions adds them per node
    in the order sequential scatter-adds would.
    """
    i0, i1, w0, w1 = ens.cic()
    return np.bincount(np.concatenate([i0, i1]),
                       np.concatenate([values * w0, values * w1]),
                       minlength=ens.grid.n)


def deposit_charge(ens: ParticleEnsemble, params: PlasmaParams):
    """Charge density rho_c = -e sum w S(x - x_i) on the grid nodes."""
    return _accumulate(ens, ens.w) * (-params.charge / ens.grid.dx)


def deposit_sources(ens: ParticleEnsemble, grid: SpatialGrid1D,
                    params: PlasmaParams, curl_scheme="spectral"):
    """Charge density, free current, magnetization and bound current.

    rho_c = -e sum w S(x - x_i); j_free carries the particle velocities;
    M = -3 mu_B sum w s_hat S(x - x_i), the factor 3 coming from the
    second angular moment of the spin distribution; the bound current is
    the 1D curl of M.  Everything is deposited on ens.grid, where the
    cached shape function lives; `grid` is redundant with it and is kept
    only so existing calls `deposit_sources(ens, ens.grid, params)` work.
    """
    grid = ens.grid
    rho_c = deposit_charge(ens, params)
    j_free = np.array([_accumulate(ens, ens.w * ens.v[:, a])
                       for a in range(3)]) * (-params.charge / grid.dx)
    M = np.array([_accumulate(ens, ens.w * ens.s_hat[:, a])
                  for a in range(3)]) * (-3 * params.mu_B / grid.dx)
    return rho_c, j_free, M, bound_current(M, grid, curl_scheme)


def fibonacci_sphere(n) -> np.ndarray:
    """Low-discrepancy unit directions (golden-angle spiral), shape (n, 3)."""
    i = np.arange(n)
    z = 1 - (2 * i + 1) / n
    phi = np.pi * (1 + np.sqrt(5)) * i
    r = np.sqrt(np.maximum(1 - z**2, 0.0))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def load_particles(grid: SpatialGrid1D, n_particles, density_amplitude=0.0,
                   density_mode=1, v_thermal=0.0, drift=0.0,
                   spin="isotropic", total_density=1.0, seed=0,
                   quiet=True) -> ParticleEnsemble:
    """Quiet-start loading for n(x) = n0 (1 + A cos(k x)), Maxwellian v_x.

    quiet=True uses stratified inversion in x and v with a low-discrepancy
    spin spiral; quiet=False draws pseudo-random samples from a counter
    based generator so runs are reproducible per seed.
    """
    from scipy.special import erfinv

    rng = np.random.Generator(np.random.Philox(seed))
    L = grid.length
    k = 2 * np.pi * density_mode / L
    if quiet:
        u_x = (np.arange(n_particles) + 0.5) / n_particles
        # scramble the pairing so x and v strata are uncorrelated
        u_v = rng.permutation((np.arange(n_particles) + 0.5) / n_particles)
    else:
        u_x = rng.random(n_particles)
        u_v = rng.random(n_particles)

    # invert the CDF  F(x) = (x + A sin(kx)/k) / L  by Newton iteration
    x = u_x * L
    if density_amplitude != 0.0:
        for _ in range(50):
            f = (x + density_amplitude * np.sin(k * x) / k) / L - u_x
            x -= f * L / (1 + density_amplitude * np.cos(k * x))
    v = np.zeros((n_particles, 3))
    if v_thermal > 0:
        v[:, 0] = drift + v_thermal * np.sqrt(2) * erfinv(2 * u_v - 1)
    else:
        v[:, 0] = drift

    if spin == "isotropic":
        s_hat = fibonacci_sphere(n_particles)
    else:
        axis = np.asarray(spin, dtype=float)
        s_hat = np.tile(axis / np.linalg.norm(axis), (n_particles, 1))
    w = np.full(n_particles, total_density * L / n_particles)
    return ParticleEnsemble(grid, x, v, s_hat, w)
