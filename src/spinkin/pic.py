"""Particle-in-cell backend for the semiclassical spin-Vlasov system.

Particles carry position, 3-component velocity, a unit spin direction and
a statistical weight.  The pusher is a Boris scheme with the magnetic
rotation applied at the exact angle, the spin-gradient force added as
half-kicks, and the spin advanced by exact rotation, so gyro-frequency
and |s_hat| = 1 hold to rounding.  Gather and deposit share the linear
cloud-in-cell shape function (Birdsall & Langdon), evaluated once per set
of positions as one (2, N) index array [i0, i1] and one (2, N) weight
array [w0, w1]: the ensemble caches it, so a step's charge deposit and
the next push's gather of every nonzero field row use one evaluation.
The ensemble likewise keeps its spin statistics (mean s_hat and the
|s_hat| = 1 deviation the push guard measures) per spin array, so a step
that does not rotate the spins recomputes neither.

A step allocates, at N scale, only what the successor ensemble keeps: its
x (drifted into one fresh array and wrapped in place), v, the rotated
s_hat when B is nonzero, and the (2, N) shape its deposit caches.  The
kicks are scaled in place in the gather output, `_cic` writes x / dx
straight into its weight buffer, and the weighted product a deposit
hands to bincount lives in one (2, N) scratch buffer that each successor
takes over from its predecessor.  Besides these, the step holds the
gather's (rows, N) output, which becomes the kicks, and one (rows, N)
temporary inside gather; a nonzero B adds the rotation's own.  Fresh
N-sized arrays every step cost more than their arithmetic, because the
heap pages they free and fetch again come back as minor page faults.

`load_particles` is a cold quiet start: stratified positions that invert
the density CDF, every velocity zero and a deterministic spin set, so a
particle run does not depend on the seed.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .fields import FieldState, bound_current
from .grid import SpatialGrid1D
from .params import PlasmaParams
from .rotation import rodrigues_rotate

# density-CDF inversion in load_particles: step cap, and the step (in ulps
# of the domain length) below which an iterate counts as converged
_NEWTON_MAX_ITER = 100
_NEWTON_TOL_ULPS = 4


def _check_unit_spins(s_hat):
    """max | |s_hat| - 1 | over the particles; raises beyond 1e-12 or on NaN."""
    mag = np.sqrt(np.einsum("pa,pa->p", s_hat, s_hat))
    dev = float(np.max(np.abs(mag - 1.0)))
    if not dev <= 1e-12:
        raise ValueError(f"spin directions must be unit vectors: dev {dev:.3g}")
    return dev


def _wrap(x, length):
    """A copy of x mod length, bit for bit np.mod(x, length) (`_wrap_in_place`)."""
    return _wrap_in_place(np.array(x, dtype=float), length)


def _wrap_in_place(x, length):
    """x mod length written over the float array x, bit for bit np.mod.

    Only the entries outside [0, length) go through np.mod; for the rest
    it is the identity.  -0.0 counts as outside, since np.mod maps it to
    +0.0.  The result lies in [0, length], not [0, length): np.mod
    returns length itself for a negative x within rounding of 0 (-1e-17).
    """
    mask = np.signbit(x)
    mask |= x >= length
    outside = np.flatnonzero(mask)
    if outside.size:
        x[outside] = np.mod(x[outside], length)
    return x


@dataclass
class ParticleEnsemble:
    """Arrays of particle coordinates: x (N,), v (N, 3), s_hat (N, 3), w (N,).

    x and s_hat are read-only.  Every assignment to x, in the constructor
    or later, wraps a copy into [0, L] (L itself can occur, see `_wrap`)
    and drops the cached (2, N) shape function of `cic`; every assignment
    to s_hat freezes it (a caller's writeable array is copied first) and
    drops the cached `spin_stats`.
    So neither cache can go stale: move particles or turn spins by
    assigning new arrays (or building a new ensemble), not by editing
    them in place.  The deposit's (2, N) scratch buffer passes from an
    ensemble to the successor the pusher builds, so one ensemble must not
    be deposited from two threads at once.
    """

    grid: SpatialGrid1D
    x: np.ndarray
    v: np.ndarray
    s_hat: np.ndarray
    w: np.ndarray
    _shape: tuple = dataclasses.field(default=None, init=False, repr=False,
                                      compare=False)
    _spin_mean: np.ndarray = dataclasses.field(default=None, init=False,
                                               repr=False, compare=False)
    _spin_dev: float = dataclasses.field(default=None, init=False,
                                         repr=False, compare=False)
    _scratch: np.ndarray = dataclasses.field(default=None, init=False,
                                             repr=False, compare=False)

    def __setattr__(self, name, value):
        if name == "x":
            value = _wrap(value, self.grid.length)
            value.flags.writeable = False
            object.__setattr__(self, "_shape", None)
        elif name == "s_hat":
            value = np.asarray(value, dtype=float)
            if value.flags.writeable:       # a caller's array stays theirs
                value = value.copy()
                value.flags.writeable = False
            object.__setattr__(self, "_spin_mean", None)
            object.__setattr__(self, "_spin_dev", None)
        object.__setattr__(self, name, value)

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        n = self.x.shape[0]
        if self.v.shape != (n, 3) or self.s_hat.shape != (n, 3) or self.w.shape != (n,):
            raise ValueError("inconsistent particle array shapes")
        if np.any(self.w <= 0):
            raise ValueError("weights must be positive")
        self._spin_dev = _check_unit_spins(self.s_hat)

    def _advanced(self, x, v, s_hat):
        """Successor built by the pusher, skipping the constructor.

        Shapes and weights are those of self (w is shared).  x and v are
        the pusher's fresh arrays and become the successor's own: x is
        wrapped and frozen in place, with no defensive copy.  The deposit
        scratch buffer moves to the successor.  The successor owns a new
        s_hat array (frozen here, not copied), and the |s_hat| = 1 guard
        re-checks it; an unrotated s_hat is self's, and so are its spin
        statistics.
        """
        out = object.__new__(type(self))
        out.grid, out.w, out.v = self.grid, self.w, v
        x = _wrap_in_place(x, self.grid.length)
        x.flags.writeable = False
        object.__setattr__(out, "x", x)
        out._shape = None
        out._scratch, self._scratch = self._scratch, None
        if s_hat is self.s_hat:
            out.s_hat = s_hat
            out._spin_mean, out._spin_dev = self._spin_mean, self._spin_dev
        else:
            s_hat.flags.writeable = False
            out.s_hat = s_hat
            out._spin_dev = _check_unit_spins(s_hat)
        return out

    @property
    def n_particles(self) -> int:
        return self.x.shape[0]

    def cic(self):
        """Cloud-in-cell ([i0, i1], [w0, w1]) of the positions, cached."""
        if self._shape is None:
            self._shape = _cic(self.x, self.grid)
        return self._shape

    def spin_stats(self):
        """(mean s_hat, max | |s_hat| - 1 |), each once per s_hat array.

        The deviation is the one the |s_hat| = 1 guard measured when the
        array was checked (or, after a reassignment, measures now); the
        mean is np.mean(s_hat, axis=0).
        """
        if self._spin_dev is None:
            self._spin_dev = _check_unit_spins(self.s_hat)
        if self._spin_mean is None:
            self._spin_mean = np.mean(self.s_hat, axis=0)
        return self._spin_mean, self._spin_dev


def _cic(x, grid: SpatialGrid1D):
    """Cloud-in-cell node indices [i0, i1] and weights [w0, w1], each (2, N).

    x must be wrapped into [0, L], as the ensemble keeps it: i0 is then the
    truncation of x / dx.  A position whose x / dx rounds to n (just
    below L, or L itself, which np.mod returns for a hair below 0) goes
    to node 0, as floor and modulo would give.
    """
    n = grid.n
    idx = np.empty((2, x.shape[0]), dtype=np.intp)
    wts = np.empty((2, x.shape[0]))
    i0, i1 = idx
    xi = np.divide(x, grid.dx, out=wts[1])      # x / dx, then its fraction
    np.copyto(i0, xi, casting="unsafe")
    np.subtract(xi, i0, out=xi)
    np.subtract(1.0, xi, out=wts[0])
    i0[i0 == n] = 0
    np.add(i0, 1, out=i1)
    i1[i1 == n] = 0
    return idx, wts


def gather(field, x, grid: SpatialGrid1D, shape=None):
    """Linear interpolation of a nodal field (last axis = grid) to positions.

    Any x is accepted and taken periodically.  `shape` is the cached
    `ParticleEnsemble.cic()` when the caller already has it.
    """
    idx, wts = _cic(_wrap(x, grid.length), grid) if shape is None else shape
    field = np.asarray(field, dtype=float)
    out = np.take(field, idx[0], axis=-1)
    out *= wts[0]
    upper = np.take(field, idx[1], axis=-1)
    upper *= wts[1]
    out += upper
    return out


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
    omega_c = e * np.max(np.linalg.norm(fs.B, axis=0)) / m
    if dt * omega_c >= 0.5:
        raise ValueError(
            f"dt too large: dt * omega_c = {dt * omega_c:.3f} >= 0.5")

    dB = fs.db_nodes()
    E_rows = np.flatnonzero(np.any(fs.E, axis=1))
    B_rows = np.flatnonzero(np.any(fs.B, axis=1))
    dB_rows = np.flatnonzero(np.any(dB, axis=1))
    rows = np.concatenate([fs.E[E_rows], fs.B[B_rows], dB[dB_rows]])
    gathered = gather(rows, ens.x, grid, ens.cic())
    n_E, n_EB = len(E_rows), len(E_rows) + len(B_rows)
    E_g, B_g, dB_g = gathered[:n_E], gathered[n_E:n_EB], gathered[n_EB:]
    # the kicks are scaled in place, in the order of (-e / m) * E * dt / 2
    E_kick = np.multiply(-e / m, E_g, out=E_g)
    E_kick *= dt
    E_kick /= 2
    spin_kick = None
    if len(dB_rows):
        spin_kick = _spin_force(dB_g, ens.s_hat[:, dB_rows])
        spin_kick *= -params.mu_B / m
        spin_kick *= dt
        spin_kick /= 2

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
    x = np.multiply(v[:, 0], dt)
    x += ens.x
    return ens._advanced(x, v, s_new)


def _accumulate(ens: ParticleEnsemble, values):
    """sum_i values[r][i] S_j(x_i) per node j, for each of the k rows: (k, n).

    The ensemble's (2, N) scratch buffer holds the weighted product
    [w0, w1] * values[r] of each row in turn; one bincount over its i0
    then i1 halves (the rows of the cached (2, N) shape, raveled) adds them
    per node in the order sequential scatter-adds would.
    """
    idx, wts = ens.cic()
    flat = idx.ravel()
    weighted = ens._scratch
    if weighted is None:
        weighted = ens._scratch = np.empty_like(wts)
    out = np.empty((len(values), ens.grid.n))
    for row, vals in zip(out, values):
        np.multiply(wts, vals, out=weighted)
        row[:] = np.bincount(flat, weighted.ravel(), minlength=ens.grid.n)
    return out


def deposit_charge(ens: ParticleEnsemble, params: PlasmaParams):
    """Charge density rho_c = -e sum w S(x - x_i) on the grid nodes."""
    rho = _accumulate(ens, ens.w[None])[0]
    rho *= -params.charge / ens.grid.dx
    return rho


def deposit_sources(ens: ParticleEnsemble, params: PlasmaParams):
    """Charge density, free current, magnetization and bound current.

    rho_c = -e sum w S(x - x_i); j_free carries the particle velocities;
    M = -3 mu_B sum w s_hat S(x - x_i), the factor 3 coming from the
    second angular moment of the spin distribution; the bound current is
    the 1D curl of M.  Everything is deposited on ens.grid, where the
    cached shape function lives.
    """
    grid = ens.grid
    rho_c = deposit_charge(ens, params)
    j_free = _accumulate(ens, [ens.w * ens.v[:, a] for a in range(3)])
    j_free *= -params.charge / grid.dx
    M = _accumulate(ens, [ens.w * ens.s_hat[:, a] for a in range(3)])
    M *= -3 * params.mu_B / grid.dx
    return rho_c, j_free, M, bound_current(M, grid)


def fibonacci_sphere(n) -> np.ndarray:
    """Low-discrepancy unit directions (golden-angle spiral), shape (n, 3)."""
    i = np.arange(n)
    z = 1 - (2 * i + 1) / n
    phi = np.pi * (1 + np.sqrt(5)) * i
    r = np.sqrt(np.maximum(1 - z**2, 0.0))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _invert_density_cdf(x, u, amp, k, length):
    """x with F(x) = (x + A sin(kx)/k) / L = u, by bracketed Newton.

    F' = (1 + A cos kx) / L > 0 for |A| < 1, and F(0) = 0 <= u < 1 = F(L),
    so each root lies in [0, L]; the sign of F - u moves one end of that
    bracket to the iterate, and a Newton step that would leave the bracket
    is replaced by its midpoint.  Stops once no iterate moves by more than
    _NEWTON_TOL_ULPS ulps of L (3 steps on the plasma_osc preset).
    Raises ValueError for |A| >= 1, where n0 (1 + A cos kx) is negative
    somewhere (zero at |A| = 1), or if _NEWTON_MAX_ITER steps do not get
    there.
    """
    if not abs(amp) < 1.0:
        raise ValueError(
            f"density amplitude {amp} gives a negative density "
            f"n0 (1 + A cos kx); |A| must be < 1")
    lo, hi = np.zeros_like(x), np.full_like(x, length)
    tol = _NEWTON_TOL_ULPS * np.spacing(length)
    for _ in range(_NEWTON_MAX_ITER):
        f = (x + amp * np.sin(k * x) / k) / length - u
        lo = np.where(f < 0, x, lo)
        hi = np.where(f > 0, x, hi)
        new = x - f * length / (1 + amp * np.cos(k * x))
        # a step onto an end (a former iterate) would cycle: bisect too
        outside = ((new <= lo) | (new >= hi)) & (new != x)
        new = np.where(outside, 0.5 * (lo + hi), new)
        step = float(np.max(np.abs(new - x), initial=0.0))
        x = new
        if step <= tol:
            return x
    raise ValueError(
        f"density inversion did not converge in {_NEWTON_MAX_ITER} Newton "
        f"steps (last step {step:.3g}, tolerance {tol:.3g})")


def load_particles(grid: SpatialGrid1D, n_particles, density_amplitude=0.0,
                   density_mode=1, spin="isotropic",
                   total_density=1.0) -> ParticleEnsemble:
    """Cold quiet start for n(x) = n0 (1 + A cos(k x)), all particles at rest.

    Positions invert the density CDF at the stratified points
    (i + 1/2) / N; spins are the low-discrepancy spiral of
    `fibonacci_sphere` ("isotropic") or all along one given axis.
    The load is deterministic.
    """
    L = grid.length
    k = 2 * np.pi * density_mode / L
    u_x = (np.arange(n_particles) + 0.5) / n_particles
    x = u_x * L
    if density_amplitude != 0.0:
        x = _invert_density_cdf(x, u_x, density_amplitude, k, L)
    v = np.zeros((n_particles, 3))

    if spin == "isotropic":
        s_hat = fibonacci_sphere(n_particles)
    else:
        axis = np.asarray(spin, dtype=float)
        s_hat = np.tile(axis / np.linalg.norm(axis), (n_particles, 1))
    w = np.full(n_particles, total_density * L / n_particles)
    return ParticleEnsemble(grid, x, v, s_hat, w)
