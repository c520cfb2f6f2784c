"""Grid-based solver for the extended phase-space distribution f(x, v, s_hat).

Transport follows the semiclassical kinetic equation with optional
quantum spin-velocity coupling: x and v advections are conservative
MUSCL finite-volume sweeps (monotonized-central limiter, or unlimited
Fromm slopes for convergence studies), and the spin sector rotates about
the local magnetic field by one path for every direction of B:
Legendre-kernel resampling at the rotated nodes (the addition-theorem
form of spherical-harmonic interpolation, see
`SphereQuadrature.rotation_interp_matrices`, which keeps the stack of the
most recent field, so a static B builds it once).  Velocity space is 1V
(electrostatic) or 2V (magnetized, B along z).

The quantum term G . grad_s f, G = (mu_B/m) d_x B, is posed on the
spin-1/2 distribution, which the paper's projector (1 + s_hat . sigma)/4 pi
makes exactly l <= 1: f = (F0 + 3 s_hat . F)/4 pi.  With the term on, a
step projects its input onto l <= 1 (on the sphere grid the l >= 2 part
would grow without bound under this term) and takes the term in closed
form from the moments (F0, F), (3/4 pi)[G . F - (G . s_hat)(s_hat . F)];
`quantum_term_increment` keeps the sphere-gradient form
(`SphereQuadrature.gradient_along`) as its oracle.

Each sweep runs over cache-sized blocks of lines that share one work
buffer per call (padded block, work arrays and slopes).  A step allocates
one f-sized array of its own, its output: the first x half-sweep writes it
(with the quantum term on, the projection writes it and the x half-sweep
updates it), and every later sweep, the quantum increment (added in
blocks of x nodes) and the sphere rotation update it in place.  Beyond
that a step holds only block buffers and arrays over (x, sphere node) or
over (x, v) cells.
"""

from dataclasses import dataclass

import numpy as np

from .fields import FieldState
from .grid import SpatialGrid1D
from .params import PlasmaParams
from .sphere import SphereQuadrature


@dataclass
class ExtendedDistribution:
    """f on (N_x, N_v[, N_vy], n_theta, n_phi); velocity cells are uniform."""

    grid: SpatialGrid1D
    v_axes: tuple          # one or two 1D arrays of cell-centered velocities
    quad: SphereQuadrature
    values: np.ndarray

    def __post_init__(self):
        self.v_axes = tuple(np.asarray(a, dtype=float) for a in self.v_axes)
        if len(self.v_axes) not in (1, 2):
            raise ValueError("velocity space must be 1V or 2V")
        shape = (self.grid.n, *(len(a) for a in self.v_axes),
                 self.quad.n_theta, self.quad.n_phi)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != shape:
            raise ValueError(f"values must have shape {shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("distribution contains non-finite entries")

    @property
    def dv(self) -> tuple:
        return tuple(a[1] - a[0] for a in self.v_axes)

    def total(self) -> float:
        return float(np.sum(self.values * self.quad.weights)
                     * self.grid.dx * np.prod(self.dv))

    def moments(self, params: PlasmaParams):
        """(n, j_free_x, M) with the triple angular moment rule for M."""
        w = self.quad.weights
        dv = np.prod(self.dv)
        sph = tuple(range(self.values.ndim - 2, self.values.ndim))
        f_xv = np.sum(self.values * w, axis=sph) * dv      # (N_x, N_v...)
        vx = self.v_axes[0]
        vx_b = vx[:, None] if len(self.v_axes) == 2 else vx
        v_sum = tuple(range(1, 1 + len(self.v_axes)))
        n = np.sum(f_xv, axis=v_sum)
        j_free = -params.charge * np.sum(f_xv * vx_b, axis=v_sum)
        s_moment = np.einsum("...tp,tp,tpi->...i",
                             np.sum(self.values, axis=v_sum) * dv,
                             w, self.quad.s_hat)
        M = -3 * params.mu_B * s_moment.T
        return n, j_free, M


def uniform_velocity_axis(n_v, v_max) -> np.ndarray:
    """Cell-centered velocities on (-v_max, v_max)."""
    if v_max <= 0:
        raise ValueError("v_max must be positive")
    dv = 2 * v_max / n_v
    return -v_max + (np.arange(n_v) + 0.5) * dv


def _mc_slope(qp, work, out):
    """Monotonized-central slopes of cells 1..n-2 of qp along axis 1, into out.

    With one-sided differences s1, s2 the slope is
    sign(s1) min(2|s1|, 2|s2|, |s1 + s2| / 2) where they agree in sign and
    zero otherwise; (sign s1 + sign s2) min(|s1|, |s2|, |s1 + s2| / 4) is
    the same number (scaling by 2 is exact) up to the sign of a zero.
    work holds three arrays of qp's shape.
    """
    n = qp.shape[1]
    d = np.subtract(qp[:, 1:], qp[:, :-1], out=work[0][:, :n - 1])
    sign = np.sign(d, out=work[1][:, :n - 1])
    factor = np.add(sign[:, 1:], sign[:, :-1], out=work[2][:, :n - 2])
    a = np.abs(d, out=sign)
    np.minimum(a[:, 1:], a[:, :-1], out=out)
    centered = np.add(d[:, 1:], d[:, :-1], out=a[:, :n - 2])
    np.abs(centered, out=centered)
    centered *= 0.25
    np.minimum(out, centered, out=out)
    out *= factor


# cells per block swept together: small enough that a block's temporaries
# stay in cache
_BLOCK_CELLS = 1 << 14


def advect_axis(values, axis, speed, dt, h, limiter="mc", periodic=False,
                out=None):
    """Conservative MUSCL update of one axis; speed is constant along it.

    speed broadcasts against values (numpy rules) and must have size 1 on
    `axis`: one speed per line being swept.  A speed that varies along
    `axis` raises ValueError.  Boundary cells are periodic or zero-inflow.
    limiter 'mc' is TVD; 'none' uses Fromm slopes for clean second-order
    convergence measurements.  Lines are swept in cache-sized blocks that
    share one work buffer per call; a line's update does not depend on the
    blocking.  out, a C-contiguous float array of values' shape, receives
    the result and may be values itself: each block spans whole lines and
    is copied into the padded work buffer before it is written.
    """
    values = np.ascontiguousarray(values, dtype=float)
    u = np.asarray(speed, dtype=float)
    u = u.reshape((1,) * (values.ndim - u.ndim) + u.shape)
    if u.ndim != values.ndim or u.shape[axis] != 1:
        raise ValueError(
            f"speed of shape {np.shape(speed)} must have size 1 on axis "
            f"{axis} of values with shape {values.shape}")
    if limiter not in ("mc", "none"):
        raise ValueError("limiter must be 'mc' or 'none'")
    # lines run along axis 1 of (rows, n, cols), a view of C-ordered values
    n = values.shape[axis]
    rows = int(np.prod(values.shape[:axis]))
    cols = int(np.prod(values.shape[axis + 1:]))
    q = values.reshape(rows, n, cols)
    u = np.broadcast_to(u, (*values.shape[:axis], 1, *values.shape[axis + 1:]))
    u = u.reshape(rows, 1, cols)
    upwind_left = u >= 0
    if out is None:
        out = np.empty_like(values)
    res = out.reshape(rows, n, cols)
    row_step = max(1, _BLOCK_CELLS // (n * cols))
    col_step = cols if row_step > 1 else max(1, _BLOCK_CELLS // n)
    # padded block, three work arrays and the slopes; a partial block
    # uses the leading corner
    work = np.empty((5, min(row_step, rows), n + 4, min(col_step, cols)))
    if not periodic:
        work[0][:, :2] = 0.0
        work[0][:, -2:] = 0.0
    for r in range(0, rows, row_step):
        for c in range(0, cols, col_step):
            block = (slice(r, r + row_step), slice(None), slice(c, c + col_step))
            _muscl_sweep(q[block], u[block], upwind_left[block], dt, h,
                         limiter, periodic, work, res[block])
    return out


def _muscl_sweep(q, u, upwind_left, dt, h, limiter, periodic, work, out):
    """advect_axis along axis 1 of a (rows, n, cols) block, written to out.

    upwind_left is u >= 0; where it holds in the whole block only the left
    face states are built, and where it holds nowhere only the right ones.
    """
    rows, n, cols = q.shape
    qp, s0, s1, s2, sigma = (w[:rows, :, :cols] for w in work)
    qp[:, 2:-2] = q
    if periodic:
        qp[:, :2] = q[:, -2:]
        qp[:, -2:] = q[:, :2]
    # padded cells 0..n+3, slopes for cells 1..n+2; face k (k = 0..n, between
    # cells k+1 and k+2) takes the upwind reconstruction
    sigma = sigma[:, :n + 2]
    if limiter == "mc":
        _mc_slope(qp, (s0, s1, s2), sigma)
    else:
        np.subtract(qp[:, 2:], qp[:, :-2], out=sigma)
        sigma /= 2
    nu = np.multiply(u, dt, out=s0[:, :1])
    nu /= h
    all_left = upwind_left.all()
    all_right = not all_left and not upwind_left.any()
    if not all_right:
        coef = np.subtract(1, nu, out=s0[:, 1:2])
        coef *= 0.5
        from_left = np.multiply(coef, sigma[:, :-1], out=s1[:, :n + 1])
        from_left += qp[:, 1:-2]
        flux = from_left
    if not all_left:
        coef = np.add(1, nu, out=s0[:, 2:3])
        coef *= 0.5
        from_right = np.multiply(coef, sigma[:, 1:], out=s2[:, :n + 1])
        np.subtract(qp[:, 2:-1], from_right, out=from_right)
        if not all_right:
            np.copyto(from_right, from_left, where=upwind_left)
        flux = from_right
    flux *= u
    div = np.subtract(flux[:, 1:], flux[:, :-1], out=sigma[:, :n])
    div *= dt / h
    np.subtract(q, div, out=out)


def _rotate_sphere(values, quad: SphereQuadrature, B_nodes, params, dt):
    """Rotate the spin sector about B(x) by (2 mu_B |B| / hbar) dt, in place;
    returns values."""
    Bmag = np.linalg.norm(B_nodes, axis=0)
    angle = (2 * params.mu_B / params.hbar) * Bmag * dt   # (N_x,)
    if np.max(angle) == 0.0:
        return values
    # one matrix per distinct B node, all built in one call; the angle is a
    # function of |B|, and rounding merges rows that differ in the last bits
    _, first, inverse = np.unique(np.round(B_nodes.T, 12), axis=0,
                                  return_index=True, return_inverse=True)
    inverse = inverse.reshape(-1)
    mats = quad.rotation_interp_matrices(B_nodes.T[first], angle[first])
    flat = values.reshape(values.shape[0], -1, quad.n_theta * quad.n_phi)
    row = np.empty_like(flat[0])
    for x, k in enumerate(inverse):
        np.matmul(flat[x], mats[k].T, out=row)
        flat[x] = row
    return values


def _project_l1(values, quad: SphereQuadrature, out):
    """Project f onto l <= 1 over the sphere, into out; returns (F0, F).

    Per cell, one product with the (n_nodes, 4) table [w, w s_hat] gives
    F0 = int f dOmega and F = int s_hat f dOmega, and out receives
    f = (F0 + 3 s_hat . F)/4 pi.  The quadrature is exact on l <= 1, so the
    projection keeps (F0, F) and is idempotent.  The moments have shape
    values.shape[:-2] + (4,).
    """
    nodes = quad.n_theta * quad.n_phi
    s = quad.s_hat.reshape(nodes, 3)
    w = quad.weights.reshape(nodes, 1)
    moments = values.reshape(-1, nodes) @ np.hstack([w, w * s])
    basis = np.hstack([np.ones((nodes, 1)), 3 * s]).T / (4 * np.pi)
    np.matmul(moments, basis, out=out.reshape(-1, nodes))
    return moments.reshape(*values.shape[:-2], 4)


def _closed_form_increment(F, quad: SphereQuadrature, dB_nodes, params, dt,
                           dv):
    """The quantum increment on f = (F0 + 3 s_hat . F)/4 pi, factored.

    dt D_v[G . grad_s f], with D_v the centered difference along v_x (f = 0
    beyond the v axis) and G = (mu_B/m) d_x B, is
    (3/4 pi)[G . dF - (G . s_hat)(s_hat . dF)] for dF = D_v F.  Returned as
    (dF, K) with the increment dF[x] @ K[x] at each x node: dF has shape
    (N_x, velocity cells, 3) and K = (3/4 pi)(G - s_hat (s_hat . G)) dt /
    (2 dv) has shape (N_x, 3, n_nodes).  F has shape (N_x, N_v[, N_vy], 3).
    """
    dF = np.empty(F.shape)
    np.subtract(F[:, 2:], F[:, :-2], out=dF[:, 1:-1])
    dF[:, 0] = F[:, 1]
    # 0 - F, not -F: a zero moment leaves +0 at the edge
    np.subtract(0.0, F[:, -2], out=dF[:, -1])
    G = (dt * params.mu_B / (2 * dv * params.mass)) * dB_nodes.T
    s = quad.s_hat.reshape(-1, 3)
    K = G[:, :, None] - s.T * (G @ s.T)[:, None, :]
    K *= 3 / (4 * np.pi)
    return dF.reshape(len(F), -1, 3), K


def _add_increment(values, dF, K):
    """values += dF @ K node by node, in blocks of x nodes through one block
    buffer, so no f-sized increment is formed; returns values."""
    flat = values.reshape(len(K), -1, K.shape[-1])
    step = max(1, _BLOCK_CELLS // flat[0].size)
    buf = np.empty((min(step, len(K)), *flat.shape[1:]))
    for x in range(0, len(K), step):
        block = flat[x:x + step]
        block += np.matmul(dF[x:x + step], K[x:x + step],
                           out=buf[:len(block)])
    return values


def eulerian_step(f: ExtendedDistribution, fs: FieldState, params: PlasmaParams,
                  dt, quantum_term=False, limiter="mc") -> ExtendedDistribution:
    """One Strang-split step of the extended phase-space transport.

    Sweep order: half x, half v (with the quantum spin-velocity coupling
    when enabled), full spin rotation, half v, half x.  The first x sweep
    writes the output and the later stages update it in place; f is not
    written.  With the quantum term on, the step advances f's l <= 1
    projection, which the output holds before the first x sweep.
    """
    grid = f.grid
    e, m = params.charge, params.mass
    dB = fs.db_nodes()

    two_v = len(f.v_axes) == 2
    vx = f.v_axes[0]
    dvs = f.dv

    # accelerations: a_x = -(e/m)(E_x + v_y B_z) - (mu_B/m) d_x(s_hat . B),
    # each shaped with size 1 on its own velocity axis (constant along the
    # sweep)
    lead = (grid.n, *([1] * len(f.v_axes)))
    dB_dot_s = np.einsum("ax,tpa->xtp", dB, f.quad.s_hat).reshape(
        *lead, f.quad.n_theta, f.quad.n_phi)
    a_x = -(params.mu_B / m) * dB_dot_s - (e / m) * fs.E[0].reshape(
        *lead, 1, 1)
    if two_v:
        vy = f.v_axes[1]
        a_x = a_x - (e / m) * np.einsum(
            "x,y->xy", fs.B[2], vy).reshape(grid.n, 1, len(vy), 1, 1)
        a_y = (-(e / m) * (fs.E[1].reshape(grid.n, 1, 1, 1, 1)
                           - np.einsum("x,v->xv", fs.B[2], vx).reshape(
                               grid.n, len(vx), 1, 1, 1)))

    def check(name, ratio):
        if ratio > 1.0:
            raise ValueError(f"CFL violation on {name}: ratio {ratio:.3f} > 1")

    check("x-advection", np.max(np.abs(vx)) * dt / grid.dx)
    check("v-advection", np.max(np.abs(a_x)) * dt / dvs[0])
    if two_v:
        check("vy-advection", np.max(np.abs(a_y)) * dt / dvs[1])
    omega = 2 * params.mu_B * np.max(np.linalg.norm(fs.B, axis=0)) / params.hbar
    if omega * dt >= np.pi / 4:
        raise ValueError(
            f"CFL violation on spin rotation: omega dt = {omega * dt:.3f} >= pi/4")

    vx_speed = vx.reshape(1, len(vx), *([1] * (f.values.ndim - 2)))

    def x_half(vals, out):
        return advect_axis(vals, 0, vx_speed, dt / 2, grid.dx, limiter,
                           periodic=True, out=out)

    # the quantum spin-velocity flux is explicit: evaluated once on the
    # step input's l <= 1 projection, which the output buffer holds, so a
    # distribution with no s_hat dependence is untouched
    if quantum_term:
        vals = np.empty(f.values.shape)
        moments = _project_l1(f.values, f.quad, vals)
        dF, K = _closed_form_increment(moments[..., 1:], f.quad, dB, params,
                                       dt / 2, dvs[0])
        x_half(vals, vals)
    else:
        vals = x_half(f.values, None)

    def v_half(vals):
        advect_axis(vals, 1, a_x, dt / 2, dvs[0], limiter, out=vals)
        if two_v:
            advect_axis(vals, 2, a_y, dt / 2, dvs[1], limiter, out=vals)
        if quantum_term:
            _add_increment(vals, dF, K)

    v_half(vals)
    _rotate_sphere(vals, f.quad, fs.B, params, dt)
    v_half(vals)
    x_half(vals, vals)
    return ExtendedDistribution(grid, f.v_axes, f.quad, vals)


def quantum_term_increment(f: ExtendedDistribution, fs: FieldState,
                           params: PlasmaParams, dt) -> np.ndarray:
    """The sphere-gradient oracle of `eulerian_step`'s closed-form quantum
    increment: dt D_v[(mu_B/m)(d_x B . grad_s) f] with grad_s f from
    `SphereQuadrature.gradient_along` on every node, D_v the centered
    difference and f = 0 beyond the v axis.  On l <= 1 f it equals the
    increment a step adds over dt."""
    lead = (f.grid.n, *([1] * len(f.v_axes)), 3)
    scale = dt * params.mu_B / (2 * f.dv[0] * params.mass)
    flux = f.quad.gradient_along(scale * fs.db_nodes().T.reshape(lead),
                                 f.values)
    out = np.empty_like(flux)
    np.subtract(flux[:, 2:], flux[:, :-2], out=out[:, 1:-1])
    out[:, 0] = flux[:, 1]
    # 0 - flux, not -flux: a zero flux leaves +0 at the edge
    np.subtract(0.0, flux[:, -2], out=out[:, -1])
    return out
