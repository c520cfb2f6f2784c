"""Mixed-state moment evaluators for spinor wavefunction ensembles.

A statistical mixture of Pauli wavefunctions defines fluid fields through
density-weighted averages.  This module assembles the closure quantities
(pressure, thermal-spin coupling K, spin-gradient tensors, spin force and
torque corrections) term by term, and evaluates the residuals of the
averaged continuity, momentum and spin transport equations on a time
series of ensembles.  Small residuals that vanish under refinement are
the numerical proof that the averaged equations hold.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import SpatialGrid1D
from .params import PlasmaParams
from .pauli import ExternalPotentials, spinor_moments

MEMBER_DENSITY_FLOOR_REL = 1e-10


@dataclass
class WavefunctionEnsemble:
    """Members (psi_alpha, P_alpha) on a common grid, probabilities sum to 1."""

    members: list
    probabilities: np.ndarray

    def __post_init__(self):
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        self.probabilities = np.asarray(self.probabilities, dtype=float)
        if self.probabilities.shape != (len(self.members),):
            raise ValueError("one probability per member required")
        if self.probabilities.min() < 0:
            raise ValueError("probabilities must be nonnegative")
        if abs(self.probabilities.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")
        g = self.members[0].grid
        for m in self.members:
            if m.grid != g:
                raise ValueError("all members must share one grid")
            if abs(m.norm() - 1.0) > 1e-10:
                raise ValueError("each member must be normalized")

    @property
    def grid(self) -> SpatialGrid1D:
        return self.members[0].grid


@dataclass
class FluidMoments:
    """Density-weighted fluid fields of an ensemble, 1D with 3-vector spin."""

    grid: SpatialGrid1D
    n: np.ndarray            # (N,)
    v: np.ndarray            # (N,)
    S: np.ndarray            # (3, N) spin density vector, |S| <= hbar/2
    pressure: np.ndarray     # (N,) scalar m n <w^2>
    K: np.ndarray            # (3, N) thermal-spin coupling n <w S_dev>
    Sigma: np.ndarray        # (N,) (dS_a/dx)(dS^a/dx)
    Sigma_tilde: np.ndarray  # (N,) <(dS_dev_a/dx)(dS_dev^a/dx)>
    F_spin: np.ndarray       # (N,) spin force density, x component
    Omega_spin: np.ndarray   # (3, N) nonlinear spin fluid correction
    terms: dict = field(default_factory=dict)
    masked_fraction: float = 0.0


def ensemble_moments(ens: WavefunctionEnsemble, pot: ExternalPotentials,
                     params: PlasmaParams) -> FluidMoments:
    """Assemble all fluid moments of the ensemble on the grid.

    Averages are density weighted, <X> = sum_a P_a n_a X_a / n.  Ratios
    that need 1/n_a clamp n_a to MEMBER_DENSITY_FLOOR_REL * max n_a; the
    returned masked_fraction reports how many points were clamped.
    """
    grid = ens.grid
    if pot.grid != grid:
        raise ValueError("potentials and ensemble must share one grid")
    A_x = pot.A[0]
    P = ens.probabilities
    fields = [spinor_moments(m, A_x, params) for m in ens.members]

    n = sum(p * f[0] for p, f in zip(P, fields))
    v = sum(p * f[1] for p, f in zip(P, fields)) / n
    S = sum(p * f[2] for p, f in zip(P, fields)) / n

    masked = sum(int(np.sum(f[0] < MEMBER_DENSITY_FLOOR_REL * f[0].max()))
                 for f in fields)
    masked_fraction = masked / (len(fields) * grid.n)

    dS = grid.derivative(S)
    pressure = np.zeros(grid.n)
    K = np.zeros((3, grid.n))
    Sigma_tilde = np.zeros(grid.n)
    mean_grad_dev = np.zeros((3, grid.n))   # <d S_dev / dx>, density weighted
    omega3 = np.zeros((3, grid.n))
    for p, (n_a, nv_a, ns_a) in zip(P, fields):
        safe = np.maximum(n_a, MEMBER_DENSITY_FLOOR_REL * n_a.max())
        v_a = nv_a / safe
        s_a = ns_a / safe
        w_a = v_a - v
        s_dev = s_a - S
        grad_dev = grid.derivative(s_dev)
        pressure += params.mass * p * n_a * w_a**2
        K += p * n_a * w_a[None, :] * s_dev
        Sigma_tilde += p * n_a * np.sum(grad_dev**2, axis=0)
        mean_grad_dev += p * n_a * grad_dev
        # the 1/n_a of the third torque term cancels against the weight
        exch = grid.derivative(n_a[None, :] * grid.derivative(s_a))
        omega3 += p * np.cross(s_dev.T, exch.T).T / params.mass
    Sigma_tilde /= n
    mean_grad_dev /= n
    Sigma = np.sum(dS**2, axis=0)

    dB = grid.derivative(pot.B)
    f1 = -(2 * params.mu_B * n / params.hbar) * np.sum(dB * S, axis=0)
    f2 = -grid.derivative(n * (Sigma + Sigma_tilde)) / params.mass
    f3 = -2 * grid.derivative(n * np.sum(dS * mean_grad_dev, axis=0)) / params.mass
    F_spin = f1 + f2 + f3

    o1 = np.cross(S.T, grid.derivative(n[None, :] * dS).T).T / params.mass
    o2 = np.cross(S.T, grid.derivative(n[None, :] * mean_grad_dev).T).T / params.mass
    Omega_spin = o1 + o2 + omega3

    terms = dict(F_spin_zeeman=f1, F_spin_gradient=f2, F_spin_cross=f3,
                 Omega_spin_mean=o1, Omega_spin_mixed=o2, Omega_spin_dev=omega3)
    return FluidMoments(grid, n, v, S, pressure, K, Sigma, Sigma_tilde,
                        F_spin, Omega_spin, terms, masked_fraction)


def ensemble_bohm_force(ens: WavefunctionEnsemble, params: PlasmaParams,
                        form="exact"):
    """Quantum force density of the ensemble.

    form='exact' keeps the member sum (hbar^2/2m) sum_a P_a n_a
    d/dx[(d^2 sqrt(n_a)/dx^2)/sqrt(n_a)]; form='collective' evaluates the
    long-wavelength surrogate with the total density.
    """
    grid = ens.grid
    pref = params.hbar**2 / (2 * params.mass)
    if form == "collective":
        n = sum(p * m.density() for p, m in zip(ens.probabilities, ens.members))
        sq = np.sqrt(n)
        return pref * n * grid.derivative(grid.derivative(sq, order=2) / sq)
    if form != "exact":
        raise ValueError("form must be 'exact' or 'collective'")
    out = np.zeros(grid.n)
    for p, m in zip(ens.probabilities, ens.members):
        n_a = m.density()
        sq = np.sqrt(n_a)
        out += p * n_a * grid.derivative(grid.derivative(sq, order=2) / sq)
    return pref * out


@dataclass
class ResidualReport:
    """Residuals of the averaged fluid equations at interior time levels."""

    times: np.ndarray
    continuity: list      # arrays (N,)
    momentum: list        # arrays (N,)
    spin: list            # arrays (3, N)

    def max_norms(self):
        return dict(
            continuity=max(np.max(np.abs(r)) for r in self.continuity),
            momentum=max(np.max(np.abs(r)) for r in self.momentum),
            spin=max(np.max(np.abs(r)) for r in self.spin))


def averaged_equation_residual(times, ensembles, pot: ExternalPotentials,
                               params: PlasmaParams,
                               bohm_form="exact") -> ResidualReport:
    """Residual fields of the averaged continuity, momentum and spin equations.

    Time derivatives are centered differences on the (uniform) output
    cadence, so residuals of an exact trajectory shrink at second order in
    the cadence.  bohm_form selects the quantum force evaluation, see
    ensemble_bohm_force.
    """
    times = np.asarray(times, dtype=float)
    if len(times) < 3 or len(ensembles) != len(times):
        raise ValueError("need at least 3 matching time levels")
    cad = np.diff(times)
    if np.max(np.abs(cad - cad[0])) > 1e-12 * max(abs(cad[0]), 1e-300):
        raise ValueError("output cadence must be uniform")
    dt = cad[0]

    grid = ensembles[0].grid
    mom = [ensemble_moments(e, pot, params) for e in ensembles]
    e_charge, m = params.charge, params.mass
    E_x = pot.E[0]
    # transverse velocity is purely gauge-kinetic in 1D (no y, z dependence)
    A = pot.A
    v_cross_B_x = (e_charge / m) * (A[1] * pot.B[2] - A[2] * pot.B[1])

    out_t, res_c, res_m, res_s = [], [], [], []
    for i in range(1, len(times) - 1):
        prev_, cur, next_ = mom[i - 1], mom[i], mom[i + 1]
        dn_dt = (next_.n - prev_.n) / (2 * dt)
        dv_dt = (next_.v - prev_.v) / (2 * dt)
        dS_dt = (next_.S - prev_.S) / (2 * dt)

        res_c.append(dn_dt + grid.derivative(cur.n * cur.v))

        bohm = ensemble_bohm_force(ensembles[i], params, bohm_form)
        lhs_m = m * cur.n * (dv_dt + cur.v * grid.derivative(cur.v))
        rhs_m = (-e_charge * cur.n * (E_x + v_cross_B_x) - grid.derivative(cur.pressure)
                 + bohm + cur.F_spin)
        res_m.append(lhs_m - rhs_m)

        lhs_s = cur.n * (dS_dt + cur.v * grid.derivative(cur.S))
        torque = (2 * params.mu_B * cur.n / params.hbar) * np.cross(pot.B.T, cur.S.T).T
        rhs_s = torque - grid.derivative(cur.K) + cur.Omega_spin
        res_s.append(lhs_s - rhs_s)
        out_t.append(times[i])

    return ResidualReport(np.array(out_t), res_c, res_m, res_s)
