"""Gauge transformations and the gauge-invariant phase-space transform.

The plain Wigner construction labels states by the canonical momentum and
is therefore gauge dependent.  Dressing the transform kernel with a
straight-line integral of the vector potential produces a distribution in
the kinetic velocity that is invariant under static gauge changes.  This
module provides the state-level gauge transformation, the dressed
transform with the line integral in closed form (each Fourier mode of A
averages to a sinc of the lag), and the differential correction series
connecting the two distributions at second order in hbar.  The dressing
is a kernel factor of the lag y (`line_integral_dressing`) for the shared
correlation kernel of transforms.
"""

from dataclasses import dataclass, field

import numpy as np

from .eulerian import ExtendedDistribution
from .grid import SpatialGrid1D
from .params import PlasmaParams
from .pauli import ExternalPotentials, SpinorField
from .sphere import SphereQuadrature
from .transforms import SPIN_BASIS, PhaseSpaceField, phase_space_correlation

GAUGE_FAMILIES = ("constant", "linear", "single_mode")


@dataclass
class GaugeTransformSpec:
    """Gauge function Lambda(x) from an analytic family.

    constant: {"value": c}; linear: {"alpha": a} with e*a*L/(2 pi hbar)
    required integer so the phase stays periodic (the induced canonical
    momentum offset -e*alpha is recorded in metadata); single_mode:
    {"amplitude": b, "mode": m} for Lambda = b sin(2 pi m x / L).
    """

    grid: SpatialGrid1D
    family: str
    parameters: dict
    metadata: dict = field(default_factory=dict, init=False)

    def __post_init__(self):
        if self.family not in GAUGE_FAMILIES:
            raise ValueError(
                f"unsupported gauge family '{self.family}'; "
                f"choose from {GAUGE_FAMILIES}")

    def sample(self, params: PlasmaParams):
        """(Lambda(x), dLambda/dx(x)) on the grid nodes."""
        x = self.grid.x
        p = dict(self.parameters)
        if self.family == "constant":
            value = p.pop("value", 0.0)
            lam = np.full(self.grid.n, float(value))
            dlam = np.zeros(self.grid.n)
        elif self.family == "linear":
            alpha = p.pop("alpha")
            ratio = (params.charge * alpha * self.grid.length
                     / (2 * np.pi * params.hbar))
            if abs(ratio - round(ratio)) > 1e-10:
                raise ValueError(
                    "linear gauge slope must be commensurate with the "
                    f"periodic phase: e*alpha*L/(2 pi hbar) = {ratio:.6g} "
                    "is not an integer")
            lam = alpha * x
            dlam = np.full(self.grid.n, alpha)
            self.metadata["momentum_offset"] = -params.charge * alpha
        else:
            amp = p.pop("amplitude")
            mode = int(p.pop("mode", 1))
            k = 2 * np.pi * mode / self.grid.length
            lam = amp * np.sin(k * x)
            dlam = amp * k * np.cos(k * x)
        if p:
            raise ValueError(f"unused gauge parameters: {sorted(p)}")
        return lam, dlam


def gauge_transform_state(psi: SpinorField, pot: ExternalPotentials,
                          g: GaugeTransformSpec, params: PlasmaParams):
    """Apply psi' = psi exp(-i e Lambda / hbar), A' = A + grad Lambda.

    phi is unchanged for the static gauges supported here; E and B are
    untouched so every physical observable of the state is invariant.
    """
    if psi.grid != g.grid:
        raise ValueError("state and gauge specification use different grids")
    lam, dlam = g.sample(params)
    phase = np.exp(-1j * params.charge * lam / params.hbar)
    psi_new = SpinorField(psi.grid, psi.psi * phase)
    A = pot.A.copy()
    A[0] = A[0] + dlam
    pot_new = ExternalPotentials(pot.grid, phi=pot.phi, A=A, B=pot.B,
                                 E=pot.E, coulomb_gauge=False)
    return psi_new, pot_new


def _tau_average(A_x, grid: SpatialGrid1D, y):
    """Straight-line average int_{-1/2}^{1/2} A(x + tau y) dtau.

    Returns an (N_x, len(y)) array.  Each Fourier mode c_k e^{ikx} of the
    field averages to c_k e^{ikx} sinc(k y / 2) exactly, so the average is
    one product over the modes with non-negligible c_k.
    """
    c = np.fft.fft(A_x) / grid.n
    keep = np.abs(c) > 1e-14 * np.max(np.abs(c))
    k = grid.k[keep]
    modes = (c[keep] * np.exp(1j * np.outer(grid.x, k))).real
    return modes @ np.sinc(np.outer(k, y) / (2 * np.pi))


def _x_component(A, n):
    """A_x from A_x itself or from the (3, n) potential, checked for n nodes."""
    A = np.asarray(A, dtype=float)
    A_x = A[0] if A.ndim == 2 else A
    if A_x.shape != (n,):
        raise ValueError(f"A must be sampled on the {n} nodes of the x grid")
    return A_x


def _unit_phase(theta):
    """exp(i theta) of a real array: cos and sin written into one complex.

    Writing through the strided .real/.imag views matches np.exp(1j * theta)
    bit for bit on numpy 2.4; contiguous np.cos output may take a SIMD
    path that differs in the last bit.
    """
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def line_integral_dressing(A, grid: SpatialGrid1D, params: PlasmaParams):
    """Kernel factor exp{(i e / hbar) y int_{-1/2}^{1/2} A(x + tau y) dtau}.

    The `dress` callable of the lag vector y for phase_space_correlation,
    or None for A = 0.  The tau average is exact for every Fourier mode of
    A on the grid: mode k contributes its value at x times sinc(k y / 2).
    """
    A_x = _x_component(A, grid.n)
    if np.max(np.abs(A_x)) == 0:
        return None

    def dress(y):
        abar = _tau_average(A_x, grid, y)
        return _unit_phase(params.charge * abar * y[None, :] / params.hbar)
    return dress


def _dressed_transform(psi, params, grid_v, quad, dress):
    if abs(psi.norm() - 1.0) > 1e-8:
        raise ValueError("spinor is not normalized")
    v = np.asarray(grid_v, dtype=float)
    quad = SphereQuadrature(4, 8) if quad is None else quad
    w = phase_space_correlation(psi.psi, psi.grid, params.mass * v,
                                params.hbar, SPIN_BASIS, dress)
    w *= params.mass / (4 * np.pi)
    # (w_0 + s_hat . w) / 4 pi, on (N_x, N_v, n_theta, n_phi)
    values = (w[0][:, :, None, None]
              + np.einsum("inv,tpi->nvtp", w[1:], quad.s_hat))
    return ExtendedDistribution(psi.grid, (v,), quad, values)


def gi_wigner_transform(psi: SpinorField, A, params: PlasmaParams, grid_v,
                        quad: SphereQuadrature = None) -> ExtendedDistribution:
    """Velocity-space distribution from the line-integral-dressed kernel.

    The kernel phase is exp{-(i/hbar)[m v - e int dtau A(x + tau y)] y},
    which cancels the phase a gauge change imprints on the density matrix;
    the tau average is exact for every mode the grid resolves (see
    line_integral_dressing).  A = 0 reduces to the plain transform on the
    canonical grid.  The spin index is contracted with the sphere
    projector (1 + s_hat.sigma)/4 pi.
    """
    dress = line_integral_dressing(A, psi.grid, params)
    return _dressed_transform(psi, params, grid_v, quad, dress)


def kinetic_wigner_transform(psi: SpinorField, A, params: PlasmaParams,
                             grid_v, quad: SphereQuadrature = None
                             ) -> ExtendedDistribution:
    """Canonical (gauge-dependent) transform relabeled at kinetic velocity.

    Uses the local value A(x) in place of the line average, which is the
    same as evaluating the plain transform at p = m v - e A(x).  This is
    the base point of gi_correction_series.
    """
    A_x = _x_component(A, psi.grid.n)

    def dress(y):
        return _unit_phase(params.charge * A_x[:, None] * y[None, :]
                           / params.hbar)
    return _dressed_transform(psi, params, grid_v, quad,
                              dress if np.max(np.abs(A_x)) else None)


def _x_derivative(f: PhaseSpaceField, u, order):
    """Spectral x derivative of u, sampled on the x axis of f."""
    return SpatialGrid1D(len(f.x), len(f.x) * f.dx).derivative(u, order)


def _v_derivative(f: PhaseSpaceField, order):
    """Spectral derivative of f along its velocity axis."""
    n_v = len(f.p)
    return SpatialGrid1D(n_v, n_v * f.dp / f.mass).derivative(f.values, order)


def gi_correction_series(f: PhaseSpaceField, A, params: PlasmaParams
                         ) -> PhaseSpaceField:
    """Second-order differential map from the canonical to the dressed form.

    f_GI = f + (e hbar^2 / 24 m^3) (d2A/dx2) d3f/dv3, the left x
    derivatives landing on the potential and the right v derivatives on
    the distribution.  The series is truncated at hbar^2.  Expanding the
    dressing exponential gives the positive sign; the dressed transform
    itself is the oracle (see the scaling tests).
    """
    A_x = _x_component(A, len(f.x))
    e, m, hbar = params.charge, f.mass, params.hbar
    d2A = _x_derivative(f, A_x, 2)
    d3f = _v_derivative(f, 3)
    corr = (e * hbar**2 / (24 * m**3)) * d2A[:, None] * d3f
    return PhaseSpaceField(f.x, f.p, f.values + corr, mass=f.mass)

