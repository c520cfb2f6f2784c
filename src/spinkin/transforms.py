"""Quasi-distribution transforms: spatial Wigner function and spin Q-function.

Every Wigner-type transform goes through `phase_space_correlation`, which
contracts the spin indices of the correlation with the operators its
caller keeps, so the complex pair array W_ab is never formed.  The
shifted factors psi(x +- y/2) are strided windows of the doubled grid;
on the conjugate momentum axis the lag sum is one FFT per operator, and
any other momentum axis takes a dense product with a cos/sin table.

The Wigner transform maps a normalized wavefunction on a periodic grid to a
real phase-space field f(x, p); the spin Q-transform maps a 2x2 density
matrix to a strictly positive distribution on the Bloch sphere.  Moments of
the Q-function recover the density matrix with the factor-3 rule on the
vector moment.
"""

from dataclasses import dataclass

import numpy as np

from .grid import SpatialGrid1D
from .params import PlasmaParams
from .sphere import SphereQuadrature

# [1, sigma_x, sigma_y, sigma_z], stacked as (4, 2, 2): Re Tr(SPIN_BASIS W)
# gives the w_mu of the spin quasi-distribution (w_0 + s_hat . w) / 4 pi
SPIN_BASIS = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)
IDENTITY2, SIGMA = SPIN_BASIS[0], SPIN_BASIS[1:]


@dataclass
class WaveFunction1D:
    """Complex amplitudes on a periodic grid, L2-normalized."""

    grid: SpatialGrid1D
    psi: np.ndarray

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex)
        if self.psi.shape != (self.grid.n,):
            raise ValueError(f"psi shape {self.psi.shape} does not match grid size {self.grid.n}")

    def norm(self) -> float:
        return float(np.sum(np.abs(self.psi) ** 2) * self.grid.dx)

    def normalized(self) -> "WaveFunction1D":
        nrm = self.norm()
        if nrm <= 0.0:
            raise ValueError("cannot normalize a zero wavefunction")
        return WaveFunction1D(self.grid, self.psi / np.sqrt(nrm))


@dataclass
class DensityMatrixSpin:
    """2x2 spin density matrix with validity checks."""

    rho: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=complex)
        if self.rho.shape != (2, 2):
            raise ValueError("spin density matrix must be 2x2")

    def validate(self, herm_tol=1e-14, trace_tol=1e-14, psd_tol=1e-12):
        if np.max(np.abs(self.rho - self.rho.conj().T)) >= herm_tol:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(self.rho).real - 1.0) >= trace_tol:
            raise ValueError("density matrix trace differs from 1")
        if np.linalg.eigvalsh(self.rho).min() < -psd_tol:
            raise ValueError("density matrix is not positive semidefinite")
        return self

    @classmethod
    def from_bloch(cls, vec):
        vec = np.asarray(vec, dtype=float)
        return cls(0.5 * (IDENTITY2 + np.einsum("i,ijk->jk", vec, SIGMA)))


@dataclass
class PhaseSpaceField:
    """Real values on an N_x x N_p tensor grid."""

    x: np.ndarray
    p: np.ndarray
    values: np.ndarray
    mass: float = 1.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.x), len(self.p)):
            raise ValueError("values shape does not match axes")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("phase-space field contains non-finite values")

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def dp(self) -> float:
        return float(self.p[1] - self.p[0])

    @property
    def v(self) -> np.ndarray:
        return self.p / self.mass

    def total(self) -> float:
        return float(np.sum(self.values) * self.dx * self.dp)


@dataclass
class SpinDistribution:
    """Real distribution on a sphere quadrature grid."""

    quad: SphereQuadrature
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.quad.n_theta, self.quad.n_phi):
            raise ValueError("values shape does not match quadrature grid")


def conjugate_momentum_axis(grid: SpatialGrid1D, hbar: float) -> np.ndarray:
    """Momentum modes 2*pi*hbar*k/L, k = -N/2 .. N/2-1 (ascending)."""
    return 2.0 * np.pi * hbar / grid.length * np.arange(-grid.n // 2, grid.n // 2)


def _lag_windows(u, n, sign):
    """(n_comp, N, N) view [:, x, j] = u[:, (2x + sign (j - N/2)) mod 2N].

    u is (n_comp, 2N) on the doubled grid; the rows are windows of its
    period extension that step by 2 along x, read backwards for sign < 0.
    """
    ext = np.concatenate([u, u, u], axis=-1)
    if sign > 0:
        start = 2 * n - n // 2
    else:
        ext, start = ext[:, ::-1], 4 * n - 1 - n // 2
    rows = np.lib.stride_tricks.sliding_window_view(ext, n, axis=-1)
    return rows[:, start:start + sign * 2 * n:sign * 2]


def phase_space_correlation(psi, grid: SpatialGrid1D, p_axis, hbar, ops,
                            dress=None) -> np.ndarray:
    """Spin contractions Re Tr(op W) of the phase-space correlation W.

    W_ab(x, p) = dx/(2 pi hbar) sum_y exp(-i p y / hbar) dress(x, y)
                 psi_a(x + y/2) psi_b*(x - y/2)
    for psi of shape (n_comp, N) and Hermitian ops of shape
    (n_ops, n_comp, n_comp); returns the real (n_ops, N, len(p_axis)).
    Each op enters the correlation before the y sum, so it costs one
    product and one y sum.  y = m dx with m = -N/2 .. N/2-1 runs over one
    period, the half-point shifts come from trigonometric interpolation
    onto the doubled grid, and dress, if given, maps the lag vector y to
    an (N, N) kernel factor (None means 1).

    psi(x +- y/2) sits at doubled-grid index 2x +- m, so both factors are
    strided windows of the doubled grid, not gathered copies.  On the
    conjugate axis exp(-i p_k y_m / hbar) = exp(-2 pi i k m / N), so with
    m = j - N/2 and k = l - N/2 the y sum is (-1)^(j + l + N/2) times one
    FFT over j; the signs are exact flips.  Any other p_axis takes the
    dense product with a cos/sin table.
    """
    psi = np.asarray(psi, dtype=complex)
    ops = np.asarray(ops, dtype=complex)
    n = grid.n
    psi_k = np.fft.fft(psi, axis=-1)
    padded = np.zeros((len(psi), 2 * n), dtype=complex)
    padded[:, :n // 2] = psi_k[:, :n // 2]
    padded[:, -n // 2:] = psi_k[:, -n // 2:]
    psi2 = np.fft.ifft(padded, axis=-1) * 2.0

    y = np.arange(-n // 2, n // 2) * grid.dx
    factor = None if dress is None else dress(y)
    scale = grid.dx / (2.0 * np.pi * hbar)
    use_fft = np.array_equal(p_axis, conjugate_momentum_axis(grid, hbar))
    psi2_minus = psi2.conj()
    if use_fft:
        # (-1)^(j + N/2) of lag index j is (-1)^q of the minus side's
        # doubled-grid index q = 2x - m; the output carries (-1)^l
        psi2_minus[:, 1::2] *= -1.0
        scale = np.where(np.arange(n) % 2 == 0, scale, -scale)
    else:
        arg = np.outer(y, p_axis) / hbar
        cos, sin = np.cos(arg), np.sin(arg)

    left = _lag_windows(psi2, n, +1)
    out = np.empty((len(ops), n, len(p_axis)))
    # one (N, N) correlation buffer serves every op
    corr = np.empty((n, n), dtype=complex)
    for k, op in enumerate(ops):
        # sum_b op_ba psi_b*(x - y/2)
        right = _lag_windows(op.T @ psi2_minus, n, -1)
        np.einsum("axy,axy->xy", left, right, out=corr)
        if factor is not None:
            corr *= factor
        if use_fft:
            out[k] = np.fft.fft(corr, axis=-1).real
        else:
            # Re[corr exp(-i arg)]: two real products instead of one complex
            out[k] = corr.real @ cos + corr.imag @ sin
    out *= scale
    return out


def wigner_transform(psi: WaveFunction1D, params: PlasmaParams,
                     n_v=None, v_max=None) -> PhaseSpaceField:
    """Discrete Wigner transform on the periodic domain.

    f(x, p) = (1/2 pi hbar) * sum_y exp(-i p y / hbar) psi(x + y/2) psi*(x - y/2) dy,
    the single-component case of phase_space_correlation.  On the conjugate
    momentum axis the x- and p-marginals reproduce |psi|^2 and |psi_tilde|^2
    identically for band-limited states.
    """
    grid = psi.grid
    hbar = params.hbar
    if abs(psi.norm() - 1.0) > 1e-8:
        raise ValueError(f"wavefunction is not normalized (norm = {psi.norm():.6g})")

    if v_max is None:
        p_axis = conjugate_momentum_axis(grid, hbar)
        if n_v is not None and n_v != grid.n:
            raise ValueError("custom n_v requires v_max as well")
    else:
        if not v_max > 0:
            raise ValueError(f"v_max must be positive, got {v_max}")
        n_v = grid.n if n_v is None else n_v
        if n_v % 2 != 0:
            raise ValueError("n_v must be even")
        p_max = params.mass * v_max
        p_axis = -p_max + 2.0 * p_max / n_v * np.arange(n_v)

    values = phase_space_correlation(psi.psi[None], grid, p_axis, hbar,
                                     [[[1.0]]])[0]
    return PhaseSpaceField(x=grid.x, p=p_axis, values=values, mass=params.mass)


def marginals(f: PhaseSpaceField):
    """x- and p-marginal densities by quadrature, with their grids."""
    density_x = np.sum(f.values, axis=1) * f.dp
    density_p = np.sum(f.values, axis=0) * f.dx
    return (f.x, density_x), (f.p, density_p)


def expect_phase_space(f: PhaseSpaceField, symbol) -> float:
    """Phase-space average of a symbol sampled on the same grid."""
    symbol = np.asarray(symbol, dtype=float)
    if symbol.shape != f.values.shape:
        raise ValueError(f"symbol shape {symbol.shape} does not match field shape {f.values.shape}")
    return float(np.sum(symbol * f.values) * f.dx * f.dp)


def spin_q_transform(rho, quad: SphereQuadrature) -> SpinDistribution:
    """Spin Q-function f(s) = Tr[(1 + s.sigma) rho] / 4 pi at each node."""
    mat = rho.rho if isinstance(rho, DensityMatrixSpin) else np.asarray(rho, dtype=complex)
    if np.max(np.abs(mat - mat.conj().T)) >= 1e-12:
        raise ValueError("density matrix is not Hermitian")
    w = np.einsum("mjk,kj->m", SPIN_BASIS, mat)      # Tr(sigma_mu rho)
    values = (w[0] + quad.s_hat @ w[1:]) / (4.0 * np.pi)
    if np.max(np.abs(values.imag)) >= 1e-13:
        raise ValueError("Q-function acquired a non-negligible imaginary part")
    return SpinDistribution(quad=quad, values=values.real)


def spin_moments_and_reconstruct(f: SpinDistribution, psd_tol=1e-8):
    """Zeroth and (factor-3) first moments, plus the reconstructed matrix.

    scalar = integral f dOmega, vector = 3 * integral s f dOmega,
    rho = (scalar * I + vector . sigma) / 2.  The spin transform is
    informationally complete for 2x2 matrices, so this inverts
    spin_q_transform exactly on valid inputs.
    """
    quad = f.quad
    scalar = float(quad.integrate(f.values))
    vector = 3.0 * np.einsum("tp,tpi,tp->i", quad.weights, quad.s_hat, f.values)
    rho = 0.5 * (scalar * IDENTITY2 + np.einsum("i,ijk->jk", vector, SIGMA))
    eigmin = np.linalg.eigvalsh(rho).min()
    if eigmin < -psd_tol:
        raise ValueError(
            f"reconstructed density matrix has eigenvalue {eigmin:.3e}; "
            "input distribution is not a valid spin Q-function")
    return scalar, vector, DensityMatrixSpin(rho)
