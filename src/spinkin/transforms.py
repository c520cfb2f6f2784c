"""Quasi-distribution transforms: spatial Wigner function and spin Q-function.

Every Wigner-type transform goes through `phase_space_correlation`, which
contracts the spin indices of the correlation with the Hermitian operators
its caller keeps, so the complex pair array W_ab is never formed.  The
shifted factors psi(x +- y/2) are strided windows of the doubled grid.
A Hermitian contraction's lag correlation is conjugate-symmetric in the
lag, so only the N/2 + 1 lags y >= 0 are summed, the unpaired lag -N/2
through its real part.  On the conjugate momentum axis that sum is one
real inverse FFT per operator, and any other momentum axis takes a dense
product with half-lag cos/sin tables.

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
    """2x2 spin density matrix."""

    rho: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=complex)
        if self.rho.shape != (2, 2):
            raise ValueError("spin density matrix must be 2x2")

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
    """(n_comp, N, N/2 + 1) view [:, x, m] = u[:, (2x + sign m) mod 2N].

    u is (n_comp, 2N) on the doubled grid; the rows are windows of its
    period extension that step by 2 along x, read backwards for sign < 0.
    """
    ext = np.concatenate([u, u], axis=-1)
    start = 0
    if sign < 0:
        ext, start = ext[:, ::-1], 2 * n - 1
    rows = np.lib.stride_tricks.sliding_window_view(ext, n // 2 + 1, axis=-1)
    return rows[:, start::2 * sign][:, :n]


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
    onto the doubled grid, and dress, if given, maps a lag vector y to an
    (N, len(y)) kernel factor with dress(x, -y) = dress(x, y)* (None
    means 1).

    For a Hermitian op the lag correlation c(x, y) of Tr(op W) obeys
    c(x, -y) = c(x, y)*, so Re Tr(op W) needs only m = 0 .. N/2: each
    0 < m < N/2 counts twice, and the unpaired lag -N/2 enters once, as
    Re[c(x, N/2 dx) exp(-i p N dx / 2 hbar)], which equals its own term
    because c(x, -N/2 dx) = c(x, N/2 dx)*.  A non-Hermitian op raises
    ValueError.

    psi(x +- y/2) sits at doubled-grid index 2x +- m, so both factors are
    strided windows of the doubled grid, not gathered copies.  On the
    conjugate axis p_l = 2 pi hbar (l - N/2) / L the half-lag sum is one
    real inverse FFT over m of (-1)^m c*, whose dropped imaginary parts
    of bins 0 and N/2 are exactly the rule above; the signs are exact
    flips.  Any other p_axis takes the dense product with cos/sin tables
    weighted 1 at m = 0 and m = N/2 and 2 in between.
    """
    psi = np.asarray(psi, dtype=complex)
    ops = np.asarray(ops, dtype=complex)
    if np.abs(ops - ops.conj().swapaxes(-1, -2)).max(initial=0.0) >= 1e-12:
        raise ValueError("correlation operators must be Hermitian")
    n = grid.n
    psi_k = np.fft.fft(psi, axis=-1)
    padded = np.zeros((len(psi), 2 * n), dtype=complex)
    padded[:, :n // 2] = psi_k[:, :n // 2]
    padded[:, -n // 2:] = psi_k[:, -n // 2:]
    psi2 = np.fft.ifft(padded, axis=-1) * 2.0

    y = np.arange(n // 2 + 1) * grid.dx
    factor = None if dress is None else dress(y)
    scale = grid.dx / (2.0 * np.pi * hbar)
    use_fft = np.array_equal(p_axis, conjugate_momentum_axis(grid, hbar))
    psi2_minus = psi2.conj()
    if use_fft:
        # (-1)^m of lag m is (-1)^q of the minus side's doubled-grid
        # index q = 2x - m; irfft divides by N
        psi2_minus[:, 1::2] *= -1.0
        scale *= n
    else:
        arg = np.outer(y, p_axis) / hbar
        cos, sin = np.cos(arg), np.sin(arg)
        # lags 0 < m < N/2 also stand for their -m partners
        cos[1:-1] *= 2.0
        sin[1:-1] *= 2.0

    left = _lag_windows(psi2, n, +1)
    # one returned op needs no stack to copy into
    out = None if len(ops) == 1 else np.empty((len(ops), n, len(p_axis)))
    # one (N, N/2 + 1) correlation buffer serves every op
    corr = np.empty((n, n // 2 + 1), dtype=complex)
    for k, op in enumerate(ops):
        # sum_b op_ba psi_b*(x - y/2)
        right = _lag_windows(op.T @ psi2_minus, n, -1)
        np.einsum("axy,axy->xy", left, right, out=corr)
        if factor is not None:
            corr *= factor
        if use_fft:
            np.conjugate(corr, out=corr)
            w = np.fft.irfft(corr, n, axis=-1)
        else:
            # Re[corr exp(-i arg)]: two real products instead of one complex
            w = corr.real @ cos
            w += corr.imag @ sin
        if out is None:
            out = w[None]
        else:
            out[k] = w
    out *= scale
    return out


def wigner_transform(psi: WaveFunction1D, params: PlasmaParams) -> PhaseSpaceField:
    """Discrete Wigner transform on the conjugate momentum axis.

    f(x, p) = (1/2 pi hbar) * sum_y exp(-i p y / hbar) psi(x + y/2) psi*(x - y/2) dy,
    the single-component case of phase_space_correlation on
    p = conjugate_momentum_axis(grid, hbar), where the x- and p-marginals
    reproduce |psi|^2 and |psi_tilde|^2 identically for band-limited
    states.  Another momentum axis is phase_space_correlation's p_axis.
    """
    grid = psi.grid
    hbar = params.hbar
    if abs(psi.norm() - 1.0) > 1e-8:
        raise ValueError(f"wavefunction is not normalized (norm = {psi.norm():.6g})")
    p_axis = conjugate_momentum_axis(grid, hbar)
    values = phase_space_correlation(psi.psi[None], grid, p_axis, hbar,
                                     [[[1.0]]])[0]
    return PhaseSpaceField(x=grid.x, p=p_axis, values=values, mass=params.mass)


def marginals(f: PhaseSpaceField):
    """x- and p-marginal densities by quadrature, with their grids."""
    density_x = np.sum(f.values, axis=1) * f.dp
    density_p = np.sum(f.values, axis=0) * f.dx
    return (f.x, density_x), (f.p, density_p)


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


def spin_moments_and_reconstruct(f: SpinDistribution):
    """Zeroth and (factor-3) first moments, plus the reconstructed matrix.

    scalar = integral f dOmega, vector = 3 * integral s f dOmega,
    rho = (scalar * I + vector . sigma) / 2, inverting spin_q_transform
    exactly on valid inputs (the transform is informationally complete for
    2x2 matrices); an eigenvalue of rho below -1e-8 rejects the input.
    """
    quad = f.quad
    scalar = float(quad.integrate(f.values))
    vector = 3.0 * np.einsum("tp,tpi,tp->i", quad.weights, quad.s_hat, f.values)
    rho = 0.5 * (scalar * IDENTITY2 + np.einsum("i,ijk->jk", vector, SIGMA))
    eigmin = np.linalg.eigvalsh(rho).min()
    if eigmin < -1e-8:
        raise ValueError(
            f"reconstructed density matrix has eigenvalue {eigmin:.3e}; "
            "input distribution is not a valid spin Q-function")
    return scalar, vector, DensityMatrixSpin(rho)
