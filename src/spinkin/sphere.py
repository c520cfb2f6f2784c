"""Quadrature and differential operators on the unit (Bloch) sphere.

Product grid: Gauss-Legendre nodes in mu = cos(theta) crossed with uniform
azimuthal nodes.  Gives spectral accuracy for the low-degree harmonics that
physical spin distributions occupy, and avoids placing nodes at the poles
where the tangential gradient is singular.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def barycentric_diff_matrix(nodes):
    """First-derivative collocation matrix for arbitrary distinct nodes."""
    x = np.asarray(nodes, dtype=float)
    n = x.size
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    # barycentric weights
    w = 1.0 / np.prod(diff, axis=1)
    d = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -np.sum(d, axis=1))
    return d


@dataclass(frozen=True)
class SphereQuadrature:
    """Gauss-Legendre x uniform-phi grid with exact low-degree quadrature."""

    n_theta: int = 16
    n_phi: int = 32

    def __post_init__(self):
        if self.n_theta < 2 or self.n_phi < 4:
            raise ValueError("need n_theta >= 2 and n_phi >= 4")

    @cached_property
    def _gl(self):
        return np.polynomial.legendre.leggauss(self.n_theta)

    @property
    def mu(self) -> np.ndarray:
        """cos(theta) nodes, ascending."""
        return self._gl[0]

    @property
    def w_mu(self) -> np.ndarray:
        return self._gl[1]

    @property
    def theta(self) -> np.ndarray:
        return np.arccos(self.mu)

    @property
    def phi(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi

    @cached_property
    def weights(self) -> np.ndarray:
        """(n_theta, n_phi) solid-angle weights, summing to 4*pi."""
        return np.outer(self.w_mu, np.full(self.n_phi, 2.0 * np.pi / self.n_phi))

    @cached_property
    def s_hat(self) -> np.ndarray:
        """(n_theta, n_phi, 3) unit vectors."""
        sin_t = np.sqrt(1.0 - self.mu**2)
        cos_p, sin_p = np.cos(self.phi), np.sin(self.phi)
        s = np.empty((self.n_theta, self.n_phi, 3))
        s[..., 0] = sin_t[:, None] * cos_p[None, :]
        s[..., 1] = sin_t[:, None] * sin_p[None, :]
        s[..., 2] = self.mu[:, None] * np.ones(self.n_phi)[None, :]
        return s

    @cached_property
    def _dmu(self) -> np.ndarray:
        return barycentric_diff_matrix(self.mu)

    def integrate(self, f):
        """Solid-angle integral of f sampled on the (n_theta, n_phi) grid."""
        f = np.asarray(f)
        return np.einsum("tp,...tp->...", self.weights, f)

    @cached_property
    def _dphi(self) -> np.ndarray:
        """Real matrix D with f @ D the spectral d/dphi of real f.

        Built by differentiating the unit vectors in Fourier space with the
        Nyquist mode (index n_phi // 2, present only for even n_phi) dropped.
        """
        m = 1j * np.fft.fftfreq(self.n_phi, d=1.0 / self.n_phi)
        if self.n_phi % 2 == 0:
            m[self.n_phi // 2] = 0.0
        eye_k = np.fft.fft(np.eye(self.n_phi), axis=-1)
        return np.fft.ifft(eye_k * m, axis=-1).real

    def dmu(self, f):
        """d/dmu along the theta axis (axis -2)."""
        return np.matmul(self._dmu, f)

    def dphi(self, f):
        """Spectral d/dphi along the last axis (a real operator)."""
        return np.matmul(f, self._dphi)

    @cached_property
    def theta_hat(self) -> np.ndarray:
        """(n_theta, n_phi, 3) unit vectors along increasing theta."""
        cos_t = self.mu[:, None]
        sin_t = np.sqrt(1.0 - self.mu**2)[:, None]
        cos_p = np.cos(self.phi)[None, :]
        sin_p = np.sin(self.phi)[None, :]
        return np.stack([cos_t * cos_p, cos_t * sin_p,
                         -sin_t * np.ones_like(cos_p)], axis=-1)

    @cached_property
    def phi_hat(self) -> np.ndarray:
        """(n_theta, n_phi, 3) unit vectors along increasing phi."""
        ones = np.ones((self.n_theta, 1))
        cos_p = np.cos(self.phi)[None, :]
        sin_p = np.sin(self.phi)[None, :]
        return np.stack([-sin_p * ones, cos_p * ones,
                         np.zeros((self.n_theta, self.n_phi))], axis=-1)

    def tangential_gradient(self, f):
        """Cartesian components of the tangential sphere gradient.

        grad_s f = theta_hat df/dtheta + phi_hat (1/sin theta) df/dphi,
        returned as an array of shape f.shape + (3,).  Evaluated via
        d/dtheta = -sin(theta) d/dmu, which keeps everything finite at the
        Gauss-Legendre nodes (none of which sit on the poles).
        """
        f = np.asarray(f)
        sin_t = np.sqrt(1.0 - self.mu**2)[:, None]
        df_dtheta = -sin_t * self.dmu(f)
        df_dphi_over_sin = self.dphi(f) / sin_t
        return (df_dtheta[..., None] * self.theta_hat
                + df_dphi_over_sin[..., None] * self.phi_hat)

    def harmonic_matrix(self, lmax=None):
        """(n_nodes, n_coeff) matrix of Y_lm values at the grid nodes."""
        try:
            from scipy.special import sph_harm_y
        except ImportError:  # scipy < 1.15
            from scipy.special import sph_harm

            def sph_harm_y(l, m, theta, phi):
                return sph_harm(m, l, phi, theta)
        if lmax is None:
            lmax = self.n_theta - 1
        theta = np.repeat(self.theta, self.n_phi)
        phi = np.tile(self.phi, self.n_theta)
        cols = []
        for l in range(lmax + 1):
            for m in range(-l, l + 1):
                cols.append(sph_harm_y(l, m, theta, phi))
        return np.array(cols).T

    def rotation_interp_matrix(self, axis, angle, lmax=None):
        """Matrix resampling a band-limited f at nodes rotated by R^-1.

        Applying the matrix to flattened f realizes f(R^-1 s), i.e. the
        rigid rotation of the pattern by R about `axis`.  Exact for f of
        degree <= lmax (quadrature is exact to degree 2*n_theta - 1).
        """
        return self.rotation_interp_matrices(
            np.reshape(axis, (1, 3)), np.reshape(angle, (1,)), lmax)[0]

    def rotation_interp_matrices(self, axes, angles, lmax=None):
        """(K, n, n) resampling matrices for the rotations (axes[k], angles[k]).

        Matrix k applied to flattened f realizes f(R_k^-1 s); a zero axis
        is the identity rotation.  The harmonic form
        M_ij = w_j sum_lm Y_lm(R^-1 s_i) Y_lm(s_j)* collapses by the
        addition theorem, sum_m Y_lm(a) Y_lm(b)* = (2l+1)/(4 pi) P_l(a . b),
        to one real Legendre series in a dot product:

            M_ij = w_j sum_{l <= lmax} (2l+1)/(4 pi) P_l((R^-1 s_i) . s_j),

        so no harmonic is evaluated and no complex algebra is needed.
        Exact for f of degree <= lmax (quadrature is exact to degree
        2*n_theta - 1).
        """
        from .rotation import rodrigues_rotate

        if lmax is None:
            lmax = self.n_theta - 1
        axes = np.asarray(axes, dtype=float)
        angles = np.asarray(angles, dtype=float)
        nodes = self.s_hat.reshape(-1, 3)
        back = rodrigues_rotate(
            np.broadcast_to(nodes, (len(angles), *nodes.shape)),
            axes[:, None, :], -angles[:, None])
        coef = (2 * np.arange(lmax + 1) + 1) / (4 * np.pi)
        mats = back @ nodes.T
        for k, dots in enumerate(mats):    # one matrix at a time stays in cache
            mats[k] = _legendre_series(dots, coef)
        mats *= self.weights.reshape(-1)
        return mats


def _legendre_series(x, coef):
    """sum_l coef[l] P_l(x) elementwise, by Clenshaw's recurrence.

    b_l = coef[l] + (2l+1)/(l+1) x b_{l+1} - (l+1)/(l+2) b_{l+2}, and the
    sum is b_0.  Works on three x-sized buffers.
    """
    b1 = np.full_like(x, coef[-1])
    b2 = np.zeros_like(x)
    tmp = np.empty_like(x)
    for l in range(len(coef) - 2, -1, -1):
        np.multiply(x, b1, out=tmp)
        tmp *= (2 * l + 1) / (l + 1)
        b2 *= -(l + 1) / (l + 2)
        b2 += tmp
        b2 += coef[l]
        b1, b2 = b2, b1
    return b1
