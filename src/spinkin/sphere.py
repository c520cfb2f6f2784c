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

    def integrate(self, f):
        """Solid-angle integral of f sampled on the (n_theta, n_phi) grid."""
        f = np.asarray(f)
        return np.einsum("tp,...tp->...", self.weights, f)

    def _phi_multiplier(self, symbol):
        """Real matrix P with f @ P = ifft(symbol * fft(f)) along phi."""
        eye_k = np.fft.fft(np.eye(self.n_phi), axis=-1)
        return np.fft.ifft(eye_k * symbol, axis=-1).real

    @cached_property
    def _dphi(self) -> np.ndarray:
        """Real matrix D with f @ D the spectral d/dphi of real f; the
        Nyquist mode (index n_phi // 2, only for even n_phi) is dropped."""
        m = 1j * np.fft.fftfreq(self.n_phi, d=1.0 / self.n_phi)
        if self.n_phi % 2 == 0:
            m[self.n_phi // 2] = 0.0
        return self._phi_multiplier(m)

    @cached_property
    def _dmu_parts(self):
        """(D, D_odd - D, P_odd) of `dmu`."""
        d = barycentric_diff_matrix(self.mu)
        sin_t = np.sqrt(1.0 - self.mu**2)
        d_odd = sin_t[:, None] * d / sin_t[None, :]
        d_odd[np.diag_indices_from(d_odd)] -= self.mu / sin_t**2
        m = np.fft.fftfreq(self.n_phi, d=1.0 / self.n_phi)
        return d, d_odd - d, self._phi_multiplier(m % 2)

    def dmu(self, f):
        """d/dmu along the theta axis (axis -2), split by azimuthal parity.

        An even-m mode is a polynomial in mu, differentiated by collocation
        D on the Gauss nodes; an odd-m mode is S h, S = diag(sin theta) and
        h a polynomial, differentiated by D_odd = S D S^-1 - diag(mu/(1-mu^2)).
        With P_odd the odd-m projector along phi (any n_phi),
        d/dmu f = D f + (D_odd - D)(f P_odd).  Exact to rounding for every
        Y_lm with l <= n_theta - 1 and |m| < n_phi / 2.
        """
        d, jump, p_odd = self._dmu_parts
        odd = self._along_phi(f, p_odd)
        out = np.matmul(jump, odd)
        out += np.matmul(d, f, out=odd)
        return out

    def dphi(self, f):
        """Spectral d/dphi along the last axis (a real operator)."""
        return self._along_phi(f, self._dphi)

    def _along_phi(self, f, op):
        """f @ op for an (n_phi, n_phi) op, as one 2-D product over every
        leading index rather than one small product per (..., theta) row."""
        f = np.asarray(f)
        return np.matmul(f.reshape(-1, self.n_phi), op).reshape(f.shape)

    @cached_property
    def _grad_mu_phi(self):
        """grad_s mu = z - mu s_hat and grad_s phi = z x s_hat / sin^2 theta."""
        z = np.array([0.0, 0.0, 1.0])
        return (z - self.mu[:, None, None] * self.s_hat,
                np.cross(z, self.s_hat) / (1.0 - self.mu**2)[:, None, None])

    def gradient_along(self, G, f):
        """G . grad_s f, for G (..., 3) broadcasting against f's leading axes.

        grad_s f = grad_s mu df/dmu + grad_s phi df/dphi, exact to rounding
        on band-limited f (see `dmu`); the terms accumulate in place.
        """
        G = np.asarray(G, dtype=float)[..., None, None, :]
        grad_mu, grad_phi = self._grad_mu_phi
        out = self.dmu(f)
        out *= np.sum(G * grad_mu, axis=-1)
        term = self.dphi(f)
        term *= np.sum(G * grad_phi, axis=-1)
        out += term
        return out

    def tangential_gradient(self, f):
        """The Cartesian components of grad_s f, shape f.shape + (3,)."""
        return np.stack([self.gradient_along(e, f) for e in np.eye(3)],
                        axis=-1)

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

    @cached_property
    def _rotation_memo(self) -> dict:
        """The most recent `rotation_interp_matrices` stack, by input bytes."""
        return {}

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

        A static field asks for the same stack every step, so the quadrature
        keeps the most recent one, keyed on the bytes of `axes` and `angles`
        and on `lmax`: an in-place edit of the caller's field, a new angle
        or a new lmax misses and rebuilds.  The memo holds one stack (it is
        dropped before a rebuild, so peak memory is one stack), and the
        returned stack is read-only because later calls share it.
        """
        from .rotation import rodrigues_rotate

        if lmax is None:
            lmax = self.n_theta - 1
        axes = np.ascontiguousarray(axes, dtype=float)
        angles = np.ascontiguousarray(angles, dtype=float)
        key = (lmax, axes.shape, angles.shape, axes.tobytes(),
               angles.tobytes())
        memo = self._rotation_memo
        if key in memo:
            return memo[key]
        memo.clear()
        nodes = self.s_hat.reshape(-1, 3)
        back = rodrigues_rotate(
            np.broadcast_to(nodes, (len(angles), *nodes.shape)),
            axes[:, None, :], -angles[:, None])
        coef = (2 * np.arange(lmax + 1) + 1) / (4 * np.pi)
        mats = back @ nodes.T
        for k, dots in enumerate(mats):    # one matrix at a time stays in cache
            mats[k] = _legendre_series(dots, coef)
        mats *= self.weights.reshape(-1)
        mats.flags.writeable = False
        memo[key] = mats
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
