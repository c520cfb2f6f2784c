import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinkin.rotation import rodrigues_rotate
from spinkin.sphere import SphereQuadrature

try:
    from scipy.special import sph_harm_y
except ImportError:  # scipy < 1.15
    from scipy.special import sph_harm

    def sph_harm_y(l, m, theta, phi):
        return sph_harm(m, l, phi, theta)


@pytest.fixture(scope="module")
def quad():
    return SphereQuadrature(16, 32)


def test_weights_sum_to_4pi(quad):
    assert abs(quad.integrate(np.ones((16, 32))) - 4 * np.pi) < 1e-12


def test_odd_moment_cancellation(quad):
    first = np.einsum("tp,tpi->i", quad.weights, quad.s_hat)
    assert np.max(np.abs(first)) < 1e-12


@pytest.mark.parametrize("l,m", [(0, 0), (1, 0), (2, 1), (5, -3), (10, 7), (31, 0)])
def test_harmonic_quadrature_exactness(quad, l, m):
    # integral of Y_lm over the sphere vanishes for l > 0, equals sqrt(4pi) Y00 norm otherwise
    theta = np.repeat(quad.theta, quad.n_phi)
    phi = np.tile(quad.phi, quad.n_theta)
    vals = sph_harm_y(l, m, theta, phi).reshape(16, 32)
    integral = quad.integrate(vals)
    expected = np.sqrt(4 * np.pi) if l == 0 else 0.0
    assert abs(integral - expected) < 1e-12


def test_harmonic_orthonormality(quad):
    y = quad.harmonic_matrix(lmax=6)
    gram = y.conj().T @ (quad.weights.reshape(-1, 1) * y)
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-12


def test_tangential_gradient_of_sz(quad):
    # f = s_z = cos(theta): grad = -sin(theta) theta_hat
    f = quad.s_hat[..., 2]
    grad = quad.tangential_gradient(f)
    sin_t = np.sqrt(1 - quad.mu**2)[:, None]
    cos_p = np.cos(quad.phi)[None, :]
    sin_p = np.sin(quad.phi)[None, :]
    # direct: grad_s (s_z) = -sin t * theta_hat
    theta_hat = np.stack([quad.mu[:, None] * cos_p, quad.mu[:, None] * sin_p,
                          -sin_t * np.ones_like(cos_p)], axis=-1)
    assert np.max(np.abs(grad - (-sin_t[..., None] * theta_hat))) < 1e-10


# real harmonics as polynomials p(s) and their Cartesian gradients; on the
# sphere grad_s p = grad p - s_hat (s_hat . grad p)
HARMONICS = {
    "l1_m1": (lambda s: s[..., 0],
              lambda s: np.stack([np.ones_like(s[..., 0]),
                                  np.zeros_like(s[..., 0]),
                                  np.zeros_like(s[..., 0])], axis=-1)),
    "l1_m-1": (lambda s: s[..., 1],
               lambda s: np.stack([np.zeros_like(s[..., 0]),
                                   np.ones_like(s[..., 0]),
                                   np.zeros_like(s[..., 0])], axis=-1)),
    "l2_m1": (lambda s: s[..., 0] * s[..., 2],
              lambda s: np.stack([s[..., 2], np.zeros_like(s[..., 0]),
                                  s[..., 0]], axis=-1)),
}


@pytest.mark.parametrize("shape", [(8, 16), (16, 32), (8, 15)])
@pytest.mark.parametrize("name", sorted(HARMONICS))
def test_tangential_gradient_of_odd_m_harmonics(name, shape):
    # odd azimuthal modes carry a sin(theta) factor that is not a
    # polynomial in mu; d/dmu must still be exact on them
    q = SphereQuadrature(*shape)
    value, cartesian = HARMONICS[name]
    s = q.s_hat
    g = cartesian(s)
    exact = g - s * np.sum(s * g, axis=-1)[..., None]
    assert np.max(np.abs(q.tangential_gradient(value(s)) - exact)) <= 1e-12


def test_gradient_integral_identity():
    # int grad_s f dOmega = 2 int s_hat f dOmega for smooth f; random data
    # of degree <= 7 are band-limited on the 8 x 16 grid
    rng = np.random.default_rng(11)
    q = SphereQuadrature(8, 16)
    s = q.s_hat
    f = np.zeros(s.shape[:-1])
    for a in range(8):
        for b in range(8 - a):
            for c in range(8 - a - b):
                f += rng.normal() * s[..., 0]**a * s[..., 1]**b * s[..., 2]**c
    lhs = np.einsum("tp,tpa->a", q.weights, q.tangential_gradient(f))
    rhs = 2 * np.einsum("tp,tpa->a", q.weights, s * f[..., None])
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_rotation_interp_rigid_rotation(quad):
    # rotating s_x pattern about z by pi/2 gives s_y pattern
    f = quad.s_hat[..., 0].reshape(-1)
    mat = quad.rotation_interp_matrix([0, 0, 1], np.pi / 2, lmax=4)
    rotated = mat @ f
    assert np.max(np.abs(rotated - quad.s_hat[..., 1].reshape(-1))) < 1e-10


def test_rotation_interp_general_axis(quad):
    axis = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    angle = 0.7
    vec = np.array([0.3, -0.2, 0.5])
    f = np.einsum("tpi,i->tp", quad.s_hat, vec).reshape(-1)
    mat = quad.rotation_interp_matrix(axis, angle, lmax=4)
    rotated_vec = rodrigues_rotate(vec, axis, angle)
    expected = np.einsum("tpi,i->tp", quad.s_hat, rotated_vec).reshape(-1)
    assert np.max(np.abs(mat @ f - expected)) < 1e-10


def harmonic_sum_rotation(quad, axis, angle, lmax):
    """Y_lm at the back-rotated nodes times the weighted conjugate analysis
    matrix: the harmonic form of the resampling matrix."""
    back = rodrigues_rotate(quad.s_hat.reshape(-1, 3), axis, -angle)
    theta = np.arccos(np.clip(back[:, 2], -1.0, 1.0))
    phi = np.arctan2(back[:, 1], back[:, 0])
    y_rot = np.array([sph_harm_y(l, m, theta, phi)
                      for l in range(lmax + 1) for m in range(-l, l + 1)]).T
    analysis = quad.harmonic_matrix(lmax).conj().T * quad.weights.reshape(1, -1)
    return (y_rot @ analysis).real


SMALL = SphereQuadrature(8, 16)
unit = st.floats(-1.0, 1.0)
# an exact zero axis (no rotation) or one long enough to normalize cleanly
axis_st = st.tuples(unit, unit, unit).filter(
    lambda a: not any(a) or np.linalg.norm(a) > 1e-6)


@settings(max_examples=25, deadline=None)
@given(axes=st.lists(axis_st, min_size=1, max_size=3),
       angle=st.floats(-np.pi, np.pi), lmax=st.sampled_from([1, 4, 7]))
@example(axes=[(0.0, 0.0, 0.0), (0.3, -0.5, 0.8)], angle=0.0, lmax=7)
@example(axes=[(0.0, 0.0, 0.0)], angle=1.1, lmax=4)
def test_batched_rotation_matches_harmonic_sum(axes, angle, lmax):
    axes = np.array(axes)
    angles = angle * (1.0 + np.arange(len(axes)))
    mats = SMALL.rotation_interp_matrices(axes, angles, lmax)
    assert mats.shape == (len(axes), 128, 128)
    for mat, axis, ang in zip(mats, axes, angles):
        ref = harmonic_sum_rotation(SMALL, axis, ang, lmax)
        assert np.max(np.abs(mat - ref)) <= 1e-12


def test_scalar_rotation_is_batched_row(quad):
    axis, angle = np.array([0.2, -0.7, 0.4]), 0.35
    single = quad.rotation_interp_matrix(axis, angle, lmax=6)
    # a fresh quadrature, so the batched stack is built, not the memo's
    batched = SphereQuadrature(16, 32).rotation_interp_matrices(
        axis[None], [angle], lmax=6)
    assert single.shape == (16 * 32, 16 * 32)
    assert np.array_equal(single, batched[0])


def test_rotation_matrices_full_degree_large_grid(quad):
    rng = np.random.default_rng(3)
    axes, angles = rng.normal(size=(2, 3)), rng.uniform(-np.pi, np.pi, 2)
    mats = quad.rotation_interp_matrices(axes, angles)
    for mat, axis, angle in zip(mats, axes, angles):
        ref = harmonic_sum_rotation(quad, axis, angle, quad.n_theta - 1)
        assert np.max(np.abs(mat - ref)) <= 1e-12


class TestRotationMemo:
    AXES = np.array([[0.3, 0.0, 0.5], [0.3, 0.0, 0.7], [0.0, 0.0, 0.0]])
    ANGLES = np.array([0.02, 0.03, 0.0])

    def test_hit_returns_the_stack_read_only(self):
        quad = SphereQuadrature(4, 8)
        first = quad.rotation_interp_matrices(self.AXES, self.ANGLES)
        again = quad.rotation_interp_matrices(self.AXES.copy(),
                                              list(self.ANGLES))
        assert again is first
        with pytest.raises(ValueError):
            first[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            quad.rotation_interp_matrix(self.AXES[0], self.ANGLES[0])[0] = 1.0

    def test_changed_inputs_rebuild(self):
        quad = SphereQuadrature(4, 8)
        axes = self.AXES.copy()
        quad.rotation_interp_matrices(axes, self.ANGLES)
        axes[1, 2] += 1e-12               # an in-place edit of the field
        for args in [(axes, self.ANGLES), (axes, 2 * self.ANGLES),
                     (axes, 2 * self.ANGLES, 2), (axes[:2], self.ANGLES[:2])]:
            got = quad.rotation_interp_matrices(*args)
            fresh = SphereQuadrature(4, 8).rotation_interp_matrices(*args)
            assert np.array_equal(got, fresh)

    def test_memo_is_per_instance(self):
        small, equal, other = (SphereQuadrature(4, 8), SphereQuadrature(4, 8),
                               SphereQuadrature(3, 6))
        small.rotation_interp_matrices(self.AXES, self.ANGLES)
        got = other.rotation_interp_matrices(self.AXES, self.ANGLES)
        assert got.shape == (3, 18, 18)
        fresh = SphereQuadrature(3, 6).rotation_interp_matrices(self.AXES,
                                                                self.ANGLES)
        assert np.array_equal(got, fresh)
        assert (equal.rotation_interp_matrices(self.AXES, self.ANGLES)
                is not small.rotation_interp_matrices(self.AXES, self.ANGLES))

    def test_alternating_fields_hold_one_entry(self):
        quad = SphereQuadrature(4, 8)
        for k in range(6):
            angles = self.ANGLES * (1 + k % 2)
            got = quad.rotation_interp_matrices(self.AXES, angles)
            assert len(quad._rotation_memo) == 1
            fresh = SphereQuadrature(4, 8).rotation_interp_matrices(self.AXES,
                                                                    angles)
            assert np.array_equal(got, fresh)


@pytest.mark.parametrize("n_phi", [8, 9, 15, 16])
def test_dphi_top_mode(n_phi):
    # the highest resolved mode is index n_phi // 2; only for even n_phi is
    # it the Nyquist mode, whose sine part vanishes on the nodes
    q = SphereQuadrature(2, n_phi)
    top = n_phi // 2
    f = np.cos(top * q.phi) * np.ones((2, 1))
    exact = -top * np.sin(top * q.phi) * np.ones((2, 1))
    assert np.max(np.abs(q.dphi(f) - exact)) <= 1e-12


def test_rodrigues_preserves_norm_and_orientation():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(50, 3))
    out = rodrigues_rotate(v, [0.0, 0.0, 1.0], 0.3)
    assert np.allclose(np.linalg.norm(out, axis=1), np.linalg.norm(v, axis=1))
    # z-component unchanged under rotation about z
    assert np.allclose(out[:, 2], v[:, 2])
