import numpy as np
import pytest

from spinkin.rotation import rodrigues_rotate
from spinkin.sphere import SphereQuadrature


def cross_formula(vectors, axis, angle):
    """The vector form: broadcast axis copy, np.cross and a last-axis sum."""
    v = np.asarray(vectors, dtype=float)
    a = np.broadcast_to(np.asarray(axis, dtype=float), v.shape).copy()
    norm = np.linalg.norm(a, axis=-1, keepdims=True)
    safe = np.where(norm > 0.0, norm, 1.0)
    a /= safe
    ang = np.broadcast_to(np.asarray(angle, dtype=float), v.shape[:-1])[..., None]
    ang = np.where(norm > 0.0, ang, 0.0)
    cos_t = np.cos(ang)
    sin_t = np.sin(ang)
    return (v * cos_t
            + np.cross(a, v) * sin_t
            + a * np.sum(a * v, axis=-1, keepdims=True) * (1.0 - cos_t))


def rows(rng, n):
    """n vectors over ten decades, some -0.0 rows among them."""
    out = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-5, 5, (n, 1))
    out[rng.random(n) < 0.05] = -0.0
    return out


def assert_same_bytes(got, ref):
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_per_row_axes_with_zero_rows(seed):
    rng = np.random.default_rng(seed)
    n = 2000
    v, axis = rows(rng, n), rows(rng, n)
    axis[rng.random(n) < 0.1] = 0.0
    for angle in (rng.uniform(-10, 10, n), 0.7, -2.3):
        assert_same_bytes(rodrigues_rotate(v, axis, angle),
                          cross_formula(v, axis, angle))


@pytest.mark.parametrize("seed", range(5))
def test_single_axis(seed):
    rng = np.random.default_rng(seed + 10)
    v = rows(rng, 1000)
    axis = rng.normal(size=3)
    for angle in (rng.uniform(-10, 10, 1000), 0.3):
        assert_same_bytes(rodrigues_rotate(v, axis, angle),
                          cross_formula(v, axis, angle))
        assert_same_bytes(rodrigues_rotate(v, [0.0, 0.0, 0.0], angle),
                          cross_formula(v, [0.0, 0.0, 0.0], angle))
    vec = np.array([1.0, -2.0, 0.5])
    assert_same_bytes(rodrigues_rotate(vec, axis, 0.3),
                      cross_formula(vec, axis, 0.3))


def test_broadcast_stack_of_rotation_interp_matrices():
    """The (K, M, 3) stack SphereQuadrature.rotation_interp_matrices rotates."""
    rng = np.random.default_rng(3)
    nodes = SphereQuadrature(8, 16).s_hat.reshape(-1, 3)
    axes = rng.normal(size=(33, 3))
    axes[5] = 0.0
    angles = rng.uniform(-3, 3, 33)
    stack = np.broadcast_to(nodes, (len(angles), *nodes.shape))
    assert_same_bytes(rodrigues_rotate(stack, axes[:, None, :], -angles[:, None]),
                      cross_formula(stack, axes[:, None, :], -angles[:, None]))
