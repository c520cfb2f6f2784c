"""Rodrigues rotation of 3-vectors, vectorized over leading axes."""

import numpy as np

# (i, q, r): component i of a x v is a_q v_r - a_r v_q
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def rodrigues_rotate(vectors, axis, angle):
    """Rotate `vectors` (..., 3) about `axis` by `angle` (right-handed).

    `axis` may be a single 3-vector or broadcast against the leading axes of
    `vectors`; `angle` scalar or broadcastable.  A zero axis leaves vectors
    unchanged (no rotation to perform).

    v cos + (a x v) sin + (a (a . v)) (1 - cos), with a the unit axis, is
    evaluated one component at a time, in the association order of its
    vector form (np.cross, np.linalg.norm and a last-axis sum), so the
    result is bit for bit the same.
    """
    v = np.asarray(vectors, dtype=float)
    a = np.asarray(axis, dtype=float)
    vc = [v[..., i] for i in range(3)]
    ac = [a[..., i] for i in range(3)]
    norm = np.sqrt(ac[0] * ac[0] + ac[1] * ac[1] + ac[2] * ac[2])
    turns = norm > 0.0
    safe = np.where(turns, norm, 1.0)
    ac = [c / safe for c in ac]
    ang = np.where(turns, angle, 0.0)
    cos_t = np.cos(ang)
    sin_t = np.sin(ang)
    one_minus = 1.0 - cos_t
    dot = ac[0] * vc[0] + ac[1] * vc[1] + ac[2] * vc[2]
    dot += 0.0              # np.sum starts from +0.0: a -0.0 dot reads +0.0
    out = np.empty(v.shape)
    for i, q, r in _CYCLIC:
        o = out[..., i]
        np.multiply(vc[i], cos_t, out=o)
        t = ac[q] * vc[r]
        t -= ac[r] * vc[q]
        t *= sin_t
        o += t
        t = ac[i] * dot
        t *= one_minus
        o += t
    return out
