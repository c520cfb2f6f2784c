"""Symbolic residual evaluation of the full extended phase-space equation.

The full evolution equation contains sine and cosine operator brackets
acting with left x-derivatives on the potentials and right v-derivatives
on the distribution.  Expanded in hbar they contribute

    (2m/hbar) sin((hbar/2m) Dxv) - Dxv  ->  -(hbar^2/24 m^2) Dxv^3
    cos((hbar/2m) Dxv) - 1              ->  -(hbar^2/8 m^2)  Dxv^2

with Dxv the mixed x.v bidirectional derivative.  Dropping these terms
gives the semiclassical transport used by the grid and particle solvers,
so their symbolic norm measures the neglected quantum correction for a
closed-form distribution.  Potentials are restricted to polynomials or
single-mode trigonometric profiles in x so all derivatives are exact.
"""

from dataclasses import dataclass

import numpy as np
import sympy as sp

from .params import PlasmaParams

X, VX, VY, VZ = sp.symbols("x v_x v_y v_z", real=True)
THETA = sp.Symbol("theta", real=True)
PHI = sp.Symbol("phi", real=True)
HBAR = sp.Symbol("hbar", positive=True)

S_HAT = sp.Matrix([sp.sin(THETA) * sp.cos(PHI),
                   sp.sin(THETA) * sp.sin(PHI),
                   sp.cos(THETA)])
THETA_HAT = sp.Matrix([sp.cos(THETA) * sp.cos(PHI),
                       sp.cos(THETA) * sp.sin(PHI),
                       -sp.sin(THETA)])
PHI_HAT = sp.Matrix([-sp.sin(PHI), sp.cos(PHI), 0])

_COORDS = (X, VX, VY, VZ, THETA, PHI)


def _sphere_gradient(expr):
    """Tangential gradient theta_hat d_theta + phi_hat (1/sin) d_phi."""
    return (THETA_HAT * sp.diff(expr, THETA)
            + PHI_HAT * sp.diff(expr, PHI) / sp.sin(THETA))


def _closed_form_f(f_analytic):
    """f as a sympy expression in the phase-space coordinates only."""
    f = sp.sympify(f_analytic)
    if not f.free_symbols <= set(_COORDS):
        raise ValueError("f_analytic may depend on (x, v, theta, phi) only")
    return f


def _check_potential_family(name, expr):
    """Allow polynomials in x and single-mode sin/cos profiles, else raise."""
    expr = sp.sympify(expr)
    if not expr.free_symbols <= {X}:
        raise ValueError(f"{name} may depend on x only")
    trig = expr.atoms(sp.sin, sp.cos)
    for t in trig:
        arg = sp.Poly(t.args[0], X) if t.args[0].free_symbols <= {X} else None
        if arg is None or arg.degree() > 1:
            raise ValueError(
                f"{name}: trigonometric arguments must be linear in x")
    subs = {t: sp.Dummy() for t in trig}
    reduced = expr.subs(subs)
    if not reduced.is_polynomial(X, *subs.values()):
        raise ValueError(
            f"unsupported potential family for {name}: need a polynomial "
            "or single-mode trigonometric profile in x")
    return expr


def _as_vector(name, components):
    vec = sp.Matrix([sp.sympify(c) for c in components])
    if vec.shape != (3, 1):
        raise ValueError(f"{name} must have three components")
    for c in vec:
        _check_potential_family(name, c)
    return vec


def _grad_v(expr):
    return sp.Matrix([sp.diff(expr, VX), sp.diff(expr, VY), sp.diff(expr, VZ)])


def _max_abs(expr, subs, rng):
    """Max |expr| over a deterministic sample of phase-space points."""
    expr = sp.sympify(expr).subs(subs)
    if expr == 0:
        return 0.0
    fn = sp.lambdify(_COORDS, expr, modules="numpy")
    n = 200
    pts = (rng.uniform(-1.5, 1.5, (4, n)))
    theta = rng.uniform(0.2, np.pi - 0.2, n)
    phi = rng.uniform(0.0, 2 * np.pi, n)
    vals = np.asarray(fn(*pts, theta, phi), dtype=float)
    return float(np.max(np.abs(vals)))


def _norms(exprs, hbar_list):
    """_max_abs of each expression (rows) at each hbar, fresh rng each."""
    rows = [[_max_abs(ex, {HBAR: h}, np.random.default_rng(7)) for ex in exprs]
            for h in hbar_list]
    return np.array(rows, dtype=float).reshape(-1, len(exprs)).T


@dataclass
class KineticResidualReport:
    """Per-hbar norms of the neglected quantum correction terms."""

    hbar: np.ndarray
    rhs_norm: np.ndarray        # hbar^2-truncated operator-bracket remainder
    lhs_gap: np.ndarray         # grouping identity of the transport terms

    def slope(self) -> float:
        """Log-log scaling exponent of rhs_norm versus hbar."""
        return float(np.polyfit(np.log(self.hbar), np.log(self.rhs_norm), 1)[0])


def full_equation_residual_hbar2(f_analytic, V, A, B, params: PlasmaParams,
                                 hbar_list) -> KineticResidualReport:
    """Norms of the hbar^2 operator-bracket corrections for a closed-form f.

    f_analytic is a sympy expression in (x, v_x, v_y, v_z, theta, phi);
    V is the scalar potential and A, B three-component field profiles,
    all functions of x drawn from the polynomial / single-mode family.
    For each hbar the report carries the max-norm of the bracket terms
    (the defect of the semiclassical equation) and of the regrouping
    identity between the combined and split spin-force transport terms.
    """
    f = _closed_form_f(f_analytic)
    V = _check_potential_family("V", V)
    A = _as_vector("A", A)
    B = _as_vector("B", B)
    e, m = params.charge, params.mass
    mu_B = e * HBAR / (2 * m)
    v = sp.Matrix([VX, VY, VZ])

    # sine bracket, leading term: (hbar^2/24 m^2) * d^3x(prefactor) d^3v f
    g3 = sp.diff(f, VX, 3)
    B3 = sp.diff(B, X, 3)
    sin_term = (HBAR**2 / (24 * m**2)) * (
        (e / m) * (sp.diff(V, X, 3) - v.dot(sp.diff(A, X, 3))) * g3
        - (mu_B / m) * (B3.dot(_sphere_gradient(g3)) + S_HAT.dot(B3) * g3))

    # cosine bracket, leading term: (hbar^2/8 m^2) * d^2x(prefactor) d^2v f
    g2 = sp.diff(f, VX, 2)
    A2 = sp.diff(A, X, 2)
    adva = sp.diff(A[0] * sp.diff(A, X), X, 2)
    cos_term = (HBAR**2 / (8 * m**2)) * (
        (e / m) * A2[0] * sp.diff(g2, X)
        + (e**2 / m**2) * adva.dot(_grad_v(g2))
        - (2 * mu_B / HBAR) * S_HAT.cross(sp.diff(B, X, 2)).dot(
            _sphere_gradient(g2)))

    rhs = sin_term + cos_term

    # regrouping identity: the combined spin-force operator
    # grad_x[(grad_s + s_hat) . B] . grad_v equals the sum of the
    # classical dipole force and the mixed spin-velocity term
    gvx = sp.diff(f, VX)
    dB = sp.diff(B, X)
    whole = B.dot(_sphere_gradient(gvx)) + S_HAT.dot(B) * gvx
    passthrough = (B.dot(_sphere_gradient(sp.diff(gvx, X)))
                   + S_HAT.dot(B) * sp.diff(gvx, X))
    combined = sp.diff(whole, X) - passthrough
    split = S_HAT.dot(dB) * gvx + dB.dot(_sphere_gradient(gvx))
    gap = (mu_B / m) * (combined - split)

    hbar_list = np.asarray(hbar_list, dtype=float)
    return KineticResidualReport(hbar_list, *_norms((rhs, gap), hbar_list))

