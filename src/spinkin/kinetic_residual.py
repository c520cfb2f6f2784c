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

The module also holds the residual of the kinetic equation in the
hbar^2-corrected fields of the gauge-invariant transform
(gi_kinetic_residual).  One bracket builder, sum_k c_k (d^k field/dx^k)
(d^k g/dv_x^k) to hbar^2 or hbar^4, gives every corrected field; a split
form transcribed term by term is the independent reference.
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


# ---------------------------------------------------------------------------
# symbolic residual of the kinetic equation in the corrected fields

_V_SYMS = (VX, VY, VZ)
_EPS = [[[int((a - b) * (b - c) * (c - a) / 2) for c in range(3)]
         for b in range(3)] for a in range(3)]


def _dvx(g, n):
    return sp.diff(g, VX, n)


def _trace(op, grads):
    """Sum_a op(grads[a])[a], op returning a 3-vector of expressions."""
    return sum(op(g)[a] for a, g in enumerate(grads))


@dataclass
class GIResidualReport:
    """Residual norms of the corrected-field kinetic equation per hbar."""

    hbar: np.ndarray
    quantum_norm: np.ndarray   # size of the hbar^2 corrections on f
    regroup_gap: np.ndarray    # corrected form minus the split rearrangement
    hbar4_norm: np.ndarray     # next-order content beyond the truncation

    def slope(self) -> float:
        return float(np.polyfit(np.log(self.hbar),
                                np.log(self.hbar4_norm), 1)[0])

    def write_csv(self, path):
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["hbar", "residual_norm", "trailing_slope"])
            for i, h in enumerate(self.hbar):
                lo = max(0, i - 2)
                if i - lo >= 1 and np.all(self.hbar4_norm[lo:i + 1] > 0):
                    sl = np.polyfit(np.log(self.hbar[lo:i + 1]),
                                    np.log(self.hbar4_norm[lo:i + 1]), 1)[0]
                else:
                    sl = float("nan")
                writer.writerow([h, self.hbar4_norm[i], sl])


def gi_kinetic_residual(f_analytic, E, B, params: PlasmaParams,
                        hbar_list) -> GIResidualReport:
    """Evaluate the corrected-field kinetic operator on a closed-form f.

    Builds the transport operator with the hbar^2-truncated corrected
    fields (order 2) and with the next-order terms retained (order 4),
    plus the split rearrangement that isolates the corrections on the
    right-hand side.  Per hbar the report carries the norm of the hbar^2
    content, the regrouping defect (pure algebra, expected zero), and the
    norm of the order-4 remainder whose scaling verifies the truncation.
    """
    f = _closed_form_f(f_analytic)
    E = _as_vector("E", E)
    B = _as_vector("B", B)
    e, m = params.charge, params.mass
    mu_B = e * HBAR / (2 * m)
    v = sp.Matrix([VX, VY, VZ])
    # bracket coefficients by v-derivative order: the field curvature term
    # of E_tilde and B_tilde, the extra Delta B term, and Delta v_tilde
    field_coefs = {2: -(HBAR**2 / (24 * m**2)), 4: HBAR**4 / (1920 * m**4)}
    dB_coefs = {2: HBAR**2 / (12 * m**2), 4: -(HBAR**4 / (480 * m**4))}
    dv_coefs = {2: -(e * HBAR**2 / (12 * m**3)),
                4: e * HBAR**4 / (480 * m**5)}

    def bracket(field, coefs, order, extra_dx=0):
        """g -> sum_{k <= order} c_k d_x^(k+extra_dx) field * d_vx^k g."""
        return lambda g: sum((c * sp.diff(field, X, k + extra_dx) * _dvx(g, k)
                              for k, c in coefs.items() if k <= order),
                             sp.zeros(3, 1))

    def dv_op(order):
        """g -> sum_{k <= order} c_k d_x^(k-1) B x grad_v d_vx^(k-1) g."""
        return lambda g: sum((c * sp.diff(B, X, k - 1).cross(
                              _grad_v(_dvx(g, k - 1)))
                              for k, c in dv_coefs.items() if k <= order),
                             sp.zeros(3, 1))

    dB = sp.diff(B, X)
    gvx = _dvx(f, 1)
    grad_f = _grad_v(f)
    l_semi = (VX * sp.diff(f, X)
              - (e / m) * (E + v.cross(B)).dot(grad_f)
              - (mu_B / m) * (S_HAT.dot(dB) * gvx
                              + dB.dot(_sphere_gradient(gvx)))
              - (2 * mu_B / HBAR) * S_HAT.cross(B).dot(_sphere_gradient(f)))

    def corrections(order):
        """All terms the corrected fields add beyond the semiclassical
        operator, with the sign they carry on the left-hand side."""
        bo, dv = bracket(B, field_coefs, order), dv_op(order)
        bo_x = bracket(B, field_coefs, order, extra_dx=1)
        dBo = bracket(B, dB_coefs, order)
        terms = dv(sp.diff(f, X))[0]
        terms += -(e / m) * (_trace(bracket(E, field_coefs, order), grad_f)
                             + _trace(lambda g: v.cross(bo(g)), grad_f)
                             + _trace(lambda g: dv(g).cross(B), grad_f))
        terms += -(mu_B / m) * (S_HAT.dot(bo_x(gvx))
                                + _trace(bo_x, _sphere_gradient(gvx)))
        terms += -(2 * mu_B / HBAR) * _trace(
            lambda g: S_HAT.cross(bo(g) + dBo(g)), _sphere_gradient(f))
        return terms

    l82_2 = l_semi + corrections(2)
    l82_4 = l_semi + corrections(4)

    # split form, transcribed independently: the hbar^2 corrections moved
    # to the right-hand side with flipped sign, written out term by term
    c24 = HBAR**2 / (24 * m**2)
    c12v = e * HBAR**2 / (12 * m**3)
    E2, B2, B3 = sp.diff(E, X, 2), sp.diff(B, X, 2), sp.diff(B, X, 3)
    dB1 = sp.diff(B, X, 1)
    # streaming correction: -Delta v_tilde . grad_x f (1D: x-component)
    r_split = c12v * dB1.cross(_grad_v(_dvx(sp.diff(f, X), 1)))[0]
    # field corrections inside the Lorentz force
    lorentz = 0
    for a, va in enumerate(_V_SYMS):
        g = sp.diff(f, va)
        lorentz += -c24 * (E2[a] + v.cross(B2)[a]) * _dvx(g, 2)
        dvt = -c12v * dB1.cross(_grad_v(_dvx(g, 1)))
        lorentz += dvt.cross(B)[a]
    r_split += (e / m) * lorentz
    # dipole-force correction: extra x-derivative on the field bracket
    r_split += -(mu_B / m) * c24 * (
        S_HAT.dot(B3) * _dvx(f, 3) + B3.dot(_sphere_gradient(_dvx(f, 3))))
    # precession correction: b_tilde plus the extra Delta B term gives a
    # net +hbar^2/24 m^2 coefficient on the second field derivative
    prec = 0
    for a in range(3):
        g = _sphere_gradient(f)[a]
        for b in range(3):
            for c in range(3):
                if _EPS[a][b][c]:
                    prec += _EPS[a][b][c] * S_HAT[b] * c24 * B2[c] * _dvx(g, 2)
    r_split += (2 * mu_B / HBAR) * prec

    regroup = l82_2 - (l_semi - r_split)
    quantum = l82_2 - l_semi
    order4 = l82_4 - l82_2

    hbar_list = np.asarray(hbar_list, dtype=float)
    return GIResidualReport(hbar_list,
                            *_norms((quantum, regroup, order4), hbar_list))
