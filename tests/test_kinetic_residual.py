import numpy as np
import pytest
import sympy as sp

from spinkin.kinetic_residual import (
    PHI,
    THETA,
    VX,
    X,
    full_equation_residual_hbar2,
)
from spinkin.params import PlasmaParams

PARAMS = PlasmaParams()

F_TEST = (sp.exp(-X**2 - VX**2)
          * (1 + sp.Rational(1, 2) * sp.sin(THETA) * sp.cos(PHI)))
HBARS = [0.05, 0.1, 0.2, 0.4]


class TestBracketAnnihilation:
    def test_uniform_potentials_give_zero(self):
        rep = full_equation_residual_hbar2(
            F_TEST, sp.Integer(3), (0, 1, 2), (0, 0, 1), PARAMS, HBARS)
        assert np.all(rep.rhs_norm < 1e-13)
        assert np.all(rep.lhs_gap < 1e-13)

    def test_quadratic_potential_gives_zero(self):
        # third x-derivatives of a quadratic vanish, and with A = 0 and
        # uniform B the cosine bracket has no curvature to act on
        rep = full_equation_residual_hbar2(
            F_TEST, X**2 / 2, (0, 0, 0), (0, 0, 1), PARAMS, HBARS)
        assert np.all(rep.rhs_norm < 1e-12)


class TestScaling:
    def test_quartic_potential_scales_as_hbar_squared(self):
        rep = full_equation_residual_hbar2(
            F_TEST, X**4, (0, 0, 0), (0, 0, 1), PARAMS, HBARS)
        assert np.all(rep.rhs_norm > 0)
        assert abs(rep.slope() - 2.0) < 0.1

    def test_single_mode_potential_scales_as_hbar_squared(self):
        rep = full_equation_residual_hbar2(
            F_TEST, sp.cos(2 * X), (0, 0, 0), (0, 0, 0), PARAMS, HBARS)
        assert np.all(rep.rhs_norm > 0)
        assert abs(rep.slope() - 2.0) < 0.1

    def test_single_mode_vector_potential_scales_as_hbar_squared(self):
        # V = 0 and B = 0: both brackets act through A alone
        rep = full_equation_residual_hbar2(
            F_TEST, sp.Integer(0), (sp.cos(X), 0, 0), (0, 0, 0), PARAMS,
            HBARS)
        assert np.all(rep.rhs_norm > 0)
        assert abs(rep.slope() - 2.0) < 0.1

    def test_rhs_norm_linear_in_scalar_potential(self):
        once, twice = (full_equation_residual_hbar2(
            F_TEST, c * sp.cos(X), (0, 0, 0), (0, 0, 0), PARAMS, HBARS)
            for c in (1, 2))
        np.testing.assert_allclose(twice.rhs_norm, 2 * once.rhs_norm,
                                   rtol=1e-12, atol=0)


class TestRegroupingIdentity:
    def test_gap_zero_for_nonuniform_field(self):
        rep = full_equation_residual_hbar2(
            F_TEST, sp.Integer(0), (0, 0, 0), (0, sp.sin(X), X**2),
            PARAMS, [0.1])
        assert np.all(rep.lhs_gap < 1e-12)


class TestRejection:
    def test_exponential_potential_rejected(self):
        with pytest.raises(ValueError):
            full_equation_residual_hbar2(
                F_TEST, sp.exp(X), (0, 0, 0), (0, 0, 1), PARAMS, [0.1])

    def test_rational_potential_rejected(self):
        with pytest.raises(ValueError):
            full_equation_residual_hbar2(
                F_TEST, 1 / (1 + X**2), (0, 0, 0), (0, 0, 1), PARAMS, [0.1])

    def test_nonlinear_trig_argument_rejected(self):
        with pytest.raises(ValueError):
            full_equation_residual_hbar2(
                F_TEST, sp.sin(X**2), (0, 0, 0), (0, 0, 1), PARAMS, [0.1])

    def test_potential_depending_on_v_rejected(self):
        with pytest.raises(ValueError):
            full_equation_residual_hbar2(
                F_TEST, X * VX, (0, 0, 0), (0, 0, 1), PARAMS, [0.1])

    def test_exponential_field_rejected(self):
        with pytest.raises(ValueError,
                           match="unsupported potential family for B"):
            full_equation_residual_hbar2(
                F_TEST, sp.Integer(0), (0, 0, 0), (0, sp.exp(X), 0),
                PARAMS, [0.1])

    def test_velocity_dependent_vector_potential_rejected(self):
        with pytest.raises(ValueError, match="A may depend on x only"):
            full_equation_residual_hbar2(
                F_TEST, sp.Integer(0), (VX, 0, 0), (0, 0, 1), PARAMS, [0.1])

    def test_nonlinear_trig_field_rejected(self):
        with pytest.raises(ValueError, match="B: trigonometric arguments "
                                             "must be linear in x"):
            full_equation_residual_hbar2(
                F_TEST, sp.Integer(0), (0, 0, 0), (0, sp.sin(X**2), 0),
                PARAMS, [0.1])

    def test_extra_symbol_in_f_rejected_before_building(self, monkeypatch):
        import spinkin.kinetic_residual as kr

        def no_build(*args):
            raise AssertionError("the symbolic build started")

        monkeypatch.setattr(kr, "_as_vector", no_build)
        with pytest.raises(ValueError, match=r"f_analytic may depend on "
                                             r"\(x, v, theta, phi\) only"):
            full_equation_residual_hbar2(
                F_TEST * sp.Symbol("q"), sp.Integer(0), (0, 0, 0),
                (0, sp.sin(X), 0), PARAMS, [0.1])

    @pytest.mark.parametrize("A, B", [((0, 0), (0, 0, 1)),
                                      ((0, 0, 0), (0, 0, 1, 0))])
    def test_field_component_count_checked(self, A, B):
        name = "A" if len(A) != 3 else "B"
        with pytest.raises(ValueError,
                           match=f"{name} must have three components"):
            full_equation_residual_hbar2(
                F_TEST, sp.Integer(0), A, B, PARAMS, [0.1])


class TestCriterion7Pinned:
    def test_rhs_norm_pinned(self):
        # every bracket term is live: V and A_x curve, B has a uniform,
        # a single-mode and a quadratic component
        rep = full_equation_residual_hbar2(
            F_TEST, sp.cos(X), (sp.cos(X), 0, 0), (0.3, sp.sin(X), X**2),
            PARAMS, [0.1, 0.2, 0.4])
        np.testing.assert_allclose(
            rep.rhs_norm,
            [1.0089455489504304e-02, 4.0237694870421926e-02,
             1.5998976278092544e-01], rtol=1e-12, atol=0)
        assert np.all(rep.lhs_gap == 0.0)
