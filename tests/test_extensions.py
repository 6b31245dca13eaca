import cmath
import math

import numpy as np
import pytest

from lplc.errors import SingularRatioError
from lplc.extensions import (
    BoundaryCondition,
    DeficiencyFunction,
    ExtensionDomainElement,
    adjoint_ratio,
    boundary_condition,
    deficiency_function,
    deficiency_norm_squared,
    domain_membership_residual,
    isometry_phase,
    sequence_f,
    sequence_f_boundary,
    sequence_f_l2_distance,
    sequence_g,
    sequence_g_boundary,
    sequence_g_l2_distance,
)
from lplc.quadrature import trapezoid

SQRT2 = math.sqrt(2.0)


class TestDeficiencyFunctions:
    def test_value_at_zero(self):
        assert deficiency_function(1, 0.0) == 1.0
        assert deficiency_function(-1, 0.0) == 1.0

    def test_mode_equation_residual(self):
        # oracle: ((i-1)/sqrt 2)^2 = -i and (-(i+1)/sqrt 2)^2 = i, so
        # -phi'' equals (+-i) phi with the second derivative taken exactly
        x = np.linspace(0.0, 10.0, 1001)
        for sign in (1, -1):
            phi = DeficiencyFunction(sign)
            residual = np.abs(-phi.second_derivative(x) - sign * 1j * phi(x))
            assert np.max(residual) < 1e-12

    def test_norm_squared_quadrature(self):
        # oracle: integral of e^{-sqrt(2) x} over the half line is 1/sqrt(2)
        for sign in (1, -1):
            assert abs(deficiency_norm_squared(sign) - 2.0**-0.5) < 1e-8

    def test_norm_squared_against_trapezoid(self):
        # independent brute-force check on a dense finite grid
        x = np.linspace(0.0, 40.0, 400001)
        brute = float(trapezoid(np.abs(deficiency_function(1, x)) ** 2, x))
        assert abs(brute - deficiency_norm_squared(1)) < 1e-7

    def test_modulus_decays_identically_for_both_signs(self):
        x = np.linspace(0.0, 20.0, 101)
        for sign in (1, -1):
            assert np.allclose(
                np.abs(deficiency_function(sign, x)), np.exp(-x / SQRT2), rtol=1e-14
            )


class TestIsometry:
    def test_phase_at_origin(self):
        assert isometry_phase(0.0, 0.0) == 0.0
        assert deficiency_function(1, 0.0) == deficiency_function(-1, 0.0)

    def test_phase_value(self):
        assert isometry_phase(1.0, math.pi) == pytest.approx(math.pi - SQRT2, abs=1e-15)

    def test_identity_pointwise(self):
        rng = np.random.default_rng(2)
        xs = rng.uniform(0.0, 10.0, 1000)
        cs = rng.uniform(0.0, 2.0 * math.pi, 1000)
        worst = 0.0
        for x, c in zip(xs, cs):
            lhs = cmath.exp(1j * isometry_phase(x, c)) * deficiency_function(1, x)
            rhs = cmath.exp(1j * c) * deficiency_function(-1, x)
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-13


class TestBoundaryCondition:
    def test_dirichlet_at_pi(self):
        bc = boundary_condition(math.pi)
        assert abs(bc.beta) < 1e-14
        assert abs(bc.alpha) > 0.9
        assert bc.kind() == "dirichlet"

    def test_neumann_at_half_pi(self):
        bc = boundary_condition(math.pi / 2.0)
        assert abs(bc.alpha) < 1e-14
        assert bc.kind() == "neumann"

    def test_ratio_at_zero_parameter(self):
        bc = boundary_condition(0.0)
        assert abs(-bc.beta / bc.alpha - (-SQRT2)) < 1e-12

    def test_normalization_and_canonical_phase(self):
        rng = np.random.default_rng(3)
        for c in rng.uniform(0.0, 2.0 * math.pi, 200):
            bc = boundary_condition(float(c))
            assert abs(abs(bc.alpha) ** 2 + abs(bc.beta) ** 2 - 1.0) < 1e-14
            lead = bc.alpha if abs(bc.alpha) > 1e-13 else bc.beta
            assert lead.imag == pytest.approx(0.0, abs=1e-13)
            assert lead.real > 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            boundary_condition(-0.1)
        with pytest.raises(ValueError):
            boundary_condition(2.0 * math.pi)
        with pytest.raises(ValueError, match=r"c must lie in \[0, 2\*pi\)"):
            boundary_condition(math.nan)
        with pytest.raises(ValueError, match=r"c must lie in \[0, 2\*pi\)"):
            BoundaryCondition(math.nan, 1.0, 0.0)


class TestAdjointRatio:
    def test_value_at_zero(self):
        assert abs(adjoint_ratio(0.0, 1) - (-SQRT2)) < 1e-12

    def test_dirichlet_limit(self):
        assert abs(adjoint_ratio(math.pi, 1)) < 1e-12

    def test_singular_at_half_pi(self):
        with pytest.raises(SingularRatioError):
            adjoint_ratio(math.pi / 2.0, 1)

    def test_kind_two_singular_at_pi(self):
        with pytest.raises(SingularRatioError):
            adjoint_ratio(math.pi, 2)

    @pytest.mark.parametrize("c", [math.nan, -0.1, 2.0 * math.pi, 10.0])
    @pytest.mark.parametrize("kind", [1, 2])
    def test_parameter_outside_range_rejected(self, c, kind):
        with pytest.raises(ValueError, match=r"c must lie in \[0, 2\*pi\)"):
            adjoint_ratio(c, kind)

    def test_reciprocal_consistency(self):
        for c in np.linspace(0.0, 2.0 * math.pi, 97)[:-1]:
            if min(abs(c - math.pi / 2), abs(c - math.pi)) < 0.05:
                continue
            prod = adjoint_ratio(float(c), 1) * adjoint_ratio(float(c), 2)
            assert abs(prod - 1.0) < 1e-12

    def test_matches_boundary_condition_ratio(self):
        for c in np.linspace(0.1, 2.0 * math.pi - 0.1, 50):
            if min(abs(c - math.pi / 2), abs(c - math.pi)) < 0.05:
                continue
            bc = boundary_condition(float(c))
            assert abs(-bc.beta / bc.alpha - adjoint_ratio(float(c), 1)) < 1e-12


class TestDomainMembership:
    def test_random_elements_annihilated(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(1000):
            z = complex(rng.normal(), rng.normal())
            c = float(rng.uniform(0.0, 2.0 * math.pi))
            worst = max(worst, domain_membership_residual(ExtensionDomainElement(z=z, c=c)))
        assert worst < 1e-13

    def test_zero_component(self):
        for c in (0.0, 1.0, 4.0):
            assert domain_membership_residual(ExtensionDomainElement(z=0.0, c=c)) == 0.0

    def test_dirichlet_value_vanishes_directly(self):
        for z in (1.0, 2.0 - 1.0j):
            elem = ExtensionDomainElement(z=z, c=math.pi)
            assert abs(elem.value_at_zero()) < 1e-15 * abs(z) + 1e-300

    def test_boundary_values_formulas(self):
        z, c = 0.7 - 0.2j, 1.3
        elem = ExtensionDomainElement(z=z, c=c)
        assert abs(elem.value_at_zero() - z * (1.0 + cmath.exp(1j * c))) < 1e-15
        expect = z * ((1j - 1.0) - cmath.exp(1j * c) * (1j + 1.0)) / SQRT2
        assert abs(elem.derivative_at_zero() - expect) < 1e-15


class TestSequenceF:
    def test_vanishes_beyond_cutoff(self):
        assert sequence_f(3, 2.0, 2.0) == 0.0
        assert sequence_f(3, 2.0, 5.0) == 0.0

    def test_boundary_values(self):
        for n in (1, 2, 10, 100):
            assert sequence_f(n, 2.0, 0.0) == 0.0
            assert sequence_f_boundary(n) == (0.0, 0.0)

    def test_branches(self):
        n, a = 4, 2.0
        assert sequence_f(n, a, 0.1) == pytest.approx(0.1**1.5)
        assert sequence_f(n, a, 0.5) == pytest.approx(0.5 ** (-1.0 / 3.0))

    def test_l2_distance_against_quadrature_oracle(self):
        # oracle: substitute x = u^3 so the singular integrand becomes the
        # polynomial 3(u^11 - 2 u^5.5 + 1) du, integrable by fine trapezoid
        for n in (2, 5, 20):
            eps = 1.0 / n
            u = np.linspace(0.0, eps ** (1.0 / 3.0), 200001)
            integrand = 3.0 * (u**11 - 2.0 * u**5.5 + 1.0)
            oracle = math.sqrt(float(trapezoid(integrand, u)))
            assert sequence_f_l2_distance(n) == pytest.approx(oracle, rel=1e-8)

    def test_distance_decreases_to_zero(self):
        # decay is slow: sqrt(3) n^{-1/6} to leading order
        dists = [sequence_f_l2_distance(n) for n in range(1, 200)]
        assert all(b < a for a, b in zip(dists, dists[1:]))
        assert sequence_f_l2_distance(10**9) == pytest.approx(
            math.sqrt(3.0) * (10**9) ** (-1.0 / 6.0), rel=1e-3
        )


class TestSequenceG:
    def test_boundary_values(self):
        # g_n(0) = 1/n - 1/n^2, g_n'(0) = 2/n, nonzero for n >= 2
        assert sequence_g_boundary(2) == (0.25, 1.0)
        for n in range(2, 30):
            v0, d0 = sequence_g_boundary(n)
            assert v0 == pytest.approx(1.0 / n - 1.0 / n**2, abs=1e-16) and v0 != 0.0
            assert d0 == 2.0 / n != 0.0
            assert sequence_g(n, 1.0, 0.0) == v0

    def test_vanishes_beyond_cutoff(self):
        assert sequence_g(3, 1.5, 1.5) == 0.0
        assert sequence_g(3, 1.5, 7.0) == 0.0

    def test_pointwise_limit_is_concave_parabola(self):
        x = np.linspace(0.0, 0.999, 500)
        gap = np.max(np.abs(sequence_g(10**7, 1.0, x) - (-(x**2))))
        assert gap < 1e-6

    def test_limit_boundary_data_vanishes(self):
        # the limit -x^2 has value 0 and derivative 0 at the origin
        limit_value = 0.0
        limit_derivative = 0.0
        assert limit_value == 0.0 and limit_derivative == 0.0
        v0s = [sequence_g_boundary(n)[0] for n in (10, 100, 1000)]
        d0s = [sequence_g_boundary(n)[1] for n in (10, 100, 1000)]
        assert all(abs(v) > 0 for v in v0s) and v0s[-1] < 1e-3
        assert all(abs(d) > 0 for d in d0s) and d0s[-1] < 1e-2

    def test_l2_distance_against_quadrature_oracle(self):
        # both members vanish beyond a, so the distance is the integral of
        # the branch difference over [0, a]; the jump point itself has no
        # measure, so the oracle integrates the branch formula directly
        for n, a in ((2, 1.0), (7, 3.0), (50, 0.5)):
            x = np.linspace(0.0, a, 200001)
            diff = (1.0 / n - (x - 1.0 / n) ** 2) - (-(x**2))
            oracle = math.sqrt(float(trapezoid(diff**2, x)))
            assert sequence_g_l2_distance(n, a) == pytest.approx(oracle, rel=1e-7)

    def test_distance_converges_to_zero(self):
        dists = [sequence_g_l2_distance(n, 1.0) for n in (1, 10, 100, 1000)]
        assert all(b < a for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 3e-3
