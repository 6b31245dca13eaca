import math

import numpy as np
import pytest

from lplc.errors import (
    BumpNotInteriorError,
    MissingDerivativeError,
    OutOfRangeError,
)
from lplc.extensions import sequence_f
from lplc.sobolev import (
    BumpTest,
    SampledFunction,
    antiderivative,
    antiderivative_samples,
    check_fundamental_theorem,
    check_weak_derivative,
    w21_report,
)

GRID = np.linspace(0.0, 1.0, 1001)  # h = 1e-3, bump edges on grid points
BUMPS = [BumpTest(0.3, 0.2), BumpTest(0.5, 0.2), BumpTest(0.7, 0.2)]


def sampled(fn, dfn=None, d2fn=None, grid=GRID):
    return SampledFunction(
        grid,
        fn(grid),
        None if dfn is None else dfn(grid),
        None if d2fn is None else d2fn(grid),
    )


class TestFundamentalTheorem:
    def test_square(self):
        f = sampled(lambda x: x**2, lambda x: 2.0 * x)
        assert check_fundamental_theorem(f, 0.0, 1.0) < 1e-6

    def test_kink_with_ae_derivative(self):
        f = sampled(lambda x: np.abs(x - 0.5), lambda x: np.sign(x - 0.5))
        assert check_fundamental_theorem(f, 0.0, 1.0) < 1e-6

    def test_constant_exact(self):
        f = sampled(lambda x: np.full_like(x, 3.25), lambda x: np.zeros_like(x))
        assert check_fundamental_theorem(f, 0.0, 1.0) == 0.0

    def test_h_squared_refinement(self):
        # trapezoid error of sin' over [0, 1] scales as h^2
        res = {}
        for n in (1001, 2001):
            g = np.linspace(0.0, 1.0, n)
            f = SampledFunction(g, np.sin(g), np.cos(g))
            res[n] = check_fundamental_theorem(f, 0.0, 1.0)
        assert res[2001] <= res[1001] / 3.0

    def test_missing_derivative(self):
        f = sampled(lambda x: x**2)
        with pytest.raises(MissingDerivativeError):
            check_fundamental_theorem(f, 0.0, 1.0)


class TestWeakDerivative:
    # The trapezoid error of these checks is (h^2/12)(8/w^2)|u(e2)-u(e1)|
    # from the bump-edge curvature jump, about 4e-6 for order-one data at
    # h = 1e-3, so the asserts use the 10*h^2*magnitude error model.

    def test_classical_derivative(self):
        u = sampled(lambda x: x**2)
        g = sampled(lambda x: 2.0 * x)
        assert check_weak_derivative(u, g, BUMPS) < 1e-5

    def test_kink_against_step(self):
        u = sampled(lambda x: np.abs(x - 0.5))
        g = sampled(lambda x: np.sign(x - 0.5))
        assert check_weak_derivative(u, g, BUMPS) < 1e-5

    def test_wrong_derivative_is_caught(self):
        u = sampled(lambda x: x**2)
        wrong = sampled(lambda x: 2.0 * x + 0.05)
        assert check_weak_derivative(u, wrong, BUMPS) > 1e-3

    def test_antiderivative_of_piecewise_linear(self):
        rng = np.random.default_rng(11)
        h = GRID[1] - GRID[0]
        for _ in range(10):
            knots = np.linspace(0.0, 1.0, 11)  # knots on grid points
            values = rng.uniform(-3.0, 3.0, knots.size)
            g = sampled(lambda x: np.interp(x, knots, values))
            u = antiderivative_samples(g, 0.0)
            bound = 10.0 * h * h * max(1.0, float(np.max(np.abs(g.values))))
            assert check_weak_derivative(u, g, BUMPS) < bound

    def test_bump_must_be_interior(self):
        u = sampled(lambda x: x)
        g = sampled(lambda x: np.ones_like(x))
        with pytest.raises(BumpNotInteriorError):
            check_weak_derivative(u, g, [BumpTest(0.05, 0.2)])


class TestAntiderivative:
    def test_zero(self):
        g = sampled(lambda x: np.zeros_like(x))
        for x in (0.0, 0.25, 1.0):
            assert antiderivative(g, 0.0, x) == 0.0

    def test_constant_one(self):
        g = sampled(lambda x: np.ones_like(x))
        assert antiderivative(g, 0.0, 0.5) == pytest.approx(0.5, abs=1e-12)
        assert antiderivative(g, 0.5, 0.0) == pytest.approx(-0.5, abs=1e-12)

    def test_linear(self):
        g = sampled(lambda x: 2.0 * x)
        assert antiderivative(g, 0.0, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_out_of_range(self):
        g = sampled(lambda x: np.ones_like(x))
        with pytest.raises(OutOfRangeError):
            antiderivative(g, 0.0, 2.0)


W21_GRID = np.geomspace(1e-6, 1.0, 321)


class TestW21Report:
    def test_three_halves_power_in_w21(self):
        # oracle exponents: f'' ~ x^{-1/2} integrates to 2 sqrt(x), finite at 0
        f = SampledFunction(
            W21_GRID,
            W21_GRID**1.5,
            1.5 * W21_GRID**0.5,
            0.75 * W21_GRID**-0.5,
        )
        report = w21_report(f)
        assert report.in_w21 is True
        assert report.verdict() == "w21"
        assert report.failing is None

    def test_minus_third_power_not_w11(self):
        # oracle exponents: f' ~ x^{-4/3} has divergent integral at 0
        f = SampledFunction(
            W21_GRID,
            W21_GRID ** (-1.0 / 3.0),
            (-1.0 / 3.0) * W21_GRID ** (-4.0 / 3.0),
            (4.0 / 9.0) * W21_GRID ** (-7.0 / 3.0),
        )
        report = w21_report(f)
        assert report.in_w11 is False
        assert report.failing == "|f'|"
        assert report.verdict() == "neither"

    def test_constant_in_w21(self):
        f = SampledFunction(
            W21_GRID,
            np.ones_like(W21_GRID),
            np.zeros_like(W21_GRID),
            np.zeros_like(W21_GRID),
        )
        assert w21_report(f).in_w21 is True

    def test_missing_second_derivative(self):
        f = SampledFunction(W21_GRID, W21_GRID, np.ones_like(W21_GRID))
        with pytest.raises(MissingDerivativeError):
            w21_report(f)

    @pytest.mark.parametrize("margin", [-0.5, 1.0, math.nan])
    def test_margin_outside_unit_interval_rejected(self, margin):
        # a negative band would read f' ~ x^{-4/3} (ratio 2) as convergent
        f = SampledFunction(W21_GRID, W21_GRID, np.ones_like(W21_GRID), np.zeros_like(W21_GRID))
        with pytest.raises(ValueError, match="margin"):
            w21_report(f, margin=margin)

    def test_sequence_member_regular_head_vs_singular_limit(self):
        # members carry the x^{3/2} head below 1/n, so their trend toward 0
        # is integrable; the L2 limit x^{-1/3} fails through its derivative
        n, a = 8, 2.0
        grid = np.geomspace(1e-6, a * 0.999, 400)
        head = grid < 1.0 / n
        dvals = np.where(head, 1.5 * grid**0.5, (-1.0 / 3.0) * grid ** (-4.0 / 3.0))
        d2vals = np.where(head, 0.75 * grid**-0.5, (4.0 / 9.0) * grid ** (-7.0 / 3.0))
        member = SampledFunction(grid, sequence_f(n, a, grid), dvals, d2vals)
        assert w21_report(member).in_w11 is True
        limit = SampledFunction(
            grid,
            grid ** (-1.0 / 3.0),
            (-1.0 / 3.0) * grid ** (-4.0 / 3.0),
            (4.0 / 9.0) * grid ** (-7.0 / 3.0),
        )
        assert w21_report(limit).in_w11 is False


class TestWeakDerivativeTheorem:
    def test_integral_defines_weak_derivative(self):
        # the running integral of any sampled g has g as weak derivative
        rng = np.random.default_rng(5)
        for _ in range(5):
            knots = np.linspace(0.0, 1.0, 21)
            g = sampled(lambda x: np.interp(x, knots, rng.uniform(-2, 2, knots.size)))
            u = antiderivative_samples(g, 0.0)
            h = GRID[1] - GRID[0]
            bound = 10.0 * h * h * max(1.0, float(np.max(np.abs(g.values))))
            assert check_weak_derivative(u, g, BUMPS) < bound
