import cmath
import math

import numpy as np
import pytest

import lplc.classify
from lplc import odeint
from lplc.classify import Endpoint, classify_interval, classify_numeric
from lplc.errors import (
    GridMismatchError,
    LplcError,
    MaxStepsExceededError,
    MissingDerivativeError,
    NonFiniteError,
    OutOfRangeError,
    StepUnderflowError,
)
from lplc.odeint import (
    IntegratorConfig,
    build_grid,
    concatenate_traces,
    fundamental_pair,
    green_identity_residual,
    integrate_grid,
    shell_edges,
    wronskian_values,
)
from lplc.potentials import Coulomb, Harmonic, InverseSquare, Potential, PowerLaw, Sum, Tabulated, Zero, effective_potential
from lplc.sobolev import SampledFunction

CFG = IntegratorConfig()

SQRT2 = math.sqrt(2.0)


def simpson(values, ds):
    """Simpson's rule on an even number of pieces of width ds."""
    return ds / 3.0 * (values[0] + values[-1] + 4.0 * math.fsum(values[1:-1:2]) + 2.0 * math.fsum(values[2:-1:2]))


def projection(f, point, odd=(), second=()):
    """The part of f at `point` odd in each name of `odd`, less its terms of order 0 in each name of `second`, which it must hold evenly."""
    if odd:
        name, *rest = odd
        return 0.5 * (projection(f, point, rest, second) - projection(f, {**point, name: -point[name]}, rest, second))
    if second:
        name, *rest = second
        part = lambda value: projection(f, {**point, name: value}, (), rest)
        return 0.5 * (part(point[name]) + part(-point[name])) - part(0.0)
    return f(**point)


def random_polynomial(rng, degree=3, scale=5.0):
    return Sum(
        [PowerLaw(c=float(c), p=float(p)) for p, c in enumerate(rng.uniform(-scale, scale, degree + 1))]
    )


class TestIntegrate:
    def test_linear_solution(self):
        # y'' = 0 with y(0) = 0, y'(0) = 1 is exactly y = x
        t = integrate_grid(Zero(), 0.0, build_grid(Zero(), 0.0, 1.0, CFG), (0.0, 1.0, 0.0), CFG)
        assert t.x[-1] == 1.0
        assert abs(t.values()[-1] - 1.0) < 10 * CFG.rel_tol
        assert abs(t.derivative_values()[-1] - 1.0) < 10 * CFG.rel_tol

    def test_complex_exponential(self):
        # oracle: mu = (i-1)/sqrt(2) satisfies mu^2 = -i, so e^{mu x}
        # solves -y'' = i y; check the oracle itself first
        mu = (1j - 1.0) / SQRT2
        assert abs(mu * mu + 1j) < 1e-15
        t = integrate_grid(Zero(), 1j, build_grid(Zero(), 0.0, 5.0, CFG), (1.0, mu, 0.0), CFG)
        exact = cmath.exp(mu * 5.0)
        assert abs(t.values()[-1] - exact) / abs(exact) < 10 * CFG.rel_tol

    def test_inverse_square_power_solution(self):
        # oracle: differentiate y = x^2 symbolically: -(2) + (2/x^2) x^2 = 0,
        # so y = x^2 solves -y'' + 2 y / x^2 = 0 with y(1) = 1, y'(1) = 2
        t = integrate_grid(InverseSquare(2.0), 0.0, build_grid(InverseSquare(2.0), 1.0, 2.0, CFG), (1.0, 2.0, 0.0), CFG)
        assert abs(t.values()[-1] - 4.0) / 4.0 < 10 * CFG.rel_tol

    def test_rejects_equal_bounds(self):
        with pytest.raises(ValueError):
            integrate_grid(Zero(), 0.0, build_grid(Zero(), 1.0, 1.0, CFG), (1.0, 0.0, 0.0), CFG)

    def test_max_steps_exceeded(self):
        # a Magnus step is exact for constant q, so a fast-varying q exhausts the budget
        cfg = IntegratorConfig(max_steps=1000)
        q = PowerLaw(-1e8, 1.0)
        with pytest.raises(MaxStepsExceededError, match=r"budget of 1000 attempted steps exhausted at x=0\.05"):
            integrate_grid(q, 0.0, build_grid(q, 0.0, 10.0, cfg), (1.0, 0.0, 0.0), cfg)

    def test_step_underflow_on_unresolvable_grid(self):
        # a 4-ulp recording interval at x = 1e16 cannot be resolved
        with pytest.raises(StepUnderflowError):
            integrate_grid(Zero(), 0.0, [1e16, 1e16 + 4.0], (1.0, 0.0, 0.0), CFG)

    def test_potential_evaluation_propagates(self):
        from lplc.errors import OutOfRangeError
        from lplc.potentials import Tabulated

        q = Tabulated([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0, 0.0])
        with pytest.raises(OutOfRangeError):
            integrate_grid(q, 0.0, [2.5, 3.5], (1.0, 0.0, 0.0), CFG)


class TestBreakpoints:
    class Recording(Potential):
        """A table that records where it is evaluated."""

        def __init__(self, table):
            self.table, self.xs = table, []

        def _raw(self, x):
            self.xs.append(x)
            return self.table._raw(x)

        def breakpoints(self):
            return self.table.breakpoints()

    @pytest.mark.parametrize("x0, x1", [(0.1, 2.9), (2.9, 0.1)])
    def test_no_step_crosses_a_knot(self, x0, x1):
        from lplc.potentials import Tabulated

        q = self.Recording(Tabulated([0.0, 0.7, 1.0, 2.2, 3.0], [1.0, -2.0, 3.0, 0.5, 4.0]))
        integrate_grid(q, 1j, [x0, x1], (1.0, 0.0, 0.0), CFG)
        # the first evaluation sizes the first step; then each attempt takes three nodes
        nodes = q.xs[1:]
        assert len(nodes) % 3 == 0 and len(nodes) > 30
        for k in range(0, len(nodes), 3):
            step = nodes[k : k + 3]
            for knot in q.breakpoints():
                assert all(x < knot for x in step) or all(x > knot for x in step), (step, knot)

    def test_table_march_matches_a_tight_one(self):
        # q is linear between the knots, so with knot-aware steps the march
        # at the default tolerance agrees with one a thousand times tighter
        from lplc.potentials import Tabulated

        xs = [0.2 + 0.1 * k for k in range(41)]
        q = Tabulated(xs, [math.sin(3.0 * x) + 0.5 * math.cos(7.0 * x) for x in xs])
        edges = shell_edges(1.0, 4.2, CFG)[:13]
        loose = integrate_grid(q, 1j, edges, (1.0, 0.0, 0.0), CFG).log_square_integrals
        tight_cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15)
        tight = integrate_grid(q, 1j, edges, (1.0, 0.0, 0.0), tight_cfg).log_square_integrals
        assert max(abs(a - b) for a, b in zip(loose, tight)) < 1e-8


class TestStepIntegral:
    """The |y|^2 integral of a step: the frozen solution's closed form plus its defect terms."""

    Y0, DY0 = 1.0, 0.5 - 0.3j

    def fine_log_integral(self, q, dy0, x0, h, n=2000):
        """log of the integral of |y|^2 over [x0, x0 + h], by RK4 and Simpson's rule on n pieces."""
        f = lambda x, y: (q._raw(x) - 1j) * y
        dx = h / n
        y, dy = complex(self.Y0), complex(dy0)
        squares = [abs(y) ** 2]
        for k in range(n):
            x = x0 + k * dx
            k1y, k1d = dy, f(x, y)
            k2y, k2d = dy + 0.5 * dx * k1d, f(x + 0.5 * dx, y + 0.5 * dx * k1y)
            k3y, k3d = dy + 0.5 * dx * k2d, f(x + 0.5 * dx, y + 0.5 * dx * k2y)
            k4y, k4d = dy + dx * k3d, f(x + dx, y + dx * k3y)
            y += dx / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            dy += dx / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
            squares.append(abs(y) ** 2)
        return math.log(simpson(squares, abs(dx)))

    def one_step_log_integral(self, q, dy0, x0, h):
        stepper = odeint._Stepper(q, 1j, IntegratorConfig(rel_tol=1.0, abs_tol=1.0))
        stepper.h = 2.0 * h
        log_integral = stepper.advance(x0, x0 + h, [(self.Y0, dy0, 0.0)])[0][3]
        assert stepper.steps == 1
        return log_integral

    @pytest.mark.parametrize(
        "q, dy0",
        [
            (PowerLaw(1.0, 1.0), DY0),
            (PowerLaw(-3.0, 1.0), DY0),
            (Harmonic(1.0), DY0),
            (Harmonic(-5.0), DY0),
            # a steep q and a large y': the term g1 Re(g0 w conj(y)) / 1260 matters
            (PowerLaw(-5.0, 1.0), 3.0),
        ],
        ids=["q0", "q1", "q2", "q3", "steep-q-large-dy"],
    )
    def test_one_step_matches_a_fine_quadrature(self, q, dy0):
        # for linear and quadratic q the three nodes interpolate q exactly;
        # the defect terms run to the sixth power of h, so the relative
        # error of the step integral falls about 2^7 times per halving
        # (2^5 for the frozen solution alone, and a tenth off in any term
        # of _weighted_defect that stays at k = 0 with real g1 and g2
        # moves the ratio out of this range)
        errors = [self.one_step_log_integral(q, dy0, 1.0, h) - self.fine_log_integral(q, dy0, 1.0, h) for h in (0.1, 0.05)]
        assert abs(errors[0]) < 1e-7 and 110.0 < errors[0] / errors[1] < 160.0

    @pytest.mark.parametrize(
        "q, x0, dy0",
        [
            (PowerLaw(3.0, -1.5), 0.3, DY0),
            (Coulomb(-2.0), 0.4, 3.0),
            (Sum([Coulomb(-1.0), InverseSquare(2.0)]), 0.5, 1.0),
            (PowerLaw(-1.0, -1.9), 0.2, 2.0 + 1.0j),
            (Sum([Coulomb(2.0), InverseSquare(2.0)]), -0.5, 1.0),  # toward 0 from the left
        ],
        ids=["power", "coulomb", "sum", "near-inverse-square", "left-of-zero"],
    )
    def test_one_euler_step_matches_a_fine_quadrature(self, q, x0, dy0):
        # a step of length h in t = -ln |x| toward 0 integrates
        # e^(-2 h s) |w|^2 with the defect terms of a complex f; its error
        # falls about 2^7 times per halving of h, as in x
        errors = []
        for h in (0.2, 0.1):
            x1 = x0 * math.exp(-h)
            stepper = odeint._Stepper(q, 1j, IntegratorConfig(rel_tol=1.0, abs_tol=1.0), 0.0)
            stepper.h = 2.0 * h
            log_integral = stepper.advance(x0, x1, [(self.Y0, dy0, 0.0)])[0][3]
            assert stepper.end == 0.0 and stepper.steps == 1
            errors.append(log_integral - self.fine_log_integral(q, dy0, x0, x1 - x0, n=4000))
        assert abs(errors[0]) < 1e-7 and 110.0 < errors[0] / errors[1] < 160.0

    @pytest.mark.parametrize("q", [InverseSquare(0.7), PowerLaw(-0.5, -1.2), Sum([Coulomb(-1.0), InverseSquare(-0.25)])])
    def test_euler_shell_matches_a_tight_x_march(self, q):
        # the state comes back in x at the shell's far edge: y, y' and the log integral
        tight = odeint._Stepper(q, 1j, IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15))
        euler = odeint._Stepper(q, 1j, CFG, 0.0)
        state = [(1.0, 0.5, 0.0)]
        for x0, x1 in ((0.5, 0.25), (0.25, 0.125)):
            (y, dy, scale, log), = euler.advance(x0, x1, state)
            (ty, tdy, tscale, tlog), = tight.advance(x0, x1, state)
            state = [(y, dy, scale)]
            assert abs(y * math.exp(scale) - ty * math.exp(tscale)) < 1e-9 * abs(ty * math.exp(tscale))
            assert abs(dy * math.exp(scale) - tdy * math.exp(tscale)) < 1e-9 * abs(tdy * math.exp(tscale))
            assert abs(log - tlog) < 1e-9

    @pytest.mark.parametrize(
        "q, grid, bound",
        [
            # q = -x near 1e4 oscillates 100 times per unit and barely varies:
            # without the bound on |h^2 (q - l)| the defect terms leave the
            # range of their series and the march reads 2e-9 off
            (PowerLaw(-1.0, 1.0), [1e4 + k for k in range(9)], 1e-10),
            # q = -x^4 toward +inf from 1: three shells, about 470 oscillations
            (PowerLaw(-1.0, 4.0), [1.0, 2.0, 4.0, 8.0], 1e-8),
        ],
    )
    def test_oscillatory_march_matches_a_tight_one(self, q, grid, bound):
        loose = integrate_grid(q, 1j, grid, (1.0, 0.0, 0.0), CFG).log_square_integrals
        tight_cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15)
        tight = integrate_grid(q, 1j, grid, (1.0, 0.0, 0.0), tight_cfg).log_square_integrals
        assert max(abs(a - b) for a, b in zip(loose, tight)) < bound

    @pytest.mark.parametrize("k", [0.0, 0.4, -0.4])
    @pytest.mark.parametrize(
        "mu",
        [0.0, 0.015 + 0.008j, 0.02j, 0.022 + 0.005j, 0.7, 1.1j, 0.9 - 0.6j],
        ids=["zero", "series", "series-imaginary", "above-the-switch", "real", "imaginary", "complex"],
    )
    def test_weighted_square_integral_matches_simpson(self, mu, k):
        # |mu|^2 is 2.9e-4 and 4e-4 below the series switch at 1/2048 = 4.9e-4,
        # and 5.1e-4 just above it, where C - c cancels most; the docstring's
        # bound is 2e-12 relative
        y, v, n = 1.0 - 0.2j, 0.5 - 0.3j, 2000
        shc = lambda s: cmath.sinh(mu * s) / mu if mu else s
        values = [math.exp(k * s) * abs(y * cmath.cosh(mu * s) + v * shc(s)) ** 2 for s in (j / n for j in range(n + 1))]
        want = simpson(values, 1.0 / n)
        assert abs(odeint._weighted_square_integral(complex(mu), k, y, v) - want) <= 2e-12 * want

    @staticmethod
    def fine_defect(g0=0.0, g1=0.0, g2=0.0, k=0.0, w=0.0, n=200):
        """The integral of e^(k s) |y|^2 over s in [0, 1], true solution minus frozen one, by RK4 and Simpson's rule.

        y'' = g(s) y with g = g0 + g1 (s - 1/2) + g2 (s - 1/2)^2, y(0) = 1
        and y'(0) = w. The frozen generator is the log of the propagator
        over the step, which differs from the stepper's sixth-order one at
        the seventh power of the step, beyond the defect's terms.
        """
        g = lambda s: g0 + g1 * (s - 0.5) + g2 * (s - 0.5) ** 2
        ds = 1.0 / n
        f = lambda s, cols: [(dy, g(s) * y) for y, dy in cols]
        shift = lambda cols, ks, c: [(y + c * ky, dy + c * kd) for (y, dy), (ky, kd) in zip(cols, ks)]
        cols = [(1.0 + 0j, 0j), (0j, 1.0 + 0j)]  # the fundamental matrix, column by column
        true = [1.0]
        for j in range(n):
            s = j * ds
            k1 = f(s, cols)
            k2 = f(s + 0.5 * ds, shift(cols, k1, 0.5 * ds))
            k3 = f(s + 0.5 * ds, shift(cols, k2, 0.5 * ds))
            k4 = f(s + ds, shift(cols, k3, ds))
            cols = shift(cols, [tuple(a + 2.0 * b + 2.0 * c + d for a, b, c, d in zip(*ks)) for ks in zip(k1, k2, k3, k4)], ds / 6.0)
            true.append(math.exp(k * (s + ds)) * abs(cols[0][0] + w * cols[1][0]) ** 2)
        # exp(Omega) = cosh(mu) I + sinh(mu) / mu Omega, and Omega's first row applied to (1, w) is v
        (p11, p21), (p12, p22) = cols
        mu = cmath.acosh(0.5 * (p11 + p22))
        shc = cmath.sinh(mu) / mu
        v = ((p11 - p22) / 2.0 + w * p12) / shc
        frozen = [math.exp(k * s) * abs(cmath.cosh(mu * s) + v * cmath.sinh(mu * s) / mu) ** 2 for s in (j * ds for j in range(n + 1))]
        return simpson(true, ds) - simpson(frozen, ds)

    @pytest.mark.parametrize(
        "point, odd, second",
        [
            ({"g1": 1.0j}, (), ()),
            ({"g0": 0.3j, "g1": 1.0j, "k": 0.3}, ("g0", "k"), ()),
            ({"g0": 0.3j, "g1": 1.0j, "w": 0.3}, ("g0", "w"), ()),
            ({"g2": 1.0j, "k": 0.2, "w": 0.1j}, ("g2", "k"), ()),
            ({"g1": 1.0j, "k": 0.3, "w": 0.3j}, ("g1",), ("k",)),
            ({"g0": 0.3, "g1": 1.0j, "w": 0.3j}, ("g0", "g1"), ()),
        ],
        ids=["qq-2520", "bqk-756", "qb-3780", "ks-7560", "qkk-2520", "qa-3780"],
    )
    def test_weighted_defect_term_matches_a_fine_defect(self, point, odd, second):
        # g0 = a + i b, g1 = p + i q and g2 = r + i s. With y = 1, each case
        # keeps the one sixth-order term of its id: the inputs it needs, and
        # the part odd in some of them (or of second order in k), which
        # drops every lower term; what is left is of the seventh power of
        # the step or higher. These terms hold Im g1 or Im g2, which at
        # l = i make the one-step tests above too small to see; a tenth
        # off in any fails the 2 % bound here.
        code = lambda g0=0.0, g1=0.0, g2=0.0, k=0.0, w=0.0: odeint._weighted_defect(complex(g0), complex(g1), complex(g2), k, 1.0 + 0j, complex(w))
        want = projection(self.fine_defect, point, odd, second)
        assert abs(projection(code, point, odd, second) - want) <= 0.02 * abs(want)


class TestFrameRule:
    """A stepper steps in t = -ln |x - end| toward a finite end where q does not evaluate, else in x."""

    @pytest.mark.parametrize(
        "q, toward, end",
        [
            (InverseSquare(2.0), 0.0, 0.0),
            (Coulomb(-1.0), 0.0, 0.0),
            (PowerLaw(1.0, -0.5), 0.0, 0.0),  # an integrable singularity still fails to evaluate
            (InverseSquare(0.0), 0.0, None),  # 0 everywhere
            (Harmonic(1.0), 0.0, None),
            (InverseSquare(2.0), 1.0, None),
            (InverseSquare(2.0), math.inf, None),
            (InverseSquare(2.0), None, None),
            (Tabulated([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 4.0, 9.0]), 5.0, None),  # beyond the table
        ],
    )
    def test_frame_follows_evaluate_at_the_end(self, q, toward, end):
        assert odeint._Stepper(q, 1j, CFG, toward).end == end

    @pytest.mark.parametrize("x1", [0.0, -0.25])
    def test_euler_advance_stays_on_one_side_of_the_end(self, x1):
        stepper = odeint._Stepper(InverseSquare(2.0), 1j, CFG, 0.0)
        with pytest.raises(ValueError, match="must lie on one side of the end 0.0"):
            stepper.advance(0.5, x1, [(1.0, 0.0, 0.0)])


class TestConfig:
    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol", "max_steps", "x_min", "x_max"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_field_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            IntegratorConfig(**{field: value})


class TestGrids:
    def test_geometric_toward_singular_endpoint(self):
        grid = build_grid(InverseSquare(1.0), 1.0, 0.0, CFG)
        assert grid[0] == 1.0
        assert grid[-1] >= CFG.x_min  # singular endpoint never reached
        spacing = -np.diff(grid)
        ratios = spacing[1:] / spacing[:-1]
        assert np.allclose(ratios, 0.5, rtol=1e-9)

    def test_regular_endpoint_is_reached(self):
        grid = build_grid(Zero(), 0.0, 1.0, CFG)
        assert grid[-1] == 1.0

    def test_log_uniform_toward_infinity(self):
        grid = build_grid(Zero(), 1.0, math.inf, CFG)
        assert grid[-1] == CFG.x_max
        interior = grid[:-1]
        ratios = interior[1:] / interior[:-1]
        assert np.allclose(ratios, 2.0, rtol=1e-9)

    @pytest.mark.parametrize(
        "q, x_start, x_end",
        [(InverseSquare(1.0), 0.7, 0.0), (Zero(), 0.3, 1.0), (Coulomb(1.0), 3.1, 2.0)],
    )
    def test_every_shell_edge_is_exact_toward_finite_target(self, q, x_start, x_end):
        grid = build_grid(q, x_start, x_end, CFG)
        d = abs(x_end - x_start)
        sign = 1.0 if x_start > x_end else -1.0
        edges = grid[:-1]
        assert edges.size > 20
        assert edges[0] == x_start
        for k, edge in enumerate(edges[1:], start=1):
            assert edge == x_end + sign * d * 2.0**-k, k

    def test_first_edge_is_the_start_itself(self):
        # 1.0 - (1.0 - 0.3) is 0.30000000000000004, one ulp off the start
        assert shell_edges(0.3, 1.0, CFG)[0] == 0.3
        assert fundamental_pair(Zero(), 1j, 0.3, 1.0, CFG)[0].x[0] == 0.3

    @pytest.mark.parametrize("x_start, x_end", [(1.5, math.inf), (-1.5, -math.inf), (0.3, math.inf)])
    def test_every_shell_edge_is_exact_toward_infinity(self, x_start, x_end):
        grid = build_grid(Zero(), x_start, x_end, CFG)
        edges = grid[:-1]
        assert edges.size > 10
        for k, edge in enumerate(edges):
            assert edge == x_start * 2.0**k, k
        assert abs(grid[-1]) == CFG.x_max

    def test_reachability_probe_lets_genuine_bugs_through(self):
        class Broken(Potential):
            def _raw(self, x):
                raise RuntimeError("bug inside the potential")

        with pytest.raises(RuntimeError, match="bug inside"):
            build_grid(Broken(), 1.0, 0.0, CFG)

    @pytest.mark.parametrize("x_start, x_end", [(0.0, math.inf), (-1.0, math.inf), (1.0, -math.inf)])
    def test_start_on_the_far_side_of_zero_rejected(self, x_start, x_end):
        with pytest.raises(ValueError, match="must lie on the side of 0"):
            shell_edges(x_start, x_end, CFG)
        with pytest.raises(ValueError, match="must lie on the side of 0"):
            build_grid(Zero(), x_start, x_end, CFG)

    def test_mirror_toward_minus_infinity(self):
        grid = build_grid(Zero(), -1.0, -math.inf, CFG)
        assert grid[0] == -1.0
        assert grid[-1] == -CFG.x_max
        assert np.all(np.diff(grid) < 0)

    @pytest.mark.parametrize(
        "x_start, x_end, cfg",
        [
            (0.5, 0.0, IntegratorConfig(x_min=1e-320)),  # 0.5 / x_min overflows
            (1e-320, math.inf, CFG),  # x_max / 1e-320 overflows
            (-1e-320, -math.inf, CFG),
            (1e-320, 0.0, IntegratorConfig(x_min=1e300)),  # 1e-320 / x_min underflows
        ],
    )
    def test_whole_shells_counted_when_the_quotient_leaves_float_range(self, x_start, x_end, cfg):
        edges = shell_edges(x_start, x_end, cfg)
        n = len(edges) - 1
        if math.isinf(x_end):
            assert [abs(e) for e in edges] == [math.ldexp(abs(x_start), k) for k in range(n + 1)]
            assert abs(edges[-1]) <= cfg.x_max < 2.0 * abs(edges[-1])
        else:
            distance = abs(x_end - x_start)
            assert math.ldexp(distance, -n - 1) < cfg.x_min
            assert n == 0 or math.ldexp(distance, -n) >= cfg.x_min

    @pytest.mark.parametrize("x_start, x_end", [(0.5, 1.0), (1.5, 1.0), (-0.5, -1.0), (3.0, 1e6)])
    def test_edges_stop_at_the_float_resolution(self, x_start, x_end):
        # d * 2^-k would fall below an ulp of the end long before x_min
        edges = shell_edges(x_start, x_end, IntegratorConfig(x_min=1e-20))
        direction = 1.0 if x_end > x_start else -1.0
        shells = list(zip(edges, edges[1:]))
        assert all(direction * (x1 - x0) > 64.0 * odeint._EPS * max(abs(x0), abs(x1)) for x0, x1 in shells)
        # the next edge would have been too close to its predecessor
        nxt = x_end - direction * math.ldexp(abs(x_end - x_start), -len(edges))
        assert abs(nxt - edges[-1]) <= 64.0 * odeint._EPS * max(abs(nxt), abs(edges[-1]))

    def test_edges_toward_the_origin_reach_x_min(self):
        # toward 0 every edge is exact, so the resolution never stops the shells
        edges = shell_edges(0.5, 0.0, IntegratorConfig(x_min=1e-20))
        assert edges[-1] >= 1e-20 > edges[-1] / 2.0


class TestFundamentalPair:
    def test_anchor_wronskian_is_exactly_one(self):
        t1, t2 = fundamental_pair(Zero(), 0.0, 1.0, 0.0, CFG)
        assert t1.x[0] == 1.0
        assert wronskian_values(t1, t2)[0] == 1.0 + 0.0j

    def test_free_pair_toward_origin(self):
        # y'' = 0: data (1,0) gives the constant 1, data (0,1) gives x - 1
        t1, t2 = fundamental_pair(Zero(), 0.0, 1.0, 0.0, CFG)
        assert abs(t1.values()[-1] - 1.0) < 1e-8
        assert abs(t2.values()[-1] - (-1.0)) < 1e-8
        assert abs(t2.derivative_values()[-1] - 1.0) < 1e-8

    def test_span_matches_characteristic_roots(self):
        # oracle: mu = (1-i)/sqrt(2) has mu^2 = -i, so solutions of
        # -y'' = i y are spanned by e^{+-mu x}; a trace lies in that span
        # iff its Wronskian against each mode is constant in x.
        mu = (1.0 - 1j) / SQRT2
        assert abs(mu * mu + 1j) < 1e-15
        cfg = IntegratorConfig(x_max=8.0)
        traces = fundamental_pair(Zero(), 1j, 1.0, math.inf, cfg)
        for t in traces:
            vals = t.values()
            dvals = t.derivative_values()
            for root in (mu, -mu):
                mode = np.exp(root * np.asarray(t.x))
                w = vals * root * mode - dvals * mode
                drift = np.max(np.abs(w - w[0]))
                assert drift < 1e-8 * (1.0 + abs(w[0]))


class TestSharedMarch:
    """A fundamental pair: both columns marched on one step sequence, with one propagator per step."""

    @pytest.mark.parametrize(
        "q, x0, target",
        [
            (Coulomb(-1.0), 1.0, 0.0),
            (Coulomb(2.0), 0.5, 8.0),
            (InverseSquare(-0.2), 1.0, 1e-4),
            (InverseSquare(0.5), 1.0, 1e-2),
            (InverseSquare(2.0), 1.0, 1e-2),
        ],
    )
    def test_det_y_stays_one(self, q, x0, target):
        # Abel: the Wronskian det Y of the pair is constant, 1 at the anchor
        det_y = wronskian_values(*fundamental_pair(q, 1j, x0, target, CFG))
        assert np.max(np.abs(det_y - 1.0)) < 1e3 * CFG.rel_tol


class TestOneSteppingEntry:
    """_Stepper.advance is the one stepping entry: a wrap of it sees every march."""

    @pytest.fixture
    def widths(self, monkeypatch):
        """The number of states of each advance() call."""
        seen = []
        advance = odeint._Stepper.advance

        def wrapped(stepper, x0, x1, states):
            seen.append(len(states))
            return advance(stepper, x0, x1, states)

        monkeypatch.setattr(odeint._Stepper, "advance", wrapped)
        return seen

    def test_classify_interval_marches_one_state_per_shell(self, widths):
        report = classify_interval(Zero(), 0.0, 4.0, engine="numeric")
        shells = len(report.left.tail.log_shell_integrals) + len(report.right.tail.log_shell_integrals)
        assert widths == [1] * shells

    def test_fundamental_pair_marches_both_columns_together(self, widths):
        t1, _ = fundamental_pair(Coulomb(2.0), 1j, 0.5, 8.0, CFG)
        assert widths == [2] * (len(t1.x) - 1)


class TestOneExponentialPerAttempt:
    """An attempted step builds one exponential; its error comes from the generator's sixth-order terms."""

    @pytest.mark.parametrize(
        "q, end, anchor, frame_end",
        [
            (InverseSquare(2.0), Endpoint(0.0, "left"), 0.5, 0.0),  # Euler frame
            (Harmonic(1.0), Endpoint(math.inf, "right"), 1.0, None),  # x frame
        ],
    )
    def test_cosh_sinhc_runs_at_most_once_per_attempted_step(self, q, end, anchor, frame_end, monkeypatch):
        steppers = []
        calls = []
        cosh_sinhc = odeint._cosh_sinhc

        class Counted(odeint._Stepper):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                steppers.append(self)

        def counted(mu):
            calls.append(mu)
            return cosh_sinhc(mu)

        monkeypatch.setattr(lplc.classify, "_Stepper", Counted)
        monkeypatch.setattr(odeint, "_cosh_sinhc", counted)
        classify_numeric(q, end, anchor, CFG)
        assert [s.end for s in steppers] == [frame_end]
        assert 0 < len(calls) <= steppers[0].steps


def counted_steppers(monkeypatch):
    """Every _Stepper classify builds, in order of construction."""
    steppers = []

    class Counted(odeint._Stepper):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            steppers.append(self)

    monkeypatch.setattr(lplc.classify, "_Stepper", Counted)
    return steppers


class TestGreenShellIntegrals:
    """Toward +-inf a shell's integral of |y|^2 is Green's boundary term of the states at its edges.

    For a real q, Im(conj(y) y')' = -Im(l) |y|^2, so the integral over a
    shell is (F(x0) - F(x1)) / Im(l) with F = Im(conj(y) y'), and no step
    adds one up.
    """

    @pytest.mark.parametrize(
        "q, end, anchor",
        [
            (Harmonic(1.0), math.inf, 1.0),
            (Harmonic(1e4), math.inf, 1.0),
            (effective_potential(Coulomb(-1.0), 3, 2).q_eff, math.inf, 1.0),
            (PowerLaw(-1.0, 1.0), math.inf, 1.0),  # oscillatory
            (effective_potential(Zero(), 3, 1000).q_eff, math.inf, 1.0),  # centrifugal, l = 1000
            (Harmonic(1.0), -math.inf, -1.0),
        ],
        ids=["harmonic", "harmonic-1e4", "coulomb-centrifugal", "oscillatory", "centrifugal-1000", "harmonic-minus-inf"],
    )
    def test_green_march_matches_the_quadrature_march(self, q, end, anchor, monkeypatch):
        # the same steps and states as a standalone march over the same
        # edges, which integrates |y|^2 inside its steps; only the logs differ
        steppers = counted_steppers(monkeypatch)
        states = []
        shell = lplc.classify.integrate_grid

        def recorded(*args, **kwargs):
            trace = shell(*args, **kwargs)
            states.append((trace.y[-1], trace.dy[-1], trace.log_scale[-1]))
            return trace

        monkeypatch.setattr(lplc.classify, "integrate_grid", recorded)
        logs = classify_numeric(q, Endpoint(end, "right" if end > 0 else "left"), anchor, CFG).tail.log_shell_integrals
        (green,) = steppers
        quadrature = odeint._Stepper(q, 1j, CFG)
        edges = shell_edges(anchor, end, CFG)[: len(logs) + 1]
        trace = integrate_grid(q, 1j, edges, (1.0, 0.0, 0.0), CFG, _stepper=quadrature)
        assert green.green and not quadrature.green
        assert green.steps == quadrature.steps
        assert states == list(zip(trace.y, trace.dy, trace.log_scale))[1:]
        for got, want in zip(logs, trace.log_square_integrals, strict=True):
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_steppers_toward_infinity_add_up_no_square_integral(self, monkeypatch):
        # the name and the weight's exponent k of every step-integral call
        calls = []
        both = {"_weighted_square_integral", "_weighted_defect"}
        for name, k_at in (("_weighted_square_integral", 1), ("_weighted_defect", 3)):
            original = getattr(odeint, name)
            monkeypatch.setattr(odeint, name, lambda *args, _f=original, _n=name, _k=k_at: calls.append((_n, args[_k])) or _f(*args))
        steppers = counted_steppers(monkeypatch)
        classify_numeric(Harmonic(1.0), Endpoint(math.inf, "right"), 1.0, CFG)
        classify_numeric(Harmonic(1.0), Endpoint(-math.inf, "left"), -1.0, CFG)
        assert [s.green for s in steppers] == [True, True] and all(s.steps > 0 for s in steppers)
        assert calls == []
        # a regular finite end, a standalone march and a real l toward +inf
        # still sum inside the steps, in x, where the weight is 1: k == 0
        regular = odeint._Stepper(Harmonic(1.0), 1j, CFG, 2.0)
        regular.advance(1.0, 1.5, [(1.0, 0.0, 0.0)])
        assert regular.end is None and {name for name, _ in calls} == both
        assert all(k == 0.0 for _, k in calls)
        calls.clear()
        integrate_grid(Harmonic(1.0), 1j, [1.0, 2.0, 4.0], (1.0, 0.0, 0.0), CFG)
        assert {name for name, _ in calls} == both
        calls.clear()
        real = odeint._Stepper(Harmonic(1.0), 2.0, CFG, math.inf)
        real.advance(1.0, 2.0, [(1.0, 0.0, 0.0)])
        assert not real.green and {name for name, _ in calls} == both

    def test_boundary_term_in_the_log_domain(self):
        # F0 = 3, F1 = 1 at one scale: the integral is 2; toward -inf the sign flips
        assert odeint._green_log_integral(3.0, 0.0, 1.0, 0.0, 1.0, 1.0, 2.0) == math.log(2.0)
        assert odeint._green_log_integral(1.0, 0.0, 3.0, 0.0, -1.0, 1.0, -2.0) == math.log(2.0)
        # scales far beyond float range, and Im(l) = -1/2
        log = odeint._green_log_integral(0.5, 400.0, 1.0, 500.0, 1.0, -0.5, 2.0)
        assert log == pytest.approx(1000.0 + math.log(2.0 * (1.0 - 0.5 * math.exp(-200.0))), abs=1e-12)

    @pytest.mark.parametrize(
        "f0, s0, f1, s1, sign",
        [
            (1.0, 0.0, 1.0, 0.0, 1.0),  # full cancellation: the difference is 0
            (1.0, 0.0, 2.0, 0.0, 1.0),  # rounding left a negative difference
            (2.0, 0.0, 1.0, 0.0, -1.0),  # the same, marched toward -inf
            (1.0, 0.0, 1.0, 10.0, 1.0),
            (math.nan, 0.0, 1.0, 0.0, 1.0),
        ],
    )
    def test_a_cancelled_boundary_term_raises_and_never_reads_minus_inf(self, f0, s0, f1, s1, sign):
        with pytest.raises(NonFiniteError, match="x=7.5") as caught:
            odeint._green_log_integral(f0, s0, f1, s1, sign, 1.0, 7.5)
        assert isinstance(caught.value, LplcError)


class TestWronskian:
    def test_linear_against_constant(self):
        # y1 = x (shifted: x - 1 + 1 from data (1,1)) vs y2 = 1: W = -1
        grid = build_grid(Zero(), 1.0, 2.0, CFG)
        t1 = integrate_grid(Zero(), 0.0, grid, (1.0, 1.0, 0.0), CFG)  # y = x
        t2 = integrate_grid(Zero(), 0.0, grid, (1.0, 0.0, 0.0), CFG)  # y = 1
        assert np.max(np.abs(wronskian_values(t1, t2) - (-1.0))) < 1e-8

    def test_self_wronskian_vanishes(self):
        t1, _ = fundamental_pair(Zero(), 1j, 1.0, 2.0, CFG)
        # y y' - y' y: zero up to the rounding of numpy's complex products
        bound = 4 * np.finfo(float).eps * np.abs(t1.values() * t1.derivative_values())
        assert np.all(np.abs(wronskian_values(t1, t1)) <= bound)

    def test_grid_mismatch(self):
        t1, _ = fundamental_pair(Zero(), 0.0, 1.0, 0.0, CFG)
        t2, _ = fundamental_pair(Zero(), 0.0, 1.0, 2.0, CFG)
        with pytest.raises(GridMismatchError):
            wronskian_values(t1, t2)

    def test_eigenvalue_mismatch_rejected(self):
        t1, _ = fundamental_pair(Zero(), 1j, 1.0, 2.0, CFG)
        t2, _ = fundamental_pair(Zero(), 2j, 1.0, 2.0, CFG)
        with pytest.raises(ValueError):
            wronskian_values(t1, t2)

    def test_constancy_along_random_polynomial_suite(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            q = random_polynomial(rng)
            t1, t2 = fundamental_pair(q, 1j, 0.5, 1.0, CFG)
            w = wronskian_values(t1, t2)
            drift = np.max(np.abs(w - w[0])) / abs(w[0])
            assert drift < 1e3 * CFG.rel_tol


class TestInvariants:
    def test_linearity(self):
        a, b = 1.3 - 0.7j, -0.4 + 2.1j
        q = Coulomb(-1.0)
        grid = build_grid(q, 0.5, 1.5, CFG)
        t1 = integrate_grid(q, 1j, grid, (1.0, 0.0, 0.0), CFG)
        t2 = integrate_grid(q, 1j, grid, (0.0, 1.0, 0.0), CFG)
        t3 = integrate_grid(q, 1j, grid, (a, b, 0.0), CFG)
        combined = a * t1.values() + b * t2.values()
        scale = np.max(np.abs(combined))
        assert np.max(np.abs(t3.values() - combined)) < 10 * CFG.rel_tol * scale

    def test_rescale_transparency(self, monkeypatch):
        cfg = IntegratorConfig(x_max=12.0)
        grid = build_grid(Zero(), 1.0, math.inf, cfg)
        monkeypatch.setattr(odeint, "_RESCALE_BAND", 10.0)
        t_tight = integrate_grid(Zero(), 1j, grid, (1.0, 0.0, 0.0), cfg)
        monkeypatch.setattr(odeint, "_RESCALE_BAND", 1e12)
        t_loose = integrate_grid(Zero(), 1j, grid, (1.0, 0.0, 0.0), cfg)
        assert np.max(np.abs(t_tight.log_scale)) > 0.0  # rescaling actually fired
        assert np.all(np.asarray(t_loose.log_scale) == 0.0)
        v1, v2 = t_tight.values(), t_loose.values()
        rel = np.abs(v1 - v2) / np.maximum(np.abs(v2), 1e-300)
        assert np.max(rel) < 10 * cfg.rel_tol

    def test_band_invariant_after_rescale(self):
        cfg = IntegratorConfig(x_max=50.0)
        t = integrate_grid(Zero(), 1j, build_grid(Zero(), 1.0, math.inf, cfg), (1.0, 0.5, 0.0), cfg)
        magnitude = np.abs(t.y) + np.abs(t.dy)
        assert np.all(magnitude <= odeint._RESCALE_BAND * (1 + 1e-12))
        assert np.all(magnitude >= 1.0 / odeint._RESCALE_BAND * (1 - 1e-12))

    def test_conjugation_symmetry(self):
        q = Coulomb(1.0)
        grid = build_grid(q, 0.5, 2.0, CFG)
        y0, dy0 = 1.0 + 0.5j, -0.25 + 1.0j
        t = integrate_grid(q, 1j, grid, (y0, dy0, 0.0), CFG)
        tc = integrate_grid(q, -1j, grid, (y0.conjugate(), dy0.conjugate(), 0.0), CFG)
        assert np.array_equal(tc.y, np.conj(t.y))
        assert np.array_equal(tc.dy, np.conj(t.dy))
        assert np.array_equal(tc.log_scale, t.log_scale)


class TestGreenIdentity:
    def test_identical_inputs_vanish(self):
        # for a real trace the current conj(y) y' - conj(y') y and the
        # integrand both vanish pointwise, so the residual is exactly 0
        t1, _ = fundamental_pair(Coulomb(1.0), 0.0, 0.5, 1.5, CFG)
        assert green_identity_residual(t1, t1, 0.5, 1.5) == 0.0

    def test_identical_complex_inputs_at_quadrature_level(self):
        # with Im(l) != 0 both sides equal the nonzero current difference;
        # the defect is pure trapezoid error
        t1, _ = fundamental_pair(Coulomb(1.0), 1j, 0.5, 1.5, CFG)
        h_max = float(np.max(np.abs(np.diff(t1.x))))
        assert green_identity_residual(t1, t1, 0.5, 1.5) < 10.0 * h_max * h_max

    def test_free_linear_pair(self):
        grid = np.linspace(0.0, 1.0, 201)
        phi = SampledFunction(grid, grid.copy(), np.ones_like(grid), np.zeros_like(grid))
        psi = SampledFunction(grid, np.ones_like(grid), np.zeros_like(grid), np.zeros_like(grid))
        assert green_identity_residual(phi, psi, 0.0, 1.0) < 1e-10

    def test_random_cubics_below_quadrature_bound(self):
        rng = np.random.default_rng(3)
        grid = np.linspace(0.0, 1.0, 201)
        h = grid[1] - grid[0]
        fine = np.linspace(0.0, 1.0, 2001)
        h_fine = fine[1] - fine[0]
        for _ in range(10):
            c1 = rng.uniform(-2, 2, 4)
            c2 = rng.uniform(-2, 2, 4)

            def sampled(coeffs, x):
                p = np.polynomial.Polynomial(coeffs)
                return SampledFunction(x, p(x), p.deriv()(x), p.deriv(2)(x))

            phi, psi = sampled(c1, grid), sampled(c2, grid)
            integrand = np.conj(phi.values) * psi.second_derivative_values - np.conj(
                phi.second_derivative_values
            ) * psi.values
            bound = 10.0 * h * h * 1.0 * max(1.0, float(np.max(np.abs(integrand))))
            res = green_identity_residual(phi, psi, 0.0, 1.0)
            assert res < bound
            # order check: ten times finer grid must shrink the defect ~100x
            res_fine = green_identity_residual(sampled(c1, fine), sampled(c2, fine), 0.0, 1.0)
            if res > 1e-12:
                assert res_fine < res / 30.0

    def test_trace_inputs_with_ode_reconstruction(self):
        q = PowerLaw(2.0, 2.0)
        t1, t2 = fundamental_pair(q, 1j, 0.0, 1.0, CFG)
        res = green_identity_residual(t1, t2, 0.0, 1.0)
        h_max = float(np.max(np.abs(np.diff(t1.x))))
        integrand_scale = 10.0  # solutions and q stay order-one on [0, 1]
        assert res < 10.0 * h_max * h_max * integrand_scale

    def test_grid_mismatch(self):
        grid = np.linspace(0.0, 1.0, 201)
        other = np.linspace(0.0, 1.0, 101)
        f = SampledFunction(grid, grid, np.ones_like(grid), np.zeros_like(grid))
        g = SampledFunction(other, other, np.ones_like(other), np.zeros_like(other))
        with pytest.raises(GridMismatchError):
            green_identity_residual(f, g, 0.0, 1.0)

    def test_pair_marched_toward_left_target(self):
        # the traces run with decreasing x; the bound is acceptance C6's
        rng = np.random.default_rng(7)
        for _ in range(5):
            q = random_polynomial(rng)
            t1, t2 = fundamental_pair(q, 1j, 1.0, 0.5, CFG)
            assert t1.x[0] > t1.x[-1]
            h_max = float(np.max(np.abs(np.diff(t1.x))))
            magnitude = 2.0 * float(np.max(np.abs(t1.values() * t2.values())))
            assert green_identity_residual(t1, t2, 0.5, 1.0) < 10.0 * h_max * h_max * 0.5 * max(1.0, magnitude)

    def test_off_grid_endpoint_rejected(self):
        t1, t2 = fundamental_pair(Coulomb(1.0), 1j, 0.5, 1.5, CFG)
        off_grid = 0.5 * (t1.x[1] + t1.x[2])
        with pytest.raises(OutOfRangeError, match="not a grid point"):
            green_identity_residual(t1, t2, off_grid, 1.5)

    def test_sampled_input_without_second_derivative_rejected(self):
        grid = np.linspace(0.0, 1.0, 11)
        f = SampledFunction(grid, grid, np.ones_like(grid))
        with pytest.raises(MissingDerivativeError):
            green_identity_residual(f, f, 0.0, 1.0)

    def test_three_point_trace_rejected(self):
        t = integrate_grid(Zero(), 1j, [0.0, 0.5, 1.0], (1.0, 0.0, 0.0), CFG)
        with pytest.raises(ValueError, match="at least 4 points"):
            green_identity_residual(t, t, 0.0, 1.0)


class TestTraceUtilities:
    def test_concatenate(self):
        grid1 = build_grid(Zero(), 0.0, 1.0, CFG)
        t1 = integrate_grid(Zero(), 0.0, grid1, (0.0, 1.0, 0.0), CFG)
        grid2 = build_grid(Zero(), 1.0, 2.0, CFG)
        t2 = integrate_grid(Zero(), 0.0, grid2, (t1.y[-1], t1.dy[-1], t1.log_scale[-1]), CFG)
        joined = concatenate_traces([t1, t2])
        assert joined.x[0] == 0.0 and joined.x[-1] == 2.0
        assert np.all(np.diff(joined.x) > 0)
        assert abs(joined.values()[-1] - 2.0) < 1e-7
