import cmath
import math

import numpy as np
import pytest

from lplc.errors import (
    GridMismatchError,
    MaxStepsExceededError,
    StepUnderflowError,
)
from lplc.odeint import (
    ComplexState,
    IntegratorConfig,
    build_grid,
    concatenate_traces,
    fundamental_pair,
    green_identity_residual,
    integrate_grid,
    wronskian_values,
)
from lplc.potentials import Coulomb, InverseSquare, Potential, PowerLaw, Sum, Zero
from lplc.sobolev import SampledFunction

CFG = IntegratorConfig()

SQRT2 = math.sqrt(2.0)


def random_polynomial(rng, degree=3, scale=5.0):
    return Sum(
        [PowerLaw(c=float(c), p=float(p)) for p, c in enumerate(rng.uniform(-scale, scale, degree + 1))]
    )


class TestIntegrate:
    def test_linear_solution(self):
        # y'' = 0 with y(0) = 0, y'(0) = 1 is exactly y = x
        t = integrate_grid(Zero(), 0.0, build_grid(Zero(), 0.0, 1.0, CFG), ComplexState(0.0, 1.0), CFG)
        assert t.x[-1] == 1.0
        assert abs(t.values()[-1] - 1.0) < 10 * CFG.rel_tol
        assert abs(t.derivative_values()[-1] - 1.0) < 10 * CFG.rel_tol

    def test_complex_exponential(self):
        # oracle: mu = (i-1)/sqrt(2) satisfies mu^2 = -i, so e^{mu x}
        # solves -y'' = i y; check the oracle itself first
        mu = (1j - 1.0) / SQRT2
        assert abs(mu * mu + 1j) < 1e-15
        t = integrate_grid(Zero(), 1j, build_grid(Zero(), 0.0, 5.0, CFG), ComplexState(1.0, mu), CFG)
        exact = cmath.exp(mu * 5.0)
        assert abs(t.values()[-1] - exact) / abs(exact) < 10 * CFG.rel_tol

    def test_inverse_square_power_solution(self):
        # oracle: differentiate y = x^2 symbolically: -(2) + (2/x^2) x^2 = 0,
        # so y = x^2 solves -y'' + 2 y / x^2 = 0 with y(1) = 1, y'(1) = 2
        t = integrate_grid(InverseSquare(2.0), 0.0, build_grid(InverseSquare(2.0), 1.0, 2.0, CFG), ComplexState(1.0, 2.0), CFG)
        assert abs(t.values()[-1] - 4.0) / 4.0 < 10 * CFG.rel_tol

    def test_rejects_equal_bounds(self):
        with pytest.raises(ValueError):
            integrate_grid(Zero(), 0.0, build_grid(Zero(), 1.0, 1.0, CFG), ComplexState(1.0, 0.0), CFG)

    def test_max_steps_exceeded(self):
        cfg = IntegratorConfig(max_steps=1000)
        with pytest.raises(MaxStepsExceededError):
            integrate_grid(Zero(), 1e8, build_grid(Zero(), 0.0, 10.0, cfg), ComplexState(1.0, 0.0), cfg)

    def test_step_underflow_on_unresolvable_grid(self):
        # a 4-ulp recording interval at x = 1e16 cannot be resolved
        with pytest.raises(StepUnderflowError):
            integrate_grid(Zero(), 0.0, [1e16, 1e16 + 4.0], ComplexState(1.0, 0.0), CFG)

    def test_potential_evaluation_propagates(self):
        from lplc.errors import OutOfRangeError
        from lplc.potentials import Tabulated

        q = Tabulated([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0, 0.0])
        with pytest.raises(OutOfRangeError):
            integrate_grid(q, 0.0, [2.5, 3.5], ComplexState(1.0, 0.0), CFG)


class TestConfig:
    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol", "max_steps", "rescale_band", "x_min", "x_max"])
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
        for k, edge in enumerate(edges):
            assert edge == x_end + sign * d * 2.0**-k, k

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

    def test_mirror_toward_minus_infinity(self):
        grid = build_grid(Zero(), -1.0, -math.inf, CFG)
        assert grid[0] == -1.0
        assert grid[-1] == -CFG.x_max
        assert np.all(np.diff(grid) < 0)


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
        traces = fundamental_pair(Zero(), 1j, 0.0, math.inf, cfg)
        for t in traces:
            vals = t.values()
            dvals = t.derivative_values()
            for root in (mu, -mu):
                mode = np.exp(root * t.x)
                w = vals * root * mode - dvals * mode
                drift = np.max(np.abs(w - w[0]))
                assert drift < 1e-8 * (1.0 + abs(w[0]))


class TestSharedMarch:
    """Columns advanced together on one step sequence."""

    SEEDS = (ComplexState(1.0, 0.0), ComplexState(0.0, 1.0))

    @pytest.mark.parametrize(
        "q, grid",
        [
            (Coulomb(-1.0), np.geomspace(1.0, 1e-8, 429)),
            (Coulomb(2.0), np.geomspace(1.0, 64.0, 97)),
            (InverseSquare(2.0), np.geomspace(1.0, 1e-4, 213)),
            (InverseSquare(-0.2), np.geomspace(1.0, 64.0, 97)),
        ],
    )
    def test_pair_columns_match_separate_runs(self, q, grid):
        pair = integrate_grid(q, 1j, grid, self.SEEDS, CFG)
        assert pair.y.shape == pair.log_scale.shape == (grid.size, 2)
        for column, seed in zip(pair.columns(), self.SEEDS):
            alone = integrate_grid(q, 1j, grid, seed, CFG)
            for got, want in (
                (column.values(), alone.values()),
                (column.derivative_values(), alone.derivative_values()),
            ):
                assert np.all(np.abs(got - want) <= 10 * CFG.rel_tol * np.abs(want))

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
        grid = build_grid(q, x0, target, CFG)
        pair = integrate_grid(q, 1j, grid, self.SEEDS, CFG)
        det_y = wronskian_values(*pair.columns())
        assert np.max(np.abs(det_y - 1.0)) < 1e3 * CFG.rel_tol


class TestWronskian:
    def test_linear_against_constant(self):
        # y1 = x (shifted: x - 1 + 1 from data (1,1)) vs y2 = 1: W = -1
        grid = build_grid(Zero(), 1.0, 2.0, CFG)
        t1 = integrate_grid(Zero(), 0.0, grid, ComplexState(1.0, 1.0), CFG)  # y = x
        t2 = integrate_grid(Zero(), 0.0, grid, ComplexState(1.0, 0.0), CFG)  # y = 1
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
        t1 = integrate_grid(q, 1j, grid, ComplexState(1.0, 0.0), CFG)
        t2 = integrate_grid(q, 1j, grid, ComplexState(0.0, 1.0), CFG)
        t3 = integrate_grid(q, 1j, grid, ComplexState(a, b), CFG)
        combined = a * t1.values() + b * t2.values()
        scale = np.max(np.abs(combined))
        assert np.max(np.abs(t3.values() - combined)) < 10 * CFG.rel_tol * scale

    def test_rescale_transparency(self):
        cfg_tight = IntegratorConfig(rescale_band=10.0, x_max=12.0)
        cfg_loose = IntegratorConfig(rescale_band=1e12, x_max=12.0)
        grid = build_grid(Zero(), 0.0, math.inf, cfg_tight)
        t_tight = integrate_grid(Zero(), 1j, grid, ComplexState(1.0, 0.0), cfg_tight)
        t_loose = integrate_grid(Zero(), 1j, grid, ComplexState(1.0, 0.0), cfg_loose)
        assert np.max(np.abs(t_tight.log_scale)) > 0.0  # rescaling actually fired
        assert np.all(t_loose.log_scale == 0.0)
        v1, v2 = t_tight.values(), t_loose.values()
        rel = np.abs(v1 - v2) / np.maximum(np.abs(v2), 1e-300)
        assert np.max(rel) < 10 * cfg_tight.rel_tol

    def test_band_invariant_after_rescale(self):
        cfg = IntegratorConfig(x_max=50.0)
        t = integrate_grid(Zero(), 1j, build_grid(Zero(), 1.0, math.inf, cfg), ComplexState(1.0, 0.5), cfg)
        magnitude = np.abs(t.y) + np.abs(t.dy)
        assert np.all(magnitude <= cfg.rescale_band * (1 + 1e-12))
        assert np.all(magnitude >= 1.0 / cfg.rescale_band * (1 - 1e-12))

    def test_conjugation_symmetry(self):
        q = Coulomb(1.0)
        grid = build_grid(q, 0.5, 2.0, CFG)
        init = ComplexState(1.0 + 0.5j, -0.25 + 1.0j)
        conj_init = ComplexState(init.y.conjugate(), init.dy.conjugate())
        t = integrate_grid(q, 1j, grid, init, CFG)
        tc = integrate_grid(q, -1j, grid, conj_init, CFG)
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


class TestTraceUtilities:
    def test_concatenate(self):
        grid1 = build_grid(Zero(), 0.0, 1.0, CFG)
        t1 = integrate_grid(Zero(), 0.0, grid1, ComplexState(0.0, 1.0), CFG)
        grid2 = build_grid(Zero(), 1.0, 2.0, CFG)
        t2 = integrate_grid(Zero(), 0.0, grid2, t1.final_state, CFG)
        joined = concatenate_traces([t1, t2])
        assert joined.x[0] == 0.0 and joined.x[-1] == 2.0
        assert np.all(np.diff(joined.x) > 0)
        assert abs(joined.values()[-1] - 2.0) < 1e-7
