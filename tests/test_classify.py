import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import lplc
from lplc.classify import (
    DEFAULT_FIT_WINDOW,
    DEFAULT_MARGIN,
    ClassificationReport,
    DeficiencyIndices,
    Endpoint,
    EndpointClass,
    EndpointVerdict,
    Engine,
    TailReport,
    _safe_exp,
    band_status,
    classify_asymptotic,
    classify_interval,
    classify_numeric,
    fit_shell_exponent,
    joint_status,
)
from lplc.errors import (
    AsymptoticsUnavailableError,
    InsufficientTailError,
    MaxStepsExceededError,
)
from lplc.odeint import IntegratorConfig, shell_edges
from lplc.potentials import (
    Coulomb,
    Harmonic,
    InverseSquare,
    Mirrored,
    PowerLaw,
    Sum,
    Tabulated,
    Zero,
    effective_potential,
)
from lplc.sobolev import dyadic_shell_log_integrals

CFG = IntegratorConfig()
ORIGIN = Endpoint(0.0, "left")
PLUS_INF = Endpoint(math.inf, "right")

LP = EndpointVerdict.LIMIT_POINT
LC = EndpointVerdict.LIMIT_CIRCLE
INC = EndpointVerdict.INCONCLUSIVE


def shells_grid(n_shells=12, per_shell=16):
    return np.geomspace(1.0, 2.0**-n_shells, n_shells * per_shell + 1)


def origin_tail(fn, grid):
    """Shell logs, fitted ratio and band status of |fn|^2 sampled toward 0."""
    log_v = 2.0 * np.log(np.abs([fn(t) for t in grid]))
    logs = dyadic_shell_log_integrals(grid, log_v)
    ratio = math.exp(fit_shell_exponent(logs))
    return logs, ratio, band_status(ratio, DEFAULT_MARGIN)


class TestSquareIntegrableTail:
    """The shell rule on exact samples: closed-form shell integrals toward 0."""

    def test_linear_solution_ratio_one_eighth(self):
        # oracle: integral of x^2 over [2^-k-1, 2^-k] is (1 - 1/8)/3 * 8^-k,
        # so consecutive shells shrink by exactly 2^-3
        logs, ratio, status = origin_tail(lambda x: x, shells_grid())
        exact = [(1.0 - 0.125) / 3.0 * 8.0**-k for k in range(12)]
        assert len(logs) == 12
        for g, e in zip(logs, exact):
            assert math.exp(g) == pytest.approx(e, rel=2e-3)
        assert ratio == pytest.approx(0.125, rel=1e-3)
        assert status == "convergent"

    def test_inverse_solution_doubles(self):
        # oracle: integral of x^-2 over shells doubles toward the origin
        _, ratio, status = origin_tail(lambda x: 1.0 / x, shells_grid())
        assert ratio == pytest.approx(2.0, rel=1e-3)
        assert status == "divergent"

    def test_borderline_is_inconclusive(self):
        # |y|^2 = 1/x gives the log-divergent boundary case: every shell
        # integral equals log 2, ratio 1, inside the guard band
        _, ratio, status = origin_tail(lambda x: x**-0.5, shells_grid())
        assert ratio == pytest.approx(1.0, abs=5e-3)
        assert status == "inconclusive"

    def test_insufficient_tail(self):
        grid = np.geomspace(1.0, 0.6, 30)  # spans less than one shell
        with pytest.raises(InsufficientTailError):
            origin_tail(lambda x: x, grid)


class TestTailReport:
    def test_shell_integrals_derive_from_the_logs(self):
        logs = (-3.0, 0.0, 709.0, 709.8, 800.0)
        report = TailReport(log_shell_integrals=logs, margin=DEFAULT_MARGIN)
        assert report.shell_integrals == tuple(_safe_exp(v) for v in logs)
        assert math.isfinite(report.shell_integrals[2])
        assert report.shell_integrals[3:] == (math.inf, math.inf)  # beyond float range

    def test_fewer_than_four_shells_rejected(self):
        with pytest.raises(InsufficientTailError):
            TailReport(log_shell_integrals=(0.0, 1.0, 2.0), margin=DEFAULT_MARGIN)


GOLDEN = Path(__file__).parent / "data" / "cli_golden"


def golden_fit_windows():
    """The finite DEFAULT_FIT_WINDOW-shell windows of every numeric endpoint in the golden classify reports."""
    cases = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    windows = []
    for name in sorted(name for name, case in cases.items() if "problem" in case):
        endpoints = json.loads((GOLDEN / f"{name}.stdout").read_text(encoding="utf-8"))["endpoints"]
        for logs in (endpoint["log_shells"] for endpoint in endpoints if "log_shells" in endpoint):
            for start in range(max(1, len(logs) - DEFAULT_FIT_WINDOW + 1)):
                window = logs[start : start + DEFAULT_FIT_WINDOW]
                if all(isinstance(v, float) and math.isfinite(v) for v in window):
                    windows.append(window)
    return windows


def exact_slope(logs):
    """The least-squares slope of logs against k in rational arithmetic."""
    ys = [Fraction(v) for v in logs]
    k_mean = Fraction(len(ys) - 1, 2)
    y_mean = sum(ys) / len(ys)
    num = sum((k - k_mean) * (y - y_mean) for k, y in enumerate(ys))
    return num / sum((k - k_mean) ** 2 for k in range(len(ys)))


class TestFitShellExponent:
    def test_exact_line(self):
        assert fit_shell_exponent([0.5 * k for k in range(5)]) == 0.5

    def test_equals_the_rational_slope_on_the_golden_windows(self):
        windows = golden_fit_windows()
        assert len(windows) >= 10
        for window in windows:
            exact = exact_slope(window)
            assert abs(Fraction(fit_shell_exponent(window)) - exact) <= Fraction(1e-15) * abs(exact), window

    def test_fits_only_the_last_window(self):
        logs = [100.0, -50.0] + [3.0 - 2.0 * k for k in range(DEFAULT_FIT_WINDOW)]
        assert fit_shell_exponent(logs) == -2.0

    @pytest.mark.parametrize(
        "logs, slope",
        [
            ([-700.0, -800.0, -math.inf], -math.inf),  # every shell vanishes
            ([0.0, 1.0, -math.inf], -math.inf),  # the last shell vanishes
            ([0.0, 1.0, math.inf], math.inf),  # the last shell overflows
            ([-math.inf, 0.0, 1.0], math.inf),  # a vanishing shell among finite ones
        ],
    )
    def test_infinite_logs(self, logs, slope):
        assert fit_shell_exponent(logs) == slope

    def test_nan_log_gives_nan(self):
        assert math.isnan(fit_shell_exponent([0.0, math.nan, 1.0, 2.0]))

    def test_fewer_than_two_shells_rejected(self):
        with pytest.raises(InsufficientTailError):
            fit_shell_exponent([1.0])


def test_evidence_layer_imports_no_numpy():
    # neither the verdict rule nor the numeric march that feeds it loads numpy
    script = """
import math
import sys
from lplc.classify import ClassificationReport, EndpointClass, EndpointVerdict, Engine, TailReport, classify_interval
from lplc.odeint import ComplexState, integrate_grid
from lplc.potentials import Coulomb
tail = TailReport((0.0, -1.0, -2.0, -3.0, -4.0), 0.15)
assert tail.status == "convergent" and tail.fitted_ratio < 0.5
lc = EndpointClass(EndpointVerdict.LIMIT_CIRCLE, Engine.NUMERIC, tail=tail)
assert lc.tail is tail
report = ClassificationReport(0.0, 1.0, lc, lc)
assert (report.indices.n_plus, report.self_adjointness.extension_dimension) == (2, 4)
assert "numpy" not in sys.modules
trace = integrate_grid(Coulomb(-1.0), 1j, [1.0, 2.0, 4.0], ComplexState(1.0, 0.0))
assert len(trace.y) == 3 and len(trace.log_square_integrals) == 2
report = classify_interval(Coulomb(-1.0), 0.0, math.inf, engine="numeric")
assert report.self_adjointness.label() == "needs_boundary_conditions"
assert "numpy" not in sys.modules
"""
    src = os.path.dirname(os.path.dirname(lplc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


class TestAsymptoticEngine:
    def test_free_s_wave_three_dimensions(self):
        cls = classify_asymptotic(effective_potential(Zero(), 3, 0))
        assert cls.verdict is LC
        assert cls.engine is Engine.ASYMPTOTIC
        assert cls.tail is None

    def test_free_p_wave_three_dimensions(self):
        assert classify_asymptotic(effective_potential(Zero(), 3, 1)).verdict is LP

    def test_coulomb_dominated_by_centrifugal_term(self):
        cls = classify_asymptotic(effective_potential(Coulomb(-1.0), 3, 1))
        assert cls.verdict is LP

    def test_threshold_value_is_limit_point(self):
        # n=4, l=0 sits exactly on the 3/4 threshold; inequality non-strict
        ep = effective_potential(Zero(), 4, 0)
        assert ep.rho == 0.75
        assert classify_asymptotic(ep).verdict is LP

    @pytest.mark.parametrize("c, expected", [(0.0, LC), (0.5, LC), (0.75, LP), (2.0, LP)])
    def test_bare_potential_reads_its_own_coefficient(self, c, expected):
        cls = classify_asymptotic(InverseSquare(c))
        assert cls.verdict is expected and cls.origin_coefficient == c

    def test_unavailable_for_tabulated(self):
        tab = Tabulated([0.1, 0.2, 0.3, 0.4], [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(AsymptoticsUnavailableError):
            classify_asymptotic(effective_potential(tab, 3, 0))


class TestNumericEngine:
    def test_free_at_infinity_limit_point(self):
        cls = classify_numeric(Zero(), PLUS_INF, 1.0, CFG)
        assert cls.verdict is LP
        assert cls.engine is Engine.NUMERIC
        # one solution decides: the (1, 0) column's tail diverges
        assert cls.tail.status == "divergent"

    def test_free_at_regular_origin_limit_circle(self):
        cls = classify_numeric(Zero(), ORIGIN, 1.0, CFG)
        assert cls.verdict is LC
        assert cls.tail.status == "convergent"

    def test_inverse_square_strong_repulsion_limit_point(self):
        cls = classify_numeric(InverseSquare(2.0), ORIGIN, 1.0, CFG)
        assert cls.verdict is LP

    def test_borderline_constants_inconclusive_not_wrong(self):
        for c, true_verdict in ((0.70, LC), (0.80, LP)):
            got = classify_numeric(InverseSquare(c), ORIGIN, 1.0, CFG).verdict
            assert got in (INC, true_verdict)

    def test_minus_infinity_mirrors(self):
        cls = classify_numeric(Harmonic(1.0), Endpoint(-math.inf, "left"), -1.0, CFG)
        assert cls.verdict is LP

    @pytest.mark.parametrize("q", [Harmonic(1.0), PowerLaw(1.0, 1.0), Zero()], ids=lambda q: q.dumps())
    def test_minus_infinity_march_equals_the_mirror_image(self, q):
        # x -> -x maps the march toward -inf onto the one toward +inf
        # with every product and sum negated, which rounds the same
        def bits(cls):
            return cls.verdict, [v.hex() for v in cls.tail.log_shell_integrals], cls.tail.fitted_exponent.hex()

        left = classify_numeric(q, Endpoint(-math.inf, "left"), -1.0, CFG)
        mirrored = classify_numeric(Mirrored(q), PLUS_INF, 1.0, CFG)
        assert bits(left) == bits(mirrored)

    def test_step_budget_error_names_the_callers_x_toward_minus_infinity(self):
        with pytest.raises(MaxStepsExceededError, match=r"budget of 1000 .* at x=-\d"):
            classify_numeric(Harmonic(1.0), Endpoint(-math.inf, "left"), -1.0, IntegratorConfig(max_steps=1000))

    @pytest.mark.parametrize(
        "endpoint, anchor, error, message",
        [
            (Endpoint(-math.inf, "left"), 1.0, ValueError, "anchor must be negative toward -inf"),
            (PLUS_INF, -1.0, ValueError, "anchor must be positive toward inf"),
            (Endpoint(-math.inf, "left"), -9000.0, InsufficientTailError, "grid toward -inf holds only 0"),
            # a finite endpoint's anchor must lie strictly on the interval's side
            (ORIGIN, -1.0, ValueError, r"anchor must be above 0\.0 for a left endpoint, got -1\.0"),
            (ORIGIN, 0.0, ValueError, r"anchor must be above 0\.0 for a left endpoint, got 0\.0"),
            (Endpoint(1.0, "right"), 2.0, ValueError, r"anchor must be below 1\.0 for a right endpoint, got 2\.0"),
            (Endpoint(1.0, "right"), math.nan, ValueError, "anchor must be below 1.0 for a right endpoint, got nan"),
        ],
    )
    def test_errors_name_the_callers_endpoint(self, endpoint, anchor, error, message):
        with pytest.raises(error, match=message):
            classify_numeric(Harmonic(1.0), endpoint, anchor, CFG)

    @pytest.mark.parametrize(
        "eigenvalue, shown",
        [(0.0, "0j"), (1.0, r"\(1\+0j\)"), (complex(math.nan, 1.0), r"\(nan\+1j\)"), (complex(0.0, math.inf), "infj")],
    )
    def test_real_or_non_finite_probe_rejected(self, eigenvalue, shown, monkeypatch):
        # at a real eigenvalue the (1, 0) solution can be an eigenfunction,
        # L^2 at a limit-point end, so one solution no longer decides
        import lplc.classify

        monkeypatch.setattr(lplc.classify, "integrate_grid", None)  # nothing is marched
        with pytest.raises(ValueError, match=f"eigenvalue must be finite and non-real, got {shown}"):
            classify_numeric(Zero(), PLUS_INF, 1.0, CFG, eigenvalue=eigenvalue)

    @pytest.mark.parametrize("position, side", [(math.inf, "left"), (-math.inf, "right")])
    def test_infinite_endpoint_on_the_wrong_side_rejected(self, position, side):
        with pytest.raises(ValueError, match=f"a {side} endpoint cannot lie at"):
            Endpoint(position, side)

    def test_step_budget_covers_the_whole_endpoint(self):
        # the march to +inf takes about 1430 attempted steps over 4 shells,
        # but at most about 930 in any one shell: the budget is per endpoint
        with pytest.raises(MaxStepsExceededError, match=r"budget of 1000 .* at x=12\.6"):
            classify_numeric(PowerLaw(2.0, 1.0), PLUS_INF, 1.0, IntegratorConfig(max_steps=1000))


    def test_march_runs_forward_shell_by_shell(self, monkeypatch):
        import lplc.classify

        grids = []
        integrate = lplc.classify.integrate_grid

        def recording(q, l, grid, *args, **kwargs):
            grids.append(np.array(grid, dtype=float))
            return integrate(q, l, grid, *args, **kwargs)

        monkeypatch.setattr(lplc.classify, "integrate_grid", recording)
        classify_numeric(Zero(), PLUS_INF, 1.0, CFG)
        # one forward call per shell, and no grid runs backward
        assert len(grids) >= 4 and all(g[-1] > g[0] for g in grids)
        edges = shell_edges(1.0, math.inf, CFG)[: len(grids) + 1]
        for k, g in enumerate(grids):
            assert np.array_equal(g, edges[k : k + 2])

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "x^2 q = 3 x^0.1 -> 0 makes the origin LC, but over the fit window"
            " (x ~ 1e-4 to 1e-2) the pre-asymptotic c x^(p+2)/x^2 term still dominates"
            " and the fitted ratio reads about 1.6"
        ),
    )
    def test_near_inverse_square_power_law_is_limit_circle(self):
        report = classify_interval(PowerLaw(3.0, -1.9), 0.0, 1.0, engine="numeric")
        assert report.left.verdict is LC

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "x^2 q -> 3/4 makes the origin LP, since x |x^-1.9| is integrable at 0 and"
            " a solution like x^-1/2 survives; over the fit window the -x^-1.9 term"
            " still lowers the shell ratios (0.61 rising to 0.69), so the fitted"
            " ratio reads about 0.637"
        ),
    )
    def test_perturbed_threshold_inverse_square_is_limit_point(self):
        report = classify_interval(Sum([InverseSquare(0.75), PowerLaw(-1.0, -1.9)]), 0.0, 1.0, engine="numeric")
        assert report.left.verdict is LP

    def test_perturbed_threshold_inverse_square_exact_rule(self):
        report = classify_interval(Sum([InverseSquare(0.75), PowerLaw(-1.0, -1.9)]), 0.0, 1.0, engine="both")
        assert report.left.engine is Engine.ASYMPTOTIC
        assert report.left.origin_coefficient == 0.75
        assert report.left.verdict is LP


def composed(left, right):
    return ClassificationReport(0.0, 1.0, EndpointClass(left, Engine.ASYMPTOTIC), EndpointClass(right, Engine.ASYMPTOTIC))


class TestComposition:
    def test_theorem_cases(self):
        assert composed(LC, LC).indices == DeficiencyIndices(2, 2)
        assert composed(LP, LC).indices == DeficiencyIndices(1, 1)
        assert composed(LP, LP).indices == DeficiencyIndices(0, 0)

    def test_symmetry(self):
        assert composed(LP, LC).indices == composed(LC, LP).indices

    def test_inconclusive_rejected(self):
        # an inconclusive end leaves the indices and the global verdict open
        inc = EndpointClass(INC, Engine.NUMERIC, tail=TailReport((0.0,) * 4, DEFAULT_MARGIN))
        report = ClassificationReport(0.0, 1.0, EndpointClass(LC, Engine.ASYMPTOTIC), inc)
        assert report.inconclusive
        assert report.indices is None and report.self_adjointness is None

    @pytest.mark.parametrize(
        "engine, tail, message",
        [
            (Engine.NUMERIC, None, "a numeric verdict carries its tail report"),
            (Engine.ASYMPTOTIC, TailReport((0.0, -1.0, -2.0, -3.0), DEFAULT_MARGIN), "asymptotic verdicts carry no tail"),
        ],
        ids=["numeric-without", "asymptotic-with"],
    )
    def test_tail_is_set_exactly_when_numeric(self, engine, tail, message):
        with pytest.raises(ValueError, match=message):
            EndpointClass(LC, engine, tail=tail)

    def test_verdict_dimensions(self):
        assert composed(LP, LP).self_adjointness.essentially_self_adjoint is True
        assert composed(LP, LP).self_adjointness.extension_dimension == 0
        one = composed(LC, LP).self_adjointness
        assert not one.essentially_self_adjoint and one.extension_dimension == 1
        assert composed(LC, LC).self_adjointness.extension_dimension == 4

    @pytest.mark.parametrize(
        "statuses, joint",
        [
            (("convergent", "convergent"), "convergent"),
            (("convergent", "divergent"), "divergent"),
            (("inconclusive", "divergent"), "divergent"),
            (("convergent", "inconclusive"), "inconclusive"),
        ],
    )
    def test_joint_status(self, statuses, joint):
        assert joint_status(statuses) == joint

    def test_indices_invariant(self):
        with pytest.raises(ValueError):
            DeficiencyIndices(2, 1)


def asymptotics_suite():
    """Analytic-asymptotics potentials with origin coefficient outside [0.70, 0.80]."""
    suite = [Zero(), Coulomb(1.0), Coulomb(-1.0)]
    suite += [InverseSquare(c) for c in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0)]
    suite += [effective_potential(Zero(), n, l).q_eff for n, l in ((3, 1), (2, 0), (4, 0), (5, 1))]
    suite += [effective_potential(Coulomb(-1.0), 3, 1).q_eff]
    return [q for q in suite if not 0.70 <= (q.origin_coefficient() or 0.0) <= 0.80]


class TestEngineCrossValidation:
    @pytest.mark.parametrize("q", asymptotics_suite(), ids=lambda q: q.dumps())
    def test_engines_agree_at_origin(self, q):
        coeff = q.origin_coefficient()
        assert coeff is not None
        expected = LP if coeff >= 0.75 else LC
        assert classify_numeric(q, ORIGIN, 1.0, CFG).verdict is expected

    @pytest.mark.parametrize("q", asymptotics_suite(), ids=lambda q: q.dumps())
    def test_probe_eigenvalue_independence(self, q):
        at_i = classify_numeric(q, ORIGIN, 1.0, CFG, eigenvalue=1j).verdict
        at_2i = classify_numeric(q, ORIGIN, 1.0, CFG, eigenvalue=2j).verdict
        assert at_i is at_2i

    def test_limit_point_set_upward_closed_in_c(self):
        grid = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0]
        verdicts = [classify_numeric(InverseSquare(c), ORIGIN, 1.0, CFG).verdict for c in grid]
        seen_lp = False
        for v in verdicts:
            if v is LP:
                seen_lp = True
            elif seen_lp:
                pytest.fail(f"LP set not upward closed: {list(zip(grid, verdicts))}")

    def test_regular_endpoint_implies_limit_circle(self):
        cases = [
            (Zero(), ORIGIN, 1.0),
            (PowerLaw(1.0, -0.25), ORIGIN, 1.0),
            (Harmonic(1.0), ORIGIN, 1.0),
            (Zero(), Endpoint(1.0, "right"), 0.5),
        ]
        for q, ep, anchor in cases:
            assert classify_numeric(q, ep, anchor, CFG).verdict is LC

    def test_anchor_independence(self):
        for c, expected in ((2.0, LP), (0.25, LC)):
            for anchor in (0.7, 1.0, 1.5):
                got = classify_numeric(InverseSquare(c), ORIGIN, anchor, CFG).verdict
                assert got is expected, (c, anchor)


class TestClassifyInterval:
    def test_free_s_wave_half_line(self):
        report = classify_interval(effective_potential(Zero(), 3, 0), 0.0, math.inf)
        assert report.left.verdict is LC and report.left.engine is Engine.ASYMPTOTIC
        assert report.right.verdict is LP and report.right.engine is Engine.NUMERIC
        assert report.indices == DeficiencyIndices(1, 1)
        assert report.self_adjointness.essentially_self_adjoint is False
        assert report.self_adjointness.extension_dimension == 1

    def test_free_p_wave_half_line_self_adjoint(self):
        report = classify_interval(effective_potential(Zero(), 3, 1), 0.0, math.inf)
        assert report.indices == DeficiencyIndices(0, 0)
        assert report.self_adjointness.essentially_self_adjoint is True

    def test_free_unit_interval(self):
        report = classify_interval(Zero(), 0.0, 1.0)
        assert report.indices == DeficiencyIndices(2, 2)
        assert report.self_adjointness.extension_dimension == 4

    def test_numeric_engine_everywhere(self):
        report = classify_interval(Zero(), 0.0, 1.0, engine="numeric")
        assert report.left.engine is Engine.NUMERIC
        assert report.right.engine is Engine.NUMERIC
        assert report.indices == DeficiencyIndices(2, 2)

    def test_inconclusive_report(self):
        report = classify_interval(InverseSquare(0.75), 0.0, 1.0, engine="numeric")
        assert report.left.verdict is INC
        assert report.inconclusive and report.indices is None

    @pytest.mark.parametrize("c, margin", [(2.0, -1.5), (0.75, -0.5), (0.25, 1.0), (0.25, math.nan)])
    def test_margin_outside_unit_interval_rejected(self, c, margin):
        # margin -1.5 would read InverseSquare(2.0) (ratio 2) as LC, and -0.5
        # the LP threshold 0.75; 1.0 would let no tail converge
        with pytest.raises(ValueError, match="margin"):
            classify_interval(InverseSquare(c), 0.0, 1.0, engine="numeric", margin=margin)

    def test_asymptotic_engine_errors_off_origin(self):
        with pytest.raises(AsymptoticsUnavailableError):
            classify_interval(Zero(), 1.0, math.inf, engine="asymptotic")

    @pytest.mark.parametrize("anchors", [(-1.0, 0.5), (0.5, 1.0), (0.5, 2.0), (0.0, 0.5), (math.nan, 0.5)])
    def test_anchor_outside_the_interval_rejected(self, anchors):
        # an anchor at -1 would integrate the 0- side, where q = -|x|^-3,
        # and read LC at the left end, which is LP
        with pytest.raises(ValueError, match="strictly inside"):
            classify_interval(PowerLaw(1.0, -3.0), 0.0, 1.0, engine="numeric", anchors=anchors)

    def test_matches_deficiency_space_dimension(self):
        # the half-line free operator has one-dimensional deficiency spaces
        report = classify_interval(Zero(), 0.0, math.inf, engine="numeric")
        assert report.indices == DeficiencyIndices(1, 1)

    @pytest.mark.parametrize("max_shells", [-5, 0, 3, 5.5])
    def test_too_few_shells_rejected_before_integrating(self, max_shells):
        class Counted(Zero):
            calls = 0

            def _raw(self, x):
                Counted.calls += 1
                return 0.0

        with pytest.raises(ValueError, match="max_shells must be an integer of at least 4"):
            classify_interval(Counted(), 0.0, 1.0, engine="numeric", max_shells=max_shells)
        assert Counted.calls == 0

    def test_left_infinite_end(self):
        # the mirror image of the harmonic half line (0, inf): LC at the
        # regular end 0, LP at -inf
        report = classify_interval(Harmonic(1.0), -math.inf, 0.0)
        assert (report.left.verdict, report.right.verdict) == (LP, LC)
        assert report.indices == DeficiencyIndices(1, 1)
        mirror = classify_interval(Harmonic(1.0), 0.0, math.inf)
        assert report.left.tail.log_shell_integrals == mirror.right.tail.log_shell_integrals
