"""Integrals of |y|^2 taken by the integrator inside its steps.

The oracle is the free equation y'' = mu^2 y, whose fundamental pair at an
anchor is cosh(mu t) and sinh(mu t) / mu with t = x - anchor. With
mu = a + ib their squared moduli are (cosh(2at) +- cos(2bt)) / 2, which
integrate in closed form; the helpers below evaluate those primitives
without cancellation near t = 0 and import nothing from lplc.
"""

import cmath
import math

import numpy as np
import pytest

from lplc.classify import classify_interval
from lplc.odeint import (
    ComplexState,
    IntegratorConfig,
    build_grid,
    concatenate_traces,
    integrate_grid,
    shell_edges,
)
from lplc.potentials import Coulomb, InverseSquare, Zero

CFG = IntegratorConfig()
PAIR = (ComplexState(1.0, 0.0), ComplexState(0.0, 1.0))
MU = cmath.sqrt(-1j)  # mu^2 = -i: the free equation at the probe eigenvalue i


def _odd_series(u, sign):
    """sinh(u) - u (sign +1) or u - sin(u) (sign -1), summed as a series for small u."""
    if abs(u) > 0.5:
        return math.sinh(u) - u if sign > 0 else u - math.sin(u)
    term, total, k = u, 0.0, 1
    while term != 0.0:
        term *= sign * u * u / ((2 * k) * (2 * k + 1))
        total += sign * term
        k += 1
        if abs(term) < 1e-18 * abs(total):
            break
    return total


def pair_primitives(mu, t):
    """Integrals over [0, t] of |cosh(mu s)|^2 and |sinh(mu s) / mu|^2, for t >= 0."""
    a, b = mu.real, mu.imag
    sinh_part = _odd_series(2 * a * t, 1) / (2 * a)  # sinh(2at)/(2a) - t
    sin_part = _odd_series(2 * b * t, -1) / (2 * b)  # t - sin(2bt)/(2b)
    first = (2 * t + sinh_part - sin_part) / 2
    second = (sinh_part + sin_part) / 2 / abs(mu) ** 2
    return first, second


def pair_log_integrals(mu, t0, t1):
    """Log integrals of both pair members over [t0, t1], 0 <= t0 < t1."""
    lo, hi = pair_primitives(mu, t0), pair_primitives(mu, t1)
    return [math.log(h - l) for l, h in zip(lo, hi)]


def test_oracle_agrees_with_direct_quadrature():
    t = np.linspace(0.2, 0.9, 20001)
    c = np.abs(np.cosh(MU * t)) ** 2
    s = np.abs(np.sinh(MU * t) / MU) ** 2
    dt = t[1] - t[0]
    simpson = lambda v: dt / 3 * (v[0] + v[-1] + 4 * v[1:-1:2].sum() + 2 * v[2:-1:2].sum())
    expected = [math.log(simpson(c)), math.log(simpson(s))]
    assert pair_log_integrals(MU, 0.2, 0.9) == pytest.approx(expected, abs=1e-12)


def test_numeric_engine_shells_match_closed_form():
    # anchor 1.75; shell k lies between distances 0.75 * 2^-k and
    # 0.75 * 2^-(k+1) from the endpoint, i.e. |t| from 0.75 (1 - 2^-k)
    # to 0.75 (1 - 2^-(k+1)); |y|^2 is even in t, so both ends
    # agree. The engine marches the solution with data (1, 0): cosh(mu t).
    report = classify_interval(Zero(), 1.0, 2.5, engine="numeric")
    for side, ep in (("left", report.left), ("right", report.right)):
        assert len(ep.tail.log_shell_integrals) == 12
        for k, value in enumerate(ep.tail.log_shell_integrals):
            t0, t1 = 0.75 * (1 - 2.0**-k), 0.75 * (1 - 2.0 ** -(k + 1))
            assert abs(value - pair_log_integrals(MU, t0, t1)[0]) < 1e-8, (side, k)


def test_integrate_grid_intervals_match_closed_form():
    edges = shell_edges(1.0, math.inf, CFG)[:5]
    assert edges == [1.0, 2.0, 4.0, 8.0, 16.0]
    for column, seed in enumerate(PAIR):
        trace = integrate_grid(Zero(), 1j, edges, seed, CFG)
        assert len(trace.log_square_integrals) == 4
        for i, value in enumerate(trace.log_square_integrals):
            exact = pair_log_integrals(MU, edges[i] - 1.0, edges[i + 1] - 1.0)[column]
            assert abs(value - exact) < 1e-8, (column, i)


@pytest.mark.parametrize(
    "q,l,x0,target,n_shells",
    [
        (Zero(), 1j, 1.0, math.inf, 8),  # both columns grow by about e^180
        (InverseSquare(2.0), 1j, 1.0, 0.0, 12),  # x^2 and x^-1 toward the origin
        (Coulomb(-1.0), 2j, 1.0, math.inf, 10),
    ],
)
def test_integrals_do_not_depend_on_rescale_band(q, l, x0, target, n_shells):
    logs = []
    for band in (2.0, 100.0):
        cfg = IntegratorConfig(rescale_band=band)
        edges = shell_edges(x0, target, cfg)[: n_shells + 1]
        logs.append(np.array([integrate_grid(q, l, edges, seed, cfg).log_square_integrals for seed in PAIR]))
    assert np.all(np.isfinite(logs[0]))
    assert np.max(np.abs(logs[0] - logs[1])) < 1e-9


def test_growing_exponential_over_one_long_interval():
    # e^{mu x} with mu^2 = i solves -y'' = -i y and grows by e^707 over
    # [0, 1000]; its |y|^2 integrates to (e^{2a 1000} - 1) / (2a), far
    # beyond float range, so the accumulator must stay in the log domain
    mu = (1.0 + 1j) / math.sqrt(2.0)
    a = mu.real
    trace = integrate_grid(Zero(), -1j, [0.0, 1000.0], ComplexState(1.0, mu), CFG)
    exact = 2000.0 * a + math.log1p(-math.exp(-2000.0 * a)) - math.log(2.0 * a)
    (value,) = trace.log_square_integrals
    assert math.isfinite(value)
    assert abs(value - exact) < 1e-8


def test_columns_and_concatenation_carry_the_integrals():
    # each seed is its own run; split at the middle point and joined, it
    # carries the integrals of the unsplit run
    grid = build_grid(Zero(), 1.0, 4.0, CFG)
    half = grid.size // 2
    for seed in PAIR:
        first = integrate_grid(Zero(), 1j, grid[: half + 1], seed, CFG)
        second = integrate_grid(Zero(), 1j, grid[half:], first.final_state, CFG)
        joined = concatenate_traces([first, second])
        assert joined.log_square_integrals == first.log_square_integrals + second.log_square_integrals
        single = integrate_grid(Zero(), 1j, grid, seed, CFG)
        assert len(single.log_square_integrals) == len(joined.log_square_integrals) == grid.size - 1
        assert np.allclose(single.log_square_integrals, joined.log_square_integrals, atol=1e-8)
