"""Adaptive integration of -y'' + q(x) y = l y as a first-order system.

The equation is advanced as (y, y') with an embedded Dormand-Prince 5(4)
pair under PI step-size control, one solution per run. Each attempted
step evaluates q once per new stage abscissa (5 times; the value at the
step's start is carried over from the previous step), and a step is
accepted when its error norm, measured against the scale
abs_tol + rel_tol * |state|, is at most 1. A fundamental pair is two
runs on one recording grid.

Because a solution typically grows exponentially toward a singular
endpoint when Im(l) != 0, the state is kept inside a fixed magnitude
band: whenever |y| + |y'| leaves the band the state is divided by its
sum and the logarithm of that factor is accumulated in a log scale, so
the true solution at a grid point is exp(log_scale) * (y, y'). The
equation is linear, which makes the rescaling exact.

Each advance also integrates |y|^2 |dx| over the interval it crosses, as
a quadrature component appended to the system: the step's contribution
is h * sum(b_i |y_i|^2) over the stage values y_i with the 5th-order
weights b_i, so it costs no q evaluation and leaves step control on
(y, y') alone. The sum is kept in the solution's current scale and folded
into a log-domain total at every rescale, so it never overflows however
far the solution grows or decays. integrate_grid returns one log integral
per recording interval, in a trace of plain tuples, so integration and
every classify run load no numpy: only the functions that compute on
whole arrays import it.

shell_edges is the one place where the dyadic shells are laid out: toward
a finite target the distance to the target halves once per shell, down
to cfg.x_min, and toward an infinite target |x| doubles once per shell,
up to the truncation radius cfg.x_max, from a start on the target's side
of 0. The first edge is the start itself, and the others are made from
the exact floats d * 2^(+-k), with math.ldexp. build_grid records a
solution on those edges and closes the grid at the target when the
potential evaluates there, or at the truncation radius toward infinity.

Integration is a pure function of its inputs; traces are immutable, so
independent integrations may run concurrently without shared state.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from itertools import chain
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .errors import (
    GridMismatchError,
    InsufficientTailError,
    MaxStepsExceededError,
    MissingDerivativeError,
    NonFiniteError,
    PotentialEvaluationError,
    StepUnderflowError,
)
from .potentials import Potential, evaluate

if TYPE_CHECKING:
    import numpy as np

_EPS = sys.float_info.epsilon

# Dormand-Prince 5(4) tableau. Stage 7 is evaluated at the 5th-order
# solution (FSAL), and stages 6 and 7 share the abscissa x + h.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_A71, _A73, _A74, _A75, _A76 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# Difference between the 5th- and embedded 4th-order weights (E2 = 0).
_E1, _E3, _E4, _E5 = 71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200
_E6, _E7 = 22 / 525, -1 / 40

_SAFETY = 0.87  # PI equilibrium near 0.1*tol keeps accumulated error under 10*tol
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_RESCALE_BAND = 100.0  # a state leaving [1/_RESCALE_BAND, _RESCALE_BAND] is rescaled


@dataclass(frozen=True)
class ComplexState:
    """Mantissa pair (y, y') and its logarithmic scale.

    The true solution values are exp(log_scale) * (y, dy). After every
    rescale the mantissa satisfies |y| + |dy| in [1/_RESCALE_BAND, _RESCALE_BAND].
    """

    y: complex
    dy: complex
    log_scale: float = 0.0


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances, step budget and grid limits for the adaptive integrator."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_steps: int = 1_000_000
    x_min: float = 1e-8
    x_max: float = 1e4

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (isinstance(value, int) or math.isfinite(value)):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_steps < 1000:
            raise ValueError("max_steps must be at least 1000")
        if not (self.x_min > 0.0 and self.x_max > 0.0):
            raise ValueError("x_min and x_max must be positive")


@dataclass(frozen=True)
class SolutionTrace:
    """A solution of -y'' + q y = l y recorded on a monotone grid.

    Tuples y, dy hold the banded mantissa pair at each point of the tuple
    x; log_scale holds the accumulated logarithmic factors, so
    exp(log_scale[i]) * y[i] is the true solution value at x[i].
    log_square_integrals[i] is the log of the integral of |true y|^2
    over [x[i], x[i+1]], taken by the integrator inside its steps.
    """

    eigenvalue: complex
    x: Tuple[float, ...]
    y: Tuple[complex, ...]
    dy: Tuple[complex, ...]
    log_scale: Tuple[float, ...]
    potential: Potential
    direction: int
    log_square_integrals: Tuple[float, ...]

    @property
    def final_state(self) -> ComplexState:
        return ComplexState(complex(self.y[-1]), complex(self.dy[-1]), float(self.log_scale[-1]))

    def values(self) -> np.ndarray:
        """True solution values; may overflow for extreme log scales."""
        import numpy as np

        return np.asarray(self.y) * np.exp(self.log_scale)

    def derivative_values(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self.dy) * np.exp(self.log_scale)


def _normalized(y: complex, dy: complex, log_scale: float) -> Tuple[complex, complex, float]:
    s = abs(y) + abs(dy)
    if s == 0.0:
        raise ValueError("zero state is not a valid solution seed")
    if not math.isfinite(s):
        raise NonFiniteError("state is not finite")
    if s > _RESCALE_BAND or s < 1.0 / _RESCALE_BAND:
        return y / s, dy / s, log_scale + math.log(s)
    return y, dy, log_scale


class _Stepper:
    """Dormand-Prince 5(4) with PI control for y'' = (q - l) y.

    One stepper advances one solution. It persists across consecutive
    advance() calls: the step size, the PI error history, the value of q at the last abscissa
    reached, and the count of attempted steps, which cfg.max_steps
    bounds over the stepper's whole life.
    """

    def __init__(self, q: Potential, l: complex, cfg: IntegratorConfig):
        self.q = q
        self.l = l
        self.cfg = cfg
        self.steps = 0
        self.h = 0.0  # unsigned, carried across segments
        self.err_prev = 1.0
        self.x: Optional[float] = None  # abscissa of the carried value p = q(x) - l
        self.p = 0j

    def advance(self, x0: float, x1: float, y: complex, dy: complex, log_scale: float):
        """Integrate the state (y, dy, log_scale) from x0 to x1 (either direction).

        Returns (y, dy, log_scale, log_integral): the state is rescaled
        into the band, and log_integral is the log of the integral of
        |true y|^2 |dx| from x0 to x1.
        """
        cfg = self.cfg
        q, l = self.q, self.l
        abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
        band, inv_band = _RESCALE_BAND, 1.0 / _RESCALE_BAND
        sign = 1.0 if x1 > x0 else -1.0
        span = abs(x1 - x0)
        if span <= 64.0 * _EPS * max(abs(x0), abs(x1)):
            raise StepUnderflowError(
                f"recording interval [{x0}, {x1}] is below float resolution"
            )
        if self.x != x0:
            self.x, self.p = x0, evaluate(q, x0) - l
        p1 = self.p
        # Integral of |y|^2 since the last rescale, in the current scale,
        # and the log of everything before that.
        total = 0.0
        log_integral = -math.inf
        if self.h == 0.0:
            self.h = min(span, _initial_step(y, dy, p1, span))
        x = x0
        while True:
            remaining = abs(x1 - x)
            h = min(self.h, remaining)
            final = h >= remaining * (1.0 - 1e-12)
            if final:
                h = remaining
            if h < 16.0 * _EPS * abs(x) and not final:
                raise StepUnderflowError(f"step {h} at x={x} is below machine spacing")
            self.steps += 1
            if self.steps > cfg.max_steps:
                raise MaxStepsExceededError(
                    f"step budget of {cfg.max_steps} attempted steps exhausted at x={x!r}"
                )
            hs = sign * h
            x_new = x1 if final else x + hs
            p2 = evaluate(q, x + _C2 * hs) - l
            p3 = evaluate(q, x + _C3 * hs) - l
            p4 = evaluate(q, x + _C4 * hs) - l
            p5 = evaluate(q, x + _C5 * hs) - l
            p6 = evaluate(q, x_new) - l
            b21 = hs * _A21
            b31, b32 = hs * _A31, hs * _A32
            b41, b42, b43 = hs * _A41, hs * _A42, hs * _A43
            b51, b52, b53, b54 = hs * _A51, hs * _A52, hs * _A53, hs * _A54
            b61, b62, b63, b64, b65 = hs * _A61, hs * _A62, hs * _A63, hs * _A64, hs * _A65
            b71, b73, b74, b75, b76 = hs * _A71, hs * _A73, hs * _A74, hs * _A75, hs * _A76
            e1, e3, e4, e5, e6, e7 = hs * _E1, hs * _E3, hs * _E4, hs * _E5, hs * _E6, hs * _E7
            # Stage i has input (yi, di) and derivative (di, ki) with ki = pi * yi.
            d1 = dy
            k1 = p1 * y
            y2 = y + b21 * d1
            d2 = d1 + b21 * k1
            k2 = p2 * y2
            y3 = y + b31 * d1 + b32 * d2
            d3 = d1 + b31 * k1 + b32 * k2
            k3 = p3 * y3
            y4 = y + b41 * d1 + b42 * d2 + b43 * d3
            d4 = d1 + b41 * k1 + b42 * k2 + b43 * k3
            k4 = p4 * y4
            y5 = y + b51 * d1 + b52 * d2 + b53 * d3 + b54 * d4
            d5 = d1 + b51 * k1 + b52 * k2 + b53 * k3 + b54 * k4
            k5 = p5 * y5
            y6 = y + b61 * d1 + b62 * d2 + b63 * d3 + b64 * d4 + b65 * d5
            d6 = d1 + b61 * k1 + b62 * k2 + b63 * k3 + b64 * k4 + b65 * k5
            k6 = p6 * y6
            y7 = y + b71 * d1 + b73 * d3 + b74 * d4 + b75 * d5 + b76 * d6
            d7 = d1 + b71 * k1 + b73 * k3 + b74 * k4 + b75 * k5 + b76 * k6
            k7 = p6 * y7
            err_y = e1 * d1 + e3 * d3 + e4 * d4 + e5 * d5 + e6 * d6 + e7 * d7
            err_dy = e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6 + e7 * k7
            # 5th-order quadrature of |y|^2 over the step, per unit |h|
            a1, a3, a4, a5, a6 = abs(y), abs(y3), abs(y4), abs(y5), abs(y6)
            quad = _A71 * a1 * a1 + _A73 * a3 * a3 + _A74 * a4 * a4 + _A75 * a5 * a5 + _A76 * a6 * a6
            sc_y = abs_tol + rel_tol * max(a1, abs(y7))
            sc_dy = abs_tol + rel_tol * max(abs(d1), abs(d7))
            err = math.sqrt(0.5 * ((abs(err_y) / sc_y) ** 2 + (abs(err_dy) / sc_dy) ** 2))
            if not math.isfinite(err):
                raise NonFiniteError(f"integration blew up near x={x}")
            if err <= 1.0:
                x = x_new
                self.x = x
                self.p = p1 = p6
                total += h * quad
                s = abs(y7) + abs(d7)
                if s == 0.0 or not math.isfinite(s):
                    raise NonFiniteError(f"solution state degenerate at x={x}")
                if s > band or s < inv_band:
                    log_integral = _fold(log_integral, total, log_scale)
                    total = 0.0
                    y7 /= s
                    d7 /= s
                    log_scale += math.log(s)
                y, dy = y7, d7
                if err == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = _SAFETY * err ** (-_PI_ALPHA) * self.err_prev ** _PI_BETA
                self.err_prev = max(err, 1e-10)
                self.h = h * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
                if final:
                    return y, dy, log_scale, _fold(log_integral, total, log_scale)
            else:
                factor = max(_MIN_FACTOR, _SAFETY * err ** (-0.2))
                self.h = h * factor


def _fold(log_total: float, scaled_sum: float, log_scale: float) -> float:
    """log(exp(log_total) + scaled_sum * exp(2 * log_scale)) without overflow."""
    if scaled_sum <= 0.0:
        return log_total
    term = math.log(scaled_sum) + 2.0 * log_scale
    hi, lo = (log_total, term) if log_total > term else (term, log_total)
    return hi + math.log1p(math.exp(lo - hi))


def _initial_step(y: complex, dy: complex, p: complex, span: float) -> float:
    """First step guess: 1 % of the state's scale over its rate of change."""
    rate = abs(dy) + abs(p * y)
    if rate > 0.0:
        return 0.01 * (abs(y) + abs(dy)) / rate
    return 0.1 * span


def _whole_shells(outer: float, inner: float) -> int:
    """floor(log2(outer / inner)), at least 0, also where the quotient leaves float range."""
    ratio = outer / inner
    return max(0, math.floor(math.log2(ratio) if 0.0 < ratio < math.inf else math.log2(outer) - math.log2(inner)))


def shell_edges(x_start: float, x_end: float, cfg: IntegratorConfig) -> List[float]:
    """Exact edges of the whole dyadic shells from x_start toward x_end.

    Toward a finite target at distance d, edge 0 is x_start itself and
    edge k >= 1 lies at distance d * 2^(-k) from the target, for the
    whole shells that stay at least cfg.x_min away. Toward an infinite
    target, x_start must lie on the target's side of 0, and the edges
    are x_start * 2^k for the whole shells inside cfg.x_max.
    """
    if not math.isfinite(x_start):
        raise ValueError("x_start must be finite")
    if x_start == x_end:
        raise ValueError("x_start and x_end must differ")
    if math.isinf(x_end):
        sign = 1.0 if x_end > 0 else -1.0
        base = sign * x_start
        if not base > 0.0:
            raise ValueError(f"x_start={x_start!r} must lie on the side of 0 toward {x_end!r}")
        if base >= cfg.x_max:
            raise InsufficientTailError(f"x_start={x_start!r} lies beyond the truncation radius")
        n = _whole_shells(cfg.x_max, base)
        return [sign * math.ldexp(base, k) for k in range(n + 1)]
    direction = 1.0 if x_end > x_start else -1.0
    distance = abs(x_end - x_start)
    n = _whole_shells(distance, cfg.x_min)
    return [x_start] + [x_end - direction * math.ldexp(distance, -k) for k in range(1, n + 1)]


def build_grid(q: Potential, x_start: float, x_end: float, cfg: IntegratorConfig) -> np.ndarray:
    """Recording grid: the shell edges from x_start toward x_end and a closing point.

    A finite target closes the grid when the potential evaluates there.
    Toward an infinite target the truncation radius cfg.x_max closes it.
    """
    import numpy as np

    edges = shell_edges(x_start, x_end, cfg)
    if math.isinf(x_end):
        if abs(edges[-1]) < cfg.x_max:
            edges.append(math.copysign(cfg.x_max, x_end))
        return np.array(edges)
    try:
        evaluate(q, x_end)
        edges.append(x_end)
    except PotentialEvaluationError:
        if len(edges) == 1:
            raise InsufficientTailError(
                f"x_start={x_start!r} lies within one shell of x_end={x_end!r}, where q cannot be evaluated"
            ) from None
    return np.array(edges)


def integrate_grid(
    q: Potential,
    l: complex,
    grid: Sequence[float],
    init: ComplexState,
    cfg: Optional[IntegratorConfig] = None,
    *,
    _stepper: Optional[_Stepper] = None,
) -> SolutionTrace:
    """Integrate -y'' + q y = l y from the one state `init`, recording it at every grid point.

    cfg.max_steps bounds the attempted steps of this call, or of every
    call sharing `_stepper`.
    """
    cfg = cfg or IntegratorConfig()
    try:
        points = tuple(float(x) for x in grid)
    except TypeError:
        raise ValueError("grid must contain at least two points") from None
    if len(points) < 2:
        raise ValueError("grid must contain at least two points")
    if not all(map(math.isfinite, points)):
        raise ValueError("grid points must be finite (infinite targets are truncated)")
    pairs = tuple(zip(points, points[1:]))
    if not (all(x0 < x1 for x0, x1 in pairs) or all(x0 > x1 for x0, x1 in pairs)):
        raise ValueError("grid must be strictly monotone")
    l = complex(l)
    state = _normalized(complex(init.y), complex(init.dy), float(init.log_scale))
    rows = [state]
    integrals = []
    stepper = _stepper or _Stepper(q, l, cfg)
    for x0, x1 in pairs:
        *state, integral = stepper.advance(x0, x1, *state)
        rows.append(state)
        integrals.append(integral)
    y, dy, log_scale = zip(*rows)
    return SolutionTrace(
        eigenvalue=l,
        x=points,
        y=y,
        dy=dy,
        log_scale=log_scale,
        potential=q,
        direction=1 if points[-1] > points[0] else -1,
        log_square_integrals=tuple(integrals),
    )


def fundamental_pair(
    q: Potential,
    l: complex,
    x0: float,
    target: float,
    cfg: Optional[IntegratorConfig] = None,
) -> Tuple[SolutionTrace, SolutionTrace]:
    """The fundamental pair: the solution with data (1, 0) and the one with (0, 1) at the anchor x0.

    Each is its own run on the same recording grid. Their Wronskian
    equals 1 at the anchor, so they span the full solution space of the
    equation at this eigenvalue.
    """
    cfg = cfg or IntegratorConfig()
    grid = build_grid(q, x0, target, cfg)
    return (
        integrate_grid(q, l, grid, ComplexState(1.0, 0.0), cfg),
        integrate_grid(q, l, grid, ComplexState(0.0, 1.0), cfg),
    )


def concatenate_traces(traces: Sequence[SolutionTrace]) -> SolutionTrace:
    """Join traces that continue one another (shared junction points)."""
    if not traces:
        raise ValueError("need at least one trace")
    head, rest = traces[0], traces[1:]
    for prev, cur in zip(traces, rest):
        if cur.eigenvalue != prev.eigenvalue or cur.direction != prev.direction:
            raise ValueError("traces do not continue one another")
        if cur.x[0] != prev.x[-1]:
            raise GridMismatchError("traces do not share a junction point")
    return SolutionTrace(
        eigenvalue=head.eigenvalue,
        x=tuple(chain(head.x, *(t.x[1:] for t in rest))),
        y=tuple(chain(head.y, *(t.y[1:] for t in rest))),
        dy=tuple(chain(head.dy, *(t.dy[1:] for t in rest))),
        log_scale=tuple(chain(head.log_scale, *(t.log_scale[1:] for t in rest))),
        potential=head.potential,
        direction=head.direction,
        log_square_integrals=tuple(chain(*(t.log_square_integrals for t in traces))),
    )


def wronskian_values(t1: SolutionTrace, t2: SolutionTrace) -> np.ndarray:
    """Wronskian along the shared grid of two traces."""
    import numpy as np

    if t1.eigenvalue != t2.eigenvalue:
        raise ValueError("traces have different eigenvalues")
    if not np.array_equal(t1.x, t2.x):
        raise GridMismatchError("traces are on different grids")
    y1, dy1, y2, dy2 = (np.asarray(v) for v in (t1.y, t1.dy, t2.y, t2.dy))
    mantissa = y1 * dy2 - dy1 * y2
    return mantissa * np.exp(np.add(t1.log_scale, t2.log_scale))


def _sampled(curve):
    """curve as a SampledFunction on increasing x; a trace's y'' comes from the equation itself."""
    if not isinstance(curve, SolutionTrace):
        return curve
    import numpy as np

    from .sobolev import SampledFunction

    vals = curve.values()
    qx = np.asarray([evaluate(curve.potential, float(t)) for t in curve.x])
    order = slice(None) if curve.direction > 0 else slice(None, None, -1)
    columns = (curve.x, vals, curve.derivative_values(), (qx - curve.eigenvalue) * vals)
    return SampledFunction(*(np.asarray(column)[order] for column in columns))


def green_identity_residual(phi, psi, c: float, d: float) -> float:
    """Defect of Green's identity on [c, d], with c and d points of the shared grid.

    Green's identity is the fundamental theorem for the current
    W = conj(phi) psi' - conj(phi)' psi, so the defect is
    sobolev.check_fundamental_theorem of W. A SolutionTrace takes y'' from
    the differential equation; a SampledFunction must carry both derivatives.
    """
    import numpy as np

    from .sobolev import SampledFunction, check_fundamental_theorem

    phi, psi = _sampled(phi), _sampled(psi)
    if not np.array_equal(phi.grid, psi.grid):
        raise GridMismatchError("inputs are on different grids")
    if any(f.derivative_values is None or f.second_derivative_values is None for f in (phi, psi)):
        raise MissingDerivativeError("sampled input needs derivative_values and second_derivative_values")
    conj_phi = np.conj(phi.values)
    current = SampledFunction(
        phi.grid,
        conj_phi * psi.derivative_values - np.conj(phi.derivative_values) * psi.values,
        conj_phi * psi.second_derivative_values - np.conj(phi.second_derivative_values) * psi.values,
    )
    return check_fundamental_theorem(current, c, d)
