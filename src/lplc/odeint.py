"""Adaptive integration of -y'' + q(x) y = l y as a first-order system.

The equation is advanced as Y = (y, y') with Y' = A Y, A = [[0, 1],
[q - l, 0]], by Magnus steps Y(x + h) = exp(Omega) Y(x). Each attempted
step evaluates q at the three Gauss-Legendre nodes x + (1/2 - sqrt(15)/10)
h, x + h/2 and x + (1/2 + sqrt(15)/10) h, and forms from them the
sixth-order Magnus generator, the fourth-order one plus sixth-order terms
(Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009)). A is traceless, and
so is every Omega: Omega^2 = mu^2 I, and exp(Omega) = cosh(mu) I +
sinh(mu) / mu Omega in closed form, with determinant 1. The step takes
that one exponential; the sixth-order terms applied to the state at the
step's start give the error, and a step is accepted when its norm against
abs_tol + rel_tol * |state| is at most 1. The next step is 0.9 err^(-1/5)
times the last, at most 5 times. A Magnus step is exact for constant q,
so its length is set by how fast q varies, not by how fast y grows; a
step that would grow the solution by more than e^300 is shortened, so
exp(Omega) stays in float range. No step crosses a breakpoint of q
(Potential.breakpoints, such as the knots of a table), where q has a
kink and the expansion would lose its order. Every march goes through
_Stepper.advance, which moves a list of states on one step sequence:
fundamental_pair's two columns share its propagators, so their
Wronskian stays 1 to rounding.

Because a solution typically grows exponentially toward a singular
endpoint when Im(l) != 0, the state is kept inside a fixed magnitude
band: whenever |y| + |y'| leaves the band the state is divided by its
sum and the logarithm of that factor is accumulated in a log scale, so
the true solution at a grid point is exp(log_scale) * (y, y'). The
equation is linear, which makes the rescaling exact.

Each advance also integrates |y|^2 |dx| over the interval it crosses,
step by step and without evaluating q again, by one routine in both
frames (the Euler frame is described below). In the step's own variable
s in [0, 1] the frozen generator's solution is y cosh(mu s) +
v sinh(mu s) / mu, and the integral of its square against a weight
e^(k s) has a closed form (_weighted_square_integral); the leading terms
of its defect against the true solution, taken from the Taylor series of
both with the coefficient interpolated through the three nodes, are
added to it (_weighted_defect). In x the weight is 1, k = 0; in t it is
the fading d^2. The defect terms are a series in h^2 (q - l), so a step
on which q varies is also kept short enough that |h^2 (q - l)| <= 1/4;
where q is constant the frozen solution is exact and no such bound
applies. Step control stays on (y, y') alone. The sum is kept in the
solution's current scale and folded into a log-domain total at every
rescale, so it never overflows however far the solution grows or
decays. integrate_grid
returns one log integral per recording interval, in a trace of plain
tuples, so integration and every classify run load no numpy: only the
functions that compute on whole arrays import it.

A stepper built toward +-infinity at a non-real l, as every classify
march toward +-infinity is, sums nothing inside its steps. For a real q,
Green's formula Im(conj(y) y')' = -Im(l) |y|^2 (Weyl, Math. Ann. 68
(1910); Coddington & Levinson 1955, ch. 9) makes the integral from x0 to
x1 a boundary term, (F(x0) - F(x1)) / Im(l) with F = Im(conj(y) y') and
the sign of the march, and advance forms it from the states at x0 and x1
in the log domain (_green_log_integral). The steps are those of the sum,
bit for bit. A difference that is not positive raises NonFiniteError
rather than give a -inf log. Every other stepper keeps the sum: toward
a regular end the deep shells cancel in the difference, in the Euler
frame Im(conj(w) w_t) is only about d^2 of |w w_t|, and a stepper built
without `toward` may carry a real l, where the identity holds no integral.

The frame rule: a stepper built toward a finite end e where q does not
evaluate (evaluate raises NonFiniteError) steps in Langer's Euler frame,
and every other stepper steps in x. With d = |x - e| and t = -ln d, the
function w = d^(-1/2) y solves w'' = f(t) w with the complex coefficient
f = 1/4 + d^2 (q - l), where d^2 q is taken as (d q) d so that it stays
finite wherever q does (Langer, Phys. Rev. 51 (1937); Olver, Asymptotics
and Special Functions, ch. 6). An inverse-square term of q is a constant
of f, on which a Magnus step is exact, so toward such an end the steps
no longer shrink with d, and each dyadic shell is a t-interval of length
ln 2. advance keeps its interface in x: it maps each state to
(w, w_t) = (y, y / 2 - d dy/dd) in the log scale at x0, with d^(-1/2) put
into log_scale, and back at x1. The integral of |y|^2 |dx| is that of
d^2 |w|^2 dt, so a step of length h in t integrates |w|^2 against the
weight e^(k s) with k = -2 h, times h d^2 at the step's start. A step in
t is at most 1 long, which keeps the weight inside the series of the
step integral, and the bound on |h^2 f| where f varies is 1 there, not
1/4, since what varies is mostly the fading d^2 l. At ends at
+-infinity, where l x^2 makes f grow, and at regular ends, where a
constant q is already exact in x, the x frame stays.

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

import bisect
import cmath
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

# Gauss-Legendre nodes of order 6 on the unit step, and sqrt(15)/3, the
# scale of the first difference of q across them.
_NODE1 = 0.5 - math.sqrt(15.0) / 10.0
_NODE3 = 0.5 + math.sqrt(15.0) / 10.0
_K = math.sqrt(15.0) / 3.0

_SAFETY = 0.9  # the error ratio settles near 0.9^5 = 0.6, and almost no step is rejected
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_MAX_GROWTH = 300.0  # a step may grow the solution by at most e^300, far inside float range
_MAX_G0 = 0.25  # bound on |h^2 (q - l)| for a step on which q varies
_MAX_EULER_STEP = 1.0  # bound on a step in t, so the weight e^(-2 h s) stays inside its series
_MAX_EULER_G0 = 1.0  # bound on |h^2 f| for a step in t, where f varies mostly by the fading d^2 l
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
    over [x[i], x[i+1]], taken by the integrator inside its steps, or,
    on a march toward +-inf, from Green's identity at x[i] and x[i+1].
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
    """Sixth-order Magnus steps on three Gauss nodes, with step-size control, for y'' = (q - l) y.

    Each attempt builds one exponential and takes its error from the
    generator's sixth-order terms. Its one entry, advance(), moves a list
    of states on one step sequence, in x or, toward a finite `toward`
    where q does not evaluate, in the Euler frame t = -ln |x - toward|
    (see the module docstring). It persists across consecutive advance()
    calls: the step size and the count of attempted steps, which
    cfg.max_steps bounds over the stepper's whole life. Every step ends at
    or before the next breakpoint of q. Besides the error estimate, two
    bounds shorten a step: it grows the solution by at most e^_MAX_GROWTH,
    and where q varies on it, |h^2 (q - l)| <= _MAX_G0 (in t, |h^2 f| <=
    _MAX_EULER_G0 and h <= _MAX_EULER_STEP). Each attempt evaluates q three
    times, at interior nodes only; besides, one evaluation at a finite
    `toward` chooses the frame and one at the start sizes the first step.
    Toward an infinite `toward` at a non-real l (`green`), each advance's
    integral is Green's boundary term of its end states, not a sum.
    """

    def __init__(self, q: Potential, l: complex, cfg: IntegratorConfig, toward: Optional[float] = None):
        self.q = q
        self.l = l
        self.cfg = cfg
        self.steps = 0
        self.h = 0.0  # unsigned, carried across segments, in the frame's variable
        self.breaks = q.breakpoints()
        # a finite `toward` where q does not evaluate is the end the Euler
        # frame is centred on, x = end + side * d, with side set per advance
        self.end = None
        self.side = 1.0
        if toward is not None and math.isfinite(toward):
            try:
                evaluate(q, toward)
            except NonFiniteError:
                self.end = toward
            except PotentialEvaluationError:
                pass  # a table's end beyond its range: the march in x meets it
        self.h_max, self.g0_max = (math.inf, _MAX_G0) if self.end is None else (_MAX_EULER_STEP, _MAX_EULER_G0)
        self.green = toward is not None and math.isinf(toward) and l.imag != 0.0

    def advance(self, x0: float, x1: float, states):
        """Integrate each state (y, dy, log_scale) of the list from x0 to x1 (either direction).

        All states share one step sequence. Returns one (y, dy, log_scale,
        log_integral) per state: the state is rescaled into the band, and
        log_integral is the log of the integral of |true y|^2 |dx| from x0
        to x1. In the Euler frame the states are mapped to (w, w_t) at x0
        and back at x1, and the steps run in t. Toward +-inf (self.green)
        the steps add up no integral: it is _green_log_integral of the
        states at x0 and x1.
        """
        cfg = self.cfg
        q, l, end, green = self.q, self.l, self.end, self.green
        h_max, g0_max = self.h_max, self.g0_max
        abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
        band, inv_band = _RESCALE_BAND, 1.0 / _RESCALE_BAND
        sign = 1.0 if x1 > x0 else -1.0
        if _unresolvable(x0, x1):
            raise StepUnderflowError(
                f"recording interval [{x0}, {x1}] is below float resolution"
            )
        # the breakpoints strictly inside, in marching order, then x1
        breaks = self.breaks
        lo, hi = (x0, x1) if sign > 0 else (x1, x0)
        stops = [*breaks[bisect.bisect_right(breaks, lo) : bisect.bisect_left(breaks, hi)][:: int(sign)], x1]
        ys, dys, scales = (list(c) for c in zip(*states))
        n = len(ys)
        # Integral of |y|^2 since the last rescale, in the current scale,
        # and the log of everything before that, per column; in the Euler
        # frame the running integral is weighted against d^2 at t = refs[i].
        totals = [0.0] * n
        logs = [-math.inf] * n
        refs = [0.0] * n
        u = x0  # the frame's variable: x, or t = -ln d
        # Im(conj(y) y') and the log scale of each state at x0, for Green's identity
        starts = [((y.conjugate() * dy).imag, scale) for y, dy, scale in zip(ys, dys, scales)] if green else ()
        if end is not None:
            if x1 == end or (x0 > end) != (x1 > end):
                raise ValueError(f"[{x0}, {x1}] must lie on one side of the end {end}")
            self.side = 1.0 if x0 > end else -1.0
            d0 = abs(x0 - end)
            u = -math.log(d0)
            stops = [-math.log(abs(b - end)) for b in stops]
            sign = 1.0 if stops[-1] > u else -1.0
            for i in range(n):
                # w = d^(-1/2) y and w_t = w / 2 - d^(1/2) dy/dd, with d^(-1/2) in the log scale
                ys[i], dys[i], scales[i] = _normalized(ys[i], 0.5 * ys[i] - self.side * d0 * dys[i], scales[i] + 0.5 * u)
            refs = [u] * n
            coefficient = self._euler_coefficient
        if self.h == 0.0:
            # 1 % of each state's scale over its rate of change
            p0 = evaluate(q, x0) - l if end is None else coefficient(u)
            rates = [(abs(y) + abs(dy), abs(dy) + abs(p0 * y)) for y, dy in zip(ys, dys)]
            self.h = min([abs(stops[-1] - u)] + [0.01 * size / rate for size, rate in rates if rate > 0.0])
        target = stops.pop(0)
        while True:
            remaining = abs(target - u)
            h = min(self.h, remaining)
            final = h >= remaining * (1.0 - 1e-12)
            if final:
                h = remaining
            if h < 16.0 * _EPS * abs(u) and not final:
                raise StepUnderflowError(f"step {h} at x={self._x_at(u)} is below machine spacing")
            self.steps += 1
            if self.steps > cfg.max_steps:
                raise MaxStepsExceededError(
                    f"step budget of {cfg.max_steps} attempted steps exhausted at x={self._x_at(u)!r}"
                )
            hs = sign * h
            # the coefficient through the nodes, q - l in x or f in t, is
            # p2 + e1 t + e2 t^2 at s = 1/2 + t
            if end is None:
                q1 = evaluate(q, u + _NODE1 * hs)
                q2 = evaluate(q, u + 0.5 * hs)
                q3 = evaluate(q, u + _NODE3 * hs)
                p2 = q2 - l
            else:
                q1 = coefficient(u + _NODE1 * hs)
                q2 = coefficient(u + 0.5 * hs)
                q3 = coefficient(u + _NODE3 * hs)
                p2 = q2
            h2 = hs * hs
            e1 = _K * (q3 - q1)
            e2 = (10.0 / 3.0) * (q3 - 2.0 * q2 + q1)
            # Omega = [[a, b], [c, -a]] of the sixth-order Magnus expansion: the
            # fourth-order (a4, hs, c4) plus the sixth-order terms (da, db, dc)
            a4 = -h2 * e1 / 12.0
            c4 = hs * (p2 + e2 / 12.0)
            da = -h2 * a4 * (p2 / 15.0 + e2 / 600.0)
            db = hs * h2 * (h2 * e1 * e1 / 3600.0 - e2 / 180.0)
            dc = hs * h2 * (e2 * p2 / 180.0 + e2 * e2 / 3600.0 - e1 * e1 / 120.0 + h2 * e1 * e1 * p2 / 3600.0)
            a6, b6, c6 = a4 + da, hs + db, c4 + dc
            mu = cmath.sqrt(a6 * a6 + b6 * c6)
            if mu.real > _MAX_GROWTH:
                self.h = h * 0.5 * _MAX_GROWTH / mu.real
                continue
            # where the coefficient varies, |h^2 p2| <= g0_max keeps the
            # defect terms of the step integral inside the range of their
            # series; in t, h <= _MAX_EULER_STEP keeps the weight's there too
            h_cap = min(h_max, math.sqrt(g0_max / abs(p2))) if (e1 or e2) and p2 else h_max
            if h > h_cap:
                self.h = _SAFETY * h_cap
                continue
            ch6, sh6 = _cosh_sinhc(mu)
            # each column's step, and its error: (da, db, dc) applied to the start state
            err = 0.0
            new = []
            for y, dy in zip(ys, dys):
                v = a6 * y + b6 * dy
                y6 = ch6 * y + sh6 * v
                d6 = ch6 * dy + sh6 * (c6 * y - a6 * dy)
                ey = da * y + db * dy
                ed = dc * y - da * dy
                sc_y = abs_tol + rel_tol * max(abs(y), abs(y6))
                sc_dy = abs_tol + rel_tol * max(abs(dy), abs(d6))
                err = max(err, (abs(ey) / sc_y) ** 2 + (abs(ed) / sc_dy) ** 2)
                new.append((y6, d6, v))
            err = math.sqrt(0.5 * err)
            if not math.isfinite(err):
                raise NonFiniteError(f"integration blew up near x={self._x_at(u)}")
            if err > 1.0:
                self.h = h * max(_MIN_FACTOR, _SAFETY * err ** -0.2)
                continue
            start = u
            u = target if final else u + hs
            g0, g1, g2 = h2 * p2, h2 * e1, h2 * e2
            # in t, |y|^2 |dx| = d^2 |w|^2 dt, and d^2 falls as e^(-2 hs s) across the step
            k = 0.0 if end is None else -2.0 * hs
            for i, (y6, d6, v) in enumerate(new):
                y = ys[i]
                if not green:
                    weight = h if end is None else h * math.exp(2.0 * (refs[i] - start))
                    totals[i] += weight * (_weighted_square_integral(mu, k, y, v) + _weighted_defect(g0, g1, g2, k, y, hs * dys[i]))
                s = abs(y6) + abs(d6)
                if s == 0.0 or not math.isfinite(s):
                    raise NonFiniteError(f"solution state degenerate at x={self._x_at(u)}")
                if s > band or s < inv_band:
                    if not green:
                        logs[i] = _fold(logs[i], totals[i], scales[i] - refs[i])
                        totals[i] = 0.0
                        if end is not None:
                            refs[i] = u
                    y6 /= s
                    d6 /= s
                    scales[i] += math.log(s)
                ys[i], dys[i] = y6, d6
            grown = min(h * min(_MAX_FACTOR, _SAFETY * err ** -0.2 if err else _MAX_FACTOR), _SAFETY * h_cap)
            # a last step cut short at a stop does not shrink the next one
            self.h = max(self.h, grown) if final else grown
            if final:
                if not stops:
                    if green:
                        return [
                            (ys[i], dys[i], scales[i], _green_log_integral(f0, s0, (ys[i].conjugate() * dys[i]).imag, scales[i], sign, l.imag, x1))
                            for i, (f0, s0) in enumerate(starts)
                        ]
                    out = [(ys[i], dys[i], scales[i], _fold(logs[i], totals[i], scales[i] - refs[i])) for i in range(n)]
                    if end is None:
                        return out
                    # y = d^(1/2) w and dy/dd = d^(-1/2) (w / 2 - w_t), with d^(-1/2) in the log scale
                    d1 = abs(x1 - end)
                    return [(*_normalized(d1 * w, self.side * (0.5 * w - wt), scale + 0.5 * u), log) for w, wt, scale, log in out]
                target = stops.pop(0)

    def _euler_coefficient(self, t: float) -> complex:
        """f = 1/4 + d^2 (q - l) at d = e^(-t), with d^2 q taken as (d q) d, finite wherever q is."""
        d = math.exp(-t)
        return 0.25 + (d * evaluate(self.q, self.end + self.side * d)) * d - self.l * (d * d)

    def _x_at(self, u: float) -> float:
        """The abscissa at the frame's variable u."""
        return u if self.end is None else self.end + self.side * math.exp(-u)


def _cosh_sinhc(mu: complex) -> Tuple[complex, complex]:
    """cosh(mu) and sinh(mu) / mu, so that exp(Omega) = cosh(mu) I + sinh(mu) / mu Omega for Omega^2 = mu^2 I."""
    if mu == 0.0:
        return 1.0, 1.0
    return cmath.cosh(mu), cmath.sinh(mu) / mu


def _weighted_square_integral(mu: complex, k: float, y: complex, v: complex) -> float:
    """Integral over s in [0, 1] of e^(k s) |y cosh(mu s) + v sinh(mu s) / mu|^2.

    With mu = r + i t, |cosh|^2, |sinh / mu|^2 and cosh conj(sinh / mu)
    are (C + c) / 2, (C - c) / (2 |mu|^2) and (S - i s) / (2 conj(mu)),
    where C, S, c and s are cosh(2rs), sinh(2rs), cos(2ts) and sin(2ts).
    Against the weight they integrate through E(z) = (e^z - 1) / z at
    z = k + 2r, k - 2r and k + 2it. C - c cancels there, to a relative
    error of about eps / |mu|^2, at most 2e-12, far below any step's
    tolerance; for |mu|^2 < 1/2048 they are summed instead as power series
    in r^2 and t^2, whose coefficients are the moments of the weight.
    """
    r, t = mu.real, mu.imag
    x, w = r * r, t * t
    mu2 = x + w
    if mu2 < 0.00048828125:
        # the moments M_j of the weight, integrals of s^j e^(k s): the
        # series M_7 = e^k 7! sum_m (-k)^m / (8 + m)! converges fast, and
        # M_(j-1) = (e^k - k M_j) / j downward shrinks its error by |k| / j
        ek = math.exp(k)
        term = m7 = ek / 8.0
        tol = 1e-17 * term
        j = 8
        while abs(term) > tol:
            j += 1
            term *= -k / j
            m7 += term
        m6 = (ek - k * m7) / 7.0
        m5 = (ek - k * m6) / 6.0
        m4 = (ek - k * m5) / 5.0
        m3 = (ek - k * m4) / 4.0
        m2 = (ek - k * m3) / 3.0
        m1 = (ek - k * m2) / 2.0
        m0 = ek - k * m1
        # the coefficients 4^n / (2n)! and 4^n / (2n + 1)! times the moments
        c1, c2, c3 = 2.0 * m2, m4 * (2.0 / 3.0), m6 * (4.0 / 45.0)
        s1, s2, s3 = m3 * (2.0 / 3.0), m5 * (2.0 / 15.0), m7 * (4.0 / 315.0)
        xp = x * (c1 + x * (c2 + x * c3))
        wp = w * (c1 - w * (c2 - w * c3))
        kcc = m0 + 0.5 * (xp - wp)
        if mu2 == 0.0:
            return abs(y) ** 2 * kcc + abs(v) ** 2 * m2 + 2.0 * m1 * (y * v.conjugate()).real
        kss = 0.5 * (xp + wp) / mu2
        ox = x * (s1 + x * (s2 + x * s3))
        ow = w * (s1 - w * (s2 - w * s3))
        cross = m1 + complex(r * ox, t * ow) / mu.conjugate()
    else:
        ep, em = _phi(k + 2.0 * r), _phi(k - 2.0 * r)
        # E(k + 2it), with e^(k + 2it) - 1 = expm1(k) - 2 e^k sin(t)^2 + 2i e^k sin(t) cos(t)
        em1, sn = math.expm1(k), math.sin(t)
        ek = 1.0 + em1
        ec = complex(em1 - 2.0 * ek * sn * sn, 2.0 * ek * sn * math.cos(t)) / complex(k, 2.0 * t) if k or t else 1.0
        kcc = 0.25 * (ep + em) + 0.5 * ec.real
        kss = (0.25 * (ep + em) - 0.5 * ec.real) / mu2
        cross = complex(0.5 * (ep - em), -ec.imag) / (2.0 * mu.conjugate())
    return abs(y) ** 2 * kcc + abs(v) ** 2 * kss + 2.0 * (y * v.conjugate() * cross).real


def _phi(z: float) -> float:
    """(e^z - 1) / z, the integral of e^(z s) over s in [0, 1]."""
    return math.expm1(z) / z if z else 1.0


def _weighted_defect(g0: complex, g1: complex, g2: complex, k: float, y: complex, w: complex) -> float:
    """Leading terms of the integral of e^(k s) |y|^2 over the unit step, true solution minus frozen one.

    In the step's own variable s in [0, 1], y'' = g(s) y with the complex
    coefficient g = g0 + g1 (s - 1/2) + g2 (s - 1/2)^2, and y(0) = y,
    y'(0) = w; the frozen solution is exp(s Omega) applied to that data.
    The terms kept are those up to the sixth power of the step length,
    from the Taylor series of both solutions (g0 counts as its second
    power, g1 as its third, g2 as its fourth and k as its first), in the
    real and imaginary parts a + i b, p + i q and r + i s of g0, g1, g2.
    """
    a, b = g0.real, g0.imag
    p, q = g1.real, g1.imag
    r, s = g2.real, g2.imag
    kk = k * k
    on_yy = (
        r * (1.0 / 180.0 + k / 360.0 + kk / 1260.0)
        - p * (k / 360.0 + kk / 720.0 + kk * k / 2520.0)
        + p * p / 1080.0
        - q * q / 2520.0
        + (a * r + b * s) / 1260.0
        - a * p * (1.0 / 180.0 + k / 270.0)
        + b * q * (1.0 / 360.0 + k / 756.0)
    )
    on_ww = r / 756.0 - p * (1.0 / 180.0 + k / 252.0)
    # the coefficient of 2 Re(w conj(y))
    re = r * (1.0 / 360.0 + k * 11.0 / 7560.0) - p * (1.0 / 180.0 + k / 240.0 + kk / 630.0 + a / 378.0) + q * b / 3780.0
    im = p * b / 540.0 - k * s / 7560.0 - q * (1.0 / 360.0 + k / 720.0 + kk / 2520.0 - a / 3780.0)
    wy = w * y.conjugate()
    return on_yy * abs(y) ** 2 + on_ww * abs(w) ** 2 + 2.0 * (re * wy.real - im * wy.imag)


def _green_log_integral(f0: float, s0: float, f1: float, s1: float, sign: float, im_l: float, x1: float) -> float:
    """log of the integral of |y|^2 |dx| from x0 to x1, Green's boundary term of the states there.

    For a real q, Im(conj(y) y')' = -Im(l) |y|^2, so the integral is
    sign (F0 e^(2 s0) - F1 e^(2 s1)) / Im(l), where F0 and F1 are
    Im(conj(y) y') of the mantissas at x0 and x1, s0 and s1 their log
    scales and sign the direction of the march. It is formed against
    m = max(2 s0, 2 s1), so it never overflows. A difference that is not
    positive, the integral lost to cancellation, raises NonFiniteError:
    its log would be -inf, which a fit reads as super-geometric decay.
    """
    m = 2.0 * max(s0, s1)
    diff = sign * (f0 * math.exp(2.0 * s0 - m) - f1 * math.exp(2.0 * s1 - m)) / im_l
    if not 0.0 < diff < math.inf:
        raise NonFiniteError(f"Green's identity leaves no positive integral of |y|^2 up to x={x1!r}: {diff!r}")
    return math.log(diff) + m


def _fold(log_total: float, scaled_sum: float, log_scale: float) -> float:
    """log(exp(log_total) + scaled_sum * exp(2 * log_scale)) without overflow."""
    if scaled_sum <= 0.0:
        return log_total
    term = math.log(scaled_sum) + 2.0 * log_scale
    hi, lo = (log_total, term) if log_total > term else (term, log_total)
    return hi + math.log1p(math.exp(lo - hi))


def _unresolvable(x0: float, x1: float) -> bool:
    """True when [x0, x1] is too narrow to march: at most 64 eps of its larger end."""
    return abs(x1 - x0) <= 64.0 * _EPS * max(abs(x0), abs(x1))


def _whole_shells(outer: float, inner: float) -> int:
    """floor(log2(outer / inner)), at least 0, also where the quotient leaves float range."""
    ratio = outer / inner
    return max(0, math.floor(math.log2(ratio) if 0.0 < ratio < math.inf else math.log2(outer) - math.log2(inner)))


def shell_edges(x_start: float, x_end: float, cfg: IntegratorConfig) -> List[float]:
    """Exact edges of the whole dyadic shells from x_start toward x_end.

    Toward a finite target at distance d, edge 0 is x_start itself and
    edge k >= 1 lies at distance d * 2^(-k) from the target, for the
    whole shells that stay at least cfg.x_min away, and it stops before
    the first shell too narrow to march, where d * 2^(-k) falls below the
    float resolution at the target. When the first shell is already that
    narrow the edges are left as they are, so the march of that shell
    fails and names the interval. Toward an infinite
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
    edges = [x_start] + [x_end - direction * math.ldexp(distance, -k) for k in range(1, n + 1)]
    if n and not _unresolvable(x_start, edges[1]):
        for k in range(2, n + 1):
            if _unresolvable(edges[k - 1], edges[k]):
                return edges[:k]
    return edges


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
    return _march(q, complex(l), grid, [init], _stepper or _Stepper(q, complex(l), cfg))[0]


def _march(q: Potential, l: complex, grid: Sequence[float], inits: Sequence[ComplexState], stepper: _Stepper):
    """One trace per initial state, all marched on the stepper's one step sequence."""
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
    states = [_normalized(complex(s.y), complex(s.dy), float(s.log_scale)) for s in inits]
    rows = [states]
    integrals = []
    for x0, x1 in pairs:
        out = stepper.advance(x0, x1, states)
        states = [o[:3] for o in out]
        rows.append(states)
        integrals.append([o[3] for o in out])
    traces = []
    for k in range(len(inits)):
        y, dy, log_scale = zip(*(row[k] for row in rows))
        traces.append(
            SolutionTrace(
                eigenvalue=l,
                x=points,
                y=y,
                dy=dy,
                log_scale=log_scale,
                potential=q,
                direction=1 if points[-1] > points[0] else -1,
                log_square_integrals=tuple(i[k] for i in integrals),
            )
        )
    return traces


def fundamental_pair(
    q: Potential,
    l: complex,
    x0: float,
    target: float,
    cfg: Optional[IntegratorConfig] = None,
) -> Tuple[SolutionTrace, SolutionTrace]:
    """The fundamental pair: the solution with data (1, 0) and the one with (0, 1) at the anchor x0.

    Both are marched on one step sequence, so each step applies one
    propagator, of determinant 1, to both columns, and their Wronskian
    stays 1 to rounding.
    """
    cfg = cfg or IntegratorConfig()
    grid = build_grid(q, x0, target, cfg)
    l = complex(l)
    return tuple(_march(q, l, grid, [ComplexState(1.0, 0.0), ComplexState(0.0, 1.0)], _Stepper(q, l, cfg)))


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
