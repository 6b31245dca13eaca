"""Numeric regularity oracles on sampled functions.

Three executable identities back the rest of the package: the
fundamental theorem of calculus (integral of f' recovers the boundary
difference), the integration-by-parts identity against compactly
supported C^1 bumps (which is what having a weak derivative means), and
dyadic-shell convergence of the integrals of |f|, |f'|, |f''| toward 0
(membership in the spaces of functions with one or two integrable
derivatives).

Every identity tested here is exact in the continuum, so residuals are
pure quadrature error: composite trapezoid on the supplied grid, with
an h^2 error model. All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .classify import DEFAULT_MARGIN, TailReport, joint_status
from .errors import (
    BumpNotInteriorError,
    InsufficientTailError,
    MissingDerivativeError,
    OutOfRangeError,
)
from .odeint import IntegratorConfig, shell_edges
from .quadrature import cumulative_trapezoid, log_trapezoid, trapezoid

_EPS = float(np.finfo(float).eps)
_MAX_SHELLS = 32  # dyadic shells toward 0 that a shell report reads at most


@dataclass(frozen=True)
class SampledFunction:
    """Function samples on a strictly increasing grid.

    Derivative samples are optional; fixtures carry their own exact
    derivatives because detecting differentiability from raw samples is
    not possible from finite data.
    """

    grid: np.ndarray
    values: np.ndarray
    derivative_values: Optional[np.ndarray] = None
    second_derivative_values: Optional[np.ndarray] = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.size < 4:
            raise ValueError("grid needs at least 4 points")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if values.shape != grid.shape:
            raise ValueError("values must match the grid")
        for name in ("derivative_values", "second_derivative_values"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr)
                if arr.shape != grid.shape:
                    raise ValueError(f"{name} must match the grid")
                object.__setattr__(self, name, arr)

    def index_of(self, x: float) -> int:
        tol = 4.0 * _EPS * max(1.0, abs(x))
        idx = np.nonzero(np.abs(self.grid - x) <= tol)[0]
        if idx.size == 0:
            raise OutOfRangeError(f"x={x} is not a grid point")
        return int(idx[0])


@dataclass(frozen=True)
class BumpTest:
    """C^1 quartic bump (1 - t^2)^2 with t = (x - center)/width.

    Compactly supported and continuously differentiable, which is all
    the weak-derivative identity requires of a test function.
    """

    center: float
    width: float

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")

    def value(self, x: np.ndarray) -> np.ndarray:
        t = (np.asarray(x, dtype=float) - self.center) / self.width
        inside = np.abs(t) < 1.0
        out = np.zeros_like(t)
        out[inside] = (1.0 - t[inside] ** 2) ** 2
        return out

    def derivative(self, x: np.ndarray) -> np.ndarray:
        t = (np.asarray(x, dtype=float) - self.center) / self.width
        inside = np.abs(t) < 1.0
        out = np.zeros_like(t)
        out[inside] = -4.0 * t[inside] * (1.0 - t[inside] ** 2) / self.width
        return out


def check_fundamental_theorem(f: SampledFunction, a: float, b: float) -> float:
    """| integral of f' over [a, b] - (f(b) - f(a)) | by trapezoid quadrature."""
    if f.derivative_values is None:
        raise MissingDerivativeError("fundamental-theorem check needs f'")
    i, j = f.index_of(a), f.index_of(b)
    if i > j:
        i, j = j, i
    sl = slice(i, j + 1)
    integral = trapezoid(f.derivative_values[sl], f.grid[sl])
    return float(abs(integral - (f.values[j] - f.values[i])))


def check_weak_derivative(
    u: SampledFunction, g: SampledFunction, tests: Sequence[BumpTest]
) -> float:
    """Max over bumps of | integral(u phi') + integral(g phi) |.

    Vanishes identically when g is the weak derivative of u; the residual
    on samples is the trapezoid error of the two integrals.
    """
    if not np.array_equal(u.grid, g.grid):
        raise ValueError("u and g must share one grid")
    x = u.grid
    worst = 0.0
    for bump in tests:
        lo, hi = bump.center - bump.width, bump.center + bump.width
        if lo <= x[0] or hi >= x[-1]:
            raise BumpNotInteriorError(
                f"bump support [{lo}, {hi}] reaches the boundary of [{x[0]}, {x[-1]}]"
            )
        resid = trapezoid(u.values * bump.derivative(x), x) + trapezoid(
            g.values * bump.value(x), x
        )
        worst = max(worst, float(abs(resid)))
    return worst


def antiderivative_samples(g: SampledFunction, y0: float) -> SampledFunction:
    """The running integral of g as a SampledFunction with derivative g."""
    i = g.index_of(y0)
    cum = cumulative_trapezoid(g.values, g.grid)
    return SampledFunction(
        grid=g.grid, values=cum - cum[i], derivative_values=g.values
    )


def dyadic_shell_log_integrals(x: np.ndarray, log_v: np.ndarray) -> List[float]:
    """Log of the integrals of exp(log_v) over dyadic shells toward 0.

    Shells are measured in |x|; they are odeint.shell_edges from the
    sample farthest out toward 0, whole shells down to the nearest
    sample, so shell k spans one factor of two and increasing k
    approaches 0, for at most _MAX_SHELLS shells. Shell boundaries
    falling between samples are filled in by interpolating log_v
    linearly (exact for exponentials and powers).
    """
    coord = np.abs(np.asarray(x, dtype=float))
    log_v = np.asarray(log_v, dtype=float)
    order = np.argsort(coord)
    coord = coord[order]
    vals = log_v[order]
    if coord[0] <= 0.0:
        raise ValueError("samples must keep a positive distance from 0")
    edges = shell_edges(float(coord[-1]), 0.0, IntegratorConfig(x_min=float(coord[0])))[: _MAX_SHELLS + 1]
    if len(edges) < 2:
        raise InsufficientTailError("samples span less than one dyadic shell")
    out: List[float] = []
    for hi, lo in zip(edges, edges[1:]):
        xs, ls = _clip_samples(coord, vals, lo, hi)
        out.append(log_trapezoid(ls, xs))
    return out


def _clip_samples(coord, vals, lo, hi):
    """Samples inside [lo, hi] with interpolated boundary values."""
    inside = (coord >= lo) & (coord <= hi)
    xs = coord[inside].tolist()
    ls = vals[inside].tolist()
    if not xs or xs[0] > lo * (1 + 1e-12):
        ls.insert(0, float(np.interp(lo, coord, vals)))
        xs.insert(0, lo)
    if xs[-1] < hi * (1 - 1e-12):
        ls.append(float(np.interp(hi, coord, vals)))
        xs.append(hi)
    return np.asarray(xs), np.asarray(ls)


_MEMBERSHIP = {"convergent": True, "divergent": False, "inconclusive": None}


@dataclass(frozen=True)
class W21Report:
    """Shell convergence of |f|, |f'|, |f''| toward 0.

    tails[i] is the dyadic-shell evidence for the i-th integrand, and
    statuses[i] its 'convergent', 'divergent' or 'inconclusive' reading;
    membership verdicts are None when the evidence is inconclusive.
    """

    tails: Tuple[TailReport, TailReport, TailReport]

    @property
    def statuses(self) -> Tuple[str, ...]:
        return tuple(t.status for t in self.tails)

    @property
    def in_w11(self) -> Optional[bool]:
        return _MEMBERSHIP[joint_status(self.statuses[:2])]

    @property
    def in_w21(self) -> Optional[bool]:
        return _MEMBERSHIP[joint_status(self.statuses)]


def w21_report(f: SampledFunction) -> W21Report:
    """Integrable-derivative membership of f near 0.

    Requires first and second derivative samples (analytic fixtures, or
    reconstructed from a differential equation). Each tail reads its
    shell ratio against the guard band DEFAULT_MARGIN. The grid must span
    at least four dyadic shells toward 0.
    """
    if f.derivative_values is None or f.second_derivative_values is None:
        raise MissingDerivativeError("w21_report needs f' and f'' samples")
    tails: List[TailReport] = []
    for data in (f.values, f.derivative_values, f.second_derivative_values):
        with np.errstate(divide="ignore"):
            log_v = np.log(np.abs(np.asarray(data, dtype=complex))).real
        tails.append(TailReport(tuple(dyadic_shell_log_integrals(f.grid, log_v)), DEFAULT_MARGIN))
    return W21Report(tuple(tails))
