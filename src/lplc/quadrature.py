"""Small quadrature primitives used across the package.

Composite trapezoid rules (plain, cumulative, and log-domain) plus a
uniform Simpson rule. The log-domain variant accumulates the trapezoid
sum of exp(log_y) entirely in logarithms so integrands spanning
thousands of orders of magnitude never overflow.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_LN2 = math.log(2.0)


def trapezoid(y: np.ndarray, x: np.ndarray):
    """Composite trapezoid of samples y over abscissas x."""
    import numpy as np

    y = np.asarray(y)
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        return 0.0 * (y[0] if y.size else 0.0)
    return 0.5 * np.sum((y[1:] + y[:-1]) * np.diff(x))


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral, zero at the first abscissa."""
    import numpy as np

    y = np.asarray(y)
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=np.result_type(y, float))
    out[0] = 0.0
    np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x), out=out[1:])
    return out


def log_trapezoid(log_y: np.ndarray, x: np.ndarray) -> float:
    """Return log of the trapezoid integral of exp(log_y) over increasing x.

    Entries of log_y may be -inf (integrand zero there). Returns -inf for
    fewer than two samples or an identically vanishing integrand.
    """
    import numpy as np

    log_y = np.asarray(log_y, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        return -math.inf
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("log_trapezoid needs strictly increasing abscissas")
    terms = np.log(dx) + np.logaddexp(log_y[:-1], log_y[1:]) - _LN2
    return float(np.logaddexp.reduce(terms))


def simpson(f, a: float, b: float, panels: int) -> float:
    """Composite Simpson rule for a callable on [a, b] with an even panel count."""
    import numpy as np

    x = np.linspace(a, b, panels + 1)
    y = np.asarray([f(t) for t in x], dtype=float)
    h = (b - a) / panels
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))
