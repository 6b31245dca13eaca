"""Self-adjoint extensions of -d^2/dx^2 on the half line.

The deficiency spaces of the free half-line operator are each spanned by
a single decaying exponential mode, so the symmetric extensions are in
bijection with phase factors e^{ic}, c in [0, 2pi). Combining the two
modes with that phase and integrating by parts yields one boundary
condition alpha xi(0) + beta xi'(0) = 0 per c; the parameter values pi
and pi/2 reproduce the Dirichlet and Neumann conditions exactly.

Also here: the two demonstration sequences used to show that the
Dirichlet and Neumann domains are simultaneously closed and open inside
L^2, implemented literally with their jump discontinuities.

Everything in this module is a pure closed-form function.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple, Union

from .errors import SingularRatioError
from .quadrature import simpson

if TYPE_CHECKING:
    import numpy as np

_SQRT2 = math.sqrt(2.0)
_TWO_PI = 2.0 * math.pi
_NORM_CUTOFF, _NORM_PANELS = 30.0, 6000  # deficiency_norm_squared's Simpson rule

# numpy is imported only by the functions that take or build arrays.
ArrayLike = Union[float, "np.ndarray"]


@dataclass(frozen=True)
class DeficiencyFunction:
    """One deficiency mode: exp(mu x) with mu = (sign*i - 1)/sqrt(2).

    Solves -phi'' = (sign i) phi and satisfies |phi(x)| = exp(-x/sqrt(2))
    for either sign, so both modes are square integrable on the half
    line with squared norm 2^(-1/2).
    """

    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def exponent(self) -> complex:
        return (self.sign * 1j - 1.0) / _SQRT2

    def __call__(self, x: ArrayLike) -> Union[complex, np.ndarray]:
        import numpy as np

        if isinstance(x, np.ndarray):
            return np.exp(self.exponent * x)
        return cmath.exp(self.exponent * x)

    def second_derivative(self, x: ArrayLike) -> Union[complex, np.ndarray]:
        return self.exponent * self.exponent * self(x)


def deficiency_function(sign: int, x: ArrayLike) -> Union[complex, np.ndarray]:
    """Value of the deficiency mode for the given sign at x >= 0."""
    return DeficiencyFunction(sign)(x)


def deficiency_norm_squared(sign: int) -> float:
    """Quadrature of |phi|^2 on [0, cutoff] plus the exact exponential tail.

    The integrand is exp(-sqrt(2) x); the remainder beyond the cutoff is
    exp(-sqrt(2) cutoff)/sqrt(2), which is added so the only error left
    is the Simpson error of the finite part.
    """
    phi = DeficiencyFunction(sign)
    body = simpson(lambda t: abs(phi(t)) ** 2, 0.0, _NORM_CUTOFF, _NORM_PANELS)
    tail = math.exp(-_SQRT2 * _NORM_CUTOFF) / _SQRT2
    return body + tail


def isometry_phase(x: float, c: float) -> float:
    """Phase theta(x, c) = -sqrt(2) x + c mapping one deficiency mode to the other.

    Pointwise, exp(i theta) phi_plus(x) equals exp(i c) phi_minus(x).
    """
    return -_SQRT2 * x + c


def _check_parameter(c: float) -> None:
    """Reject an extension parameter outside [0, 2*pi), NaN included."""
    if not 0.0 <= c < _TWO_PI:
        raise ValueError("c must lie in [0, 2*pi)")


@dataclass(frozen=True)
class BoundaryCondition:
    """Normalized pair (alpha, beta) of alpha xi(0) + beta xi'(0) = 0.

    |alpha|^2 + |beta|^2 = 1 and the first component that is not zero is
    rotated to be real and positive, so equal extension parameters give
    bitwise equal pairs.
    """

    c: float
    alpha: complex
    beta: complex

    def __post_init__(self):
        _check_parameter(self.c)
        n = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(n - 1.0) > 1e-9:
            raise ValueError("(alpha, beta) must be normalized")

    def kind(self) -> str:
        """'dirichlet', 'neumann' or 'generic'."""
        if abs(self.beta) < 1e-12:
            return "dirichlet"
        if abs(self.alpha) < 1e-12:
            return "neumann"
        return "generic"


def _raw_boundary_pair(c: float) -> Tuple[complex, complex]:
    phase = cmath.exp(1j * c)
    alpha = ((1j + 1.0) * phase - (1j - 1.0)) / _SQRT2
    beta = phase + 1.0
    return alpha, beta


def boundary_condition(c: float) -> BoundaryCondition:
    """Boundary condition selecting the extension with parameter c.

    c = pi gives the Dirichlet condition (beta = 0) and c = pi/2 the
    Neumann condition (alpha = 0), both exactly up to rounding.
    """
    _check_parameter(c)
    alpha, beta = _raw_boundary_pair(c)
    norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    alpha /= norm
    beta /= norm
    lead = alpha if abs(alpha) > 1e-13 else beta
    rotation = abs(lead) / lead
    return BoundaryCondition(c=c, alpha=alpha * rotation, beta=beta * rotation)


def adjoint_ratio(c: float, kind: int) -> complex:
    """Boundary-value ratio of the adjoint domain with parameter c.

    kind=1 returns xi(0)/xi'(0) = -sqrt(2)(e^{ic}+1) / (1+e^{ic}+i(e^{ic}-1)),
    undefined at c = pi/2; kind=2 returns the reciprocal ratio
    xi'(0)/xi(0), undefined at c = pi. c must lie in [0, 2*pi).
    """
    _check_parameter(c)
    if kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    phase = cmath.exp(1j * c)
    numerator = -_SQRT2 * (phase + 1.0)
    denominator = 1.0 + phase + 1j * (phase - 1.0)
    if kind == 1:
        if abs(denominator) < 1e-10:
            raise SingularRatioError("xi(0)/xi'(0) is singular at c = pi/2")
        return numerator / denominator
    if abs(numerator) < 1e-10:
        raise SingularRatioError("xi'(0)/xi(0) is singular at c = pi")
    return denominator / numerator


@dataclass(frozen=True)
class ExtensionDomainElement:
    """The boundary data at 0 of base + z (phi_plus + e^{ic} phi_minus).

    The base function of the domain vanishes near 0, so the boundary
    data depend on z and c alone.
    """

    z: complex
    c: float

    def value_at_zero(self) -> complex:
        return self.z * (1.0 + cmath.exp(1j * self.c))

    def derivative_at_zero(self) -> complex:
        phase = cmath.exp(1j * self.c)
        return self.z * ((1j - 1.0) - phase * (1j + 1.0)) / _SQRT2


def domain_membership_residual(element: ExtensionDomainElement) -> float:
    """|alpha psi(0) + beta psi'(0)| for the element's own parameter c.

    Zero to rounding for every (z, c): the boundary pair annihilates the
    deficiency combination by construction.
    """
    bc = boundary_condition(element.c)
    return abs(bc.alpha * element.value_at_zero() + bc.beta * element.derivative_at_zero())


def sequence_f(n: int, a: float, x: ArrayLike) -> ArrayLike:
    """Member n of the sequence x^{3/2} on [0, 1/n), x^{-1/3} on [1/n, a), 0 beyond.

    Converges in L^2 to x^{-1/3} restricted to (0, a), which is
    unbounded at the origin, while every member vanishes there together
    with its derivative. The jumps are intentional and kept literal.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not a > 1.0:
        raise ValueError("a must exceed 1")
    import numpy as np

    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(arr)
    head = arr < 1.0 / n
    mid = (arr >= 1.0 / n) & (arr < a)
    out[head] = arr[head] ** 1.5
    out[mid] = arr[mid] ** (-1.0 / 3.0)
    return out if isinstance(x, np.ndarray) else float(out[0])


def sequence_g(n: int, a: float, x: ArrayLike) -> ArrayLike:
    """Member n of the sequence 1/n - (x - 1/n)^2 on [0, a), 0 beyond.

    Has nonzero value and derivative at 0 for every n, yet converges in
    L^2 to -x^2 on [0, a), whose value and derivative at 0 both vanish.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not a > 0.0:
        raise ValueError("a must be positive")
    import numpy as np

    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(arr)
    inside = arr < a
    out[inside] = 1.0 / n - (arr[inside] - 1.0 / n) ** 2
    return out if isinstance(x, np.ndarray) else float(out[0])


def sequence_f_boundary(n: int) -> Tuple[float, float]:
    """(value, one-sided derivative) of member n at x = 0: always (0, 0)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return 0.0, 0.0


def sequence_g_boundary(n: int) -> Tuple[float, float]:
    """(value, derivative) of member n at x = 0: (1/n - 1/n^2, 2/n).

    The value uses the same arithmetic path as sequence_g at x = 0, so
    the two agree bitwise.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    inv = 1.0 / n
    return inv - inv * inv, 2.0 * inv


def sequence_f_l2_distance(n: int) -> float:
    """Exact L^2 distance of member n from the limit x^{-1/3} 1_(0,a).

    The members and the limit agree beyond 1/n, so the distance is the
    norm of (x^{3/2} - x^{-1/3}) over (0, 1/n), with antiderivative
    x^4/4 - (12/13) x^{13/6} + 3 x^{1/3}.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    eps = 1.0 / n
    squared = eps**4 / 4.0 - (12.0 / 13.0) * eps ** (13.0 / 6.0) + 3.0 * eps ** (1.0 / 3.0)
    return math.sqrt(squared)


def sequence_g_l2_distance(n: int, a: float) -> float:
    """Exact L^2 distance of member n from the limit -x^2 1_[0,a)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not a > 0.0:
        raise ValueError("a must be positive")
    # difference is (1/n - 1/n^2) + 2x/n on [0, a)
    c0 = 1.0 / n - 1.0 / n**2
    c1 = 2.0 / n
    squared = c0 * c0 * a + c0 * c1 * a * a + c1 * c1 * a**3 / 3.0
    return math.sqrt(squared)
