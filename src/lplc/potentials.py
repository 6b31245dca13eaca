"""Potential models for the one-dimensional operator -y'' + q(x) y.

A small closed family of analytic potentials plus linearly interpolated
tables. Each analytic member knows the exact limit of x^2 q(x) at the
origin, which is what the asymptotic endpoint classifier consumes. The
centrifugal reduction of an n-dimensional central potential to the half
line is provided by :func:`effective_potential`.

All instances are immutable after construction and safe for concurrent
reads.
"""

from __future__ import annotations

import bisect
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import NonFiniteError, OutOfRangeError


class Potential:
    """Base class for potential terms q(x).

    Subclasses implement ``_raw(x)`` (may raise arithmetic errors),
    ``origin_coefficient`` and the canonical dict encoding, and override
    ``is_even`` when the formula is even bit for bit and ``breakpoints``
    when q has kinks.
    """

    def _raw(self, x: float) -> float:
        raise NotImplementedError

    def is_even(self) -> bool:
        """True only when _raw(-x) == _raw(x) bit for bit at every x.

        Negation is exact and rounding is symmetric in sign, so a formula
        built from x only through x*x or an even integer power qualifies.
        """
        return False

    def origin_coefficient(self) -> Optional[float]:
        """Limit of x^2 q(x) as x -> 0+, or None when absent/divergent."""
        raise NotImplementedError

    def breakpoints(self) -> Tuple[float, ...]:
        """Increasing abscissas where q is not smooth; the integrator never steps across one."""
        return ()

    def to_dict(self) -> dict:
        raise NotImplementedError

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class Zero(Potential):
    """q(x) = 0."""

    def _raw(self, x: float) -> float:
        return 0.0

    def is_even(self) -> bool:
        return True

    def origin_coefficient(self) -> Optional[float]:
        return 0.0

    def to_dict(self) -> dict:
        return {"type": "zero"}


@dataclass(frozen=True)
class InverseSquare(Potential):
    """q(x) = c / x^2, and 0 everywhere, 0 included, for c = 0."""

    c: float

    def _raw(self, x: float) -> float:
        return self.c / (x * x) if self.c else 0.0

    def is_even(self) -> bool:
        return True

    def origin_coefficient(self) -> Optional[float]:
        return float(self.c)

    def to_dict(self) -> dict:
        return {"type": "inverse_square", "c": float(self.c)}


@dataclass(frozen=True)
class Coulomb(Potential):
    """q(x) = z / x, and 0 everywhere, 0 included, for z = 0."""

    z: float

    def _raw(self, x: float) -> float:
        return self.z / x if self.z else 0.0

    def origin_coefficient(self) -> Optional[float]:
        return 0.0

    def to_dict(self) -> dict:
        return {"type": "coulomb", "z": float(self.z)}


@dataclass(frozen=True)
class PowerLaw(Potential):
    """q(x) = c * x^p, and 0 everywhere, 0 included, for c = 0."""

    c: float
    p: float

    def _raw(self, x: float) -> float:
        return self.c * math.pow(x, self.p) if self.c else 0.0

    def is_even(self) -> bool:
        # pow(-x, p) is pow(x, p) exactly for an even integer p
        return float(self.p).is_integer() and self.p % 2 == 0

    def origin_coefficient(self) -> Optional[float]:
        if self.c == 0.0 or self.p > -2.0:
            return 0.0
        if self.p == -2.0:
            return float(self.c)
        return None  # x^2 * c x^p diverges for p < -2

    def to_dict(self) -> dict:
        return {"type": "power_law", "c": float(self.c), "p": float(self.p)}


@dataclass(frozen=True)
class Harmonic(Potential):
    """q(x) = k * x^2."""

    k: float

    def _raw(self, x: float) -> float:
        return self.k * x * x

    def is_even(self) -> bool:
        return True

    def origin_coefficient(self) -> Optional[float]:
        return 0.0

    def to_dict(self) -> dict:
        return {"type": "harmonic", "k": float(self.k)}


@dataclass(frozen=True)
class Sum(Potential):
    """Pointwise sum of potentials. The term list must be non-empty."""

    terms: Tuple[Potential, ...]

    def __init__(self, terms: Sequence[Potential]):
        terms = tuple(terms)
        if not terms:
            raise ValueError("Sum requires at least one term")
        object.__setattr__(self, "terms", terms)

    def _raw(self, x: float) -> float:
        total = 0.0
        for t in self.terms:
            total += t._raw(x)
        return total

    def is_even(self) -> bool:
        return all(t.is_even() for t in self.terms)

    def breakpoints(self) -> Tuple[float, ...]:
        return tuple(sorted(set().union(*(t.breakpoints() for t in self.terms))))

    def origin_coefficient(self) -> Optional[float]:
        total = 0.0
        for t in self.terms:
            part = t.origin_coefficient()
            if part is None:
                return None  # conservative: any unknown member poisons the sum
            total += part
        return total

    def to_dict(self) -> dict:
        return {"type": "sum", "terms": [t.to_dict() for t in self.terms]}


@dataclass(frozen=True)
class Tabulated(Potential):
    """Linear interpolation of sampled values; refuses to extrapolate.

    The samples are checked and kept as tuples of floats, which the
    scalar lookup in _raw reads, so a table of plain numbers is built
    without numpy.
    """

    def __init__(self, x: Sequence[float], q: Sequence[float]):
        xs, qs = _float_samples(x), _float_samples(q)
        if len(xs) != len(qs):
            raise ValueError("x and q must be 1-d arrays of equal length")
        if len(xs) < 4:
            raise ValueError("tabulated potential needs at least 4 points")
        if not all(lo < hi for lo, hi in zip(xs, xs[1:])):
            raise ValueError("tabulated grid must be strictly increasing")
        if not all(map(math.isfinite, xs + qs)):
            raise ValueError("tabulated data must be finite")
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_qs", qs)

    def _raw(self, x: float) -> float:
        xs, qs = self._xs, self._qs
        if not xs[0] <= x <= xs[-1]:
            if x != x:
                return x  # NaN, which evaluate() reports as not finite
            raise OutOfRangeError(
                f"x={x} outside tabulated range [{xs[0]}, {xs[-1]}]"
            )
        j = bisect.bisect_right(xs, x) - 1
        if j == len(xs) - 1 or xs[j] == x:
            return qs[j]
        # np.interp's own formula, so results match it bit for bit
        slope = (qs[j + 1] - qs[j]) / (xs[j + 1] - xs[j])
        return slope * (x - xs[j]) + qs[j]

    def origin_coefficient(self) -> Optional[float]:
        return None  # no trustworthy limit from finite samples

    def breakpoints(self) -> Tuple[float, ...]:
        return self._xs  # q is linear between the knots

    def to_dict(self) -> dict:
        return {"type": "tabulated", "x": list(self._xs), "q": list(self._qs)}

    def __eq__(self, other):
        return isinstance(other, Tabulated) and self._xs == other._xs and self._qs == other._qs

    def __hash__(self):
        return hash((self._xs, self._qs))


@dataclass(frozen=True)
class Mirrored(Potential):
    """q(-x)."""

    base: Potential

    def _raw(self, x: float) -> float:
        return self.base._raw(-x)

    def is_even(self) -> bool:
        return self.base.is_even()

    def breakpoints(self) -> Tuple[float, ...]:
        return tuple(-x for x in reversed(self.base.breakpoints()))

    def origin_coefficient(self) -> Optional[float]:
        return None

    def to_dict(self) -> dict:
        return {"type": "mirrored", "base": self.base.to_dict()}


def evaluate(q: Potential, x: float) -> float:
    """Evaluate q(x), mapping arithmetic failures to package errors.

    Raises OutOfRangeError for tabulated abscissas outside the grid and
    NonFiniteError when an analytic formula overflows or leaves the real
    domain (for example a fractional power of a negative number).
    """
    try:
        value = q._raw(float(x))
    except OutOfRangeError:
        raise
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise NonFiniteError(f"q({x}) is not finite: {exc}") from None
    if not math.isfinite(value):
        raise NonFiniteError(f"q({x}) evaluated to {value}")
    return value


def from_dict(data: dict) -> Potential:
    """Decode the canonical JSON form, e.g. {"type": "inverse_square", "c": 0.75}.

    A missing or malformed field raises ValueError naming the type and
    the field.
    """
    try:
        kind = data["type"]
    except (TypeError, KeyError):
        raise ValueError("potential object needs a 'type' field") from None
    try:
        build, fields = _DECODERS[kind]
    except (TypeError, KeyError):
        raise ValueError(f"unknown potential type {kind!r}") from None
    kwargs = {}
    for name, decode in fields.items():
        if name not in data:
            raise ValueError(f"potential {kind!r} needs a {name!r} field")
        try:
            kwargs[name] = decode(data[name], name)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"potential {kind!r} has a malformed {name!r} field: {exc}") from None
    return build(**kwargs)


def _float_samples(values) -> Tuple[float, ...]:
    """The samples of a 1-d sequence as floats.

    A list or tuple of plain numbers is converted without numpy; anything
    else goes through np.asarray(values, dtype=float).
    """
    if isinstance(values, (list, tuple)) and all(type(v) in (int, float) for v in values):
        return tuple(map(float, values))
    import numpy as np

    samples = np.asarray(values, dtype=float)
    if samples.ndim != 1:
        raise ValueError("x and q must be 1-d arrays of equal length")
    return tuple(samples.tolist())


def json_number(value, name: str, *, integral: bool = False):
    """value as a checked JSON number, or an int when integral; else a ValueError naming it.

    Booleans, strings and null are not numbers, and NaN, the infinities
    and ints beyond float range are not finite.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name!r} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name!r} must be a finite number, got {value!r}")
    if integral and value != int(value):
        raise ValueError(f"{name!r} must be a whole number, got {value!r}")
    return int(value) if integral else value


def _json_real(value, name: str) -> float:
    return float(json_number(value, name))


def _json_reals(values, name: str) -> List[float]:
    return [_json_real(v, name) for v in values]


# type -> (constructor, {field: decoder of the field's JSON value and name})
_DECODERS = {
    "zero": (Zero, {}),
    "inverse_square": (InverseSquare, {"c": _json_real}),
    "coulomb": (Coulomb, {"z": _json_real}),
    "power_law": (PowerLaw, {"c": _json_real, "p": _json_real}),
    "harmonic": (Harmonic, {"k": _json_real}),
    "sum": (Sum, {"terms": lambda terms, _: [from_dict(t) for t in terms]}),
    "tabulated": (Tabulated, {"x": _json_reals, "q": _json_reals}),
    "mirrored": (Mirrored, {"base": lambda base, _: from_dict(base)}),
}


def rho_nl_exact(n: int, l: int) -> Fraction:
    """Centrifugal coefficient (n-1)(n-3)/4 + l(l+n-2) in exact arithmetic, within float range."""
    if not (isinstance(n, int) and isinstance(l, int)):
        raise TypeError("n and l must be integers")
    if n < 1 or l < 0:
        raise ValueError("require n >= 1 and l >= 0")
    rho = Fraction((n - 1) * (n - 3), 4) + Fraction(l * (l + n - 2))
    if rho > sys.float_info.max:
        raise ValueError("'n' and 'l' put the centrifugal coefficient (n-1)(n-3)/4 + l(l+n-2) beyond float range")
    return rho


def lambda_nl(n: int, l: int) -> Tuple[float, float]:
    """Return (lam, L) with lam = l + (n-2)/2 and L = 2*lam + 2."""
    rho_nl_exact(n, l)  # the one check of n and l: lam^2 = rho + 1/4 keeps lam and L in float range
    lam = Fraction(2 * l + n - 2, 2)
    return float(lam), float(2 * lam + 2)


@dataclass(frozen=True)
class EffectiveProblem:
    """A central potential reduced to the half line.

    q_eff(x) = V(x) + rho/x^2 where rho is the exact centrifugal
    coefficient for dimension n and angular momentum l.
    """

    n: int
    l: int
    base: Potential
    rho: float
    q_eff: Potential


def effective_potential(V: Potential, n: int, l: int) -> EffectiveProblem:
    """Wrap V with the centrifugal term for dimension n, angular momentum l."""
    rho_exact = rho_nl_exact(n, l)
    # Both closed forms of the coefficient must coincide identically.
    alt = Fraction(2 * l + n - 2, 2) ** 2 - Fraction(1, 4)
    assert rho_exact == alt
    rho = float(rho_exact)
    if rho == 0.0:
        q_eff: Potential = V
    elif isinstance(V, Zero):
        q_eff = InverseSquare(rho)
    else:
        q_eff = Sum((V, InverseSquare(rho)))
    return EffectiveProblem(n=n, l=l, base=V, rho=rho, q_eff=q_eff)
