"""Endpoint classification and the self-adjointness verdict.

Each endpoint of the interval is placed in one of two classes: limit
point (at most one solution square-integrable near the endpoint) or
limit circle (every solution square-integrable there). Two engines are
provided.

* The asymptotic engine applies the exact origin rule: the operator is
  in the limit-point class at 0 precisely when the coefficient of the
  1/x^2 behaviour of the potential is >= 3/4 (non-strict inequality).
* The numeric engine integrates one solution, the one with data (1, 0)
  at the anchor, at the probe eigenvalue i toward the endpoint and
  measures the integrals of |y|^2 over successive dyadic shells, which
  the integrator accumulates inside its steps between shell edges, or,
  toward +-inf, reads from the states at the shell edges as Green's
  boundary term (Im(conj(y) y')(x0) - Im(conj(y) y')(x1)) / Im(l). A
  geometric decay of the shell integrals certifies square
  integrability; geometric growth certifies its failure; shell ratios
  inside a guard band around 1 are reported as inconclusive rather than
  force-classified, because the borderline |y|^2 ~ 1/x case is
  genuinely log-divergent. band_status reads that one tail. At a finite
  endpoint where q does not evaluate, the march steps in the Euler frame
  t = -ln |x - endpoint| (see odeint), where each shell is a t-interval
  of length ln 2 and an inverse-square q costs no more per shell near
  the end than far from it.

One solution decides the class (Weyl's alternative). At a non-real
eigenvalue every solution is square-integrable near a limit-circle end.
Near a limit-point end only multiples of one solution are, and a
solution with real data at the anchor is not among them: it would be an
eigenfunction with a non-real eigenvalue of a self-adjoint operator on
(anchor, end). Which non-real eigenvalue is probed does not matter
either: the class is the same for all of them, so a single probe
decides it.
The verdicts of both endpoints compose into the deficiency indices
(2, 2), (1, 1) or (0, 0), and the operator is essentially self-adjoint
exactly when both endpoints are limit point.

The mirror rule: when q is even, the reflection x -> -x maps solutions
onto solutions, so -b is in the class of b. classify_interval marches
once and reuses the left endpoint's verdict for the right one when three
conditions hold: a == -b, the anchors mirror each other (anchor_left ==
-anchor_right), and q.is_even(). The reuse is exact, not approximate:
the march toward -b is then the mirror image of the one toward b, with
every abscissa, step and derivative negated and every q value equal bit
for bit, so both marches round alike and give the same shell integrals.

All functions here are pure; endpoint classifications are independent
and may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple, Union

from .errors import AsymptoticsUnavailableError, InsufficientTailError, InteriorSingularityError, NonFiniteError
from .odeint import ComplexState, IntegratorConfig, _Stepper, shell_edges
from .potentials import EffectiveProblem, Potential, evaluate

# perfbench/tracer.py wraps these three by module attribute, so
# classify_numeric calls integrate_grid through this module.
from .odeint import concatenate_traces, integrate_grid  # noqa: F401
from .quadrature import log_trapezoid  # noqa: F401

ORIGIN_LP_THRESHOLD = 0.75  # limit point at 0 iff x^2 q(x) -> value >= 3/4

DEFAULT_MARGIN = 0.15
DEFAULT_MAX_SHELLS = 12
DEFAULT_MIN_SHELLS = 4
DEFAULT_FIT_WINDOW = 6
_DECISIVE_LOG_RATIO = math.log(4.0)
_ZERO_FLOOR = -690.0  # ln of ~1e-300; below this a shell integral counts as zero


class EndpointVerdict(Enum):
    LIMIT_POINT = "LP"
    LIMIT_CIRCLE = "LC"
    INCONCLUSIVE = "inconclusive"


_VERDICT_OF_STATUS = {
    "divergent": EndpointVerdict.LIMIT_POINT,
    "convergent": EndpointVerdict.LIMIT_CIRCLE,
    "inconclusive": EndpointVerdict.INCONCLUSIVE,
}


class Engine(Enum):
    ASYMPTOTIC = "asymptotic"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class Endpoint:
    """One end of the working interval; position may be -inf on the left, +inf on the right."""

    position: float
    side: str  # "left" or "right"

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if math.isnan(self.position):
            raise ValueError("endpoint position must not be NaN")
        if self.position == (math.inf if self.side == "left" else -math.inf):
            raise ValueError(f"a {self.side} endpoint cannot lie at {self.label()}")

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.position)

    def label(self) -> str:
        if self.position == math.inf:
            return "inf"
        if self.position == -math.inf:
            return "-inf"
        return repr(self.position)


@dataclass(frozen=True)
class TailReport:
    """Square-integrability evidence for one solution near one endpoint.

    log_shell_integrals[k] holds the log of the integral of |y|^2 over
    the k-th dyadic shell, ordered toward the endpoint, and the rest is
    derived: shell_integrals (which may overflow to inf), fitted_exponent
    (fit_shell_exponent of the logs), the per-shell ratio exp of it, and
    `status`, which reads that ratio against a guard band of width
    `margin` around ratio 1.
    """

    log_shell_integrals: Tuple[float, ...]
    margin: float

    def __post_init__(self):
        _check_margin(self.margin)
        if len(self.log_shell_integrals) < 4:
            raise InsufficientTailError("need at least 4 dyadic shells")

    @property
    def fitted_exponent(self) -> float:
        return fit_shell_exponent(self.log_shell_integrals)

    @property
    def shell_integrals(self) -> Tuple[float, ...]:
        return tuple(_safe_exp(v) for v in self.log_shell_integrals)

    @property
    def fitted_ratio(self) -> float:
        return _safe_exp(self.fitted_exponent)

    @property
    def status(self) -> str:
        return band_status(self.fitted_ratio, self.margin)


@dataclass(frozen=True)
class EndpointClass:
    """Verdict for one endpoint, with the engine that produced it.

    `tail` is set exactly when the engine is numeric: the evidence of the
    solution with data (1, 0) at the anchor, which decided the verdict.
    """

    verdict: EndpointVerdict
    engine: Engine
    tail: Optional[TailReport] = None
    origin_coefficient: Optional[float] = None

    def __post_init__(self):
        if self.engine is Engine.ASYMPTOTIC:
            if self.tail is not None:
                raise ValueError("asymptotic verdicts carry no tail report")
            if self.verdict is EndpointVerdict.INCONCLUSIVE:
                raise ValueError("the asymptotic engine is never inconclusive")
        elif self.tail is None:
            raise ValueError("a numeric verdict carries its tail report")

    # perfbench/tracer.py counts shells through this tuple view of the
    # one tail, so it stays while the tracer reads it.
    @property
    def tails(self) -> Tuple[TailReport, ...]:
        return () if self.tail is None else (self.tail,)


@dataclass(frozen=True)
class DeficiencyIndices:
    """The pair (n+, n-); equal for real potentials, each in {0, 1, 2}."""

    n_plus: int
    n_minus: int

    def __post_init__(self):
        if self.n_plus != self.n_minus or self.n_plus not in (0, 1, 2):
            raise ValueError("indices must be equal and in {0, 1, 2}")


@dataclass(frozen=True)
class SelfAdjointness:
    """Global verdict derived from the deficiency indices."""

    essentially_self_adjoint: bool
    extension_dimension: int  # real dimension n+^2 of the extension family

    def label(self) -> str:
        if self.essentially_self_adjoint:
            return "essentially_self_adjoint"
        return "needs_boundary_conditions"


def fit_shell_exponent(log_integrals: Sequence[float]) -> float:
    """Least-squares slope of log I_k against k over the last DEFAULT_FIT_WINDOW shells.

    With the integer weights w_k = 2 (k - k_mean) the slope is
    2 sum w_k y_k / sum w_k^2; fsum over y_k repeated |w_k| times rounds
    the numerator once, so the slope is within two roundings of exact.
    """
    if len(log_integrals) < 2:
        raise InsufficientTailError("need at least two shells to fit")
    tail = log_integrals[-DEFAULT_FIT_WINDOW:]
    if any(math.isinf(v) for v in tail):
        # a vanishing shell is super-geometric decay; tiny finite ones are fitted
        return -math.inf if tail[-1] <= _ZERO_FLOOR else math.inf
    weights = [2 * k - (len(tail) - 1) for k in range(len(tail))]
    total = math.fsum(y if w > 0 else -y for y, w in zip(tail, weights) for _ in range(abs(w)))
    return 2.0 * total / sum(w * w for w in weights)


def _safe_exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def band_status(ratio: float, margin: float) -> str:
    """The verdict rule for a fitted per-shell ratio with a guard band.

    'convergent' below 1 - margin, 'divergent' above 1 + margin, and
    'inconclusive' inside the band (or for a NaN ratio).
    """
    if ratio < 1.0 - margin:
        return "convergent"
    if ratio > 1.0 + margin:
        return "divergent"
    return "inconclusive"


def joint_status(statuses: Sequence[str]) -> str:
    """'divergent' if any status is, 'convergent' if all are, else 'inconclusive'."""
    if "divergent" in statuses:
        return "divergent"
    if all(s == "convergent" for s in statuses):
        return "convergent"
    return "inconclusive"


def _check_margin(margin: float) -> None:
    """Reject a guard band that is negative or swallows every ratio below 1."""
    if not 0.0 <= margin < 1.0:
        raise ValueError(f"margin must lie in [0, 1), got {margin!r}")


def classify_asymptotic(q: Union[Potential, EffectiveProblem]) -> EndpointClass:
    """Exact origin classification from the 1/x^2 coefficient of the potential.

    q may be a Potential or an EffectiveProblem (whose q_eff is used).
    Limit point iff the coefficient is >= 3/4 (the threshold itself is
    limit point). Raises AsymptoticsUnavailableError when the potential
    carries no exact origin coefficient.
    """
    if isinstance(q, EffectiveProblem):
        q = q.q_eff
    coeff = q.origin_coefficient()
    if coeff is None:
        raise AsymptoticsUnavailableError(
            "potential has no exact origin coefficient; use the numeric engine"
        )
    v = EndpointVerdict.LIMIT_POINT if coeff >= ORIGIN_LP_THRESHOLD else EndpointVerdict.LIMIT_CIRCLE
    return EndpointClass(verdict=v, engine=Engine.ASYMPTOTIC, origin_coefficient=coeff)


def _decisively_divergent(logs: Sequence[float]) -> bool:
    if len(logs) < DEFAULT_MIN_SHELLS:
        return False
    d1 = logs[-1] - logs[-2]
    d2 = logs[-2] - logs[-3]
    # growth that shrinks shell by shell, as toward a regular end, is not decisive
    return d2 > _DECISIVE_LOG_RATIO and d1 >= d2


def classify_numeric(
    q: Potential,
    endpoint: Endpoint,
    anchor: float,
    cfg: Optional[IntegratorConfig] = None,
    *,
    eigenvalue: complex = 1j,
    margin: float = DEFAULT_MARGIN,
    max_shells: int = DEFAULT_MAX_SHELLS,
) -> EndpointClass:
    """Numeric endpoint classification at a non-real probe eigenvalue.

    The solution with data (1, 0) at the anchor is integrated toward the
    endpoint, over the first max_shells whole shells of
    odeint.shell_edges, and its dyadic-shell report decides the verdict:
    limit circle if its tail converges, limit point if it diverges,
    inconclusive when the fitted ratio falls inside the guard band
    (margin in [0, 1)). The shell march stops early once divergence is
    decisive, so a rapidly growing solution is not chased across the
    whole range. The anchor must lie on the interval's side of a finite
    endpoint, and on the endpoint's side of 0 toward an infinite one.
    """
    _check_margin(margin)
    if not (isinstance(max_shells, int) and max_shells >= DEFAULT_MIN_SHELLS):
        raise ValueError(f"max_shells must be an integer of at least {DEFAULT_MIN_SHELLS}, got {max_shells!r}")
    eigenvalue = complex(eigenvalue)
    if not (math.isfinite(eigenvalue.real) and math.isfinite(eigenvalue.imag) and eigenvalue.imag != 0.0):
        raise ValueError(f"eigenvalue must be finite and non-real, got {eigenvalue!r}")
    cfg = cfg or IntegratorConfig()
    if endpoint.is_infinite:
        if not anchor * math.copysign(1.0, endpoint.position) > 0.0:
            side = "positive" if endpoint.position > 0.0 else "negative"
            raise ValueError(f"anchor must be {side} toward {endpoint.label()}, got {anchor!r}")
    elif not (anchor > endpoint.position if endpoint.side == "left" else anchor < endpoint.position):
        relation = "above" if endpoint.side == "left" else "below"
        raise ValueError(f"anchor must be {relation} {endpoint.label()} for a {endpoint.side} endpoint, got {anchor!r}")
    edges = shell_edges(anchor, endpoint.position, cfg)[: max_shells + 1]
    n_shells = len(edges) - 1
    if n_shells < DEFAULT_MIN_SHELLS:
        raise InsufficientTailError(
            f"the shell grid toward {endpoint.label()} holds only {n_shells} whole shells"
        )
    # March the solution shell by shell: shell k runs from edges[k] to
    # edges[k + 1], and its log integral of |y|^2 is the one the
    # integrator accumulated inside its steps, or Green's boundary term
    # toward +-inf (see odeint). One stepper per endpoint:
    # its step budget covers the whole march, and it marches in the Euler
    # frame when q does not evaluate at a finite endpoint.
    stepper = _Stepper(q, eigenvalue, cfg, endpoint.position)
    state = ComplexState(1.0, 0.0)
    logs: List[float] = []
    for k in range(n_shells):
        shell = integrate_grid(q, eigenvalue, edges[k : k + 2], state, cfg, _stepper=stepper)
        logs.append(shell.log_square_integrals[0])
        state = shell.final_state
        if _decisively_divergent(logs):
            break
    tail = TailReport(tuple(logs), margin)
    return EndpointClass(verdict=_VERDICT_OF_STATUS[tail.status], engine=Engine.NUMERIC, tail=tail)


@dataclass(frozen=True)
class ClassificationReport:
    """Both endpoint verdicts and their composition (None if either is inconclusive)."""

    a: float
    b: float
    left: EndpointClass
    right: EndpointClass

    @property
    def inconclusive(self) -> bool:
        return EndpointVerdict.INCONCLUSIVE in (self.left.verdict, self.right.verdict)

    @property
    def indices(self) -> Optional[DeficiencyIndices]:
        if self.inconclusive:
            return None
        # each limit-circle end contributes one
        n = (self.left.verdict, self.right.verdict).count(EndpointVerdict.LIMIT_CIRCLE)
        return DeficiencyIndices(n_plus=n, n_minus=n)

    @property
    def self_adjointness(self) -> Optional[SelfAdjointness]:
        # essentially self-adjoint iff the indices vanish; else an n^2 family
        d = self.indices
        return None if d is None else SelfAdjointness(d.n_plus == 0, d.n_plus * d.n_plus)


def default_anchor(a: float, b: float) -> Tuple[float, float]:
    """Anchor points for the left and right endpoint analyses.

    A finite end is marched from one unit inside it, an infinite end from
    +-1 or from one unit inside the other end, whichever lies farther
    out, so each verdict reads q near its own end only. An interval no
    longer than 2 is marched from its midpoint.
    """
    if a >= b:
        raise ValueError("interval must satisfy a < b")
    if b - a <= 2.0:
        mid = 0.5 * (a + b)
        return mid, mid
    anchor_left = a + 1.0 if math.isfinite(a) else min(b - 1.0, -1.0)
    anchor_right = b - 1.0 if math.isfinite(b) else max(anchor_left, 1.0)
    for side, end, anchor in (("left", a, anchor_left), ("right", b, anchor_right)):
        if anchor == end:
            raise ValueError(f"one unit inside the {side} endpoint {end!r} rounds back onto it")
    return anchor_left, anchor_right


def classify_interval(
    q,
    a: float,
    b: float,
    *,
    engine: str = "both",
    cfg: Optional[IntegratorConfig] = None,
    anchors: Optional[Tuple[float, float]] = None,
    margin: float = DEFAULT_MARGIN,
    max_shells: int = DEFAULT_MAX_SHELLS,
) -> ClassificationReport:
    """Classify both endpoints of (a, b) and compose the global verdict.

    q may be a Potential or an EffectiveProblem (whose q_eff is used).
    engine="asymptotic" uses the exact origin rule only (available just
    for a left endpoint at 0); engine="numeric" integrates at both ends;
    engine="both" (default) prefers the exact rule where it applies and
    falls back to the numeric engine elsewhere. The anchors the numeric
    engine integrates from (default_anchor unless given) must lie
    strictly inside (a, b).

    The left endpoint is classified first. By the mirror rule (see the
    module docstring), its verdict is reused for the right endpoint,
    which is then not marched, when a == -b, anchor_left == -anchor_right
    and q.is_even().

    An interval with 0 inside, where q does not evaluate, is refused with
    InteriorSingularityError: the operator splits at 0 into two problems,
    whose ends this function does not compose.
    """
    if engine not in ("both", "asymptotic", "numeric"):
        raise ValueError("engine must be 'both', 'asymptotic' or 'numeric'")
    cfg = cfg or IntegratorConfig()
    if isinstance(q, EffectiveProblem):
        q = q.q_eff
    if a < 0.0 < b:
        try:
            evaluate(q, 0.0)
        except NonFiniteError:
            raise InteriorSingularityError(
                f"q is singular at 0, inside ({a!r}, {b!r}); intervals with an interior singular point are not supported"
            ) from None
    anchor_left, anchor_right = anchors or default_anchor(a, b)
    for anchor in (anchor_left, anchor_right):
        if not a < anchor < b:
            raise ValueError(f"anchor {anchor!r} must lie strictly inside ({a!r}, {b!r})")
    left_ep = Endpoint(a, "left")
    right_ep = Endpoint(b, "right")

    def one(ep: Endpoint, anchor: float) -> EndpointClass:
        asym_ok = ep.side == "left" and ep.position == 0.0
        if engine in ("both", "asymptotic") and asym_ok:
            try:
                return classify_asymptotic(q)
            except AsymptoticsUnavailableError:
                if engine == "asymptotic":
                    raise
        if engine == "asymptotic":
            raise AsymptoticsUnavailableError(
                f"no asymptotic rule applies at endpoint {ep.label()}"
            )
        return classify_numeric(q, ep, anchor, cfg, margin=margin, max_shells=max_shells)

    left = one(left_ep, anchor_left)
    if a == -b and anchor_left == -anchor_right and q.is_even():
        right = left  # the mirror rule: the march toward b would repeat this one, mirrored
    else:
        right = one(right_ep, anchor_right)
    return ClassificationReport(a=a, b=b, left=left, right=right)
