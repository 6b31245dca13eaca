"""Endpoint classification and the self-adjointness verdict.

Each endpoint of the interval is placed in one of two classes: limit
point (at most one solution square-integrable near the endpoint) or
limit circle (every solution square-integrable there). Two engines are
provided.

* The asymptotic engine applies the exact origin rule: the operator is
  in the limit-point class at 0 precisely when the coefficient of the
  1/x^2 behaviour of the potential is >= 3/4 (non-strict inequality).
* The numeric engine integrates a fundamental pair at the probe
  eigenvalue i toward the endpoint and measures the integrals of |y|^2
  over successive dyadic shells, which the integrator accumulates inside
  its steps between shell edges. A geometric decay of the shell
  integrals certifies square integrability; geometric growth certifies
  its failure; shell ratios inside a guard band around 1 are reported
  as inconclusive rather than force-classified, because the borderline
  |y|^2 ~ 1/x case is genuinely log-divergent. band_status reads one
  tail, and joint_status composes the tails of an endpoint.

Which eigenvalue is probed does not matter: if every solution is
square-integrable near an endpoint for one non-real eigenvalue, the
same holds for every other one, so a single probe decides the class.
The verdicts of both endpoints compose into the deficiency indices
(2, 2), (1, 1) or (0, 0), and the operator is essentially self-adjoint
exactly when both endpoints are limit point.

All functions here are pure; endpoint classifications are independent
and may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from .errors import (
    AsymptoticsUnavailableError,
    InconclusiveInputError,
    InsufficientTailError,
)
from .odeint import ComplexState, IntegratorConfig, _Stepper, shell_edges
from .potentials import EffectiveProblem, Mirrored, Potential

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


class Engine(Enum):
    ASYMPTOTIC = "asymptotic"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class Endpoint:
    """One end of the working interval; position may be +-inf."""

    position: float
    side: str  # "left" or "right"

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if math.isnan(self.position):
            raise ValueError("endpoint position must not be NaN")

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
    the k-th dyadic shell, ordered toward the endpoint; shell_integrals
    gives the values themselves, which may overflow to inf.
    fitted_exponent is the slope of log I_k against k; the per-shell
    ratio is its exponential, and `status` reads it against a guard band
    of width `margin` around ratio 1.
    """

    log_shell_integrals: Tuple[float, ...]
    fitted_exponent: float
    margin: float
    solution_index: int

    def __post_init__(self):
        if len(self.log_shell_integrals) < 4:
            raise InsufficientTailError("need at least 4 dyadic shells")
        if self.solution_index not in (1, 2):
            raise ValueError("solution_index must be 1 or 2")

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

    `tail` is the report that decided a numeric verdict (the divergent
    one for LP, the slowest-decaying one for LC); `tails` keeps the full
    set. Asymptotic verdicts carry no tail reports.
    """

    verdict: EndpointVerdict
    engine: Engine
    tail: Optional[TailReport] = None
    tails: Tuple[TailReport, ...] = ()
    origin_coefficient: Optional[float] = None

    def __post_init__(self):
        if self.engine is Engine.ASYMPTOTIC:
            if self.tail is not None or self.tails:
                raise ValueError("asymptotic verdicts carry no tail report")
            if self.verdict is EndpointVerdict.INCONCLUSIVE:
                raise ValueError("the asymptotic engine is never inconclusive")


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
    """Least-squares slope of log I_k against k over the last DEFAULT_FIT_WINDOW shells."""
    import numpy as np

    logs = np.asarray(log_integrals, dtype=float)
    if logs.size < 2:
        raise InsufficientTailError("need at least two shells to fit")
    tail = logs[-DEFAULT_FIT_WINDOW:]
    if np.all(tail <= _ZERO_FLOOR):
        return -math.inf
    if np.any(np.isinf(tail)):
        # a vanishing shell among finite ones: treat as super-geometric decay
        return -math.inf if tail[-1] <= _ZERO_FLOOR else math.inf
    k = np.arange(tail.size, dtype=float)
    slope = np.polyfit(k, tail, 1)[0]
    return float(slope)


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


def classify_asymptotic(problem: EffectiveProblem) -> EndpointClass:
    """Exact origin classification from the 1/x^2 coefficient of the potential.

    Limit point iff the coefficient is >= 3/4 (the threshold itself is
    limit point). Raises AsymptoticsUnavailableError when the potential
    carries no exact origin coefficient.
    """
    coeff = problem.q_eff.origin_coefficient()
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
    return d1 > _DECISIVE_LOG_RATIO and d2 > _DECISIVE_LOG_RATIO


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

    A fundamental pair is integrated from the anchor toward the endpoint,
    over the first max_shells whole shells of odeint.shell_edges. Each
    spanning solution gets a dyadic-shell report, and
    joint_status composes the two: limit circle iff both tails converge,
    limit point if at least one diverges, inconclusive when a fitted
    ratio falls inside the guard band (margin in [0, 1)). The shell march
    stops early once divergence is decisive, so rapidly growing solutions
    are not chased across the whole range. Toward an infinite endpoint
    the anchor must lie on the endpoint's side of 0, and the subdominant
    solution is recovered by one reverse integration from the last shell
    reached, which suppresses contamination by the growing mode. A
    left-infinite endpoint is classified on the mirror image x -> -x.
    """
    _check_margin(margin)
    if not (isinstance(max_shells, int) and max_shells >= DEFAULT_MIN_SHELLS):
        raise ValueError(f"max_shells must be an integer of at least {DEFAULT_MIN_SHELLS}, got {max_shells!r}")
    cfg = cfg or IntegratorConfig()
    if endpoint.is_infinite and not anchor * math.copysign(1.0, endpoint.position) > 0.0:
        side = "positive" if endpoint.position > 0.0 else "negative"
        raise ValueError(f"anchor must be {side} toward {endpoint.label()}, got {anchor!r}")
    edges = shell_edges(anchor, endpoint.position, cfg)[: max_shells + 1]
    if endpoint.position == -math.inf:
        q, edges = Mirrored(q), [-x for x in edges]
    n_shells = len(edges) - 1
    if n_shells < DEFAULT_MIN_SHELLS:
        raise InsufficientTailError(
            f"the shell grid toward {endpoint.label()} holds only {n_shells} whole shells"
        )
    # March the fundamental pair shell by shell: shell k runs from edges[k]
    # to edges[k + 1], and its log integral of |y|^2 is the one the
    # integrator accumulated inside its steps. One stepper per endpoint:
    # its step budget covers both marches.
    stepper = _Stepper(q, eigenvalue, cfg)
    states = [ComplexState(1.0, 0.0), ComplexState(0.0, 1.0)]
    shell_logs: List[List[float]] = [[], []]
    for k in range(n_shells):
        columns = integrate_grid(q, eigenvalue, edges[k : k + 2], states, cfg, _stepper=stepper).columns()
        for logs, col in zip(shell_logs, columns):
            logs.append(float(col.log_square_integrals[0]))
        states = [col.final_state for col in columns]
        if any(_decisively_divergent(logs) for logs in shell_logs):
            break
    reports = [_tail_report(logs, index, margin) for index, logs in enumerate(shell_logs, start=1)]
    if endpoint.is_infinite:
        # Keep the more divergent forward report as the dominant-solution
        # evidence and replace the other by the subdominant tail, recovered
        # by one backward integration across every shell the forward march
        # reached: backward in x the solution that decays toward infinity
        # is the growing one, so any seed relaxes onto it away from the
        # start point.
        dominant = replace(max(reports, key=lambda r: r.fitted_exponent), solution_index=1)
        reached = len(shell_logs[0])
        back = integrate_grid(
            q, eigenvalue, edges[reached::-1], ComplexState(1.0, 0.0), cfg, _stepper=stepper
        )
        rev_logs = back.log_square_integrals[::-1].tolist()  # order shells toward the endpoint
        reports = [dominant, _tail_report(rev_logs, 2, margin)]
    return _compose_endpoint_class(reports)


def _tail_report(logs: Sequence[float], index: int, margin: float) -> TailReport:
    return TailReport(
        log_shell_integrals=tuple(logs),
        fitted_exponent=fit_shell_exponent(logs),
        margin=margin,
        solution_index=index,
    )


_VERDICT_OF_STATUS = {
    "divergent": EndpointVerdict.LIMIT_POINT,
    "convergent": EndpointVerdict.LIMIT_CIRCLE,
    "inconclusive": EndpointVerdict.INCONCLUSIVE,
}


def _compose_endpoint_class(reports: List[TailReport]) -> EndpointClass:
    """The joint verdict; its tail is the first with the joint status (LC: the slowest decay)."""
    status = joint_status([r.status for r in reports])
    if status == "convergent":
        decisive = max(reports, key=lambda r: r.fitted_exponent)
    else:
        decisive = next(r for r in reports if r.status == status)
    return EndpointClass(
        verdict=_VERDICT_OF_STATUS[status],
        engine=Engine.NUMERIC,
        tail=decisive,
        tails=tuple(reports),
    )


def deficiency_indices(class_left: EndpointClass, class_right: EndpointClass) -> DeficiencyIndices:
    """Compose the endpoint classes: each limit-circle end contributes one."""
    for c in (class_left, class_right):
        if c.verdict is EndpointVerdict.INCONCLUSIVE:
            raise InconclusiveInputError("cannot compose an inconclusive endpoint")
    n = sum(1 for c in (class_left, class_right) if c.verdict is EndpointVerdict.LIMIT_CIRCLE)
    return DeficiencyIndices(n_plus=n, n_minus=n)


def verdict(d: DeficiencyIndices) -> SelfAdjointness:
    """Essentially self-adjoint iff the indices vanish; else an n^2 family."""
    return SelfAdjointness(
        essentially_self_adjoint=(d.n_plus == 0),
        extension_dimension=d.n_plus * d.n_plus,
    )


@dataclass(frozen=True)
class ClassificationReport:
    """Both endpoint verdicts with their composition, ready to serialize."""

    a: float
    b: float
    left: EndpointClass
    right: EndpointClass
    indices: Optional[DeficiencyIndices]
    self_adjointness: Optional[SelfAdjointness]

    @property
    def inconclusive(self) -> bool:
        return self.indices is None


def default_anchor(a: float, b: float) -> Tuple[float, float]:
    """Anchor points for the left and right endpoint analyses.

    Midpoint for a finite interval, one unit inside a finite endpoint
    otherwise, and +-1 on a fully infinite line.
    """
    if a >= b:
        raise ValueError("interval must satisfy a < b")
    a_inf = math.isinf(a)
    b_inf = math.isinf(b)
    if not a_inf and not b_inf:
        mid = 0.5 * (a + b)
        return mid, mid
    if a_inf and b_inf:
        return -1.0, 1.0
    if a_inf:
        anchor = min(b - 1.0, -1.0)
        return anchor, b - 1.0
    anchor_left = a + 1.0
    anchor_right = max(a + 1.0, 1.0)
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
    """
    if engine not in ("both", "asymptotic", "numeric"):
        raise ValueError("engine must be 'both', 'asymptotic' or 'numeric'")
    cfg = cfg or IntegratorConfig()
    if isinstance(q, EffectiveProblem):
        problem: EffectiveProblem = q
        q = problem.q_eff
    else:
        problem = EffectiveProblem(n=3, l=0, base=q, rho=0.0, q_eff=q)
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
                return classify_asymptotic(problem)
            except AsymptoticsUnavailableError:
                if engine == "asymptotic":
                    raise
        if engine == "asymptotic":
            raise AsymptoticsUnavailableError(
                f"no asymptotic rule applies at endpoint {ep.label()}"
            )
        return classify_numeric(q, ep, anchor, cfg, margin=margin, max_shells=max_shells)

    left = one(left_ep, anchor_left)
    right = one(right_ep, anchor_right)
    try:
        idx = deficiency_indices(left, right)
        sa = verdict(idx)
    except InconclusiveInputError:
        idx = None
        sa = None
    return ClassificationReport(a=a, b=b, left=left, right=right, indices=idx, self_adjointness=sa)
