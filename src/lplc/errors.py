"""Exception hierarchy shared by all lplc modules."""


class LplcError(Exception):
    """Base class for every error raised by this package."""


class PotentialEvaluationError(LplcError):
    """A potential could not be evaluated at the requested point."""


class OutOfRangeError(PotentialEvaluationError):
    """Requested abscissa lies outside a tabulated potential's grid."""


class NonFiniteError(PotentialEvaluationError):
    """An analytic formula overflowed or left its real domain."""


class IntegrationError(LplcError):
    """Base class for failures of the adaptive ODE integrator."""


class StepUnderflowError(IntegrationError):
    """The required step fell below machine spacing (strong singularity)."""


class MaxStepsExceededError(IntegrationError):
    """The step budget was exhausted before reaching the target."""


class InteriorSingularityError(LplcError):
    """q is singular at a point strictly inside the interval, where the operator splits."""


class GridMismatchError(LplcError):
    """Two traces do not share the grid points needed for the operation."""


class AsymptoticsUnavailableError(LplcError):
    """The potential has no exact origin coefficient; use the numeric engine."""


class InsufficientTailError(LplcError):
    """A trace or sample does not span enough dyadic shells for a tail fit."""


class SingularRatioError(LplcError):
    """The adjoint-domain ratio is undefined at this extension parameter."""


class MissingDerivativeError(LplcError):
    """The sampled function lacks the derivative samples this check needs."""


class BumpNotInteriorError(LplcError):
    """A test bump's support reaches the boundary of the working interval."""
