"""Limit-point/limit-circle classification for -y'' + q(x) y on an interval.

The package decides essential self-adjointness of the minimal operator
through Weyl's alternative (limit point at both endpoints), constructs
the one-parameter family of self-adjoint extensions of the free
half-line operator, and ships the numeric regularity checks the other
modules are tested against.
"""

import importlib

__version__ = "0.1.0"

# Public name -> defining module. Each module is imported on first access
# to one of its names (PEP 562), so `import lplc.cli` does not pay for
# numpy or for modules a subcommand never touches.
_EXPORTS = {
    "classify": (
        "ClassificationReport",
        "DeficiencyIndices",
        "Endpoint",
        "EndpointClass",
        "EndpointVerdict",
        "Engine",
        "SelfAdjointness",
        "TailReport",
        "classify_asymptotic",
        "classify_interval",
        "classify_numeric",
    ),
    "errors": (
        "AsymptoticsUnavailableError",
        "BumpNotInteriorError",
        "GridMismatchError",
        "InsufficientTailError",
        "IntegrationError",
        "LplcError",
        "MaxStepsExceededError",
        "MissingDerivativeError",
        "NonFiniteError",
        "OutOfRangeError",
        "PotentialEvaluationError",
        "SingularRatioError",
        "StepUnderflowError",
    ),
    "extensions": (
        "BoundaryCondition",
        "DeficiencyFunction",
        "ExtensionDomainElement",
        "adjoint_ratio",
        "boundary_condition",
        "deficiency_function",
        "deficiency_norm_squared",
        "domain_membership_residual",
        "isometry_phase",
        "sequence_f",
        "sequence_g",
    ),
    "odeint": (
        "ComplexState",
        "IntegratorConfig",
        "SolutionTrace",
        "fundamental_pair",
        "green_identity_residual",
        "integrate_grid",
        "wronskian_values",
    ),
    "potentials": (
        "Coulomb",
        "EffectiveProblem",
        "Harmonic",
        "InverseSquare",
        "Potential",
        "PowerLaw",
        "Sum",
        "Tabulated",
        "Zero",
        "effective_potential",
        "evaluate",
        "lambda_nl",
    ),
    "sobolev": (
        "BumpTest",
        "SampledFunction",
        "W21Report",
        "antiderivative_samples",
        "check_fundamental_theorem",
        "check_weak_derivative",
        "w21_report",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
