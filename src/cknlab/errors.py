"""Exception hierarchy for the verification lab.

Every precondition failure maps to a specific exception so callers (and the
CLI exit-code contract) can distinguish configuration errors from numerical
failures.
"""


class CknLabError(Exception):
    """Base class for all lab errors."""


class InvalidArgument(CknLabError, ValueError):
    """An argument is outside its documented domain."""


class DomainTooShort(InvalidArgument):
    """A tabulated curvature profile does not cover the requested radius range."""


class SingularPoint(InvalidArgument):
    """Radial quantities were requested at the pole itself."""


class DegenerateGeometry(CknLabError):
    """A cell has vanishing induced volume."""


class InsufficientStencil(CknLabError):
    """A mesh vertex has too few neighbours for the curvature fit."""


class NonIntegrableWeight(InvalidArgument):
    """Weight exponent at or above the submanifold dimension with the pole inside."""


class NotMinimal(CknLabError):
    """The minimal-submanifold flag was set but the computed mean curvature is not small."""


class PreconditionViolated(CknLabError):
    """A stated hypothesis of an inequality does not hold for the inputs."""


class InvalidExponent(InvalidArgument):
    """Exponent combination outside the admissible range."""


class InconsistentParameters(CknLabError):
    """An exponent tuple violates one of its balance identities."""


class ClosureUnsupported(CknLabError):
    """The given partial parameter set is over- or under-determined."""


class InfeasibleParameters(CknLabError):
    """No admissible completion of the partial parameter set exists."""


class ConstantUndefined(InvalidArgument):
    """A constant is requested outside the range where it is finite and positive."""


class ParameterConflict(CknLabError):
    """Caller-supplied parameters contradict a derived inequality's specialization."""


class ConfigError(CknLabError):
    """An experiment configuration file is invalid."""
