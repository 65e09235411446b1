"""Error taxonomy for dopplerlab.

Every exception carries a short machine-readable ``code`` so the CLI can
emit stable diagnostics (``error: <CODE>: <message>``) and map failures
onto exit codes: 2 for validation problems, 3 for numerical problems,
4 for I/O problems.
"""


class DopplerLabError(Exception):
    """Base class for all dopplerlab errors."""

    code = "ERROR"
    exit_code = 2


class SupersonicMotion(DopplerLabError):
    """Boundary motion reaches or exceeds the wave speed (ill-posed regime)."""

    code = "SUPERSONIC"


class InvalidNormalization(DopplerLabError):
    """Custom motion profile violates alpha(0)=0 or max|alpha'|=1."""

    code = "BAD_NORMALIZATION"


class DegenerateRatio(DopplerLabError):
    """Velocity ratio >= 1 makes the frequency/wavenumber mapping singular."""

    code = "DEGENERATE_RATIO"


class ObserverInsideBoundary(DopplerLabError):
    """Requested position lies behind the moving boundary."""

    code = "INSIDE_BOUNDARY"


class NotYetReached(DopplerLabError):
    """Requested (x, t) lies outside the causal cone: no signal has arrived."""

    code = "NOT_YET_REACHED"


class ArgumentOutOfRange(DopplerLabError):
    """Argument outside an operation's documented domain."""

    code = "ARG_OUT_OF_RANGE"


class ProfileEvaluationError(DopplerLabError):
    """A custom profile evaluator raised; the offending argument is recorded."""

    code = "PROFILE_EVAL"

    def __init__(self, message, argument=None):
        super().__init__(message)
        self.argument = argument


class ConfigError(DopplerLabError):
    """Malformed or schema-violating run configuration."""

    code = "BAD_CONFIG"


class NoConvergence(DopplerLabError):
    """Iterative solver exhausted its budget before meeting tolerance."""

    code = "NO_CONVERGENCE"
    exit_code = 3


class AliasingSuspected(DopplerLabError):
    """Adjacent samples jump by nearly pi radians; the series is undersampled."""

    code = "ALIASING"
    exit_code = 3


class IdentityMismatch(DopplerLabError):
    """Two computations that must agree differ by more than their tolerance."""

    code = "IDENTITY_MISMATCH"
    exit_code = 3
