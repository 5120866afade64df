"""Exception types shared across the package, and the prefix a caller adds to them."""


class CrowdflowError(Exception):
    """Base class for all package-specific errors."""


class DomainMismatchError(CrowdflowError, ValueError):
    """Two objects that must live on the same domain do not."""


class MassMismatchError(CrowdflowError, ValueError):
    """A measure that must be a probability measure is not."""


class MonotonicityError(CrowdflowError, ValueError):
    """Quantile samples are not nondecreasing."""


class FeasibilityError(CrowdflowError, ValueError):
    """A density violates the unit cap, or a parameter leaves the
    admissible range (e.g. a time step above the convexity cap)."""


class SolverFailureError(CrowdflowError, RuntimeError):
    """Inner minimization did not converge.

    Carries the last iterate, the final objective gap and the pinned
    prefix ``m`` (samples absorbed by the door) so callers can inspect
    what happened.
    """

    def __init__(self, message, last_iterate=None, gap=None, m=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.gap = gap
        self.m = m


class RegimeEndError(CrowdflowError, ValueError):
    """A semi-analytic corridor formula was asked for a time past the
    point where its regime (rarefaction present / absent) ends."""


class StiffnessError(CrowdflowError, RuntimeError):
    """Adaptive ODE integration hit the minimum step size."""


class ConfigError(CrowdflowError, ValueError):
    """A scenario config file or CLI flag set is invalid.

    ``field`` names the offending key when known.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def tagged(prefix, fn, *args):
    """``fn(*args)``, re-raising a package error as itself with its message
    prefixed by ``prefix``, so that its type, fields and traceback stay."""
    try:
        return fn(*args)
    except CrowdflowError as e:
        e.args = (f"{prefix}{e}",)
        raise
