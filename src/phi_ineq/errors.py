"""Exception types shared across the package.

Builtin ``OverflowError`` is reused for Gamma overflow; everything else
derives from :class:`PhiIneqError` so callers can catch library failures
with a single except clause.
"""


class PhiIneqError(Exception):
    """Base class for all library-specific errors."""


class DomainError(PhiIneqError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NonIntegrableError(DomainError):
    """The requested integral diverges (e.g. complete Beta with a
    nonpositive second parameter)."""


class DivergenceError(DomainError):
    """A series or limit evaluation diverges (e.g. 2F1 at z=1 with
    c - a - b <= 0)."""


class ToleranceNotMet(PhiIneqError, RuntimeError):
    """An iteration stopped short of its tolerance: adaptive integration
    ran out of subdivisions or was asked for less than its rounding floor,
    or a continued fraction stalled."""


class NonFiniteSample(PhiIneqError, ValueError):
    """An integrand returned a non-finite value at an interior point."""


class UsageError(PhiIneqError):
    """Invalid command-line or config-file input (exit code 2); takes the
    list of every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
