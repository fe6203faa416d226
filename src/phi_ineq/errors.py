"""Exception types shared across the package.

Builtin ``OverflowError`` is reused for Gamma overflow and for an
integral beyond the double-precision range; everything else
derives from :class:`PhiIneqError` so callers can catch library failures
with a single except clause.
"""


class PhiIneqError(Exception):
    """Base class for all library-specific errors; raised as itself for an
    integrand that returns a non-finite value."""


class DomainError(PhiIneqError, ValueError):
    """An argument lies outside the mathematical domain of an operation,
    including one where an integral or series diverges."""


class ToleranceNotMet(PhiIneqError, RuntimeError):
    """An iteration stopped short of its tolerance: adaptive integration
    ran out of subdivisions or was asked for less than its rounding floor,
    or a continued fraction stalled."""


class UsageError(PhiIneqError):
    """Invalid command-line or config-file input (exit code 2); takes the
    list of every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
