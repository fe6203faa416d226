"""Exception types shared across the package, and :data:`RANGES`, the one
rule of each checked parameter and run setting.

Builtin ``OverflowError`` is reused for Gamma overflow and for an
integral beyond the double-precision range; everything else
derives from :class:`PhiIneqError` so callers can catch library failures
with a single except clause.
"""

import math


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


_UNIT = (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")
_POSITIVE = (lambda v: 0.0 < v < math.inf, "must be positive and finite")
_FINITE = (math.isfinite, "must be finite")

# name -> (test, phrase); x is a sweep plan's relative position
RANGES = {"x": _UNIT, "lambda": _UNIT, "alpha": _POSITIVE, "fractional order": _POSITIVE,
          "q": (lambda v: 1.0 <= v < math.inf, "must be finite and >= 1"),
          **dict.fromkeys(("tol", "--tol", "quad_tol", "--quad-tol"), _POSITIVE),
          **dict.fromkeys(("rhs_scale", "--inject-bound-scale", "b - a"), _FINITE)}


def range_violations(*pairs):
    """The message of every (name, value) pair whose value breaks its rule
    in :data:`RANGES`, in the order given; a None value is skipped."""
    return [f"{name} {RANGES[name][1]}, got {value}" for name, value in pairs
            if value is not None and not RANGES[name][0](value)]


def check_ranges(*pairs):
    """Raise one DomainError joining the :func:`range_violations` with
    "; "; a None value is a TypeError here."""
    for name, value in pairs:
        if not RANGES[name][0](value):
            raise DomainError("; ".join(range_violations(*pairs)))
