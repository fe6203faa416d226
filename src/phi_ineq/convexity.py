"""Weight kernels phi on (0, 1) and the generalized-convexity grid checker.

A function g is phi-convex when

    g(t*x + (1-t)*y) <= t*phi(t)*g(x) + (1-t)*phi(1-t)*g(y)

for all x, y in the interval and t in (0, 1).  The built-in kernels are
phi = 1 (classical convexity), phi = t**(s-1) with s in (0, 1]
(s-convexity in the second sense) and phi = 1/(2*sqrt(t)*sqrt(1-t))
(the MT class, which additionally requires g >= 0).

The checker is empirical: it scans a dense grid of (x, y, t) triples and
reports the worst violation with a witness.  It never proves convexity;
it gates theorem hypotheses so that a failed bound can be attributed to a
non-member function instead of a formula defect.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

KIND_CONSTANT = "constant"
KIND_POWER = "power"
KIND_MT = "mt"

# The gate's grid size and its rounding tolerance relative to max|g|.
GRID_N = 33
GATE_TOL = 1e-9


@dataclass(frozen=True)
class PhiKernel:
    kind: str
    s: float | None = None

    def __post_init__(self):
        if self.kind not in (KIND_CONSTANT, KIND_POWER, KIND_MT):
            raise DomainError(f"unknown kernel kind {self.kind!r}")
        if self.kind == KIND_POWER:
            if self.s is None or not 0.0 < float(self.s) <= 1.0:
                raise DomainError(f"power kernel requires s in (0, 1], got {self.s}")
            object.__setattr__(self, "s", float(self.s))
        elif self.s is not None:
            raise DomainError(f"kernel {self.kind!r} takes no exponent s")

    @classmethod
    def constant(cls):
        return cls(KIND_CONSTANT)

    @classmethod
    def power(cls, s):
        return cls(KIND_POWER, s=s)

    @classmethod
    def mt(cls):
        return cls(KIND_MT)

    @property
    def label(self):
        if self.kind == KIND_POWER:
            return f"power({self.s:g})"
        return self.kind


@dataclass(frozen=True)
class ConvexityWitness:
    holds: bool
    worst_violation: float
    witness_point: tuple[float, float, float]


def phi_function(kernel):
    """phi as a function of t in (0, 1); it does not check t."""
    if kernel.kind == KIND_CONSTANT:
        return lambda t: 1.0
    if kernel.kind == KIND_POWER:
        s = kernel.s
        return lambda t: t ** (s - 1.0)
    return lambda t: 0.5 / (math.sqrt(t) * math.sqrt(1.0 - t))  # MT


def check_phi_convex(g, kernel, interval):
    """Scan the phi-convexity inequality for g over ``interval``, an
    :class:`~phi_ineq.fracint.Interval`.  g is vectorized: it maps a float
    array to an array of the same shape.

    x and y run over a uniform ``GRID_N``-point grid on [a, b]; t runs
    over ``GRID_N - 1`` half-step points (j + 1/2)/(GRID_N - 1), which
    stay strictly inside (0, 1) and are symmetric under t -> 1-t.  The
    witness is the lexicographically smallest (x, y, t) attaining the
    worst violation.  Violations within ``GATE_TOL * max(1, max|g|)`` over
    the grid count as rounding noise and are reported as <= 0: the
    compared sides are sums of g values, so their rounding error scales
    with g.
    """
    a, b = interval.a, interval.b
    xs = np.linspace(a, b, GRID_N)
    m = GRID_N - 1
    ts = (np.arange(m) + 0.5) / m
    gx = np.asarray(g(xs), dtype=float)
    if not np.all(np.isfinite(gx)):
        raise DomainError("function not finite on the sample grid")
    if kernel.kind == KIND_MT:
        if gx.min() < 0.0:
            raise DomainError(
                "MT kernel requires a nonnegative function; "
                f"sampled minimum {gx.min():g}"
            )
    elif gx.min() < 0.0:
        warnings.warn(
            "function takes negative values; phi-convexity is formally "
            "defined for nonnegative functions",
            stacklevel=2,
        )
    phi = phi_function(kernel)
    tphi = np.array([t * phi(t) for t in ts.tolist()])
    # mixture points P[i, j, k] = t_k*x_i + (1-t_k)*y_j
    P = ts[None, None, :] * xs[:, None, None] + (1.0 - ts[None, None, :]) * xs[None, :, None]
    gp = np.asarray(g(P), dtype=float)
    rhs = tphi[None, None, :] * gx[:, None, None] + tphi[::-1][None, None, :] * gx[None, :, None]
    viol = gp - rhs
    flat_idx = int(np.argmax(viol))  # first occurrence = lexicographically smallest (x, y, t)
    i, j, k = np.unravel_index(flat_idx, viol.shape)
    worst = float(viol[i, j, k])
    witness = (float(xs[i]), float(xs[j]), float(ts[k]))
    if worst > GATE_TOL * max(1.0, float(np.abs(gx).max())):
        return ConvexityWitness(False, worst, witness)
    return ConvexityWitness(True, min(worst, 0.0), witness)
