"""Numerical verification of fractional-integral inequalities for
functions whose second derivatives are phi-convex.

Core surface:

* :mod:`phi_ineq.specfun` -- Gamma, Beta, incomplete Beta, 2F1
* :mod:`phi_ineq.quadrature` -- adaptive Gauss-Kronrod with kink splits
  and declared endpoint singularities
* :mod:`phi_ineq.fracint` -- Riemann-Liouville fractional integrals
* :mod:`phi_ineq.convexity` -- phi kernels and the convexity grid checker
* :mod:`phi_ineq.coefquad` -- the coefficient integrals A1-A3, B and M
* :mod:`phi_ineq.bounds` -- the S functional, its integral identity, the
  printed closed forms and the two theorem bounds
* :mod:`phi_ineq.verify` -- point checks, sweeps, identity battery
* :mod:`phi_ineq.report` -- printed-form vs oracle discrepancy ledger
* :mod:`phi_ineq.cli` -- the ``phi-ineq`` command
"""

from .bounds import (
    EvalParams,
    coef_a1,
    identity_rhs,
    printed_coefficient,
    s_functional,
    theorem1_bound,
    theorem2_bound,
)
from .coefquad import coef_integral
from .convexity import ConvexityWitness, PhiKernel, check_phi_convex, phi_eval
from .errors import (
    DivergenceError,
    DomainError,
    NonFiniteSample,
    NonIntegrableError,
    PhiIneqError,
    ToleranceNotMet,
    UsageError,
)
from .fracint import Interval, rl_left, rl_right
from .functions import TestFunction, registry, resolve_function
from .quadrature import QuadratureSpec, QuadResult, integrate
from .specfun import SpecFunResult, beta_fn, gamma, gauss_2f1, incomplete_beta

__version__ = "0.1.0"
