"""Numerical verification of fractional-integral inequalities for
functions whose second derivatives are phi-convex.

The package exports the nine names that the README's library examples
use; everything else is imported from its module:

* :mod:`phi_ineq.specfun` -- Gamma, Beta, incomplete Beta, 2F1 at z = 1
* :mod:`phi_ineq.quadrature` -- adaptive Gauss-Kronrod with kink splits
  and declared endpoint singularities
* :mod:`phi_ineq.fracint` -- Riemann-Liouville fractional integrals
* :mod:`phi_ineq.convexity` -- phi kernels and the convexity grid checker
* :mod:`phi_ineq.coefquad` -- the coefficient integrals A1-A3 and B
* :mod:`phi_ineq.bounds` -- the S functional, its integral identity, the
  printed closed forms and the two theorem bounds
* :mod:`phi_ineq.verify` -- point checks, sweeps, identity battery
* :mod:`phi_ineq.report` -- printed-form vs oracle discrepancy ledger
* :mod:`phi_ineq.errors` -- the exception hierarchy
* :mod:`phi_ineq.cli` -- the ``phi-ineq`` command
"""

from .bounds import EvalParams, printed_coefficient, s_functional, theorem1_bound
from .coefquad import coef_integral
from .convexity import PhiKernel, check_phi_convex
from .fracint import Interval
from .functions import registry

__version__ = "0.1.0"
