"""The package's own namespace: the names the README's library examples
use, and nothing else that is not a module."""

import inspect

import phi_ineq


def test_package_exports_the_readme_names():
    public = {name for name, value in vars(phi_ineq).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == {"registry", "EvalParams", "Interval", "s_functional", "theorem1_bound",
                      "PhiKernel", "coef_integral", "printed_coefficient", "check_phi_convex"}
    assert phi_ineq.__version__ == "0.1.0"
