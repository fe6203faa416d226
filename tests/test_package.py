"""The package's own namespace: the names the README's library examples
use, and nothing else that is not a module."""

import ast
import inspect
from pathlib import Path

import phi_ineq


def test_package_exports_the_readme_names():
    public = {name for name, value in vars(phi_ineq).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == {"registry", "EvalParams", "Interval", "s_functional", "theorem1_bound",
                      "PhiKernel", "coef_integral", "printed_coefficient", "check_phi_convex"}
    assert phi_ineq.__version__ == "0.1.0"


def test_no_module_imports_a_name_it_never_uses():
    # no linter runs here, so this is the unused-import check; __init__.py
    # imports names to export them
    unused = []
    for path in sorted(Path(phi_ineq.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [(alias.asname or alias.name.split(".")[0], node.lineno)
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported if name not in used]
    assert unused == []
