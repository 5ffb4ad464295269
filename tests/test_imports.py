"""The package's import footprint.

Every cellfade process pays for what the package imports, in start-up
time and resident memory. Of scipy the package imports two modules: the
BLAS kernels of the particle step (particle.py) and MINPACK's leastsq for
the eSOH fit (measurement.py). The OCP tables build their PCHIP rows
themselves, so no process loads scipy.interpolate.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cellfade"
SCIPY_IMPORTS = {("measurement.py", "scipy.optimize"),
                 ("particle.py", "scipy.linalg.blas")}


def _imported(node):
    """The absolute module names an import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        if node.module == "scipy":   # from scipy import optimize
            return [f"scipy.{alias.name}" for alias in node.names]
        return [node.module]
    return []


def test_package_imports_only_two_scipy_modules():
    imports = {(path.name, name)
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               for name in _imported(node)
               if name == "scipy" or name.startswith("scipy.")}
    assert imports == SCIPY_IMPORTS, sorted(imports)


def test_package_and_cli_load_no_scipy_interpolate():
    # a fresh interpreter, so that no other test's imports count
    code = ("import sys, cellfade, cellfade.cli; print(*sorted(m for m in "
            "sys.modules if m.split('.')[:2] == ['scipy', 'interpolate']))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert res.stdout.split() == []
