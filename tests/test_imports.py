"""The package's import footprint.

Every cellfade process pays for what the package imports, in start-up
time and resident memory. Of scipy the package imports one module, scipy
itself, and particle.py's loader takes three of its compiled extensions
by file: the BLAS kernels of the particle step (scipy.linalg._fblas),
MINPACK (scipy.optimize._minpack), whose lmder the eSOH fit in
measurement.py calls, and brentq's iteration (scipy.optimize._zeros), the
root finder of ocp.py. So neither scipy.linalg's nor scipy.optimize's
package loads, and the OCP tables build their PCHIP rows themselves, so no
process loads scipy.interpolate: import cellfade.cli loads 305 modules and
peaks at 39 MB, and an RPT with its fit loads nothing more of scipy, where
import scipy.optimize would make it 828 modules and 78 MB. Either import
order hands cellfade and scipy the same extension modules.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cellfade"
SCIPY_IMPORTS = {("particle.py", "scipy")}
# scipy.linalg's package modules and the array API layer its __init__
# brings; of these the particle step loads only its BLAS extension
LINALG_PACKAGE = ("scipy.linalg", "scipy._lib._array_api")
FBLAS = "scipy.linalg._fblas"
# and of scipy.optimize's package the eSOH fit loads only MINPACK and
# the root finder only brentq's iteration
PACKAGES = LINALG_PACKAGE + ("scipy.optimize",)
EXTENSIONS = [FBLAS, "scipy.optimize._minpack", "scipy.optimize._zeros"]


def _imported(node):
    """The absolute module names an import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        if node.module == "scipy":   # from scipy import optimize
            return [f"scipy.{alias.name}" for alias in node.names]
        return [node.module]
    return []


def test_package_imports_only_scipy_itself():
    imports = {(path.name, name)
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               for name in _imported(node)
               if name == "scipy" or name.startswith("scipy.")}
    assert imports == SCIPY_IMPORTS, sorted(imports)


def _fresh(code):
    """What code prints in a fresh interpreter, so that no other test's
    imports count."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True).stdout


def test_package_and_cli_load_no_scipy_interpolate():
    code = ("import sys, cellfade, cellfade.cli; print(*sorted(m for m in "
            "sys.modules if m.split('.')[:2] == ['scipy', 'interpolate']))")
    assert _fresh(code).split() == []


def test_package_and_cli_load_only_the_blas_extension_of_scipy_linalg():
    code = ("import sys, cellfade, cellfade.cli; print(*sorted(m for m in "
            f"sys.modules if m.startswith({LINALG_PACKAGE!r})))")
    assert _fresh(code).split() == [FBLAS]


LOADS_ONLY_THREE_EXTENSIONS = """
import sys
from importlib import resources

import cellfade, cellfade.cli


def loaded():
    return " ".join(sorted(m for m in sys.modules if m.startswith(PACKAGES)))


print(loaded())
from cellfade import (electrochem, identify, io, measurement, params,
                      protocol)
from cellfade.cell import Cell

data = resources.files("cellfade.data")
p, d = params.load_cell_config(data / "cell_default.yaml")
y, _, campaign, budget = io.load_ambiguity_config(
    data / "ambiguity_demo.yaml", protocol.reference_capacity(p))
n_li0 = electrochem.pristine_inventory(p)
# what ambiguity runs, with one cycle per member and no RPT
one_cycle = protocol.Campaign(campaign.cycle_protocol, rpt_every=0,
                              max_cycles=1)
identify.ambiguity_experiment(p, d, y, one_cycle, n_li0=n_li0,
                              lli_budget=budget)
# what identify runs, on the vector of a family member with its expansion
fam = identify.invert_without_expansion(p, d, y, n_li0, lli_budget=budget)
member = identify.sample_family(fam, y, 3)[1]
identify.invert_with_expansion(p, d, measurement.forward_measure(
    p, d, member, n_li0), n_li0)
print(loaded())
# what simulate runs at each RPT, and rpt once: a sweep and its eSOH fit
assert protocol.run_rpt(Cell(p, d), dt=30.0)["esoh"] is not None
print(loaded())
"""


def test_no_run_loads_scipy_linalg_or_optimize_packages():
    # at import, after what identify and ambiguity run, and after one RPT's
    # eSOH fit, the only modules of either package are the three extensions
    lines = _fresh(f"PACKAGES = {PACKAGES!r}\n"
                   + LOADS_ONLY_THREE_EXTENSIONS).splitlines()
    assert [line.split() for line in lines] == [EXTENSIONS] * 3


SCIPY = ("import scipy.linalg.blas as blas, scipy.optimize\n"
         "from scipy.optimize import _minpack_py, _zeros_py\n")
CELLFADE = "from cellfade import measurement, ocp, particle\n"


@pytest.mark.parametrize("imports", [SCIPY + CELLFADE, CELLFADE + SCIPY],
                         ids=["scipy_first", "cellfade_first"])
def test_either_import_order_shares_one_minpack_and_blas(imports):
    code = imports + (
        "print(_minpack_py._minpack is measurement._minpack,\n"
        "      _zeros_py._zeros is ocp._zeros,\n"
        "      blas.dgemv is particle.dgemv, blas.ddot is particle.ddot)")
    assert _fresh(code).split() == ["True"] * 4


def test_scipy_linalg_loaded_first_hands_the_particle_step_its_kernels():
    code = ("import scipy.linalg.blas as blas\n"
            "from cellfade import particle\n"
            "print(blas.dgemv is particle.dgemv, blas.ddot is particle.ddot)")
    assert _fresh(code).split() == ["True", "True"]


def test_missing_extension_is_an_import_error_naming_its_directory():
    # no fallback to the package import: a scipy without the file fails
    # at import, and names where it looked
    import scipy
    from cellfade import particle
    directory = os.path.join(scipy.__path__[0], "optimize")
    with pytest.raises(ImportError, match=re.escape(
            f"no scipy extension _no_such_extension in {directory}")):
        particle._load_scipy_extension("optimize", "_no_such_extension")
    assert "scipy.optimize._no_such_extension" not in sys.modules
