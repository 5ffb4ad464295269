"""The package's import footprint.

Every cellfade process pays for what the package imports, in start-up
time and resident memory. Of scipy the package imports two modules: scipy
itself, from which particle.py loads the BLAS extension of its step
(scipy.linalg._fblas) without scipy.linalg's package, and MINPACK's leastsq
for the eSOH fit (measurement.py). The OCP tables build their PCHIP rows
themselves, so no process loads scipy.interpolate. scipy.optimize, and with
it scipy.linalg's package, loads at the first eSOH fit, so simulate with
RPTs and rpt load it, while identify, ambiguity and import cellfade do not:
import cellfade.cli loads 303 modules and peaks at 39 MB, against 828 and
78 MB with scipy.optimize. Either import order hands the particle step and
scipy.linalg.blas the same kernels.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cellfade"
SCIPY_IMPORTS = {("measurement.py", "scipy.optimize"),
                 ("particle.py", "scipy")}
# scipy.linalg's package modules and the array API layer its __init__
# brings; of these the particle step loads only its BLAS extension
LINALG_PACKAGE = ("scipy.linalg", "scipy._lib._array_api")
FBLAS = "scipy.linalg._fblas"


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


LOADS_OPTIMIZE_AT_FIRST_FIT = """
import sys
from importlib import resources

import cellfade, cellfade.cli


def loaded():
    optimize = sum(m.split(".")[:2] == ["scipy", "optimize"]
                   for m in sys.modules)
    linalg = sum(m.startswith(LINALG_PACKAGE) and m != FBLAS
                 for m in sys.modules)
    return optimize, linalg


print(*loaded())
from cellfade import (electrochem, identify, io, measurement, params,
                      particle, protocol)

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
print(*loaded())
w = electrochem.solve_window(p, y.C_p, y.C_n, n_li0 * (1.0 - y.LLI))
measurement.extract_esoh(measurement.synthesize_pseudo_ocv(p, w), p)
import scipy.linalg.blas, scipy.optimize
print(measurement.leastsq is scipy.optimize.leastsq,
      scipy.linalg.blas.dgemv is particle.dgemv,
      scipy.linalg.blas.ddot is particle.ddot)
"""


def test_scipy_optimize_loads_at_the_first_esoh_fit():
    # the fit's scipy.optimize brings scipy.linalg's package, which finds
    # the particle step's extension loaded and hands out the same kernels
    at_import, after_identify_and_ambiguity, fit_binds = _fresh(
        f"LINALG_PACKAGE, FBLAS = {LINALG_PACKAGE!r}, {FBLAS!r}\n"
        + LOADS_OPTIMIZE_AT_FIRST_FIT).splitlines()
    assert at_import == "0 0"
    assert after_identify_and_ambiguity == "0 0"
    assert fit_binds == "True True True"


def test_scipy_linalg_loaded_first_hands_the_particle_step_its_kernels():
    code = ("import scipy.linalg.blas as blas\n"
            "from cellfade import particle\n"
            "print(blas.dgemv is particle.dgemv, blas.ddot is particle.ddot)")
    assert _fresh(code).split() == ["True", "True"]
