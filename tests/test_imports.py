"""The package's import footprint.

Every cellfade process pays for what the package imports, in start-up
time and resident memory. Of scipy the package imports two modules: the
BLAS kernels of the particle step (particle.py) and MINPACK's leastsq for
the eSOH fit (measurement.py). The OCP tables build their PCHIP rows
themselves, so no process loads scipy.interpolate. scipy.optimize loads at
the first eSOH fit, so simulate with RPTs and rpt load it, while identify,
ambiguity and import cellfade do not: import cellfade.cli loads 588 modules
and peaks at 58 MB, against 828 and 79 MB with scipy.optimize.
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


LOADS_OPTIMIZE_AT_FIRST_FIT = """
import sys
from importlib import resources

import cellfade, cellfade.cli


def optimize():
    return sum(m.split(".")[:2] == ["scipy", "optimize"] for m in sys.modules)


print(optimize())
from cellfade import electrochem, identify, io, measurement, params, protocol

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
print(optimize())
w = electrochem.solve_window(p, y.C_p, y.C_n, n_li0 * (1.0 - y.LLI))
measurement.extract_esoh(measurement.synthesize_pseudo_ocv(p, w), p)
import scipy.optimize
print(measurement.leastsq is scipy.optimize.leastsq)
"""


def test_scipy_optimize_loads_at_the_first_esoh_fit():
    at_import, after_identify_and_ambiguity, fit_binds = _fresh(
        LOADS_OPTIMIZE_AT_FIRST_FIT).split()
    assert at_import == "0"
    assert after_identify_and_ambiguity == "0"
    assert fit_binds == "True"
