"""Each derived quantity is computed once, by the module that owns it.

A particle state carries its averages from the moment it is made, and
each electrode side's constants are read from its Electrode, which only
electrochem.py builds from the raw cell fields. Each physical law is
written once: only degradation.py reads the film model's coefficients
(film lithium, resistance, expansion and the family line), and only
Electrode.exchange_current evaluates the exchange-current law. The
package has one root finder, ocp.brent, and one least-squares solver,
scipy's leastsq in the eSOH fit. Compiled BLAS kernels are called with
positional arguments, since a keyword costs f2py's keyword parse.
"""

import ast
import random
import re
from pathlib import Path

from cellfade import io as cio
from cellfade.cell import Cell
from cellfade.particle import at_stoichiometry
from cellfade.protocol import (ProtocolStep, Termination, reference_capacity,
                               run_step)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cellfade"
# per-side cell fields, read into each side's Electrode by electrochem.py
RAW_SIDE_FIELD = re.compile(r"(c_smax|r_p|D_s|k0)_(pos|neg)|l_(pos|neg)")
SIDE_READERS = {"electrochem.py", "params.py"}
# the film model's coefficients, read by its laws in degradation.py
FILM_COEFFICIENTS = {"kappa_sei", "kappa_pl", "Omega_sei", "Omega_pl",
                     "b_sei", "b_pl", "b_in_pos", "b_in_neg"}
FILM_READERS = {"degradation.py", "params.py"}
# the exchange-current law's constants, made and read by two methods
KINETIC_CONSTANTS = {"i0_prefix", "one_minus_alpha"}
KINETIC_READERS = {"__init__", "exchange_current"}
# scipy.optimize is the eSOH fit's, and no module solves roots through it
OPTIMIZE_IMPORTERS = {"measurement.py"}


def _assert_own_averages(params, state):
    pos, neg = params.pos, params.neg
    c_p, c_n = pos.c_avg(state.c_pos), neg.c_avg(state.c_neg)
    assert state.averages == (c_p, c_n, c_p / pos.c_smax, c_n / neg.c_smax)


def test_particle_states_carry_their_own_averages(params, degp, tmp_path):
    rng = random.Random(21)
    c1 = reference_capacity(params)
    for x, y in [(0.5, 0.5), (0.0, 1.0), (1.0, 0.0), (0.83, 0.27)]:
        _assert_own_averages(params, at_stoichiometry(params, x, y))

    cell = Cell(params, degp)
    _assert_own_averages(params, cell.particles)
    cell.equilibrate_at(rng.uniform(0.6, 0.9))
    _assert_own_averages(params, cell.particles)
    calls = []
    step = cell.step

    def checked(I, dt, evaluated=None):
        record = step(I, dt, evaluated)
        calls.append(I)
        _assert_own_averages(params, cell.particles)
        return record

    cell.step = checked
    for _ in range(3):
        rate = rng.uniform(0.3, 1.0)
        for mode, setpoint, until in [
                ("cc", c1 * rate, Termination("voltage", "<=", 3.3)),
                ("rest", 0.0, Termination("time", ">=", 600.0)),
                ("cc", -c1 * rate, Termination("voltage", ">=", 4.1)),
                ("cv", 4.1, Termination("current", "abs<=", c1 / 10.0))]:
            limit = Termination("time", ">=", rng.uniform(1800.0, 3600.0))
            run_step(cell, ProtocolStep(mode, setpoint, [until, limit]),
                     dt=60.0, dt_rest=120.0)
    assert len(calls) >= 200 and min(calls) < 0.0 < max(calls)
    assert 0.0 in calls

    path = tmp_path / "state.json"
    cio.save_state(path, cell)
    loaded = cio.load_state(path, params, degp)
    assert loaded.particles.enclosure is None
    _assert_own_averages(params, loaded.particles)


def _modules():
    return [(path.name, ast.parse(path.read_text()))
            for path in sorted(PACKAGE.glob("*.py"))]


def test_only_the_side_owners_read_raw_side_fields():
    reads = [f"{name}:{node.lineno} .{node.attr}"
             for name, tree in _modules() if name not in SIDE_READERS
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and RAW_SIDE_FIELD.fullmatch(node.attr)]
    assert not reads, "read these from params.pos / params.neg: " + \
        ", ".join(reads)


def test_no_module_writes_averages_into_a_state():
    writes = [f"{name}:{node.lineno}"
              for name, tree in _modules() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "averages"
              and isinstance(node.ctx, ast.Store)]
    assert not writes, writes


def test_each_law_is_written_once():
    modules = _modules()
    film = [f"{name}:{node.lineno} .{node.attr}"
            for name, tree in modules if name not in FILM_READERS
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in FILM_COEFFICIENTS]
    assert not film, "use the film laws of degradation.py: " + \
        ", ".join(film)

    electrode = next(
        node for name, tree in modules if name == "electrochem.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "Electrode")
    owned = {node for fn in electrode.body
             if isinstance(fn, ast.FunctionDef) and fn.name in KINETIC_READERS
             for node in ast.walk(fn)}
    kinetic = [f"{name}:{node.lineno} .{node.attr}"
               for name, tree in modules for node in ast.walk(tree)
               if node not in owned and isinstance(node, ast.Attribute)
               and node.attr in KINETIC_CONSTANTS]
    assert not kinetic, "call Electrode.exchange_current: " + \
        ", ".join(kinetic)


def test_one_root_finder():
    modules = _modules()
    brentq = [f"{name}:{node.lineno}"
              for name, tree in modules for node in ast.walk(tree)
              if (isinstance(node, ast.Name) and node.id == "brentq")
              or (isinstance(node, ast.Attribute) and node.attr == "brentq")
              or (isinstance(node, ast.alias) and node.name == "brentq")]
    assert not brentq, "solve roots with ocp.brent: " + ", ".join(brentq)

    importers = {name for name, tree in modules for node in ast.walk(tree)
                 if (isinstance(node, ast.Import) and any(
                     a.name.startswith("scipy.optimize") for a in node.names))
                 or (isinstance(node, ast.ImportFrom) and (
                     (node.module or "").startswith("scipy.optimize")
                     or node.module == "scipy"
                     and any(a.name == "optimize" for a in node.names)))}
    assert importers == OPTIMIZE_IMPORTERS, importers
    # the eSOH fit has one solver: MINPACK through leastsq, with no second
    # path through least_squares
    optimize_names = sorted(
        alias.name for name, tree in modules if name == "measurement.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "scipy.optimize"
        for alias in node.names)
    assert optimize_names == ["leastsq"], optimize_names
    second = [f"{name}:{node.lineno}"
              for name, tree in modules for node in ast.walk(tree)
              if (isinstance(node, ast.Name) and node.id == "least_squares")
              or (isinstance(node, ast.Attribute)
                  and node.attr == "least_squares")
              or (isinstance(node, ast.alias)
                  and node.name == "least_squares")]
    assert not second, "fit eSOH through leastsq: " + ", ".join(second)


def test_blas_calls_are_positional():
    # a keyword sends scipy's f2py wrapper through its keyword parser,
    # which costs the particle step more than its 20-shell arithmetic
    calls, keyworded = 0, []
    for name, tree in _modules():
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        # kernels are imported by name, so every call to one is a Name call
        other = [node.lineno for node in imports if "blas" in ast.unparse(node)
                 and getattr(node, "module", None) != "scipy.linalg.blas"]
        assert not other, f"{name}:{other} import from scipy.linalg.blas"
        kernels = {alias.asname or alias.name for node in imports
                   if getattr(node, "module", None) == "scipy.linalg.blas"
                   for alias in node.names}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in kernels):
                calls += 1
                if node.keywords:
                    keyworded.append(f"{name}:{node.lineno}")
    assert calls >= 2   # particle.py's dgemv and ddot
    assert not keyworded, "pass BLAS arguments by position: " + \
        ", ".join(keyworded)
