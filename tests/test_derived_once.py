"""Each derived quantity is computed once, by the module that owns it.

Parameter sets are frozen, so what is derived from one cannot go stale.

A particle state carries its averages from the moment it is made (a
stepped state in closed form), and each electrode side's constants are
read from its Electrode, which only electrochem.py builds from the raw
cell fields. Each physical law is written once: only degradation.py
reads the film model's coefficients (film lithium, resistance, expansion
and the family line), and only Electrode.exchange_current evaluates the
exchange-current law; only measurement.py evaluates the film-free
resistance, once per vector. The package has one root finder, ocp.brent,
which calls brentq's compiled iteration, and one least-squares solver,
MINPACK's lmder in the eSOH fit, both without scipy.optimize. Compiled BLAS kernels are called with positional
arguments, since a keyword costs f2py's keyword parse. No new package
function serves only the tests.
"""

import ast
import dataclasses
import random
import re
from pathlib import Path

import pytest

from cellfade import cell as cell_module
from cellfade import io as cio
from cellfade import particle
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
# the film-free resistance is read through measurement.film_free_resistance
RESISTANCE_CALLERS = {"measurement.py"}
# a stepped state's carried mean against its profile's ddot mean, as a
# share of c_smax (test_cell.py audits it over whole lives)
MEAN_AUDIT = 1e-11
# the package functions and methods that no package module names: the
# public predict_rul (README), and four that only tests call, which go
# when the tests stop needing them
UNNAMED_IN_PACKAGE = {"predict_rul", "DegradationState.copy",
                      "MonotoneOCPTable.derivative",
                      "instantaneous_resistance", "intercalation_overpotential"}


def _assert_averages(params, state, means):
    pos, neg = params.pos, params.neg
    c_p, c_n = means
    assert state.averages == (c_p, c_n, c_p / pos.c_smax, c_n / neg.c_smax)


def _own_means(params, state):
    return params.pos.c_avg(state.c_pos), params.neg.c_avg(state.c_neg)


def test_particle_states_carry_their_own_averages(params, degp, tmp_path,
                                                  monkeypatch):
    # a state made from profiles carries their ddot means bit for bit; a
    # stepped state, the discarded CV trials included, carries its means
    # in closed form (the old means moved by the surface flux), which
    # stay within MEAN_AUDIT of c_smax of its profiles' ddot means
    rng = random.Random(21)
    c1 = reference_capacity(params)
    for x, y in [(0.5, 0.5), (0.0, 1.0), (1.0, 0.0), (0.83, 0.27)]:
        state = at_stoichiometry(params, x, y)
        _assert_averages(params, state, _own_means(params, state))

    cell = Cell(params, degp)
    _assert_averages(params, cell.particles, _own_means(params, cell.particles))
    cell.equilibrate_at(rng.uniform(0.6, 0.9))
    _assert_averages(params, cell.particles, _own_means(params, cell.particles))
    calls = []
    steps = []
    step = cell.step
    step_particles = cell_module.step_particle_diffusion

    def checked(I, dt, evaluated=None):
        record = step(I, dt, evaluated)
        calls.append(I)
        return record

    def carried(pair, state, j_pos, j_neg, dt):
        new = step_particles(pair, state, j_pos, j_neg, dt)
        pos, neg = pair.pos, pair.neg
        _assert_averages(params, new, (
            state.averages[0] - dt * j_pos * (pos.area_surf / pos.total_volume),
            state.averages[1] - dt * j_neg * (neg.area_surf / neg.total_volume)))
        for side, mean, own in zip((pos, neg), new.averages,
                                   _own_means(params, new)):
            assert abs(mean - own) <= MEAN_AUDIT * side.c_smax
        steps.append(dt)
        return new

    cell.step = checked
    monkeypatch.setattr(cell_module, "step_particle_diffusion", carried)
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
    assert len(steps) > len(calls)   # the trials the CV solves discarded
    assert cell.particles.averages[:2] != _own_means(params, cell.particles)

    # a state file carries the means, and loads them as they were
    path = tmp_path / "state.json"
    cio.save_state(path, cell)
    loaded = cio.load_state(path, params, degp)
    assert loaded.particles.enclosure is None
    _assert_averages(params, loaded.particles, cell.particles.averages[:2])


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


def test_only_measurement_evaluates_the_film_free_resistance():
    calls = [f"{name}:{node.lineno}" for name, tree in _modules()
             if name not in RESISTANCE_CALLERS for node in ast.walk(tree)
             if isinstance(node, ast.Call) and "kinetic_resistance" in (
                 getattr(node.func, "id", None),
                 getattr(node.func, "attr", None))]
    assert not calls, "call measurement.film_free_resistance: " + \
        ", ".join(calls)


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
    # no module imports scipy.optimize: the eSOH fit has one solver,
    # MINPACK's lmder from the extension measurement.py loads by file, and
    # no second path through least_squares; the roots have one, brentq's
    # iteration from the extension ocp.py loads by file
    assert not importers, importers
    for extension, read in (("_minpack", ["measurement.py:_lmder"]),
                            ("_zeros", ["ocp.py:_brentq"])):
        names = sorted(
            f"{name}:{node.attr}" for name, tree in modules
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == extension)
        assert names == read, names
    second = [f"{name}:{node.lineno}"
              for name, tree in modules for node in ast.walk(tree)
              if (isinstance(node, ast.Name) and node.id == "least_squares")
              or (isinstance(node, ast.Attribute)
                  and node.attr == "least_squares")
              or (isinstance(node, ast.alias)
                  and node.name == "least_squares")]
    assert not second, "fit eSOH through lmder: " + ", ".join(second)


def _assigned(node):
    """(target, value) pairs of an assignment, tuples taken apart."""
    for target in node.targets:
        if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
            yield from zip(target.elts, node.value.elts)
        else:
            yield target, node.value


def test_blas_calls_are_positional():
    # a keyword sends scipy's f2py wrapper through its keyword parser,
    # which costs the particle step more than its 20-shell arithmetic
    # the extension the step loads at its first call of a kernel
    fblas = particle._load_scipy_extension("linalg", "_fblas")
    routines = {name for name, value in vars(fblas).items()
                if type(value) is type(fblas.dgemv)}
    calls, keyworded = 0, []
    for name, tree in _modules():
        # a kernel is a routine imported by name or bound from the
        # extension's attribute, or a routine called as an attribute
        kernels = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   for alias in node.names if alias.name in routines}
        kernels |= {target.id for node in ast.walk(tree)
                    if isinstance(node, ast.Assign)
                    for target, value in _assigned(node)
                    if isinstance(target, ast.Name)
                    and isinstance(value, ast.Attribute)
                    and value.attr in routines}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                    (isinstance(node.func, ast.Name)
                     and node.func.id in kernels)
                    or (isinstance(node.func, ast.Attribute)
                        and node.func.attr in routines)):
                calls += 1
                if node.keywords:
                    keyworded.append(f"{name}:{node.lineno}")
    assert calls >= 2   # particle.py's dgemv and ddot
    assert not keyworded, "pass BLAS arguments by position: " + \
        ", ".join(keyworded)


def test_no_new_function_serves_only_the_tests():
    modules = _modules()
    defined = {}   # qualified name -> the name a caller would use
    for _, tree in modules:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined[node.name] = node.name
            elif isinstance(node, ast.ClassDef):
                defined.update(
                    (f"{node.name}.{fn.name}", fn.name) for fn in node.body
                    if isinstance(fn, ast.FunctionDef)
                    and not fn.name.startswith("__"))
    named = set()
    for _, tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unnamed = {q for q, name in defined.items() if name not in named}
    assert unnamed == UNNAMED_IN_PACKAGE, unnamed ^ UNNAMED_IN_PACKAGE


def test_parameter_sets_are_frozen(params, degp):
    # the electrodes, the fresh window and the film-free resistance memo
    # are derived once per parameter set, so no field may move under them
    for obj in (params, degp, degp.sei, degp.plating, degp.lam,
                degp.expansion):
        name = dataclasses.fields(obj)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))
