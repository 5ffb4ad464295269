"""The package names the benchmark in perfbench/ wraps and calls.

perfbench/tracing.py patches each of its TARGETS by name and
perfbench/workloads.py imports and calls package functions by name, so
renaming or deleting one breaks the benchmark without failing any other
test. Its call counts are read as work done, so the calls that one cell
step, one identified vector and one eSOH residual make into a traced
layer are pinned here too. The files are read here, never changed.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from cellfade import cell as ccell
from cellfade import degradation
from cellfade import electrochem, identify, measurement, ocp, particle
from cellfade import io as cio
from cellfade.degradation import DegradationState

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing_targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [(m, a) for m, a, _ in mod.TARGETS]


def _workload_names():
    """(module, attribute) for every cellfade name workloads.py imports,
    and for every attribute it reads off an imported cellfade module."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    names, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("cellfade"):
            for a in node.names:
                if node.module == "cellfade":   # a submodule
                    modules[a.asname or a.name] = "cellfade." + a.name
                else:
                    names.add((node.module, a.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((modules[node.value.id], node.attr))
    return sorted(names)


@pytest.mark.parametrize("module, attr", _tracing_targets())
def test_tracer_target_exists(module, attr):
    obj = importlib.import_module("cellfade." + module)
    if "." in attr:   # the tracer replaces the method on its own class
        cls_name, meth = attr.split(".")
        obj = getattr(obj, cls_name)
        assert meth in vars(obj), f"{module}.{attr}"
    else:
        assert callable(getattr(obj, attr, None)), f"{module}.{attr}"


@pytest.mark.parametrize("module, attr", _workload_names())
def test_workload_name_exists(module, attr):
    assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"


def test_write_manifest_takes_seed_third():
    # the campaign workload passes it positionally
    params = list(inspect.signature(cio.write_manifest).parameters)
    assert params[2] == "seed"


def test_particle_calls_per_cell_evaluation(params, degp, monkeypatch):
    # particle.step.calls reads as two SphereFV.step calls and one
    # step_particle_diffusion per evaluated cell step
    calls = {"step": 0, "pair": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(particle.SphereFV, "step",
                        counted("step", particle.SphereFV.step))
    pair = counted("pair", particle.step_particle_diffusion)
    for module in (particle, ccell):   # as the tracer rebinds it
        monkeypatch.setattr(module, "step_particle_diffusion", pair)
    cell = ccell.Cell(params, degp)
    cell.voltage_after(2.0, 10.0)
    assert calls == {"step": 2, "pair": 1}
    cell.step(1.0, 10.0)   # handed no trial, the step evaluates
    assert calls == {"step": 4, "pair": 2}


def test_voltage_calls_per_cell_evaluation(params, degp, monkeypatch):
    # electrochem.voltage.calls reads as one terminal_voltage per evaluated
    # cell step, an aging one or a frozen (RPT probe) one, and none for
    # the step that commits a trial it is handed
    calls = []
    terminal_voltage = electrochem.terminal_voltage

    def counted(*args, **kwargs):
        calls.append(1)
        return terminal_voltage(*args, **kwargs)

    # the tracer rebinds the module attribute, which the cell reads
    monkeypatch.setattr(electrochem, "terminal_voltage", counted)
    cell = ccell.Cell(params, degp)
    _, evaluated = cell.voltage_after(2.0, 10.0)
    assert len(calls) == 1
    cell.step(2.0, 10.0, evaluated)   # commits the trial without evaluating it
    assert len(calls) == 1
    cell.step(1.0, 10.0)
    assert len(calls) == 2
    cell.freeze_degradation = True
    cell.step(1.0, 10.0)
    assert len(calls) == 3


def test_identify_calls_per_vector(params, degp, n_li0, monkeypatch):
    # electrochem.window.calls reads as one solve_window per identified
    # vector however often the routes and their checks ask. The eSOH fit
    # makes no array table call: per table, it locates each distinct theta
    # it tries once, sums values there once for the residual and slopes
    # once for the Jacobian
    state = DegradationState(1e-7, 2e-8, 0.95 * params.C_p_nom,
                             0.95 * params.C_n_nom, 0.09)
    y = measurement.forward_measure(params, degp, state, n_li0)
    curve = measurement.synthesize_pseudo_ocv(
        params, electrochem.solve_window(params, y.C_p, y.C_n,
                                         n_li0 * (1.0 - y.LLI)),
        noise_mv=0.5, rng=np.random.default_rng(3))
    p = dataclasses.replace(params)   # a copy starts with no memo
    calls = {"window": 0, "array": 0, "residual": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    window = counted("window", electrochem.solve_window)
    for module in (electrochem, measurement, identify):   # as the tracer does
        monkeypatch.setattr(module, "solve_window", window)
    identify.invert_with_expansion(p, degp, y, n_li0)
    fam = identify.invert_without_expansion(p, degp, y, n_li0)
    for member in identify.sample_family(fam, y, 3):
        measurement.forward_measure(p, degp, member, n_li0)
    assert calls["window"] == 1

    table_call = ocp.MonotoneOCPTable.__call__

    def table(self, s):
        calls["array"] += isinstance(s, np.ndarray)
        return table_call(self, s)

    calls.update(jacobian=0, derivative=0, locate=0, value=0, slope=0)
    fits = []
    scipy_leastsq = measurement.leastsq
    table_derivative = ocp.MonotoneOCPTable.derivative

    def derivative(self, s):
        calls["derivative"] += isinstance(s, np.ndarray)
        return table_derivative(self, s)

    for key, name in (("locate", "locate"), ("value", "value_at"),
                      ("slope", "slope_at")):
        monkeypatch.setattr(ocp.MonotoneOCPTable, name,
                            counted(key, getattr(ocp.MonotoneOCPTable, name)))

    thetas, jacobian_thetas = set(), set()

    def recording_leastsq(func, x0, Dfun, **kwargs):
        def residual(theta):
            thetas.add(theta.tobytes())
            return func(theta)

        def jacobian(theta):
            jacobian_thetas.add(theta.tobytes())
            return Dfun(theta)

        fits.append(scipy_leastsq(counted("residual", residual), x0,
                                  Dfun=counted("jacobian", jacobian),
                                  **kwargs))
        return fits[-1]

    monkeypatch.setattr(ocp.MonotoneOCPTable, "derivative", derivative)
    monkeypatch.setattr(ocp.MonotoneOCPTable, "__call__", table)
    monkeypatch.setattr(measurement, "leastsq", recording_leastsq)
    measurement.extract_esoh(curve, p)
    info = fits[0][2]
    assert calls["residual"] > 0
    # each distinct theta is located and valued once per table however
    # often it is asked for, so no theta reaches the tables twice:
    # leastsq's shape check and MINPACK's calls at the start share one
    # evaluation
    assert calls["array"] == calls["derivative"] == 0
    assert calls["locate"] == 2 * len(thetas) < 2 * calls["residual"]
    assert calls["value"] == 2 * len(thetas)
    # nfev counts each point MINPACK asks for, the start included; leastsq
    # asks for the start once more to check the residual's shape, and
    # scipy's _lmder once more to size its arrays
    assert calls["residual"] == info["nfev"] + 2
    # one slope sum per table for each distinct theta whose Jacobian is
    # asked for, every one of them a theta the residual was evaluated at
    # and located for; MINPACK's njev plus leastsq's shape check, and no
    # closing jac(x)
    assert calls["jacobian"] == info["njev"] + 1 > 1
    assert calls["slope"] == 2 * len(jacobian_thetas)
    assert jacobian_thetas <= thetas


def test_degradation_calls_per_cell_evaluation(params, degp, monkeypatch):
    # degradation.step.calls reads as one step_degradation per evaluated
    # cell step that ages the cell, and none on a frozen (RPT probe) step
    calls = []
    step_degradation = degradation.step_degradation

    def counted(*args, **kwargs):
        calls.append(1)
        return step_degradation(*args, **kwargs)

    for module in (degradation, ccell):   # as the tracer rebinds it
        monkeypatch.setattr(module, "step_degradation", counted)
    cell = ccell.Cell(params, degp)
    _, evaluated = cell.voltage_after(2.0, 10.0)
    assert len(calls) == 1
    cell.step(2.0, 10.0, evaluated)   # commits the trial without evaluating it
    assert len(calls) == 1
    cell.step(1.0, 10.0)
    assert len(calls) == 2
    cell.freeze_degradation = True
    cell.voltage_after(2.0, 10.0)
    cell.step(1.0, 10.0)
    assert len(calls) == 2
