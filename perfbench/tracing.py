"""Spans around the public functions of each cellfade layer.

Tracer.install() replaces each target function with a wrapper wherever the
package looks it up: a module-level function is rebound in every cellfade
module that holds it (modules import some by name, e.g.
``identify.run_campaign``, and reach others as attributes, e.g. ``ec.*``);
a method is replaced on its class. Each call records one span (name,
start, end, parent) in flat in-memory arrays; nothing is aggregated while
the workload runs. Helpers that cost less than a wrapper and run several
times per step (``SphereFV.c_avg``, ``SphereFV.c_ss``,
``Cell.mean_stoichiometry``, ``hydrostatic_stress``, ``r_film``, the
exchange-current helpers) are left unwrapped: their time counts as self
time of the caller.

A span's self time is its duration minus the durations of its direct
children. The first component of a span name is its layer (the cellfade
module); ``bench.*`` spans belong to the benchmark and are no layer's work.
"""

import importlib
import sys
import time
from array import array

import numpy as np

LAYERS = ("particle", "ocp", "electrochem", "degradation", "cell",
          "protocol", "measurement", "identify", "io")


def _run_step_name(args, kwargs):
    step = args[1] if len(args) > 1 else kwargs["step"]
    return "protocol.step." + step.mode


def _ocp_name(args, kwargs):
    s = args[1] if len(args) > 1 else kwargs["s"]
    return "ocp.array" if isinstance(s, np.ndarray) else "ocp.scalar"


# (module, attribute, span name or a function of the call's arguments)
TARGETS = (
    ("particle", "SphereFV.step", "particle.step"),
    ("particle", "step_particle_diffusion", "particle.pair_step"),
    ("ocp", "MonotoneOCPTable.__call__", _ocp_name),
    ("ocp", "MonotoneOCPTable.derivative", "ocp.derivative"),
    ("ocp", "MonotoneOCPTable.inverse", "ocp.inverse"),
    ("electrochem", "terminal_voltage", "electrochem.voltage"),
    ("electrochem", "intercalation_overpotential", "electrochem.voltage"),
    ("electrochem", "solve_window", "electrochem.window"),
    ("electrochem", "pristine_inventory", "electrochem.inventory"),
    ("degradation", "step_degradation", "degradation.step"),
    ("degradation", "lam_cycle_update", "degradation.lam"),
    ("degradation", "sei_lithium_moles", "degradation.books"),
    ("degradation", "plated_lithium_moles", "degradation.books"),
    ("cell", "Cell.step", "cell.step"),
    ("cell", "Cell.voltage_after", "cell.voltage_after"),
    ("cell", "Cell.get_state", "cell.snapshot"),
    ("cell", "Cell.set_state", "cell.rollback"),
    ("cell", "Cell.apply_cycle_fatigue", "cell.fatigue"),
    ("cell", "Cell.esoh", "cell.esoh"),
    ("cell", "Cell.clone", "cell.clone"),
    ("cell", "Cell.equilibrate_at", "cell.equilibrate"),
    ("protocol", "run_campaign", "protocol.campaign"),
    ("protocol", "run_protocol", "protocol.protocol"),
    ("protocol", "run_step", _run_step_name),
    ("protocol", "run_rpt", "protocol.rpt"),
    ("protocol", "reference_capacity", "protocol.reference_capacity"),
    ("measurement", "forward_measure", "measurement.forward"),
    ("measurement", "extract_esoh", "measurement.esoh"),
    ("measurement", "synthesize_pseudo_ocv", "measurement.synth"),
    ("measurement", "irreversible_expansion", "measurement.expansion"),
    ("measurement", "instantaneous_resistance", "measurement.resistance"),
    ("measurement", "kinetic_resistance", "measurement.resistance"),
    ("identify", "invert_with_expansion", "identify.unique"),
    ("identify", "invert_without_expansion", "identify.family"),
    ("identify", "sample_family", "identify.sample"),
    ("identify", "ambiguity_experiment", "identify.experiment"),
    ("identify", "predict_rul", "identify.experiment"),
    ("io", "write_trajectory_csv", "io.write"),
    ("io", "write_cycles_json", "io.write"),
    ("io", "save_state", "io.write"),
    ("io", "write_manifest", "io.write"),
    ("io", "write_json", "io.write"),
    ("io", "write_pseudo_ocv_csv", "io.write"),
    ("io", "sha256_file", "io.hash"),
)


class Tracer:
    """Flat span log plus the patches that feed it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.nid = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]
        self._undo = []
        self.particle_dts = set()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name):
        """fn with a span around each call; name may be a function of the
        call's (args, kwargs) that returns the span name."""
        nids, parents, t0s, t1s = self.nid, self.parent, self.t0, self.t1
        stack = self._stack
        clock = time.perf_counter
        if callable(name):
            namer, ids = name, {}

            def span_id(args, kwargs):
                n = namer(args, kwargs)
                got = ids.get(n)
                if got is None:
                    got = ids[n] = self._id(n)
                return got
        else:
            fixed = self._id(name)
            span_id = None

        def traced(*args, **kwargs):
            i = len(t1s)
            nids.append(fixed if span_id is None else span_id(args, kwargs))
            parents.append(stack[-1])
            t1s.append(0.0)
            stack.append(i)
            t0s.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1s[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if k == "cellfade" or k.startswith("cellfade.")]
        for mod_name, attr, name in TARGETS:
            mod = importlib.import_module("cellfade." + mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                if attr == "SphereFV.step":
                    name = self._particle_step_name
                self._patch(cls, meth, self.wrap(cls.__dict__[meth], name))
                continue
            fn = getattr(mod, attr)
            wrapped = self.wrap(fn, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, wrapped)

    def _particle_step_name(self, args, kwargs):
        self.particle_dts.add(args[3] if len(args) > 3 else kwargs["dt"])
        return "particle.step"

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def spans(self):
        """Arrays of the recorded spans: name id, parent index, start,
        duration and self time."""
        nid = np.frombuffer(self.nid, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        t0 = np.frombuffer(self.t0, dtype=float).copy()
        dur = np.frombuffer(self.t1, dtype=float) - t0
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return nid, parent, t0, dur, dur - child

    def save(self, path, origin):
        nid, parent, t0, dur, _ = self.spans()
        np.savez(path, names=np.array(self.names), name_id=nid, parent=parent,
                 start_s=t0 - origin, end_s=t0 + dur - origin)
