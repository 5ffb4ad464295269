"""Config loading beyond the cell file, state files, and result writers.

All numeric output is written with repr (shortest round-trip decimal), so
identical runs produce byte-identical files on any platform.
"""

import hashlib
import json
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .cell import Cell
from .degradation import DegradationState
from .errors import ConfigError
from .particle import ParticleState
from .measurement import MeasurementVector
from .params import _number, from_mapping, read_mapping
from .protocol import Campaign, ProtocolStep, Termination, parse_current

STATE_VERSION = 1

_MODES = {"cc": "cc", "constant-current": "cc",
          "cv": "cv", "constant-voltage": "cv",
          "rest": "rest"}


def _parse_steps(raw_steps, c_1c, where):
    if not isinstance(raw_steps, list) or not raw_steps:
        raise ConfigError(f"{where}: steps must be a non-empty list")
    steps = []
    for k, s in enumerate(raw_steps):
        try:
            steps.append(_parse_step(s, c_1c))
        except ConfigError as e:
            raise ConfigError(f"{where}: step {k + 1}: {e}") from None
    return steps


def _parse_step(s, c_1c):
    if not isinstance(s, dict) or "mode" not in s:
        raise ConfigError("needs a mode")
    mode = _MODES.get(str(s["mode"]).lower())
    if mode is None:
        raise ConfigError(f"unknown mode {s['mode']!r}")
    if mode == "rest":
        setpoint = 0.0
    elif "setpoint" not in s:
        raise ConfigError(f"({mode}) needs a setpoint")
    elif mode == "cc":
        setpoint = parse_current(s["setpoint"], c_1c)
    else:
        setpoint = _number(float, s["setpoint"], "setpoint")
    until = s.get("until", [])
    if not isinstance(until, list):
        raise ConfigError(f"until must be a list of terminations, got {until!r}")
    terms = []
    for c in until:
        if not isinstance(c, dict):
            raise ConfigError("termination must be a mapping")
        missing = {"quantity", "comparator", "threshold"} - c.keys()
        if missing:
            raise ConfigError(f"termination missing {', '.join(sorted(missing))}")
        if c["quantity"] == "current":
            thr = abs(parse_current(c["threshold"], c_1c))
        else:
            thr = _number(float, c["threshold"], "threshold")
        terms.append(Termination(str(c["quantity"]), str(c["comparator"]), thr))
    return ProtocolStep(mode, setpoint, terms)


def load_protocol(path, c_1c):
    """Step list from a protocol YAML ({steps: [...]})."""
    raw = read_mapping(path, "protocol file")
    if "steps" not in raw:
        raise ConfigError(f"protocol file {path} needs a steps list")
    return _parse_steps(raw["steps"], c_1c, f"protocol file {path}")


def _campaign(raw, path, c_1c, where):
    """Campaign from a config mapping: steps inline or a protocol file
    named relative to path, plus the cycling settings."""
    if "steps" in raw:
        steps = _parse_steps(raw["steps"], c_1c, where)
    elif isinstance(raw.get("protocol"), str):
        steps = load_protocol(Path(path).parent / raw["protocol"], c_1c)
    else:
        raise ConfigError(f"{where} needs steps or a protocol file reference")
    return from_mapping(Campaign, raw, where, cycle_protocol=steps)


def load_campaign(path, c_1c):
    """Campaign from YAML: steps inline or via a protocol file reference."""
    return _campaign(read_mapping(path, "campaign file"), path, c_1c,
                     f"campaign file {path}")


def load_measurements(path):
    """MeasurementVector from a JSON file."""
    return from_mapping(MeasurementVector,
                        read_mapping(path, "measurements file", json.load),
                        f"measurements file {path}")


def load_ambiguity_config(path, c_1c):
    """Demo config: the second-life measurement vector, the member count,
    the campaign and whether the LLI budget filters the family."""
    raw = read_mapping(path, "demo config")
    where = f"demo config {path}"
    y = from_mapping(MeasurementVector, raw.get("measurement"),
                     f"{where}: measurement", delta_irr=None)
    n_members = _number(int, raw.get("n_members", 3), f"{where}: n_members")
    budget = raw.get("lli_budget", True)
    if not isinstance(budget, bool):
        raise ConfigError(f"{where}: lli_budget must be true or false, "
                          f"got {budget!r}")
    return y, n_members, _campaign(raw, path, c_1c, where), budget


# --- state files ---

def save_state(path, cell):
    write_json(path, {
        "version": STATE_VERSION,
        "degradation": cell.degradation.as_dict(),
        "n_li0": cell.n_li0,
        "lam_lithium": cell.lam_lithium,
        "particles": {
            "c_pos": [float(v) for v in cell.particles.c_pos],
            "c_neg": [float(v) for v in cell.particles.c_neg],
        },
    })


def load_state(path, params, deg_params):
    doc = read_mapping(path, "state file", json.load)
    where = f"state file {path}"
    if doc.get("version") != STATE_VERSION:
        raise ConfigError(f"{where}: version {doc.get('version')!r} unsupported")
    particles = doc.get("particles")
    if not isinstance(particles, dict):
        raise ConfigError(f"{where}: particles must be a mapping")
    profiles = []
    for name, c_smax in (("c_pos", params.c_smax_pos),
                         ("c_neg", params.c_smax_neg)):
        values = particles.get(name)
        what = f"{where}: particles {name}"
        if not isinstance(values, list) or len(values) != params.n_shells:
            raise ConfigError(f"{what} must be a list of n_shells "
                              f"({params.n_shells}) numbers")
        c = np.array([_number(float, v, what) for v in values])
        if c.min() < 0.0 or c.max() > c_smax:
            raise ConfigError(f"{what} must lie in [0, c_smax {c_smax:g}], "
                              f"got [{c.min():.6g}, {c.max():.6g}]")
        profiles.append(c)
    deg = doc.get("degradation")
    unknown = (set(deg) - {f.name for f in fields(DegradationState)}
               if isinstance(deg, dict) else ())
    if unknown:
        raise ConfigError(f"{where}: degradation has unknown keys "
                          f"{sorted(unknown, key=str)}")
    cell = Cell(params, deg_params,
                degradation=from_mapping(DegradationState, deg,
                                         f"{where}: degradation"),
                n_li0=_number(float, doc.get("n_li0"), f"{where}: n_li0"),
                particles=ParticleState(*profiles))
    cell.lam_lithium = _number(float, doc.get("lam_lithium", 0.0),
                               f"{where}: lam_lithium")
    return cell


# --- result writers ---

_INTEGERS = (int, np.integer)


def write_csv(path, columns):
    """CSV with a header row and one row per index. columns maps each
    header to an equal-length sequence (list, array.array or numpy array);
    integers are written as integers and every other value as the repr of
    a float."""
    with open(path, "w") as f:
        f.write(",".join(columns) + "\n")
        for row in zip(*columns.values(), strict=True):
            f.write(",".join([str(int(v)) if isinstance(v, _INTEGERS)
                              else repr(float(v)) for v in row]) + "\n")


def write_trajectory_csv(path, traj):
    write_csv(path, {"t_s": traj.t, "cycle": traj.cycle,
                     "step_index": traj.step_index, "I_A": traj.I,
                     "V_V": traj.V, "x": traj.x, "y": traj.y})


def write_pseudo_ocv_csv(path, curve):
    write_csv(path, {"capacity_Ah": curve.capacity_Ah,
                     "voltage_V": curve.voltage})


def write_cycles_json(path, traj, extra=None):
    doc = {"cycles": [
        {"cycle": c.cycle, "capacity_Ah": c.capacity_Ah,
         "degradation": c.degradation, "rpt": c.rpt}
        for c in traj.cycles]}
    if extra:
        doc.update(extra)
    write_json(path, doc)


def write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, configs, seed, outputs, wall_clock_s):
    """Run manifest: inputs, seed, version, and output content hashes."""
    from . import __version__
    out_dir = Path(out_dir)
    doc = {
        "tool": "cellfade",
        "version": __version__,
        "created_unix": int(time.time()),
        "seed": seed,
        "configs": {k: str(v) for k, v in configs.items()},
        "wall_clock_s": wall_clock_s,
        "outputs": {name: sha256_file(out_dir / name) for name in sorted(outputs)},
    }
    path = out_dir / "manifest.json"
    write_json(path, doc)
    return path
