"""Config loading beyond the cell file, state files, and result writers.

All numeric output is written with repr (shortest round-trip decimal), so
identical runs produce byte-identical files on any platform.
"""

import hashlib
import json
import time
from array import array
from dataclasses import asdict
from itertools import islice
from pathlib import Path

import numpy as np

from .cell import Cell
from .degradation import DegradationState, deep_soh, within_lli_budget
from .errors import ConfigError
from .particle import particle_state
from .measurement import MeasurementVector
from .params import (_input, _number, field_names, from_mapping, read_mapping,
                     reject_unknown)
from .protocol import (STEP_MODES, Campaign, ProtocolStep, Termination,
                       parse_current)

STATE_VERSION = 3
# version 2 files, which carry no means, load with their profiles' means
READ_VERSIONS = (2, STATE_VERSION)
# a state's particle lithium against 1 - LLI, as a share of n_li0, and a
# carried mean against its profile's, as a share of c_smax: a full life
# closes both to round-off, so only an edit reaches this
BOOKS_TOL = 1e-6

def _parse_steps(raw_steps, c_1c, where):
    if not isinstance(raw_steps, list) or not raw_steps:
        raise ConfigError(f"{where}: steps must be a non-empty list")
    steps = []
    for k, s in enumerate(raw_steps):
        what = f"{where}: step {k + 1}"
        reject_unknown(s, ("mode", "setpoint", "until"), what)
        with _input(what):
            steps.append(_parse_step(s, c_1c))
    return steps


def _parse_step(s, c_1c):
    if "mode" not in s:
        raise ConfigError("needs a mode")
    mode = s["mode"]
    if mode not in STEP_MODES:
        raise ConfigError(f"unknown mode {mode!r}: use cc, cv or rest")
    if mode == "rest":
        if "setpoint" in s:
            raise ConfigError("(rest) takes no setpoint")
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
        reject_unknown(c, field_names(Termination), "termination")
        missing = field_names(Termination) - c.keys()
        if missing:
            raise ConfigError(f"termination missing {', '.join(sorted(missing))}")
        if c["quantity"] == "current":
            thr = parse_current(c["threshold"], c_1c)
        else:
            thr = _number(float, c["threshold"], "threshold")
        terms.append(Termination(str(c["quantity"]), str(c["comparator"]), thr))
    return ProtocolStep(mode, setpoint, terms)


def load_protocol(path, c_1c):
    """Step list from a protocol YAML ({steps: [...]})."""
    raw = read_mapping(path, "protocol file")
    where = f"protocol file {path}"
    reject_unknown(raw, {"steps"}, where)
    return _parse_steps(raw.get("steps"), c_1c, where)


def _campaign(raw, path, c_1c, where, *other_keys):
    """Campaign from a config mapping that may also hold other_keys: steps
    inline or a protocol file named relative to path, plus its settings."""
    reject_unknown(raw, field_names(Campaign) - {"cycle_protocol"}
                   | {"steps", "protocol", *other_keys}, where)
    if "steps" in raw and "protocol" in raw:
        raise ConfigError(f"{where} takes steps or a protocol file "
                          f"reference, not both")
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
    raw = read_mapping(path, "measurements file", json.load)
    where = f"measurements file {path}"
    reject_unknown(raw, field_names(MeasurementVector), where)
    return from_mapping(MeasurementVector, raw, where)


def load_ambiguity_config(path, c_1c):
    """Demo config: the second-life measurement vector, the member count,
    the campaign and whether the LLI budget filters the family."""
    raw = read_mapping(path, "demo config")
    where = f"demo config {path}"
    campaign = _campaign(raw, path, c_1c, where, "measurement", "n_members",
                         "lli_budget")
    m = f"{where}: measurement"
    # no delta_irr: the demo is the case without an expansion reading
    reject_unknown(raw.get("measurement"),
                   field_names(MeasurementVector) - {"delta_irr"}, m)
    y = from_mapping(MeasurementVector, raw["measurement"], m, delta_irr=None)
    n_members = _number(int, raw.get("n_members", 3), f"{where}: n_members")
    budget = raw.get("lli_budget", True)
    if not isinstance(budget, bool):
        raise ConfigError(f"{where}: lli_budget must be true or false, "
                          f"got {budget!r}")
    return y, n_members, campaign, budget


# --- state files ---

def save_state(path, cell):
    """Version 3: the degradation state, n_li0, both radial profiles and
    the volume means the particle state carries, so a run resumed from
    the file steps from the same means as the run that wrote it."""
    c_avg_pos, c_avg_neg = cell.particles.averages[:2]
    write_json(path, {
        "version": STATE_VERSION,
        "degradation": cell.degradation.as_dict(),
        "n_li0": cell.n_li0,
        "particles": {
            "c_pos": [float(v) for v in cell.particles.c_pos],
            "c_neg": [float(v) for v in cell.particles.c_neg],
            "c_avg_pos": c_avg_pos,
            "c_avg_neg": c_avg_neg,
        },
    })


def load_state(path, params, deg_params):
    doc = read_mapping(path, "state file", json.load)
    where = f"state file {path}"
    version = doc.get("version")
    if version not in READ_VERSIONS:
        raise ConfigError(f"{where}: version {version!r} unsupported")
    reject_unknown(doc, ("version", "degradation", "n_li0", "particles"), where)
    particles = doc.get("particles")
    carried = ("c_avg_pos", "c_avg_neg") if version == STATE_VERSION else ()
    reject_unknown(particles, ("c_pos", "c_neg", *carried),
                   f"{where}: particles")
    profiles = []
    for name, side in (("c_pos", params.pos), ("c_neg", params.neg)):
        values = particles.get(name)
        what = f"{where}: particles {name}"
        if not isinstance(values, list) or len(values) != side.n:
            raise ConfigError(f"{what} must be a list of n_shells "
                              f"({side.n}) numbers")
        c = np.array([_number(float, v, what) for v in values])
        if c.min() < 0.0 or c.max() > side.c_smax:
            raise ConfigError(f"{what} must lie in [0, c_smax "
                              f"{side.c_smax:g}], "
                              f"got [{c.min():.6g}, {c.max():.6g}]")
        profiles.append(c)
    deg = doc.get("degradation")
    reject_unknown(deg, field_names(DegradationState), f"{where}: degradation")
    degradation = from_mapping(DegradationState, deg, f"{where}: degradation")
    n_li0 = _number(float, doc.get("n_li0"), f"{where}: n_li0")
    if not n_li0 > 0.0:
        raise ConfigError(f"{where}: n_li0 must be > 0, got {n_li0!r}")
    if not within_lli_budget(
            deep_soh(params, deg_params, degradation, n_li0)["fracture"]):
        raise ConfigError(f"{where}: degradation films hold more lithium "
                          f"than its LLI {degradation.LLI!r} of n_li0")
    cell = Cell(params, deg_params, degradation=degradation, n_li0=n_li0,
                particles=particle_state(params, *profiles))
    held = cell.particle_lithium() / n_li0
    if not abs(held - (1.0 - degradation.LLI)) <= BOOKS_TOL:
        raise ConfigError(f"{where}: particles hold {held:.6g} of n_li0, "
                          f"but 1 - LLI leaves {1.0 - degradation.LLI:.6g}")
    if carried:   # the means the writing run carried, near its profiles'
        means = []
        for name, side, own in zip(carried, (params.pos, params.neg),
                                   cell.particles.averages):
            what = f"{where}: particles {name}"
            mean = _number(float, particles.get(name), what)
            if not abs(mean - own) <= BOOKS_TOL * side.c_smax:
                raise ConfigError(f"{what} {mean!r} is not its profile's "
                                  f"mean {own!r}")
            means.append(mean)
        cell.particles = particle_state(params, *profiles, means=means)
    return cell


# --- result writers ---

def write_csv(path, columns):
    """CSV with a header row and one row per index. columns maps each
    header to an equal-length sequence (list, array.array or numpy array);
    integers are written as integers and every other value as the repr of
    a float. Columns become Python ints and floats, whose %r is just that;
    each row is one %, and rows go out 4096 at a time, never all at once."""
    values = [c.tolist() if isinstance(c, np.ndarray) and c.dtype.kind in "iuf"
              else c if isinstance(c, array) and c.typecode in "dq"
              else [int(v) if isinstance(v, (int, np.integer)) else float(v)
                    for v in c] for c in columns.values()]
    row = ",".join(["%r"] * len(values)) + "\n"
    rows = zip(*values, strict=True)
    with open(path, "w") as f:
        f.write(",".join(columns) + "\n")
        while chunk := "".join([row % r for r in islice(rows, 4096)]):
            f.write(chunk)


def write_trajectory_csv(path, traj):
    write_csv(path, {"t_s": traj.t, "cycle": traj.cycle,
                     "step_index": traj.step_index, "I_A": traj.I,
                     "V_V": traj.V, "x": traj.x, "y": traj.y})


def write_pseudo_ocv_csv(path, curve):
    write_csv(path, {"capacity_Ah": curve.capacity_Ah,
                     "voltage_V": curve.voltage})


def write_cycles_json(path, traj, extra):
    """The per-cycle records, plus the run summary fields in extra."""
    write_json(path, {"cycles": [asdict(c) for c in traj.cycles], **extra})


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
