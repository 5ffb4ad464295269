"""Config loading beyond the cell file, state files, and result writers.

All numeric output is written with repr (shortest round-trip decimal), so
identical runs produce byte-identical files on any platform.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import yaml

from .cell import Cell
from .degradation import DegradationState
from .errors import ConfigError
from .particle import ParticleState
from .measurement import MeasurementVector
from .protocol import Campaign, ProtocolStep, Termination

STATE_VERSION = 1


def _load_yaml(path, what):
    try:
        with open(path) as f:
            data = yaml.safe_load(f)
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}")
    except yaml.YAMLError as e:
        raise ConfigError(f"{what} {path} is not valid YAML: {e}")
    if not isinstance(data, dict):
        raise ConfigError(f"{what} {path} must be a mapping")
    return data


def _number(kind, value, what):
    """value as int or float (kind); one that does not convert is a
    ConfigError naming what it is."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None


_CAMPAIGN_FIELDS = (("rpt_every", int), ("max_cycles", int),
                    ("eol_capacity_fraction", float))


def _campaign_fields(raw, where):
    """The campaign settings present in a config mapping, converted."""
    return {key: _number(kind, raw[key], f"{where}: {key}")
            for key, kind in _CAMPAIGN_FIELDS if key in raw}


_MODES = {"cc": "cc", "constant-current": "cc",
          "cv": "cv", "constant-voltage": "cv",
          "rest": "rest"}


def _parse_steps(raw_steps, c_1c, where):
    from .protocol import parse_current
    if not isinstance(raw_steps, list) or not raw_steps:
        raise ConfigError(f"{where}: steps must be a non-empty list")
    steps = []
    for k, s in enumerate(raw_steps):
        if not isinstance(s, dict) or "mode" not in s:
            raise ConfigError(f"{where}: step {k + 1} needs a mode")
        mode = _MODES.get(str(s["mode"]).lower())
        if mode is None:
            raise ConfigError(f"{where}: step {k + 1} has unknown mode {s['mode']!r}")
        if mode == "cc":
            if "setpoint" not in s:
                raise ConfigError(f"{where}: step {k + 1} (cc) needs a setpoint")
            setpoint = parse_current(s["setpoint"], c_1c)
        elif mode == "cv":
            if "setpoint" not in s:
                raise ConfigError(f"{where}: step {k + 1} (cv) needs a setpoint")
            setpoint = _number(float, s["setpoint"],
                               f"{where}: step {k + 1} setpoint")
        else:
            setpoint = 0.0
        terms = []
        for c in s.get("until", []):
            if not isinstance(c, dict):
                raise ConfigError(f"{where}: step {k + 1} termination must be a mapping")
            try:
                q = c["quantity"]
                comp = c["comparator"]
                thr = c["threshold"]
            except KeyError as e:
                raise ConfigError(
                    f"{where}: step {k + 1} termination missing {e.args[0]}")
            if q == "current":
                thr = abs(parse_current(thr, c_1c))
            thr = _number(float, thr, f"{where}: step {k + 1} threshold")
            terms.append(Termination(str(q), str(comp), thr))
        try:
            steps.append(ProtocolStep(mode, setpoint, terms))
        except ConfigError as e:
            raise ConfigError(f"{where}: step {k + 1}: {e}")
    return steps


def load_protocol(path, c_1c):
    """Step list from a protocol YAML ({steps: [...]})."""
    raw = _load_yaml(path, "protocol file")
    if "steps" not in raw:
        raise ConfigError(f"protocol file {path} needs a steps list")
    return _parse_steps(raw["steps"], c_1c, str(path))


def load_campaign(path, c_1c):
    """Campaign from YAML: steps inline or via a protocol file reference."""
    raw = _load_yaml(path, "campaign file")
    if "steps" in raw:
        steps = _parse_steps(raw["steps"], c_1c, str(path))
    elif "protocol" in raw:
        ref = Path(path).parent / raw["protocol"]
        steps = load_protocol(ref, c_1c)
    else:
        raise ConfigError(f"campaign file {path} needs steps or a protocol reference")
    return Campaign(cycle_protocol=steps, **_campaign_fields(raw, str(path)))


def load_measurements(path):
    """MeasurementVector from a JSON file."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"measurements file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"measurements file {path}: {e}")
    if not isinstance(raw, dict):
        raise ConfigError(f"measurements file {path} must be a JSON object")
    where = f"measurements file {path}"
    try:
        fields = {k: raw[k] for k in ("C_p", "C_n", "LLI", "R_s")}
    except KeyError as e:
        raise ConfigError(f"{where} missing {e.args[0]}")
    if raw.get("delta_irr") is not None:
        fields["delta_irr"] = raw["delta_irr"]
    return MeasurementVector(**{k: _number(float, v, f"{where}: {k}")
                                for k, v in fields.items()})


def load_ambiguity_config(path, c_1c):
    """Demo config: the second-life measurement vector plus campaign."""
    raw = _load_yaml(path, "demo config")
    if "measurement" not in raw:
        raise ConfigError(f"demo config {path} needs a measurement block")
    m = raw["measurement"]
    try:
        y = MeasurementVector(**{
            k: _number(float, m[k], f"demo config {path}: measurement {k}")
            for k in ("C_p", "C_n", "LLI", "R_s")})
    except (KeyError, TypeError) as e:
        raise ConfigError(f"demo config {path}: bad measurement block ({e})")
    n_members = _number(int, raw.get("n_members", 3),
                        f"demo config {path}: n_members")
    if n_members < 1:
        raise ConfigError(f"demo config {path}: n_members must be >= 1")
    steps = _parse_steps(raw["steps"], c_1c, str(path)) if "steps" in raw else None
    campaign = (Campaign(cycle_protocol=steps,
                         **_campaign_fields(raw, f"demo config {path}"))
                if steps else None)
    return y, n_members, campaign, bool(raw.get("lli_budget", True))


# --- state files ---

def save_state(path, cell):
    doc = {
        "version": STATE_VERSION,
        "degradation": cell.degradation.as_dict(),
        "n_li0": cell.n_li0,
        "lam_lithium": cell.lam_lithium,
        "particles": {
            "c_pos": [float(v) for v in cell.particles.c_pos],
            "c_neg": [float(v) for v in cell.particles.c_neg],
        },
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def load_state(path, params, deg_params):
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"state file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"state file {path}: {e}")
    if doc.get("version") != STATE_VERSION:
        raise ConfigError(
            f"state file {path}: version {doc.get('version')!r} unsupported")
    deg = DegradationState(**doc["degradation"])
    c_pos = np.asarray(doc["particles"]["c_pos"], dtype=float)
    c_neg = np.asarray(doc["particles"]["c_neg"], dtype=float)
    if len(c_pos) != params.n_shells or len(c_neg) != params.n_shells:
        raise ConfigError(
            f"state file {path}: profile length does not match n_shells "
            f"{params.n_shells}")
    cell = Cell(params, deg_params, degradation=deg,
                n_li0=float(doc["n_li0"]),
                particles=ParticleState(c_pos, c_neg))
    cell.lam_lithium = float(doc.get("lam_lithium", 0.0))
    return cell


# --- result writers ---

def _fmt(v):
    return repr(float(v))


def write_trajectory_csv(path, traj):
    a = traj.arrays()
    with open(path, "w") as f:
        f.write("t_s,cycle,step_index,I_A,V_V,x,y\n")
        for i in range(len(a["t"])):
            f.write(",".join([
                _fmt(a["t"][i]), str(int(a["cycle"][i])),
                str(int(a["step_index"][i])), _fmt(a["I"][i]),
                _fmt(a["V"][i]), _fmt(a["x"][i]), _fmt(a["y"][i])]) + "\n")


def write_pseudo_ocv_csv(path, curve):
    with open(path, "w") as f:
        f.write("capacity_Ah,voltage_V\n")
        for q, v in zip(curve.capacity_Ah, curve.voltage):
            f.write(f"{_fmt(q)},{_fmt(v)}\n")


def write_cycles_json(path, traj, extra=None):
    doc = {"cycles": [
        {"cycle": c.cycle, "capacity_Ah": c.capacity_Ah,
         "degradation": c.degradation, "rpt": c.rpt}
        for c in traj.cycles]}
    if extra:
        doc.update(extra)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


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
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    return path
