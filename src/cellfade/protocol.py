"""Cycling protocols, reference performance tests, and aging campaigns.

A protocol is an ordered list of CC / CV / rest steps, each with one or
more termination conditions. Steps refine their timestep near a firing
threshold (voltage overshoot is held under 1 mV) by halving dt and
rolling back, and hit time terminations exactly by clamping the last
stride. A step remembers the end of its last attempt that overshot a
voltage threshold; until the step reaches that time, an attempt that
would end later is halved before it is tried instead of tried and rolled
back. Such an attempt would pass the same threshold again unless the
path has turned, so on the packaged campaign and demo the step accepts
the rung of the halving ladder it accepted when it tried every rung
(a rule of the step controller, not a proof). "<=" and ">=" compare
the signed value (discharge positive) and "abs<=" bounds the magnitude.
Every run checks its timesteps once, in run_step.

C-rate strings ("C/5", "-C/3", "2C") resolve against the fresh cell's
window capacity, fixed for the life of the campaign like a test bench
would. Discharge current is positive.
"""

import math
import re
from array import array
from dataclasses import dataclass

import numpy as np

from .degradation import deep_soh
from .errors import (CellDeadError, ConfigError, EstimationFailedError,
                     ProtocolStallError, SaturationError)
from .measurement import (PSEUDO_OCV_POINTS, PseudoOCV, extract_esoh,
                          irreversible_expansion)
from .params import _number

DT, DT_REST = 10.0, 60.0   # default timesteps of active and rest steps, s
VOLTAGE_BAND = 1e-3     # accepted overshoot at a fired voltage threshold, V
CV_TOL = 1e-4           # CV voltage solve tolerance, V
MIN_DT = 0.05           # s; refinement floor
STEP_TIME_CAP = 7.2e5   # s; a single step exceeding this has stalled
PULSE_C_RATE = 0.1      # RPT resistance pulse, in units of the reference capacity
STEP_MODES = ("cc", "cv", "rest")


@dataclass(frozen=True)
class Termination:
    quantity: str      # voltage | current | time
    comparator: str    # "<=" | ">=" | "abs<="
    threshold: float   # V, A, or s (C-rates already resolved)

    def __post_init__(self):
        if self.quantity not in ("voltage", "current", "time"):
            raise ConfigError(f"unknown termination quantity {self.quantity!r}")
        if self.comparator not in ("<=", ">=", "abs<="):
            raise ConfigError(f"unknown comparator {self.comparator!r}")
        if self.comparator == "abs<=":   # a bound on the magnitude
            object.__setattr__(self, "threshold", abs(self.threshold))

    def met(self, value):
        if self.comparator == "<=":
            return value <= self.threshold
        if self.comparator == ">=":
            return value >= self.threshold
        return abs(value) <= self.threshold


@dataclass(frozen=True)
class ProtocolStep:
    mode: str                      # one of STEP_MODES
    setpoint: float = 0.0          # A for cc, V for cv, ignored for rest
    terminations: tuple = ()

    def __post_init__(self):
        # a tuple, so the checks below hold for the step's whole life
        object.__setattr__(self, "terminations",
                           tuple(self.terminations or ()))
        if self.mode not in STEP_MODES:
            raise ConfigError(f"unknown step mode {self.mode!r}")
        if not self.terminations:
            raise ConfigError(f"{self.mode} step has no termination")
        if self.mode == "cv" and not any(
                t.quantity in ("current", "time") for t in self.terminations):
            raise ConfigError("cv step needs a current or time termination")


@dataclass(frozen=True)
class Campaign:
    cycle_protocol: tuple
    rpt_every: int = 0             # 0 disables periodic RPTs
    eol_capacity_fraction: float = 0.7
    max_cycles: int = 500

    def __post_init__(self):
        object.__setattr__(self, "cycle_protocol", tuple(self.cycle_protocol))
        if not self.cycle_protocol:
            raise ConfigError("cycle_protocol must hold at least one step")
        for k, step in enumerate(self.cycle_protocol):
            if not isinstance(step, ProtocolStep):
                raise ConfigError(f"cycle_protocol step {k + 1} must be a "
                                  f"ProtocolStep, got {step!r}")
        for name, kind in (("rpt_every", int), ("max_cycles", int),
                           ("eol_capacity_fraction", float)):
            object.__setattr__(self, name,
                               _number(kind, getattr(self, name), name))
        if not (0.0 < self.eol_capacity_fraction <= 1.0):
            raise ConfigError("eol_capacity_fraction must be in (0, 1]")
        if self.rpt_every < 0 or self.max_cycles < 1:
            raise ConfigError("rpt_every must be >= 0 and max_cycles >= 1")


_RATE = re.compile(r"^\s*(-?)\s*(\d+(?:\.\d+)?)?\s*[Cc]\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$")


def parse_current(value, c_1c):
    """Resolve an ampere number or C-rate string against a 1C current. A
    string that reads as a finite number is amperes, as params._number
    reads it (YAML 1.1 reads an unquoted 1e-1 as the string '1e-1')."""
    try:
        return _number(float, value, "current")
    except ConfigError:
        if not isinstance(value, str):
            raise
    m = _RATE.match(value)
    if not m or (m.group(3) and float(m.group(3)) == 0.0):
        raise ConfigError(f"cannot parse current {value!r} (want amps or e.g. 'C/5')")
    sign = -1.0 if m.group(1) else 1.0
    mult = float(m.group(2)) if m.group(2) else 1.0
    div = float(m.group(3)) if m.group(3) else 1.0
    return sign * mult * c_1c / div


@dataclass
class CycleRecord:
    cycle: int
    capacity_Ah: float
    degradation: dict
    deep_soh: dict
    rpt: dict = None


class Trajectory:
    """Time series plus per-cycle records of one campaign.

    The series are typed columns, 8 bytes a value: t, I, V, x and y are
    array("d"), cycle and step_index array("q"). arrays() returns numpy
    copies, because an array.array that exports its buffer cannot grow.
    """

    def __init__(self):
        self.t = array("d")
        self.I = array("d")
        self.V = array("d")
        self.x = array("d")
        self.y = array("d")
        self.cycle = array("q")
        self.step_index = array("q")
        self.cycles = []

    def append(self, t, rec, cycle, step_index):
        self.t.append(t)
        self.I.append(rec["I"])
        self.V.append(rec["V"])
        self.x.append(rec["x"])
        self.y.append(rec["y"])
        self.cycle.append(cycle)
        self.step_index.append(step_index)

    def arrays(self):
        return {k: np.array(getattr(self, k)) for k in
                ("t", "I", "V", "x", "y", "cycle", "step_index")}


def reference_capacity(params):
    """The fresh cell's window capacity, Ah: the 1C basis and the EOL basis."""
    return params.fresh_window.C


def _solve_cv_current(cell, v_set, dt, i_guess):
    """(I, evaluated): the current holding V_T at v_set for the next step
    (secant, warm start) and its trial step, for cell.step to commit."""
    i, i_prev, f_prev = i_guess, None, None
    for _ in range(62):
        v, evaluated = cell.voltage_after(i, dt)
        f = v - v_set
        if abs(f) < CV_TOL:
            return i, evaluated
        if f == f_prev:   # no slope to follow
            break
        if f_prev is None:
            # V_T decreases with current, so move against the sign of the residual
            i_next = i + (0.05 * abs(i) + 1e-3) * (1.0 if f > 0 else -1.0)
        else:
            i_next = i - f * (i - i_prev) / (f - f_prev)
        i_prev, f_prev, i = i, f, i_next
    raise ProtocolStallError(
        f"CV solve at {v_set:g} V did not converge (residual {f:.2e} V)")


def run_step(cell, step, dt=DT, dt_rest=DT_REST, trajectory=None, t0=0.0,
             cycle=0, step_index=0):
    """Run one protocol step to its first firing termination.

    Returns (elapsed_s, discharged_Ah, fired_termination). discharged_Ah
    is the signed coulomb count of this step (positive for discharge).
    """
    for name, value in (("dt", dt), ("dt_rest", dt_rest)):
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"{name} must be finite and > 0, got {value!r}")
        if value < MIN_DT:   # t grows by dt a step; the stall guard reads t
            raise ConfigError(f"{name} must be at least the refinement floor "
                              f"MIN_DT = {MIN_DT:g} s, got {value!r}")
    t = 0.0
    q_signed = 0.0
    cv = step.mode == "cv"
    base_dt = dt_rest if step.mode == "rest" else dt
    I = step.setpoint if step.mode == "cc" else 0.0   # CV warm-starts from I
    evaluated = None   # a CV attempt's last trial, committed as it stands
    overshot_at = math.inf   # end of the last attempt that overshot, s
    time_terms = [c for c in step.terminations if c.quantity == "time"]
    while True:
        if t >= STEP_TIME_CAP:
            raise ProtocolStallError(
                f"step {step_index} ({step.mode}) exceeded "
                f"{STEP_TIME_CAP:g} s without terminating")
        dt_eff = base_dt
        for c in time_terms:
            dt_eff = min(dt_eff, max(c.threshold - t, MIN_DT * 1e-3))

        snap = cell.get_state()
        while True:   # refine dt near thresholds
            while t + dt_eff > overshot_at and dt_eff > MIN_DT:
                dt_eff = max(dt_eff / 2.0, MIN_DT)
            try:
                if cv:
                    I, evaluated = _solve_cv_current(cell, step.setpoint,
                                                     dt_eff, I)
                rec = cell.step(I, dt_eff, evaluated)
            except SaturationError:   # in a CV trial too; nothing committed
                if dt_eff <= MIN_DT:
                    raise
            else:
                fired = None
                for c in step.terminations:
                    if c.met(rec["V"] if c.quantity == "voltage" else
                             I if c.quantity == "current" else t + dt_eff):
                        fired = c
                        break
                overshoot = (fired is not None and fired.quantity == "voltage"
                             and abs(rec["V"] - fired.threshold) > VOLTAGE_BAND)
                if not overshoot or dt_eff <= MIN_DT:
                    break
                cell.set_state(snap)   # a voltage threshold overshot
                overshot_at = t + dt_eff
            dt_eff = max(dt_eff / 2.0, MIN_DT)

        t += dt_eff
        if t >= overshot_at:   # reached without firing: the record is past
            overshot_at = math.inf
        q_signed += I * dt_eff / 3600.0
        if trajectory is not None:
            trajectory.append(t0 + t, rec, cycle, step_index)
        if fired is not None:
            return t, q_signed, fired


def run_protocol(cell, steps, dt=DT, dt_rest=DT_REST, trajectory=None,
                 t0=0.0, cycle=0):
    """Run a full step list once. Returns (elapsed_s, discharge_Ah)."""
    t = 0.0
    discharged = 0.0
    for k, step in enumerate(steps):
        el, q, _ = run_step(cell, step, dt=dt, dt_rest=dt_rest,
                            trajectory=trajectory, t0=t0 + t,
                            cycle=cycle, step_index=k)
        t += el
        if step.mode == "cc" and step.setpoint > 0.0:
            discharged += q
    return t, discharged


def sweep(cell, current, until, dt):
    """Constant current until the termination fires. Returns the charge
    passed so far at each step (Ah, discharge positive) and the terminal
    voltage at each step."""
    traj = Trajectory()
    run_step(cell, ProtocolStep("cc", current, [until]), dt=dt,
             trajectory=traj)
    a = traj.arrays()
    q = np.cumsum(a["I"] * np.diff(np.concatenate([[0.0], a["t"]]))) / 3600.0
    return q, a["V"]


def run_rpt(cell, dt=DT):
    """Characterize the cell without aging it.

    Works on a frozen clone, which starts at rest at the top of its
    window: C/20 discharge and charge (averaged into a pseudo-OCV curve),
    a mid-SOC current pulse for resistance, and the expansion readout.
    Returns a dict.
    """
    p = cell.params
    c1 = reference_capacity(p)
    probe = cell.clone()
    probe.freeze_degradation = True

    q_d, v_d = sweep(probe, c1 / 20.0, Termination("voltage", "<=", p.V_min),
                     dt)
    capacity = float(q_d[-1])
    run_step(probe, ProtocolStep("rest", 0.0,
                                 [Termination("time", ">=", 600.0)]),
             dt_rest=DT_REST)
    q_c, v_c = sweep(probe, -c1 / 20.0, Termination("voltage", ">=", p.V_max),
                     dt)
    q_c = capacity + q_c

    # average discharge and charge branches on a common removed-charge axis
    grid = np.linspace(max(q_d.min(), q_c.min()),
                       min(q_d.max(), q_c.max()), PSEUDO_OCV_POINTS)
    vd_i = np.interp(grid, q_d, v_d)
    vc_i = np.interp(grid, q_c[::-1], v_c[::-1])
    curve = PseudoOCV(grid, 0.5 * (vd_i + vc_i))

    # resistance pulse at mid-SOC from rest
    probe.equilibrate_at(soc=0.5)
    v0 = probe.open_circuit_voltage()
    i_pulse = PULSE_C_RATE * c1
    rec = probe.step(i_pulse, 0.1)
    r_s = (v0 - rec["V"]) / i_pulse

    esoh = None
    esoh_error = None
    try:
        esoh = extract_esoh(curve, p, capacity=capacity)
    except (EstimationFailedError, ConfigError) as e:
        # keep the RPT usable when the fit fails; programming errors surface
        esoh_error = str(e)

    out = {
        "capacity_Ah": capacity,
        "R_s_ohm": float(r_s),
        "delta_irr_m": irreversible_expansion(
            cell.deg_params.expansion, cell.degradation, p),
        "pseudo_ocv": curve,
        "esoh": esoh.as_dict() if esoh is not None else None,
    }
    if esoh_error:
        out["esoh_error"] = esoh_error
    return out


def run_campaign(cell, campaign, dt=DT, dt_rest=DT_REST, keep_series=True,
                 progress=None):
    """Cycle to end of life or max_cycles.

    Returns (Trajectory, rul_cycles, eol_reached). RUL counts the cycles
    whose measured discharge capacity stayed at or above the threshold.
    """
    p = cell.params
    c_ref = reference_capacity(p)
    threshold = campaign.eol_capacity_fraction * c_ref
    traj = Trajectory()
    series = traj if keep_series else None
    t_abs = 0.0
    rul = 0
    eol = False
    for cyc in range(1, campaign.max_cycles + 1):
        rpt_rec = None
        if campaign.rpt_every and (cyc - 1) % campaign.rpt_every == 0:
            rpt_rec = run_rpt(cell, dt=dt)
            del rpt_rec["pseudo_ocv"]
        try:
            el, discharged = run_protocol(cell, campaign.cycle_protocol,
                                          dt=dt, dt_rest=dt_rest,
                                          trajectory=series, t0=t_abs, cycle=cyc)
            cell.apply_cycle_fatigue()
        except CellDeadError:
            discharged, eol = 0.0, True
        d = cell.degradation
        traj.cycles.append(CycleRecord(
            cyc, discharged, d.as_dict(),
            deep_soh(p, cell.deg_params, d, cell.n_li0), rpt_rec))
        if eol:
            break
        t_abs += el
        if progress is not None:
            progress(cyc, discharged)
        if discharged < threshold:
            eol = True
            break
        rul = cyc
    return traj, rul, eol
