"""Protocol execution: terminations, CV regulation, RPTs, campaigns."""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cellfade import io as cio
from cellfade import protocol
from cellfade.cell import Cell
from cellfade.degradation import DegradationState
from cellfade.errors import (ConfigError, EstimationFailedError,
                             ProtocolStallError, SaturationError)
from cellfade.params import DegradationParameters
from cellfade.protocol import (
    Campaign,
    CycleRecord,
    ProtocolStep,
    Termination,
    Trajectory,
    parse_current,
    reference_capacity,
    run_campaign,
    run_protocol,
    run_rpt,
    run_step,
)
from helpers import count_advances


DATA = Path(__file__).resolve().parents[1] / "src" / "cellfade" / "data"


@pytest.fixture
def cell(params, degp):
    return Cell(params, degp)


@pytest.fixture(scope="session")
def c1(params):
    return reference_capacity(params)


class TestParseCurrent:
    def test_plain_rates(self):
        assert parse_current("C/2", 4.0) == pytest.approx(2.0)
        assert parse_current("C/20", 4.0) == pytest.approx(0.2)
        assert parse_current("C", 4.0) == pytest.approx(4.0)
        assert parse_current("2C", 4.0) == pytest.approx(8.0)
        assert parse_current("1.5C", 4.0) == pytest.approx(6.0)

    def test_signed_rates(self):
        assert parse_current("-C/2", 4.0) == pytest.approx(-2.0)
        assert parse_current("-2C", 4.0) == pytest.approx(-8.0)

    def test_numbers_pass_through(self):
        assert parse_current(3, 4.0) == 3.0
        assert parse_current(-1.25, 4.0) == -1.25

    def test_numeric_strings_are_amperes(self):
        # YAML 1.1 reads an unquoted 1e-1 as the string '1e-1'; a bare
        # number is amperes, never a multiple of 1C
        assert parse_current("1e-1", 4.0) == 0.1
        assert parse_current("-2", 4.0) == -2.0
        assert parse_current("2", 4.0) == 2.0
        assert parse_current("0.5", 4.0) == 0.5
        for bad in ("nan", "-inf", "C/0"):
            with pytest.raises(ConfigError, match="cannot parse current"):
                parse_current(bad, 4.0)

    def test_garbage_raises(self):
        for bad in ("", "fast", "C/", "C/2C"):
            with pytest.raises(ConfigError):
                parse_current(bad, 4.0)


class TestValidation:
    def test_termination_checks(self):
        t = Termination("voltage", "<=", 3.0)
        assert t.met(2.9) and not t.met(3.1)
        t = Termination("current", "abs<=", 0.2)
        assert t.met(-0.1) and t.met(0.15) and not t.met(0.3)
        with pytest.raises(ConfigError):
            Termination("power", "<=", 1.0)
        with pytest.raises(ConfigError):
            Termination("voltage", "==", 1.0)

    def test_step_checks(self):
        with pytest.raises(ConfigError):
            ProtocolStep("pulse", 1.0, [Termination("time", ">=", 1.0)])
        with pytest.raises(ConfigError):
            ProtocolStep("cc", 1.0, [])
        with pytest.raises(ConfigError):
            # cv holding forever: needs a current or time exit
            ProtocolStep("cv", 4.2, [Termination("voltage", ">=", 4.2)])

    def test_campaign_checks(self):
        steps = [ProtocolStep("rest", 0.0, [Termination("time", ">=", 1.0)])]
        with pytest.raises(ConfigError):
            Campaign(steps, eol_capacity_fraction=0.0)
        with pytest.raises(ConfigError):
            Campaign(steps, eol_capacity_fraction=1.5)
        with pytest.raises(ConfigError):
            Campaign(steps, max_cycles=0)
        with pytest.raises(ConfigError):
            Campaign(steps, rpt_every=-1)


def test_rest_time_termination_exact(cell):
    step = ProtocolStep("rest", 0.0, [Termination("time", ">=", 600.0)])
    el, q, fired = run_step(cell, step, dt_rest=77.0)
    assert el == pytest.approx(600.0, abs=1e-9)   # last stride clamps
    assert q == 0.0
    assert fired.quantity == "time"


def test_cc_discharge_ends_at_voltage_limit(cell, c1):
    step = ProtocolStep("cc", c1 / 2.0, [Termination("voltage", "<=", 3.0)])
    traj = Trajectory()
    el, q, fired = run_step(cell, step, dt=10.0, trajectory=traj)
    assert fired.quantity == "voltage"
    v_end = traj.V[-1]
    assert 3.0 - 1e-3 <= v_end <= 3.0   # fired under the limit, < 1 mV deep
    assert q > 0.0


def test_cc_coulomb_count_matches_trajectory(cell, c1):
    step = ProtocolStep("cc", c1 / 2.0, [Termination("voltage", "<=", 3.0)])
    traj = Trajectory()
    el, q, _ = run_step(cell, step, dt=10.0, trajectory=traj)
    a = traj.arrays()
    dt = np.diff(np.concatenate([[0.0], a["t"]]))
    q_int = float(np.sum(a["I"] * dt)) / 3600.0
    assert q == pytest.approx(q_int, rel=1e-3)
    assert q == pytest.approx(el * (c1 / 2.0) / 3600.0, rel=1e-6)


def test_saturating_cv_trial_refines_dt(cell):
    # a setpoint far below the open-circuit voltage asks the first secant
    # trial for a current that empties a particle at the base dt; the
    # trial is rejected like a saturated step and dt halves
    cell.equilibrate_at(soc=0.5)
    step = ProtocolStep("cv", 3.3, [Termination("time", ">=", 600.0)])
    el, q, fired = run_step(cell, step, dt=60.0)
    assert fired.quantity == "time"
    assert el == pytest.approx(600.0, abs=1e-9)
    assert q == pytest.approx(2.14, abs=0.01)


def test_cv_saturation_raises_only_at_min_dt(cell, monkeypatch):
    # 3.0 V from a full cell saturates at every dt; it surfaces only once
    # the refinement has reached its floor
    dts = []
    trial = Cell.voltage_after

    def spy(self, I, dt):
        dts.append(dt)
        return trial(self, I, dt)

    monkeypatch.setattr(Cell, "voltage_after", spy)
    step = ProtocolStep("cv", 3.0, [Termination("time", ">=", 600.0)])
    with pytest.raises(SaturationError):
        run_step(cell, step, dt=60.0)
    assert dts[0] == 60.0 and dts[-1] == protocol.MIN_DT


def test_cv_step_commits_its_last_trial(cell, c1, monkeypatch):
    # each CV attempt hands its last secant trial to Cell.step: the kernel
    # runs once per trial and never again to commit, and the cell holds
    # the last trial's own state values
    run_step(cell, ProtocolStep("cc", c1 / 2.0,
                                [Termination("time", ">=", 1800.0)]), dt=10.0)
    advances = count_advances(cell, monkeypatch)
    trials = []
    trial = Cell.voltage_after

    def spy(self, I, dt):
        v, evaluated = trial(self, I, dt)
        trials.append(evaluated)
        return v, evaluated

    monkeypatch.setattr(Cell, "voltage_after", spy)
    step = ProtocolStep("cv", cell.params.V_max,
                        [Termination("time", ">=", 60.0)])
    run_step(cell, step, dt=10.0)
    assert len(trials) >= 6   # at least one trial for each of six steps
    assert len(advances) == len(trials)
    (particles, degradation, extrema), _ = trials[-1]
    assert cell.particles is particles
    assert cell.degradation is degradation
    assert cell.extrema is extrema


def test_cv_holds_setpoint_and_tapers(cell, c1):
    # discharge a bit first so the CV at V_max has work to do
    run_step(cell, ProtocolStep("cc", c1 / 2.0,
                                [Termination("time", ">=", 1800.0)]), dt=10.0)
    traj = Trajectory()
    step = ProtocolStep("cv", cell.params.V_max,
                        [Termination("current", "abs<=", c1 / 100.0)])
    el, q, fired = run_step(cell, step, dt=10.0, trajectory=traj)
    assert fired.quantity == "current"
    a = traj.arrays()
    assert np.max(np.abs(a["V"] - cell.params.V_max)) <= 1e-4 + 1e-9
    assert abs(a["I"][-1]) <= c1 / 100.0
    # charging current tapers toward zero
    assert a["I"][0] < 0.0
    assert abs(a["I"][-1]) < abs(a["I"][0])


def test_stall_raises(cell):
    # a rest step can never satisfy a current >= threshold condition
    step = ProtocolStep("rest", 0.0, [Termination("current", ">=", 1.0)])
    with pytest.raises(ProtocolStallError):
        run_step(cell, step, dt_rest=1e5)


class CVLawCell(Cell):
    """A cell whose CV trial voltage follows law(I). Its trials evaluate
    no step, so they hand Cell.step nothing to commit, and leave the
    state alone, as Cell.voltage_after does."""

    def __init__(self, params, degp, law):
        super().__init__(params, degp)
        self.law = law
        self.trials = 0

    def voltage_after(self, I, dt):
        self.trials += 1
        return self.law(I), None


@pytest.mark.parametrize("law, trials", [
    # the secant's first two points agree, so it has no slope to follow
    ("flat", 2),
    # a cube root about the setpoint: each secant step lands farther out,
    # and all 60 iterations run
    ("cube_root", 62),
])
def test_cv_solve_stall_raises(params, degp, c1, law, trials):
    v_set = params.V_max
    laws = {"flat": lambda I: v_set - 0.3,
            "cube_root": lambda I: v_set - np.cbrt(I - 0.7)}
    cell = CVLawCell(params, degp, laws[law])
    snap = cell.get_state()
    c_pos, c_neg = snap[0].c_pos.copy(), snap[0].c_neg.copy()
    step = ProtocolStep("cv", v_set,
                        [Termination("current", "abs<=", c1 / 100.0)])
    with pytest.raises(ProtocolStallError,
                       match=rf"CV solve at {v_set:g} V did not converge"):
        run_step(cell, step, dt=10.0)
    assert cell.trials == trials
    # the stall leaves the state values as they were
    assert all(a is b for a, b in zip(cell.get_state(), snap))
    assert np.array_equal(snap[0].c_pos, c_pos)
    assert np.array_equal(snap[0].c_neg, c_neg)


def test_cv_solve_tests_its_last_trial(params, degp):
    # residuals of alternating sign halve each secant step, and only the
    # 62nd trial, the last the solve evaluates, meets CV_TOL: it is returned
    v_set = params.V_max
    cell = CVLawCell(params, degp, lambda I: v_set + (
        0.0 if cell.trials == 62 else 0.3 * (-1.0) ** cell.trials))
    I, evaluated = protocol._solve_cv_current(cell, v_set, 10.0, 0.0)
    assert cell.trials == 62
    assert evaluated is None and -1e-3 < I < 0.0


def test_protocol_determinism(cell, params, degp, c1):
    steps = [
        ProtocolStep("cc", c1 / 2.0, [Termination("voltage", "<=", 3.2)]),
        ProtocolStep("rest", 0.0, [Termination("time", ">=", 300.0)]),
        ProtocolStep("cc", -c1 / 2.0, [Termination("voltage", ">=", 4.2)]),
    ]
    outs = []
    for _ in range(2):
        c = Cell(params, degp)
        tr = Trajectory()
        outs.append((run_protocol(c, steps, dt=10.0, trajectory=tr),
                     tr.arrays()))
    (el_a, q_a), a = outs[0]
    (el_b, q_b), b = outs[1]
    assert el_a == el_b and q_a == q_b
    assert np.array_equal(a["V"], b["V"])
    assert np.array_equal(a["I"], b["I"])


def test_slow_discharge_tracks_ocv(cell, c1):
    # at C/100 the terminal voltage sits within 2 mV of the equilibrium
    # curve at matched mean stoichiometry
    step = ProtocolStep("cc", c1 / 100.0, [Termination("voltage", "<=", 3.2)])
    traj = Trajectory()
    run_step(cell, step, dt=300.0, trajectory=traj)
    a = traj.arrays()
    p = cell.params
    worst = 0.0
    for k in range(0, len(a["V"]), 10):
        ocv = p.ocp_pos(a["y"][k]) - p.ocp_neg(a["x"][k])
        worst = max(worst, abs(ocv - a["V"][k]))
    assert worst < 2e-3


def test_timestep_refinement_converged(cell, params, degp, c1):
    # C/20 discharge curve at the working timestep vs a 10x finer one
    def curve(dt):
        c = Cell(params, degp)
        tr = Trajectory()
        run_step(c, ProtocolStep("cc", c1 / 20.0,
                                 [Termination("voltage", "<=", 3.0)]),
                 dt=dt, trajectory=tr)
        a = tr.arrays()
        q = np.cumsum(a["I"] * np.diff(np.concatenate([[0.0], a["t"]]))) / 3600.0
        return q, a["V"]

    q_c, v_c = curve(60.0)
    q_f, v_f = curve(6.0)
    grid = np.linspace(0.02 * q_c[-1], 0.98 * min(q_c[-1], q_f[-1]), 80)
    err = np.interp(grid, q_c, v_c) - np.interp(grid, q_f, v_f)
    assert np.max(np.abs(err)) < 5e-3


def test_rpt_fresh_capacity(cell, c1):
    rpt = run_rpt(cell, dt=30.0)
    assert rpt["capacity_Ah"] == pytest.approx(c1, rel=0.01)
    assert rpt["R_s_ohm"] > 0.0
    assert rpt["delta_irr_m"] == 0.0
    assert rpt["pseudo_ocv"].voltage.shape == rpt["pseudo_ocv"].capacity_Ah.shape


def test_rpt_does_not_age_the_cell(cell):
    d0 = dataclasses.replace(cell.degradation)
    x0, y0 = cell.mean_stoichiometry()
    run_rpt(cell, dt=30.0)
    assert cell.degradation == d0
    assert cell.mean_stoichiometry() == (x0, y0)


def test_rpt_esoh_close_to_truth(cell):
    rpt = run_rpt(cell, dt=30.0)
    assert rpt["esoh"] is not None
    w = cell.esoh()
    d = cell.degradation
    assert rpt["esoh"]["C_p"] == pytest.approx(d.C_p, rel=0.01)
    assert rpt["esoh"]["C_n"] == pytest.approx(d.C_n, rel=0.01)
    assert rpt["esoh"]["x_100"] == pytest.approx(w.x_100, abs=0.02)


def test_rpt_esoh_close_to_truth_at_end_of_life(params, degp):
    # a quarter of the negative electrode and a tenth of the positive lost,
    # LLI 0.2 (0.086 of it in the films). The C/20 curve is taken under
    # load and stops short of the window edges; the fit measured
    # C_p +0.46 %, C_n -1.08 %, x_100 +0.0083 and y_100 +0.0019 off the
    # cell's own window
    cell = Cell(params, degp, DegradationState(
        1.5e-7, 2e-8, 0.9 * params.C_p_nom, 0.75 * params.C_n_nom, 0.2))
    rpt = run_rpt(cell, dt=30.0)
    assert "esoh_error" not in rpt
    w = cell.esoh()
    assert rpt["esoh"]["C_p"] == pytest.approx(w.C_p, rel=0.006)
    assert rpt["esoh"]["C_n"] == pytest.approx(w.C_n, rel=0.013)
    assert rpt["esoh"]["x_100"] == pytest.approx(w.x_100, abs=0.01)
    assert rpt["esoh"]["y_100"] == pytest.approx(w.y_100, abs=0.0025)


def test_rpt_does_not_depend_on_the_refinement_floor(params, degp,
                                                    monkeypatch):
    # the probe starts at rest at the top of its window, so no step
    # refined down to MIN_DT places the start of the pseudo-OCV sweep
    runs = []
    for floor in (0.05, 0.01):
        monkeypatch.setattr(protocol, "MIN_DT", floor)
        runs.append(run_rpt(Cell(params, degp), dt=60.0))
    a, b = runs
    assert a["pseudo_ocv"].voltage.tobytes() == b["pseudo_ocv"].voltage.tobytes()
    assert a["capacity_Ah"] == b["capacity_Ah"]
    assert a["esoh"] == b["esoh"]


def test_rpt_reports_a_failed_esoh_fit(cell, monkeypatch):
    def fail(*args, **kwargs):
        raise EstimationFailedError("fit did not converge")
    monkeypatch.setattr(protocol, "extract_esoh", fail)
    rpt = run_rpt(cell, dt=30.0)
    assert rpt["esoh"] is None
    assert rpt["esoh_error"] == "fit did not converge"
    assert rpt["capacity_Ah"] > 0.0


def test_rpt_surfaces_programming_errors(cell, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bad call")
    monkeypatch.setattr(protocol, "extract_esoh", broken)
    with pytest.raises(TypeError, match="bad call"):
        run_rpt(cell, dt=30.0)


def test_campaign_runs_and_records(cell, c1):
    steps = [
        ProtocolStep("cc", c1 / 2.0, [Termination("voltage", "<=", 3.0)]),
        ProtocolStep("rest", 0.0, [Termination("time", ">=", 300.0)]),
        ProtocolStep("cc", -c1 / 2.0, [Termination("voltage", ">=", 4.2)]),
        ProtocolStep("cv", 4.2, [Termination("current", "abs<=", c1 / 20.0)]),
    ]
    camp = Campaign(steps, rpt_every=2, eol_capacity_fraction=0.5, max_cycles=3)
    traj, rul, eol = run_campaign(cell, camp, dt=30.0, dt_rest=150.0)
    assert len(traj.cycles) == 3
    assert rul == 3 and eol is False
    for k, rec in enumerate(traj.cycles, start=1):
        assert rec.cycle == k
        assert rec.capacity_Ah > 0.0
        assert set(rec.degradation) == {"delta_sei", "delta_pl",
                                        "C_p", "C_n", "LLI"}
    assert traj.cycles[0].rpt is not None    # cycles 1 and 3 carry RPTs
    assert traj.cycles[1].rpt is None
    assert traj.cycles[2].rpt is not None
    # aging is monotone across cycles
    d1 = traj.cycles[0].degradation
    d3 = traj.cycles[2].degradation
    assert d3["delta_sei"] > d1["delta_sei"]
    assert d3["C_p"] < d1["C_p"]
    assert d3["LLI"] > d1["LLI"]


def test_campaign_immediate_eol_at_full_threshold(cell, c1):
    # kinetic losses keep any finite-rate cycle under the window capacity,
    # so a threshold at 100% retires the cell on cycle one
    steps = [
        ProtocolStep("cc", c1 / 2.0, [Termination("voltage", "<=", 3.0)]),
        ProtocolStep("cc", -c1 / 2.0, [Termination("voltage", ">=", 4.2)]),
    ]
    camp = Campaign(steps, eol_capacity_fraction=1.0, max_cycles=5)
    traj, rul, eol = run_campaign(cell, camp, dt=30.0)
    assert rul == 0 and eol is True
    assert len(traj.cycles) == 1


@pytest.mark.parametrize("beta1_neg, rul, n_records",
                         [(0.01, 9, 10), (0.3, 0, 1)])
def test_campaign_ends_when_the_cell_dies(params, degp, c1, beta1_neg, rul,
                                          n_records):
    # fast negative-electrode fatigue kills the cell (CellDeadError) long
    # before a 1 % capacity threshold retires it: the dying cycle is
    # recorded at zero capacity and the cell keeps its last valid state
    camp = dataclasses.replace(
        cio.load_campaign(DATA / "campaign_default.yaml", c_1c=c1),
        rpt_every=0, eol_capacity_fraction=0.01)
    lam = dataclasses.replace(degp.lam, beta1_neg=beta1_neg)
    cell = Cell(params, dataclasses.replace(degp, lam=lam))
    traj, got_rul, eol = run_campaign(cell, camp, dt=60.0, dt_rest=300.0)
    assert (got_rul, eol, len(traj.cycles)) == (rul, True, n_records)
    assert [r.cycle for r in traj.cycles] == list(range(1, n_records + 1))
    assert traj.cycles[-1].capacity_Ah == 0.0
    assert all(r.capacity_Ah > 0.0 for r in traj.cycles[:-1])
    d = cell.degradation
    assert DegradationState(**d.as_dict()).as_dict() == d.as_dict()
    assert traj.cycles[-1].degradation == d.as_dict()


def test_campaign_flat_when_mechanisms_off(cell, params, degp, c1):
    # films frozen and fatigue coefficients zeroed: capacity cannot drift
    lam0 = dataclasses.replace(degp.lam, beta1_pos=0.0, beta2_pos=0.0,
                               beta1_neg=0.0, beta2_neg=0.0)
    quiet = DegradationParameters(degp.sei, degp.plating, lam0, degp.expansion)
    c = Cell(params, quiet)
    c.freeze_degradation = True
    steps = [
        ProtocolStep("cc", c1 / 2.0, [Termination("voltage", "<=", 3.0)]),
        ProtocolStep("rest", 0.0, [Termination("time", ">=", 300.0)]),
        ProtocolStep("cc", -c1 / 2.0, [Termination("voltage", ">=", 4.2)]),
        ProtocolStep("cv", 4.2, [Termination("current", "abs<=", c1 / 20.0)]),
    ]
    camp = Campaign(steps, eol_capacity_fraction=0.5, max_cycles=4)
    traj, rul, eol = run_campaign(c, camp, dt=30.0, dt_rest=150.0)
    # cycle 1 starts from exact equilibrium, later cycles from the CV-taper
    # endpoint; compare within the settled periodic orbit
    caps = [r.capacity_Ah for r in traj.cycles[1:]]
    assert max(caps) - min(caps) <= 1e-3 * max(caps)
    assert eol is False


def test_trajectory_keeps_typed_columns():
    # 7 columns of 8-byte values plus the arrays' growth headroom; lists
    # of Python floats cost about three times that
    traj = Trajectory()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for k in range(20000):
            v = k * 1e-3
            traj.append(v * 60.0, {"I": v + 1.5, "V": v + 3.5, "x": v + 0.25,
                                   "y": v + 0.75}, k // 100 + 1000, k % 5)
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(traj.t) == 20000 and traj.cycle[-1] == 1199
    assert grown <= 64 * 20000


def test_trajectory_arrays_are_copies(cell, c1):
    step = ProtocolStep("cc", c1 / 2.0, [Termination("time", ">=", 120.0)])
    traj = Trajectory()
    run_step(cell, step, dt=30.0, trajectory=traj)
    a = traj.arrays()
    assert a["V"].dtype == np.float64 and a["cycle"].dtype == np.int64
    v0 = traj.V[0]
    a["V"][0] = -1.0
    a["t"][:] = 0.0
    assert traj.V[0] == v0 and list(traj.t) == [30.0, 60.0, 90.0, 120.0]
    # an exported buffer would pin the columns; copies leave them growable
    run_step(cell, step, dt=30.0, trajectory=traj, t0=120.0, cycle=1)
    assert len(traj.t) == 8 and traj.cycle[-1] == 1
    assert list(a["t"]) == [0.0] * 4
