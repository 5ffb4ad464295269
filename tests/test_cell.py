"""Coupled cell stepping: audits, cloning, placement, freeze mode."""

import dataclasses
import math
import random
from importlib import resources

import numpy as np
import pytest

from cellfade import io as cio
from cellfade.cell import Cell, advance
from cellfade.degradation import DegradationState, deep_soh, lam_cycle_update
from cellfade.errors import ConfigError, SaturationError
from cellfade.measurement import r_film
from cellfade.params import default_cell
from cellfade.protocol import (Campaign, ProtocolStep, Termination,
                               reference_capacity, run_campaign,
                               run_step)
from helpers import cell_step_oracle, count_advances, demo_members


@pytest.fixture
def cell(params, degp):
    return Cell(params, degp)


def test_fresh_cell_starts_full(cell):
    w = cell.esoh()
    x, y = cell.mean_stoichiometry()
    assert x == pytest.approx(w.x_100, abs=1e-12)
    assert y == pytest.approx(w.y_100, abs=1e-12)
    assert cell.open_circuit_voltage() == pytest.approx(cell.params.V_max, abs=1e-9)


def test_lithium_audit_identity_fresh(cell):
    # particles hold exactly the cyclable inventory at construction
    assert cell.particle_lithium() == pytest.approx(cell.n_li, rel=1e-12)


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("dt", [0.0, -60.0, math.nan, math.inf])
def test_a_step_refuses_a_bad_timestep(cell, frozen, dt):
    # a caller that drives Cell.step without run_step meets the same check
    cell.freeze_degradation = frozen
    state = cell.get_state()
    for advance in (cell.step, cell.voltage_after):
        with pytest.raises(ConfigError, match=r"^dt must be finite and > 0"):
            advance(1.0, dt)
    assert all(a is b for a, b in zip(cell.get_state(), state))


def test_lithium_audit_survives_stepping(cell):
    # particle lithium + lost lithium (n_li0 * LLI) == pristine inventory
    for _ in range(120):
        cell.step(2.0, 5.0)
    d = cell.degradation
    total = cell.particle_lithium() + cell.n_li0 * d.LLI
    assert total == pytest.approx(cell.n_li0, rel=1e-10)
    assert cell.n_li == pytest.approx(cell.n_li0 * (1.0 - d.LLI), rel=1e-12)


def _random_steps(rng, cell, c1):
    """3-6 CC/CV/rest steps, each drawn when the one before has ended:
    currents within +-1C, voltage thresholds inside the window, every step
    capped in time. A CV setpoint lies within 30 mV of the open-circuit
    voltage it starts from, as it would after a CC step to it: holding a
    voltage far from it takes more current than any particle can pass."""
    p = cell.params
    for _ in range(rng.integers(3, 7)):
        mode = str(rng.choice(["cc", "cv", "rest"]))
        until = [Termination("time", ">=", float(rng.uniform(60.0, 1800.0)))]
        if mode == "cc":
            current = float(rng.uniform(-c1, c1))
            until.append(Termination("voltage", "<=" if current > 0 else ">=",
                                     float(rng.uniform(p.V_min, p.V_max))))
            yield ProtocolStep("cc", current, until)
        elif mode == "cv":
            v = cell.open_circuit_voltage() + float(rng.uniform(-0.03, 0.03))
            until.append(Termination("current", "abs<=", c1 / 20.0))
            yield ProtocolStep("cv", min(max(v, p.V_min), p.V_max), until)
        else:
            yield ProtocolStep("rest", 0.0, until)


def test_lithium_audit_under_random_protocols(params, degp, n_li0):
    # particle lithium + lost lithium (n_li0 * LLI) == pristine inventory
    # after any protocol, each closed as a cycle with its fatigue loss
    c1 = reference_capacity(params)
    members = demo_members(params, degp, n_li0)
    rng = np.random.default_rng(2024)

    def fracture(cell):
        return deep_soh(params, degp, cell.degradation, n_li0)["fracture"]

    for start in (None, members[len(members) // 2]):
        cell = Cell(params, degp, degradation=start, n_li0=n_li0)
        # the member's loss not held in its films was stranded by material
        # loss before it was measured
        stranded0 = fracture(cell)
        for _ in range(20):
            for step in _random_steps(rng, cell, c1):
                run_step(cell, step, dt=60.0, dt_rest=300.0)
            cell.apply_cycle_fatigue()
            total = cell.particle_lithium() + n_li0 * cell.degradation.LLI
            assert total == pytest.approx(n_li0, rel=1e-10)
        assert fracture(cell) > stranded0


# particle lithium against 1 - LLI, as a share of n_li0, after any cycle
# of a full life: measured at most 2.4e-14 at dt 60/300 and 30/150, and
# 4.7e-14 at dt 5/30
BOOKS_BOUND = 1e-13
# each profile's ddot mean against the mean its state carries, as a share
# of c_smax, after any cycle of a full life at (dt, dt_rest). The gap is
# the rounding of the profile steps, so it grows with their number:
# measured 2.3e-12, 8.7e-13, 5.6e-12 and 1.9e-11
MEAN_BOUNDS = {(60.0, 300.0): 1e-11, (30.0, 150.0): 1e-11,
               (10.0, 60.0): 2e-11, (5.0, 30.0): 5e-11}


@pytest.mark.parametrize("dt, dt_rest", [
    (60.0, 300.0), (30.0, 150.0),
    pytest.param(10.0, 60.0, marks=pytest.mark.slow),
    pytest.param(5.0, 30.0, marks=pytest.mark.slow)])
def test_lithium_books_close_over_a_full_life(params, degp, dt, dt_rest):
    # particle lithium against 1 - LLI after every cycle of the packaged
    # campaign to end of life: a propagator whose columns miss the shell
    # volumes by a few ulps would drift linearly, to 1.5e-10 at dt 60,
    # and a mean taken by ddot per state to 2.7e-11 at dt 5/30
    campaign = cio.load_campaign(
        resources.files("cellfade.data") / "campaign_default.yaml",
        reference_capacity(params))
    cell = Cell(params, degp)
    residuals = []
    mean_gaps = []

    def audit(cycle, discharged):
        residuals.append(abs(cell.particle_lithium() / cell.n_li0
                         - (1.0 - cell.degradation.LLI)))
        state = cell.particles
        for side, c, mean in ((params.pos, state.c_pos, state.averages[0]),
                              (params.neg, state.c_neg, state.averages[1])):
            mean_gaps.append(abs(side.c_avg(c) - mean) / side.c_smax)

    _, rul, eol = run_campaign(cell, campaign, dt=dt, dt_rest=dt_rest,
                               keep_series=False, progress=audit)
    assert eol and rul >= 400 and len(residuals) >= rul
    print(f"dt {dt:g}/{dt_rest:g}: books {max(residuals):.2e} of n_li0, "
          f"mean gap {max(mean_gaps):.2e} of c_smax")
    assert max(residuals) <= BOOKS_BOUND
    assert max(mean_gaps) <= MEAN_BOUNDS[dt, dt_rest]


def test_step_record_fields(cell):
    rec = cell.step(1.0, 10.0)
    assert rec.keys() == {"I", "V", "x", "y"}
    assert rec["I"] == 1.0
    assert cell.params.V_min - 0.5 < rec["V"] < cell.params.V_max + 0.5


def _hexes(values):
    values = list(values)
    assert all(type(v) is float for v in values), values
    return [v.hex() for v in values]


def test_step_matches_its_composed_oracle_bit_for_bit(params, degp,
                                                      monkeypatch):
    # every Cell.step, the committed CV trials and a frozen probe's steps
    # included, against the step composed from public pieces: each record
    # field, both profiles, their averages, the degradation state and the
    # stress envelope by float.hex, across fatigue bookings that move the
    # capacities the areas are taken from
    rng = random.Random(29)
    c1 = reference_capacity(params)
    step = Cell.step
    dts = []

    def checked(cell, I, dt, evaluated=None):
        try:
            want, (parts, deg, extrema) = cell_step_oracle(cell, I, dt)
        except SaturationError:
            with pytest.raises(SaturationError):
                step(cell, I, dt, evaluated)
            raise
        got = step(cell, I, dt, evaluated)
        dts.append((cell.freeze_degradation, dt))
        assert got.keys() == want.keys()
        assert _hexes(got.values()) == _hexes(want[k] for k in got)
        now = cell.particles
        assert now.c_pos.tobytes() == parts.c_pos.tobytes()
        assert now.c_neg.tobytes() == parts.c_neg.tobytes()
        assert _hexes(now.averages) == _hexes(parts.averages)
        for a, b in ((cell.degradation, deg), (cell.extrema, extrema)):
            assert _hexes(dataclasses.astuple(a)) == \
                _hexes(dataclasses.astuple(b))
        return got

    monkeypatch.setattr(Cell, "step", checked)
    cell = Cell(params, degp)
    for _ in range(3):
        rate = rng.uniform(0.4, 1.0)
        for mode, setpoint, until in [
                ("cc", c1 * rate, Termination("voltage", "<=", params.V_min)),
                ("rest", 0.0, Termination("time", ">=", 900.0)),
                ("cc", -c1 * rate, Termination("voltage", ">=", params.V_max)),
                ("cv", params.V_max,
                 Termination("current", "abs<=", c1 / 20.0))]:
            cap = Termination("time", ">=", rng.uniform(4000.0, 9000.0))
            run_step(cell, ProtocolStep(mode, setpoint, [until, cap]),
                     dt=60.0, dt_rest=300.0)
        cell.apply_cycle_fatigue()
    probe = cell.clone()
    probe.freeze_degradation = True
    run_step(probe, ProtocolStep("cc", c1 / 2.0, [
        Termination("voltage", "<=", params.V_min)]), dt=120.0)
    probe.equilibrate_at(0.5)
    probe.step(0.1 * c1, 0.1)
    assert len(dts) > 300
    live = {dt for frozen, dt in dts if not frozen}
    assert {60.0, 300.0, 30.0, 15.0} <= live   # voltage approaches halved
    assert sum(frozen for frozen, _ in dts) > 20
    assert cell.degradation.C_n < params.C_n_nom


def _bits(state, record=None):
    """A step's state (and record) as bytes and float.hex strings."""
    parts, deg, extrema = state
    return (parts.c_pos.tobytes(), parts.c_neg.tobytes(),
            _hexes(parts.averages), _hexes(dataclasses.astuple(deg)),
            _hexes(dataclasses.astuple(extrema)),
            record and (list(record), _hexes(record.values())))


def test_advance_depends_only_on_its_arguments(params, degp, n_li0):
    # steps from two state values whose capacities, and so areas, differ
    # (the second past a fatigue booking), made in turn: each equals the
    # same call on a parameter set no step has used, and the step composed
    # from public pieces, to the bit, and leaves its input state as it was
    aged = Cell(params, degp)
    for _ in range(30):
        aged.step(3.0, 60.0)
    aged.apply_cycle_fatigue()
    states = [Cell(params, degp).get_state(), aged.get_state()]
    assert states[0][1].C_n != states[1][1].C_n
    assert states[0][1].C_p != states[1][1].C_p
    rng = random.Random(47)
    for k in range(12):
        i = k % 2
        state, frozen = states[i], k % 4 >= 2
        I, dt = rng.uniform(-3.0, 3.0), rng.choice([0.5, 10.0, 60.0])
        before = _bits(state)
        got = advance(params, degp, n_li0, state, I, dt, frozen)
        alone = advance(dataclasses.replace(params), degp, n_li0, state, I,
                        dt, frozen)
        oracle = Cell(params, degp, n_li0=n_li0)
        oracle.set_state(state)
        oracle.freeze_degradation = frozen
        want, want_state = cell_step_oracle(oracle, I, dt)
        assert _bits(*got) == _bits(*alone) == _bits(want_state, want)
        assert _bits(state) == before
        states[i] = got[0]


def test_discharge_moves_stoichiometries(cell):
    x0, y0 = cell.mean_stoichiometry()
    for _ in range(30):
        cell.step(3.0, 10.0)
    x1, y1 = cell.mean_stoichiometry()
    assert x1 < x0   # negative electrode drains
    assert y1 > y0   # positive electrode fills


def test_freeze_degradation_is_inert(cell):
    cell.freeze_degradation = True
    d0 = dataclasses.replace(cell.degradation)
    held = cell.degradation
    for _ in range(50):
        cell.step(2.0, 10.0)
        assert cell.degradation is held
    assert cell.degradation == d0


def test_voltage_after_does_not_commit(cell):
    snap = cell.get_state()
    v, _ = cell.voltage_after(2.0, 10.0)
    assert np.isfinite(v)
    assert np.array_equal(cell.particles.c_neg, snap[0].c_neg)
    assert cell.degradation == snap[1]


def test_get_set_state_round_trip(cell):
    snap = cell.get_state()
    c_pos0, c_neg0 = snap[0].c_pos.copy(), snap[0].c_neg.copy()
    deg0, ext0 = dataclasses.replace(snap[1]), dataclasses.replace(snap[2])
    for _ in range(20):
        cell.step(2.0, 10.0)
    moved = dataclasses.replace(cell.degradation)
    cell.set_state(snap)
    assert cell.degradation == snap[1]
    assert cell.degradation != moved
    assert np.array_equal(cell.particles.c_pos, snap[0].c_pos)
    # snapshot is insulated from later stepping
    cell.step(2.0, 10.0)
    assert np.array_equal(snap[0].c_pos, cell.get_state()[0].c_pos) is False
    assert np.array_equal(snap[0].c_pos, c_pos0)
    assert np.array_equal(snap[0].c_neg, c_neg0)
    assert snap[1] == deg0
    assert snap[2] == ext0 and cell.extrema != ext0


def test_snapshot_and_rollback_keep_references(cell):
    cell.step(2.0, 10.0)
    snap = cell.get_state()
    held = (cell.particles, cell.degradation, cell.extrema)
    assert all(a is b for a, b in zip(snap, held))
    cell.step(2.0, 10.0)
    cell.set_state(snap)
    assert all(a is b for a, b in zip(cell.get_state(), held))


def test_step_commits_the_last_trial(params, degp, monkeypatch):
    ref = Cell(params, degp)
    want = ref.step(2.0, 10.0)
    cell = Cell(params, degp)
    calls = count_advances(cell, monkeypatch)
    cell.voltage_after(1.5, 10.0)
    v, evaluated = cell.voltage_after(2.0, 10.0)
    got = cell.step(2.0, 10.0, evaluated)
    assert len(calls) == 2   # the step committed the second trial
    assert got == want and v == want["V"]
    assert cell.degradation == ref.degradation
    assert np.array_equal(cell.particles.c_pos, ref.particles.c_pos)
    assert np.array_equal(cell.particles.c_neg, ref.particles.c_neg)
    assert cell.extrema == ref.extrema
    # a step handed no trial evaluates its own
    cell.step(2.0, 10.0)
    assert len(calls) == 3


def test_clone_is_independent(cell):
    twin = cell.clone()
    for _ in range(20):
        cell.step(2.0, 10.0)
    assert twin.degradation.delta_sei == 0.0
    assert cell.degradation.delta_sei > 0.0
    assert twin.n_li0 == cell.n_li0


def test_clone_with_given_state(cell):
    d = DegradationState(3e-8, 1e-8, 6.2, 5.4, 0.05)
    aged = Cell(cell.params, cell.deg_params, degradation=d, n_li0=cell.n_li0)
    assert aged.degradation == d
    # placed at its own full-charge point
    w = aged.esoh()
    x, y = aged.mean_stoichiometry()
    assert x == pytest.approx(w.x_100, abs=1e-12)
    # the state is a value: a step replaces it and leaves d as it was
    aged.step(2.0, 10.0)
    assert d == DegradationState(3e-8, 1e-8, 6.2, 5.4, 0.05)
    assert aged.degradation.delta_sei > d.delta_sei


def test_equilibrate_at_soc(cell):
    cell.equilibrate_at(soc=0.0)
    assert cell.open_circuit_voltage() == pytest.approx(cell.params.V_min, abs=1e-6)
    cell.equilibrate_at(soc=1.0)
    assert cell.open_circuit_voltage() == pytest.approx(cell.params.V_max, abs=1e-6)
    cell.equilibrate_at(soc=0.5)
    v_mid = cell.open_circuit_voltage()
    assert cell.params.V_min < v_mid < cell.params.V_max


def test_equilibrate_conserves_lithium(cell):
    cell.equilibrate_at(soc=0.37)
    assert cell.particle_lithium() == pytest.approx(cell.n_li, rel=1e-12)


def test_default_cell_loads():
    params, degp = default_cell()
    c = Cell(params, degp)
    assert c.params.C_p_nom > c.params.C_n_nom > 0.0
    assert r_film(params, degp, c.degradation)[1] == 0.0   # no films yet


def _cycle_steps(c1):
    """One full discharge and CC-CV charge."""
    return [
        ProtocolStep("cc", c1 / 2.0, [Termination("voltage", "<=", 3.0)]),
        ProtocolStep("rest", 0.0, [Termination("time", ">=", 900.0)]),
        ProtocolStep("cc", -c1 / 2.0, [Termination("voltage", ">=", 4.2)]),
        ProtocolStep("cv", 4.2, [Termination("current", "abs<=", c1 / 20.0)]),
    ]


def test_fracture_share_moves_only_at_the_fatigue_booking(params, degp,
                                                          n_li0):
    # within a cycle the films grow and LLI by the same lithium, so the
    # fracture share holds to round-off (the film thicknesses track the
    # LLI integral); apply_cycle_fatigue then books the lithium its lost
    # material strands, dn at the mean stoichiometries, into LLI alone
    c1 = reference_capacity(params)
    for start in [None] + demo_members(params, degp, n_li0):
        cell = Cell(params, degp, degradation=start, n_li0=n_li0)
        start_split = deep_soh(params, degp, cell.degradation, n_li0)
        for step in _cycle_steps(c1):
            run_step(cell, step, dt=60.0, dt_rest=300.0)
        d = cell.degradation
        before = deep_soh(params, degp, d, n_li0)
        assert before["sei"] - start_split["sei"] > 1e-5
        assert before["plating"] - start_split["plating"] > 1e-5
        assert abs(before["fracture"] - start_split["fracture"]) <= 1e-15

        x, y = cell.mean_stoichiometry()
        dC_p, dC_n = lam_cycle_update(cell.extrema, degp.lam, params)
        dn = 3600.0 / params.F * (y * dC_p + x * dC_n)
        assert dn > 0.0
        cell.apply_cycle_fatigue()
        after = deep_soh(params, degp, cell.degradation, n_li0)
        assert cell.degradation.LLI == d.LLI + dn / n_li0
        assert (after["sei"], after["plating"]) == (before["sei"],
                                                    before["plating"])
        assert after["fracture"] - before["fracture"] == pytest.approx(
            dn / n_li0, abs=4.0 * math.ulp(cell.degradation.LLI))


def test_fracture_share_never_decreases_over_a_campaign(params, degp):
    # each cycle record carries its state's split: non-negative shares
    # that sum to LLI, with fracture growing cycle by cycle
    c1 = reference_capacity(params)
    cell = Cell(params, degp)
    traj, _, eol = run_campaign(
        cell, Campaign(_cycle_steps(c1), eol_capacity_fraction=0.05,
                       max_cycles=15), dt=60.0, dt_rest=300.0,
        keep_series=False)
    assert len(traj.cycles) == 15 and not eol
    fracture = 0.0
    for rec in traj.cycles:
        split = rec.deep_soh
        assert split == deep_soh(params, degp,
                                 DegradationState(**rec.degradation),
                                 cell.n_li0)
        assert min(split.values()) >= 0.0
        assert abs(sum(split.values()) - rec.degradation["LLI"]) <= 1e-15
        assert split["fracture"] > fracture
        fracture = split["fracture"]
