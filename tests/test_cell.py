"""Coupled cell stepping: audits, cloning, placement, freeze mode."""

import dataclasses

import numpy as np
import pytest

from cellfade.cell import Cell
from cellfade.degradation import DegradationState
from cellfade.params import default_cell
from cellfade.protocol import (ProtocolStep, Termination, reference_capacity,
                               run_step)
from helpers import demo_members


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


def test_lithium_audit_survives_stepping(cell):
    # particle lithium + film lithium + trapped lithium == pristine inventory
    for _ in range(120):
        cell.step(2.0, 5.0)
    d = cell.degradation
    p = cell.params
    film = (2.0 * p.film_area_neg * d.delta_sei / cell.deg_params.sei.Omega_sei
            + p.film_area_neg * d.delta_pl / cell.deg_params.plating.Omega_pl)
    total = cell.particle_lithium() + film + cell.lam_lithium
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
    # particle + film + trapped lithium == pristine inventory after any
    # protocol, each closed as a cycle with its fatigue loss
    c1 = reference_capacity(params)
    members = demo_members(params, degp, n_li0)
    rng = np.random.default_rng(2024)

    def film(d):
        return (2.0 * params.film_area_neg * d.delta_sei / degp.sei.Omega_sei
                + params.film_area_neg * d.delta_pl / degp.plating.Omega_pl)

    for start in (None, members[len(members) // 2]):
        cell = Cell(params, degp, degradation=start, n_li0=n_li0)
        # the member's loss not held in its films was trapped by material
        # loss before it was measured
        cell.lam_lithium = cell.degradation.LLI * n_li0 - film(
            cell.degradation)
        trapped0 = cell.lam_lithium
        for _ in range(20):
            for step in _random_steps(rng, cell, c1):
                run_step(cell, step, dt=60.0, dt_rest=300.0)
            cell.apply_cycle_fatigue()
            total = (cell.particle_lithium() + film(cell.degradation)
                     + cell.lam_lithium)
            assert total == pytest.approx(n_li0, rel=1e-10)
        assert cell.lam_lithium > trapped0


def test_step_record_fields(cell):
    rec = cell.step(1.0, 10.0)
    for key in ("I", "V", "x", "y", "i_side", "dn_sei", "dn_pl",
                "sigma_pos", "sigma_neg"):
        assert key in rec
    assert rec["I"] == 1.0
    assert cell.params.V_min - 0.5 < rec["V"] < cell.params.V_max + 0.5


def test_discharge_moves_stoichiometries(cell):
    x0, y0 = cell.mean_stoichiometry()
    for _ in range(30):
        cell.step(3.0, 10.0)
    x1, y1 = cell.mean_stoichiometry()
    assert x1 < x0   # negative electrode drains
    assert y1 > y0   # positive electrode fills


def test_freeze_degradation_is_inert(cell):
    cell.freeze_degradation = True
    d0 = cell.degradation.copy()
    for _ in range(50):
        rec = cell.step(2.0, 10.0)
        assert rec["i_side"] == 0.0
        assert rec["dn_sei"] == 0.0 and rec["dn_pl"] == 0.0
    assert cell.degradation == d0


def test_voltage_after_does_not_commit(cell):
    snap = cell.get_state()
    v = cell.voltage_after(2.0, 10.0)
    assert np.isfinite(v)
    assert np.array_equal(cell.particles.c_neg, snap[0].c_neg)
    assert cell.degradation == snap[1]


def test_get_set_state_round_trip(cell):
    snap = cell.get_state()
    c_pos0, c_neg0 = snap[0].c_pos.copy(), snap[0].c_neg.copy()
    deg0, ext0 = snap[1].copy(), dataclasses.replace(snap[2])
    for _ in range(20):
        cell.step(2.0, 10.0)
    moved = cell.degradation.copy()
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


def count_advances(cell, monkeypatch):
    """Record every kernel evaluation the cell makes from here on."""
    calls = []
    real = cell._advance

    def counted(I, dt):
        calls.append((I, dt))
        return real(I, dt)
    monkeypatch.setattr(cell, "_advance", counted)
    return calls


def test_step_commits_the_last_trial(params, degp, monkeypatch):
    ref = Cell(params, degp)
    want = ref.step(2.0, 10.0)
    cell = Cell(params, degp)
    calls = count_advances(cell, monkeypatch)
    cell.voltage_after(1.5, 10.0)
    v = cell.voltage_after(2.0, 10.0)
    got = cell.step(2.0, 10.0)
    assert len(calls) == 2   # the step reused the second trial
    assert got == want and v == want["V"]
    assert cell.degradation == ref.degradation
    assert np.array_equal(cell.particles.c_pos, ref.particles.c_pos)
    assert np.array_equal(cell.particles.c_neg, ref.particles.c_neg)
    assert cell.extrema == ref.extrema
    # a committed trial is spent: the next step from the new state evaluates
    cell.step(2.0, 10.0)
    assert len(calls) == 3


@pytest.mark.parametrize("change", ["set_state", "dt", "current", "freeze"])
def test_trial_is_not_reused_after_a_change(cell, monkeypatch, change):
    snap = cell.get_state()
    cell.voltage_after(2.0, 10.0)
    I, dt = 2.0, 10.0
    if change == "set_state":
        cell.set_state(snap)
    elif change == "dt":
        dt = 5.0
    elif change == "current":
        I = 2.5
    else:
        cell.freeze_degradation = True
    calls = count_advances(cell, monkeypatch)
    rec = cell.step(I, dt)
    assert calls == [(I, dt)]
    if change == "freeze":
        assert rec["i_side"] == 0.0


def test_clone_is_independent(cell):
    twin = cell.clone()
    for _ in range(20):
        cell.step(2.0, 10.0)
    assert twin.degradation.delta_sei == 0.0
    assert cell.degradation.delta_sei > 0.0
    assert twin.n_li0 == cell.n_li0


def test_clone_with_given_state(cell):
    d = DegradationState(3e-8, 1e-8, 6.2, 5.4, 0.05)
    aged = cell.clone(degradation=d)
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
    w = cell.esoh()
    cell.equilibrate_at(soc=0.0)
    assert cell.open_circuit_voltage() == pytest.approx(cell.params.V_min, abs=1e-6)
    cell.equilibrate_at(soc=1.0)
    assert cell.open_circuit_voltage() == pytest.approx(cell.params.V_max, abs=1e-6)
    cell.equilibrate_at(x=w.x_0 + 0.5 * w.C / w.C_n)
    v_mid = cell.open_circuit_voltage()
    assert cell.params.V_min < v_mid < cell.params.V_max


def test_equilibrate_requires_target(cell):
    with pytest.raises(ValueError):
        cell.equilibrate_at()


def test_equilibrate_conserves_lithium(cell):
    cell.equilibrate_at(soc=0.37)
    assert cell.particle_lithium() == pytest.approx(cell.n_li, rel=1e-12)


def test_default_cell_loads():
    params, degp = default_cell()
    c = Cell(params, degp)
    assert c.params.C_p_nom > c.params.C_n_nom > 0.0
    assert c.r_film_cell() == 0.0   # no films yet
