"""Each rule of the protocol layer has one owner: run_step checks the
timestep of every run, a Termination owns what its threshold means, a
Campaign checks its counts and steps and is a value that only replace
changes, and the control layer does a fixed amount of work on the
packaged campaign."""

import dataclasses
import math
import re
from importlib import resources

import pytest

from cellfade import io as cio
from cellfade import protocol
from cellfade.cell import Cell
from cellfade.errors import ConfigError
from cellfade.protocol import (Campaign, ProtocolStep, Termination,
                               reference_capacity, run_campaign, run_rpt,
                               run_step)

BAD_TIMESTEPS = [0.0, -60.0, math.nan, math.inf]


@pytest.fixture
def cell(params, degp):
    return Cell(params, degp)


@pytest.fixture(scope="session")
def c1(params):
    return reference_capacity(params)


def _write(tmp_path, text):
    path = tmp_path / "protocol.yaml"
    path.write_text(text)
    return path


@pytest.mark.parametrize("name", ["dt", "dt_rest"])
@pytest.mark.parametrize("value", BAD_TIMESTEPS)
def test_run_step_refuses_a_bad_timestep(cell, c1, name, value):
    # a CC step never uses dt_rest, and is refused for it all the same
    step = ProtocolStep("cc", c1 / 2.0, [Termination("voltage", "<=", 3.0)])
    state = cell.get_state()
    with pytest.raises(ConfigError, match=rf"^{name} must be finite and > 0"):
        run_step(cell, step, **{name: value})
    assert all(a is b for a, b in zip(cell.get_state(), state))


@pytest.mark.parametrize("name", ["dt", "dt_rest"])
@pytest.mark.parametrize("value", [1e-300, 0.01])
def test_run_step_refuses_a_timestep_below_the_floor(cell, c1, name, value):
    # t grows by dt a step, so below the refinement floor a step could
    # take unbounded time to reach the stall guard
    step = ProtocolStep("cc", c1 / 2.0, [Termination("voltage", "<=", 3.0)])
    state = cell.get_state()
    with pytest.raises(ConfigError, match=re.escape(
            f"{name} must be at least the refinement floor MIN_DT = 0.05 s, "
            f"got {value!r}")):
        run_step(cell, step, **{name: value})
    assert all(a is b for a, b in zip(cell.get_state(), state))


def test_every_run_checks_its_timestep_through_run_step(cell, c1):
    with pytest.raises(ConfigError, match=r"^dt must be finite and > 0"):
        run_rpt(cell, dt=0.0)
    steps = [ProtocolStep("rest", 0.0, [Termination("time", ">=", 600.0)])]
    with pytest.raises(ConfigError, match=r"^dt_rest must be finite and > 0"):
        run_campaign(cell, Campaign(steps, max_cycles=2), dt_rest=math.nan)


def test_a_signed_current_threshold_keeps_its_sign(tmp_path, cell, c1):
    # the hold's charge current falls towards zero from below, so it ends
    # once the current rises to -C/20
    steps = cio.load_protocol(_write(tmp_path, """
steps:
  - mode: cv
    setpoint: 4.2
    until:
      - {quantity: current, comparator: ">=", threshold: -C/20}
      - {quantity: time, comparator: ">=", threshold: 20000}
"""), c1)
    current = steps[0].terminations[0]
    assert current.threshold == -c1 / 20.0
    cell.equilibrate_at(soc=0.5)
    elapsed, _, fired = run_step(cell, steps[0], dt=60.0)
    assert fired is current and elapsed < 20000.0


def test_abs_le_bounds_the_magnitude(tmp_path, c1):
    steps = cio.load_protocol(_write(tmp_path, """
steps:
  - mode: cv
    setpoint: 4.2
    until:
      - {quantity: current, comparator: "abs<=", threshold: -C/20}
"""), c1)
    assert steps[0].terminations[0].threshold == c1 / 20.0


def test_a_termination_owns_its_thresholds_sign():
    assert Termination("current", "abs<=", -0.25).threshold == 0.25
    for comparator in ("<=", ">="):
        assert Termination("current", comparator, -0.25).threshold == -0.25


@pytest.mark.parametrize("count", ["max_cycles", "rpt_every"])
def test_campaign_counts_are_whole_numbers(count):
    steps = [ProtocolStep("rest", 0.0, [Termination("time", ">=", 600.0)])]
    for value in (2.5, 1.5, math.nan, math.inf, True):
        with pytest.raises(ConfigError, match=rf"^{count} must be"):
            Campaign(steps, **{count: value})
    campaign = Campaign(steps, **{count: 3.0})
    assert getattr(campaign, count) == 3
    assert type(getattr(campaign, count)) is int


def test_campaign_fraction_is_a_number():
    steps = [ProtocolStep("rest", 0.0, [Termination("time", ">=", 600.0)])]
    for value in (True, "0.7x", None, math.nan, math.inf):
        with pytest.raises(ConfigError,
                           match=r"^eol_capacity_fraction must be a "):
            Campaign(steps, eol_capacity_fraction=value)
    with pytest.raises(ConfigError, match=r"must be in \(0, 1\]$"):
        Campaign(steps, eol_capacity_fraction="1.5")
    campaign = Campaign(steps, eol_capacity_fraction="0.7")
    assert campaign.eol_capacity_fraction == 0.7
    assert type(campaign.eol_capacity_fraction) is float


def test_campaign_refuses_a_protocol_that_cannot_cycle(cell):
    # a library call does not pass io's step parsing: an empty protocol
    # would end a campaign at EOL with RUL 0, and a step that is not a
    # ProtocolStep in an AttributeError at the first cycle
    with pytest.raises(ConfigError,
                       match=r"^cycle_protocol must hold at least one step"):
        run_campaign(cell, Campaign((), max_cycles=3), dt=60.0,
                     dt_rest=300.0)
    rest = ProtocolStep("rest", 0.0, [Termination("time", ">=", 600.0)])
    with pytest.raises(ConfigError, match=r"^cycle_protocol step 2 must be "
                                          r"a ProtocolStep, got 'rest 600'"):
        run_campaign(cell, Campaign([rest, "rest 600"]), dt=60.0,
                     dt_rest=300.0)
    with pytest.raises(ConfigError, match=r"^cycle_protocol step 1 "):
        dataclasses.replace(Campaign([rest]), cycle_protocol=[None])


def test_campaign_inputs_are_values(c1):
    # a loaded campaign changes only through replace, which checks again
    data = resources.files("cellfade.data")
    with resources.as_file(data / "campaign_default.yaml") as path:
        campaign = cio.load_campaign(path, c1)
    step = campaign.cycle_protocol[0]
    for obj, name in ((campaign, "eol_capacity_fraction"),
                      (campaign, "max_cycles"), (step, "setpoint"),
                      (step.terminations[0], "threshold")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))
    with pytest.raises(ConfigError,
                       match=r"^eol_capacity_fraction must be a "):
        dataclasses.replace(campaign, eol_capacity_fraction=True)
    with pytest.raises(ConfigError, match=r"^max_cycles must be"):
        dataclasses.replace(campaign, max_cycles=2.5)
    assert dataclasses.replace(campaign, max_cycles="3").max_cycles == 3


def test_loaded_campaign_steps_are_values(c1):
    # the step and termination sequences are tuples too, so no step or
    # termination can be swapped in after the checks ran
    data = resources.files("cellfade.data")
    with resources.as_file(data / "campaign_default.yaml") as path:
        campaign = cio.load_campaign(path, c1)
    step = campaign.cycle_protocol[0]
    with pytest.raises(AttributeError):
        campaign.cycle_protocol.append("rest 600")
    with pytest.raises(TypeError):
        campaign.cycle_protocol[0] = step
    with pytest.raises(TypeError):
        step.terminations[0] = step.terminations[0]
    # a list handed in is copied, so editing it later changes nothing
    steps = list(campaign.cycle_protocol)
    terms = list(step.terminations)
    made = Campaign(steps)
    made_step = dataclasses.replace(step, terminations=terms)
    steps.append("rest 600")
    terms.clear()
    assert made.cycle_protocol == campaign.cycle_protocol
    assert made_step.terminations == step.terminations


def test_packaged_campaign_work(params, degp, monkeypatch):
    # the control layer's calls on the packaged campaign at dt 60/300; a
    # change that alters them restates them here with its reason
    calls = dict.fromkeys(("step", "set_state", "voltage_after",
                           "_solve_cv_current"), 0)

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("step", "set_state", "voltage_after"):
        counted(Cell, name)
    counted(protocol, "_solve_cv_current")
    data = resources.files("cellfade.data")
    with resources.as_file(data / "campaign_default.yaml") as path:
        campaign = cio.load_campaign(path, reference_capacity(params))
    traj, rul, eol = run_campaign(Cell(params, degp), campaign, dt=60.0,
                                  dt_rest=300.0)
    # a step no longer tries an end past one it saw overshoot: 5582 fewer
    # attempts and 5523 fewer rollbacks than trying every rung of the
    # halving ladder, with the same accepted steps
    assert calls == {"step": 123008, "set_state": 4086,
                     "voltage_after": 29636, "_solve_cv_current": 9835}
    assert (rul, eol, len(traj.t)) == (449, True, 100215)
