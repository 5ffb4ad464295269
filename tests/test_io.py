"""Config parsing, state files, and deterministic result writers."""

import json
from array import array
from pathlib import Path

import numpy as np
import pytest
import yaml

from cellfade import io as cio
from cellfade.cell import Cell
from cellfade.errors import ConfigError
from cellfade.params import load_cell_config
from cellfade.protocol import (ProtocolStep, Termination, Trajectory,
                               reference_capacity, run_campaign, run_protocol)

DATA = Path(__file__).resolve().parents[1] / "src" / "cellfade" / "data"


def test_packaged_protocol_loads():
    steps = cio.load_protocol(DATA / "protocol_cycle.yaml", c_1c=4.0)
    assert [s.mode for s in steps] == ["cc", "rest", "cc", "cv", "rest"]
    assert steps[0].setpoint == pytest.approx(2.0)      # C/2 of 4 Ah
    assert steps[2].setpoint == pytest.approx(-2.0)
    assert steps[3].setpoint == pytest.approx(4.2)
    # the CV current cutoff resolves its C-rate and stores a magnitude
    cv_term = steps[3].terminations[0]
    assert cv_term.quantity == "current" and cv_term.comparator == "abs<="
    assert cv_term.threshold == pytest.approx(0.2)


def test_relative_ocp_path_resolves_against_cell_file(params, tmp_path,
                                                      monkeypatch):
    cell = yaml.safe_load((DATA / "cell_default.yaml").read_text())
    cell["ocp_pos"] = "tables/nmc.csv"
    (tmp_path / "cells" / "tables").mkdir(parents=True)
    (tmp_path / "cells" / "tables" / "nmc.csv").write_text(
        (DATA / "ocp_nmc.csv").read_text())
    path = tmp_path / "cells" / "cell.yaml"
    path.write_text(yaml.safe_dump(cell))
    monkeypatch.chdir(tmp_path)   # tables/nmc.csv is not here
    loaded, _ = load_cell_config(path)
    assert np.array_equal(loaded.ocp_pos.stoich, params.ocp_pos.stoich)
    assert np.array_equal(loaded.ocp_pos.potential, params.ocp_pos.potential)


def test_packaged_campaign_references_protocol():
    camp = cio.load_campaign(DATA / "campaign_default.yaml", c_1c=4.0)
    assert camp.rpt_every == 50
    assert camp.eol_capacity_fraction == 0.7
    assert camp.max_cycles == 500
    assert len(camp.cycle_protocol) == 5


def test_packaged_demo_config_loads():
    y, n_members, campaign, budget = cio.load_ambiguity_config(
        DATA / "ambiguity_demo.yaml", c_1c=4.0)
    assert n_members == 3
    assert budget is True
    assert y.delta_irr is None
    assert campaign is not None and campaign.eol_capacity_fraction == 0.75


class TestStepParsing:
    def test_mode_aliases(self):
        steps = cio._parse_steps(
            [{"mode": "Constant-Current", "setpoint": 1.0,
              "until": [{"quantity": "time", "comparator": ">=",
                         "threshold": 10}]}], 4.0, "t")
        assert steps[0].mode == "cc"

    def test_missing_pieces(self):
        with pytest.raises(ConfigError):
            cio._parse_steps([], 4.0, "t")
        with pytest.raises(ConfigError):
            cio._parse_steps([{"setpoint": 1.0}], 4.0, "t")
        with pytest.raises(ConfigError):
            cio._parse_steps([{"mode": "cc",
                               "until": [{"quantity": "time",
                                          "comparator": ">=",
                                          "threshold": 1}]}], 4.0, "t")
        with pytest.raises(ConfigError):
            cio._parse_steps([{"mode": "cc", "setpoint": 1.0,
                               "until": [{"quantity": "time",
                                          "comparator": ">="}]}], 4.0, "t")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            cio._parse_steps([{"mode": "pulse", "setpoint": 1.0}], 4.0, "t")


def test_measurements_round_trip(tmp_path):
    doc = {"C_p": 6.6, "C_n": 5.7, "LLI": 0.11, "R_s": 0.017,
           "delta_irr": 3.2e-6}
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    y = cio.load_measurements(p)
    assert (y.C_p, y.C_n, y.LLI, y.R_s, y.delta_irr) == (
        6.6, 5.7, 0.11, 0.017, 3.2e-6)
    doc.pop("delta_irr")
    p.write_text(json.dumps(doc))
    assert cio.load_measurements(p).delta_irr is None


def test_measurements_errors(tmp_path):
    with pytest.raises(ConfigError):
        cio.load_measurements(tmp_path / "absent.json")
    p = tmp_path / "bad.json"
    p.write_text("not json")
    with pytest.raises(ConfigError):
        cio.load_measurements(p)
    p.write_text(json.dumps({"C_p": 6.6}))
    with pytest.raises(ConfigError):
        cio.load_measurements(p)


class TestStateFiles:
    def test_round_trip_preserves_everything(self, params, degp, tmp_path):
        cell = Cell(params, degp)
        for _ in range(25):
            cell.step(2.0, 10.0)
        cell.lam_lithium = 1.5e-4
        p = tmp_path / "state.json"
        cio.save_state(p, cell)
        back = cio.load_state(p, params, degp)
        assert back.degradation == cell.degradation
        assert back.n_li0 == cell.n_li0
        assert back.lam_lithium == cell.lam_lithium
        assert np.array_equal(back.particles.c_pos, cell.particles.c_pos)
        assert np.array_equal(back.particles.c_neg, cell.particles.c_neg)
        # identical next step from the restored state
        a = cell.step(1.0, 10.0)
        b = back.step(1.0, 10.0)
        assert a["V"] == b["V"]

    def test_version_mismatch_rejected(self, params, degp, tmp_path):
        cell = Cell(params, degp)
        p = tmp_path / "state.json"
        cio.save_state(p, cell)
        doc = json.loads(p.read_text())
        doc["version"] = 99
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            cio.load_state(p, params, degp)

    def test_profile_length_mismatch_rejected(self, params, degp, tmp_path):
        cell = Cell(params, degp)
        p = tmp_path / "state.json"
        cio.save_state(p, cell)
        doc = json.loads(p.read_text())
        doc["particles"]["c_neg"] = doc["particles"]["c_neg"][:-1]
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            cio.load_state(p, params, degp)


def test_resume_from_state_file_is_exact(params, degp, tmp_path):
    # 30 cycles straight and 15 + save/load + 15 give the same cell and
    # voltages; the loaded state carries no enclosure, so its first steps
    # take the exact range check
    camp = cio.load_campaign(DATA / "campaign_default.yaml",
                             reference_capacity(params))
    camp.rpt_every = 0

    def age(cell, cycles):
        camp.max_cycles = cycles
        traj, _, eol = run_campaign(cell, camp, dt=60.0, dt_rest=300.0)
        assert len(traj.cycles) == cycles and not eol
        return traj

    straight = Cell(params, degp)
    whole = age(straight, 30)
    first = Cell(params, degp)
    age(first, 15)
    p = tmp_path / "state.json"
    cio.save_state(p, first)
    resumed = cio.load_state(p, params, degp)
    assert resumed.particles.enclosure is None
    second = age(resumed, 15)

    assert resumed.degradation == straight.degradation
    assert resumed.lam_lithium == straight.lam_lithium
    assert np.array_equal(resumed.particles.c_pos, straight.particles.c_pos)
    assert np.array_equal(resumed.particles.c_neg, straight.particles.c_neg)
    tail = [v for v, cyc in zip(whole.V, whole.cycle) if cyc > 15]
    assert tail and tail == list(second.V)


def _small_trajectory(params, degp):
    cell = Cell(params, degp)
    tr = Trajectory()
    steps = [ProtocolStep("cc", 2.0, [Termination("time", ">=", 120.0)]),
             ProtocolStep("rest", 0.0, [Termination("time", ">=", 60.0)])]
    run_protocol(cell, steps, dt=30.0, dt_rest=30.0, trajectory=tr)
    return tr


def test_trajectory_csv_deterministic(params, degp, tmp_path):
    tr = _small_trajectory(params, degp)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cio.write_trajectory_csv(a, tr)
    cio.write_trajectory_csv(b, tr)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "t_s,cycle,step_index,I_A,V_V,x,y"
    assert len(lines) == 1 + len(tr.t)
    # repr floats round-trip exactly
    v_back = float(lines[1].split(",")[4])
    assert v_back == tr.V[0]


@pytest.mark.parametrize("as_array", [False, True])
def test_write_csv_round_trips_exactly(tmp_path, as_array):
    ints = [0, -3, 2**53 + 1, 7]
    floats = [2.0, -0.0, 1e-300, 1 / 3]
    if as_array:
        ints = np.array(ints, dtype=np.int64)
        floats = np.array(floats, dtype=np.float64)
    path = tmp_path / "c.csv"
    cio.write_csv(path, {"n": ints, "v": floats})
    lines = path.read_text().splitlines()
    assert lines[0] == "n,v"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(n) for n, _ in rows] == list(ints)
    assert [float(v).hex() for _, v in rows] == [float(v).hex() for v in floats]
    cio.write_csv(path, {"n": ints[:0], "v": floats[:0]})
    assert path.read_text() == "n,v\n"


def test_write_csv_round_trips_typed_columns(tmp_path):
    # the trajectory's array.array columns write like lists of the values
    ints = array("q", [0, -3, 2**53 + 1, 2**63 - 1])
    floats = array("d", [-0.0, 5e-324, 1e308, 1 / 3])
    path = tmp_path / "c.csv"
    cio.write_csv(path, {"n": ints, "v": floats})
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [n for n, _ in rows] == ["0", "-3", "9007199254740993",
                                    "9223372036854775807"]
    assert [v for _, v in rows] == ["-0.0", "5e-324", "1e+308",
                                    repr(1 / 3)]
    assert [float(v).hex() for _, v in rows] == [v.hex() for v in floats]
    other = tmp_path / "l.csv"
    cio.write_csv(other, {"n": list(ints), "v": list(floats)})
    assert other.read_bytes() == path.read_bytes()


def test_manifest_hashes_outputs(params, degp, tmp_path):
    tr = _small_trajectory(params, degp)
    cio.write_trajectory_csv(tmp_path / "trajectory.csv", tr)
    man = cio.write_manifest(tmp_path, {"cell": "cell.yaml"}, seed=7,
                             outputs=["trajectory.csv"], wall_clock_s=0.5)
    doc = json.loads(Path(man).read_text())
    assert doc["seed"] == 7
    assert doc["outputs"]["trajectory.csv"] == cio.sha256_file(
        tmp_path / "trajectory.csv")
    assert doc["tool"] == "cellfade"
