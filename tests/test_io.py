"""Config parsing, state files, and deterministic result writers."""

import dataclasses
import json
import tracemalloc
from array import array
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml

from cellfade import io as cio
from cellfade.cell import Cell
from cellfade.cli import main
from cellfade.degradation import DegradationState
from cellfade.electrochem import solve_window
from cellfade.errors import ConfigError
from cellfade.measurement import MeasurementVector
from cellfade.params import load_cell_config
from cellfade.protocol import (CycleRecord, ProtocolStep, Termination,
                               Trajectory, reference_capacity, run_campaign,
                               run_protocol)
from helpers import demo_members, write_csv_oracle

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


def test_unquoted_exponents_load_as_amperes(tmp_path):
    # YAML 1.1 reads an unquoted 1e-1 as a string, as it does 4.2e0
    path = tmp_path / "protocol.yaml"
    path.write_text(
        "steps:\n"
        "  - mode: cc\n"
        "    setpoint: 1e-1\n"
        "    until: [{quantity: voltage, comparator: '<=', threshold: 3.0}]\n"
        "  - mode: cv\n"
        "    setpoint: 4.2e0\n"
        "    until: [{quantity: current, comparator: 'abs<=', threshold: 5e-2}]\n")
    assert yaml.safe_load(path.read_text())["steps"][0]["setpoint"] == "1e-1"
    steps = cio.load_protocol(path, c_1c=4.0)
    assert [s.setpoint for s in steps] == [0.1, 4.2]
    assert steps[1].terminations[0].threshold == 0.05


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
    def test_modes_are_spelled_exactly(self):
        # cc, cv and rest as the README gives them: no alias, no case fold
        until = [{"quantity": "time", "comparator": ">=", "threshold": 10}]
        steps = cio._parse_steps(
            [{"mode": "cc", "setpoint": 1.0, "until": until},
             {"mode": "cv", "setpoint": 4.0, "until": until},
             {"mode": "rest", "until": until}], 4.0, "t")
        assert [s.mode for s in steps] == ["cc", "cv", "rest"]
        for mode in ("Constant-Current", "constant-voltage", "CC", "Rest"):
            with pytest.raises(ConfigError,
                               match=f"t: step 1: unknown mode '{mode}'"):
                cio._parse_steps([{"mode": mode, "setpoint": 1.0,
                                   "until": until}], 4.0, "t")

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
        p = tmp_path / "state.json"
        cio.save_state(p, cell)
        back = cio.load_state(p, params, degp)
        assert back.degradation == cell.degradation
        assert back.n_li0 == cell.n_li0
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

    def test_films_over_the_lli_budget_rejected(self, params, degp,
                                                tmp_path):
        # film lithium is part of LLI: a state whose films hold more
        # would start with a negative fracture share
        p = tmp_path / "state.json"
        cio.save_state(p, Cell(params, degp))
        doc = json.loads(p.read_text())
        doc["degradation"].update(delta_sei=1e-7, LLI=0.0)
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="more lithium than its LLI"):
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
    assert np.array_equal(resumed.particles.c_pos, straight.particles.c_pos)
    assert np.array_equal(resumed.particles.c_neg, straight.particles.c_neg)
    tail = [v for v, cyc in zip(whole.V, whole.cycle) if cyc > 15]
    assert tail and tail == list(second.V)


def test_version_1_state_file_exits_2(params, degp, n_li0, tmp_path,
                                      capsys):
    # version 1 stored a lam_lithium booking beside the state; version 2
    # derives the split from the state (degradation.deep_soh), so a
    # version-1 file stops at the version check with a message
    member = demo_members(params, degp, n_li0)[0]
    p = tmp_path / "state.json"
    cio.save_state(p, Cell(params, degp, degradation=member, n_li0=n_li0))
    doc = json.loads(p.read_text())
    assert doc["version"] == 2 and "lam_lithium" not in doc
    doc.update(version=1, lam_lithium=1e-3)
    p.write_text(json.dumps(doc))
    rc = main(["simulate", "--cell", str(DATA / "cell_default.yaml"),
               "--protocol", str(DATA / "protocol_cycle.yaml"),
               "--state", str(p), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "version 1 unsupported" in err and str(p) in err
    assert not (tmp_path / "o").exists()


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


def _packaged_trajectory(params, degp):
    c1 = reference_capacity(params)
    campaign = cio.load_campaign(
        resources.files("cellfade.data") / "campaign_default.yaml", c1)
    campaign = dataclasses.replace(campaign, max_cycles=3, rpt_every=0)
    return run_campaign(Cell(params, degp), campaign, dt=10.0,
                        dt_rest=60.0)[0]


EDGES = [-0.0, 5e-324, 1e308, 1 / 3, float("nan"), float("inf"),
         -float("inf")]
CSV_CASES = {
    "numpy": lambda: {
        "n": np.array([0, -3, 2**53 + 1, 2**63 - 1, -2**63], dtype=np.int64),
        "v": np.array(EDGES[:5], dtype=np.float64),
        "u": np.array([0, 1, 2**64 - 1, 7, 9], dtype=np.uint64),
        "f": np.array([0.1, -2.5, 1e-30, 3e38, 1 / 3], dtype=np.float32),
        "b": np.array([True, False, True, True, False])},
    # the member capacities cellfade ambiguity writes
    "lists": lambda: {"cycle": [1, 2, 3, 4], "capacity_Ah": [4.9, 4.8, 4.7, 0.0],
                      "LLI": [0.0, 1e-3, 2e-3, 0.25]},
    "edges": lambda: {"v": EDGES, "a": array("d", EDGES),
                      "n": [2**63 - 1, 0, -1, True, False, 7, 2**63 - 1],
                      "q": array("q", [2**63 - 1, -2**63, 0, 1, -1, 5, 6])},
    "numpy scalars in a list": lambda: {
        "v": [np.float64(1 / 3), np.int64(2**63 - 1), np.float32(0.1),
              np.int32(-5), np.bool_(True), np.uint8(255)]},
    "empty": lambda: {"a": [], "b": np.array([]), "c": array("d"),
                      "d": array("q")},
    "no columns": lambda: {},
}


@pytest.mark.parametrize("case", CSV_CASES)
def test_write_csv_matches_the_old_writer_byte_for_byte(tmp_path, case):
    columns = CSV_CASES[case]()
    cio.write_csv(tmp_path / "new.csv", columns)
    write_csv_oracle(tmp_path / "old.csv", columns)
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("n", [4095, 4096, 4097])
def test_write_csv_matches_the_old_writer_across_chunks(tmp_path, n):
    rng = np.random.default_rng(n)
    v = rng.normal(size=n)
    k = rng.integers(-2**62, 2**62, size=n)
    for columns in ({"v": v, "k": k}, {"v": array("d", v), "k": array("q", k)},
                    {"v": v.tolist(), "k": k.tolist()}):
        cio.write_csv(tmp_path / "new.csv", columns)
        write_csv_oracle(tmp_path / "old.csv", columns)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert new.count(b"\n") == n + 1


def test_write_csv_matches_the_old_writer_on_a_campaign(params, degp,
                                                        tmp_path):
    tr = _packaged_trajectory(params, degp)
    assert len(tr.t) > 4097 and len(set(tr.cycle)) == 3
    cio.write_trajectory_csv(tmp_path / "new.csv", tr)
    write_csv_oracle(tmp_path / "old.csv", {
        "t_s": tr.t, "cycle": tr.cycle, "step_index": tr.step_index,
        "I_A": tr.I, "V_V": tr.V, "x": tr.x, "y": tr.y})
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("columns", [
    {"a": [1, 2], "b": [1.0]},
    {"a": np.zeros(3), "b": array("q", [1, 2])},
    {"a": array("d", range(4097)), "b": array("d", range(4096))},
])
def test_write_csv_rejects_unequal_columns(tmp_path, columns):
    with pytest.raises(ValueError):
        cio.write_csv(tmp_path / "c.csv", columns)


def test_write_csv_memory_stays_bounded(tmp_path):
    # rows go out in chunks, so the writer's memory does not grow with the
    # file: 200 000 trajectory rows (about 19 MiB) peak under 4 MiB, where
    # joining the whole file would take about the file's size
    rng = np.random.default_rng(2)
    n = 200_000
    columns = {"t_s": array("d", np.cumsum(rng.uniform(1.0, 60.0, n))),
               "cycle": array("q", np.arange(n) // 250),
               "step_index": array("q", np.arange(n) % 4)}
    for name in ("I_A", "V_V", "x", "y"):
        columns[name] = array("d", rng.uniform(0.0, 4.2, n))
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        cio.write_csv(path, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 15 * 2**20
    assert peak < 4 * 2**20, peak


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


def test_cycle_records_write_exactly_their_fields(params, degp, tmp_path):
    # cycle 1 carries an RPT and cycle 2 none: each record is its fields
    c1 = reference_capacity(params)
    campaign = dataclasses.replace(
        cio.load_campaign(DATA / "campaign_default.yaml", c1),
        max_cycles=2, rpt_every=2)
    traj = run_campaign(Cell(params, degp), campaign, dt=60.0,
                        dt_rest=300.0)[0]
    path = tmp_path / "cycles.json"
    cio.write_cycles_json(path, traj, extra={})
    records = json.loads(path.read_text())["cycles"]
    names = {f.name for f in dataclasses.fields(CycleRecord)}
    assert [set(r) for r in records] == [names, names]
    assert records[0]["rpt"] is not None and records[1]["rpt"] is None


def test_records_round_trip_through_as_dict(params, n_li0):
    w = solve_window(params, 0.95 * params.C_p_nom, 0.9 * params.C_n_nom,
                     0.9 * n_li0)
    records = [
        DegradationState(5e-8, 1e-8, 6.2, 5.4, 0.09),
        MeasurementVector(6.2, 5.4, 0.09, 0.0168),
        MeasurementVector(6.2, 5.4, 0.09, 0.0168, delta_irr=4e-6),
        w, dataclasses.replace(w, fit_rms_v=2e-4)]
    for x in records:
        assert type(x)(**x.as_dict()) == x
    assert "delta_irr" not in records[1].as_dict()
    assert "fit_rms_v" not in w.as_dict()
    # numpy fields write as Python floats, which JSON takes at any width
    fitted = dataclasses.replace(w, x_0=np.float32(0.25),
                                 fit_rms_v=np.float64(2e-4))
    assert {type(v) for v in fitted.as_dict().values()} == {float}
    json.dumps(fitted.as_dict())
