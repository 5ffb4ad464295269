"""Command-line behavior: exit codes, outputs, determinism, resume."""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from cellfade import cli
from cellfade import io as cio
from cellfade.cell import Cell
from cellfade.cli import build_parser, main
from cellfade.degradation import DegradationState
from cellfade.measurement import forward_measure
from cellfade.params import load_cell_config

DATA = Path(__file__).resolve().parents[1] / "src" / "cellfade" / "data"
CELL = str(DATA / "cell_default.yaml")
README = Path(__file__).resolve().parents[1] / "README.md"


def read_json(path):
    return json.loads(Path(path).read_text())


def test_simulate_one_cycle(tmp_path):
    out = tmp_path / "run"
    rc = main(["simulate", "--cell", CELL,
               "--protocol", str(DATA / "protocol_cycle.yaml"),
               "--max-cycles", "1", "--dt", "30", "--dt-rest", "150",
               "--out", str(out)])
    assert rc == 0
    for name in ("trajectory.csv", "cycles.json", "state_final.json",
                 "manifest.json"):
        assert (out / name).exists()
    doc = read_json(out / "cycles.json")
    assert len(doc["cycles"]) == 1
    assert doc["cycles"][0]["capacity_Ah"] > 0.0
    assert doc["reference_capacity_Ah"] > 0.0
    man = read_json(out / "manifest.json")
    assert set(man["outputs"]) == {"trajectory.csv", "cycles.json",
                                   "state_final.json"}


def test_simulate_reruns_byte_identical(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc = main(["simulate", "--cell", CELL,
                   "--protocol", str(DATA / "protocol_cycle.yaml"),
                   "--max-cycles", "1", "--dt", "30", "--dt-rest", "150",
                   "--out", str(out)])
        assert rc == 0
        outs.append(out)
    for name in ("trajectory.csv", "cycles.json", "state_final.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    # manifests agree on content hashes (timestamps may differ)
    ha = read_json(outs[0] / "manifest.json")["outputs"]
    hb = read_json(outs[1] / "manifest.json")["outputs"]
    assert ha == hb


def test_simulate_resume_from_state(tmp_path):
    first = tmp_path / "first"
    rc = main(["simulate", "--cell", CELL,
               "--protocol", str(DATA / "protocol_cycle.yaml"),
               "--max-cycles", "1", "--dt", "30", "--dt-rest", "150",
               "--out", str(first)])
    assert rc == 0
    resumed = tmp_path / "resumed"
    rc = main(["rpt", "--cell", CELL,
               "--state", str(first / "state_final.json"),
               "--dt", "30", "--out", str(resumed)])
    assert rc == 0
    assert set(read_json(resumed / "manifest.json")["configs"]) == {"cell",
                                                                   "state"}
    aged = read_json(resumed / "rpt.json")
    fresh_dir = tmp_path / "fresh"
    rc = main(["rpt", "--cell", CELL, "--dt", "30", "--out", str(fresh_dir)])
    assert rc == 0
    fresh = read_json(fresh_dir / "rpt.json")
    assert aged["R_s_ohm"] > fresh["R_s_ohm"]
    assert aged["capacity_Ah"] < fresh["capacity_Ah"]
    assert fresh["delta_irr_m"] == 0.0 and aged["delta_irr_m"] > 0.0


def test_missing_input_exits_2(tmp_path):
    rc = main(["simulate", "--cell", str(tmp_path / "nope.yaml"),
               "--protocol", str(DATA / "protocol_cycle.yaml"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_malformed_cell_exits_2(tmp_path):
    bad = tmp_path / "cell.yaml"
    bad.write_text("just a string\n")
    rc = main(["simulate", "--cell", str(bad),
               "--protocol", str(DATA / "protocol_cycle.yaml"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_stalled_protocol_exits_4(tmp_path):
    proto = tmp_path / "stall.yaml"
    proto.write_text(yaml.safe_dump({"steps": [
        {"mode": "rest",
         "until": [{"quantity": "current", "comparator": ">=",
                    "threshold": 1.0}]}]}))
    rc = main(["simulate", "--cell", CELL, "--protocol", str(proto),
               "--dt-rest", "100000", "--out", str(tmp_path / "o")])
    assert rc == 4
    assert not (tmp_path / "o").exists()


def test_identify_family(tmp_path, params, degp, n_li0):
    truth = DegradationState(8e-8, 1.5e-8, 0.96 * params.C_p_nom,
                             0.96 * params.C_n_nom, 0.08)
    m = forward_measure(params, degp, truth, n_li0)
    meas = tmp_path / "m.json"
    meas.write_text(json.dumps({"C_p": m.C_p, "C_n": m.C_n,
                                "LLI": m.LLI, "R_s": m.R_s}))
    out = tmp_path / "fam"
    rc = main(["identify", "--cell", CELL, "--measurements", str(meas),
               "--without-expansion", "--family-samples", "5",
               "--out", str(out)])
    assert rc == 0
    doc = read_json(out / "identification.json")
    assert doc["kind"] == "family"
    assert len(doc["samples"]) == 5
    exps = [s["delta_irr"] for s in doc["samples"]]
    assert len(set(exps)) == 5


def test_identify_unique(tmp_path, params, degp, n_li0):
    truth = DegradationState(8e-8, 1.5e-8, 0.96 * params.C_p_nom,
                             0.96 * params.C_n_nom, 0.08)
    m = forward_measure(params, degp, truth, n_li0)
    meas = tmp_path / "m.json"
    meas.write_text(json.dumps(m.as_dict()))
    out = tmp_path / "uniq"
    rc = main(["identify", "--cell", CELL, "--measurements", str(meas),
               "--with-expansion", "--out", str(out)])
    assert rc == 0
    doc = read_json(out / "identification.json")
    assert doc["kind"] == "unique"
    assert doc["solution"]["delta_sei"] == pytest.approx(truth.delta_sei,
                                                         rel=1e-3)
    assert doc["solution"]["delta_pl"] == pytest.approx(truth.delta_pl,
                                                        rel=1e-3)


def test_identify_infeasible_exits_3(tmp_path, params):
    meas = tmp_path / "m.json"
    meas.write_text(json.dumps({"C_p": params.C_p_nom, "C_n": params.C_n_nom,
                                "LLI": 0.05, "R_s": 1e-4}))
    out = tmp_path / "inf"
    rc = main(["identify", "--cell", CELL, "--measurements", str(meas),
               "--without-expansion", "--out", str(out)])
    assert rc == 3
    assert read_json(out / "identification.json")["kind"] == "infeasible"


@pytest.mark.parametrize("C_p, LLI", [(6.6, 0.99), (1e-9, 0.11)])
def test_identify_windowless_vector_exits_3(tmp_path, C_p, LLI):
    # no stoichiometric window fits the vector: an infeasible inversion,
    # not a numerical failure (exit 4)
    meas = tmp_path / "m.json"
    meas.write_text(json.dumps({"C_p": C_p, "C_n": 5.6, "LLI": LLI,
                                "R_s": 0.02, "delta_irr": 5e-6}))
    for route in ("--with-expansion", "--without-expansion"):
        out = tmp_path / route
        rc = main(["identify", "--cell", CELL, "--measurements", str(meas),
                   route, "--out", str(out)])
        assert rc == 3
        doc = read_json(out / "identification.json")
        assert doc["kind"] == "infeasible"
        assert "no stoichiometric window" in doc["error"]


def test_identify_ambiguous_exits_3(tmp_path, params, degp, n_li0):
    # two states sharing R_film and expansion exactly (see test_identify)
    e, sei, pl = degp.expansion, degp.sei, degp.plating
    root_sum = e.b_sei * sei.kappa_sei / (pl.kappa_pl * e.b_pl)
    r_areal = 2.0 * root_sum / pl.kappa_pl
    d_pl = 0.25 * root_sum
    st = DegradationState(sei.kappa_sei * (r_areal - d_pl / pl.kappa_pl),
                          d_pl, params.C_p_nom, params.C_n_nom, 0.1)
    m = forward_measure(params, degp, st, n_li0)
    meas = tmp_path / "m.json"
    meas.write_text(json.dumps(m.as_dict()))
    out = tmp_path / "amb"
    rc = main(["identify", "--cell", CELL, "--measurements", str(meas),
               "--with-expansion", "--no-lli-budget", "--out", str(out)])
    assert rc == 3
    doc = read_json(out / "identification.json")
    assert doc["kind"] == "ambiguous"
    assert len(doc["candidates"]) == 2


def test_identify_expansion_flag_needs_channel(tmp_path, params):
    meas = tmp_path / "m.json"
    meas.write_text(json.dumps({"C_p": params.C_p_nom, "C_n": params.C_n_nom,
                                "LLI": 0.05, "R_s": 0.01}))
    rc = main(["identify", "--cell", CELL, "--measurements", str(meas),
               "--with-expansion", "--out", str(tmp_path / "o")])
    assert rc == 2


def _small_demo(tmp_path):
    # a cut-down demo: 2 members, 2 cycles, no full EOL run
    demo = yaml.safe_load((DATA / "ambiguity_demo.yaml").read_text())
    demo["n_members"] = 2
    demo["max_cycles"] = 2
    demo["eol_capacity_fraction"] = 0.05
    small = tmp_path / "demo.yaml"
    small.write_text(yaml.safe_dump(demo))
    return small


def _run_ambiguity(tmp_path, out, jobs):
    return main(["ambiguity", "--cell", CELL,
                 "--demo", str(_small_demo(tmp_path)), "--dt", "60",
                 "--dt-rest", "300", "--jobs", str(jobs), "--out", str(out)])


@pytest.fixture(scope="module")
def serial_demo(tmp_path_factory):
    """Outputs of the cut-down demo run with --jobs 1."""
    tmp = tmp_path_factory.mktemp("serial")
    out = tmp / "amb"
    assert _run_ambiguity(tmp, out, 1) == 0
    return out


@pytest.mark.parametrize("jobs", [1, 2])
def test_ambiguity_demo_small(tmp_path, serial_demo, jobs):
    out = serial_demo
    if jobs > 1:
        out = tmp_path / "amb"
        assert _run_ambiguity(tmp_path, out, jobs) == 0
    doc = read_json(out / "ambiguity.json")
    assert doc["n_members"] == 2
    assert doc["rs_spread_rel"] < 0.005
    assert doc["expansion_distinct"] is True
    for i in (1, 2):
        assert (out / f"member_{i}_capacity.csv").exists()
    assert (out / "pseudo_ocv.csv").exists()
    # the process pool changes where members age, not what they give
    for name in ("ambiguity.json", "pseudo_ocv.csv", "member_1_capacity.csv",
                 "member_2_capacity.csv"):
        assert (out / name).read_bytes() == (serial_demo / name).read_bytes()
    # every member CSV field is a plain number
    rows = (out / "member_1_capacity.csv").read_text().splitlines()[1:]
    assert rows and all(float(v) == float(v) for r in rows for v in r.split(","))


def test_outputs_carry_the_deep_soh_split(tmp_path, serial_demo, params,
                                          degp, n_li0):
    # cycles.json records, identify's states and ambiguity's members each
    # carry the state's split of LLI, whose shares sum to that LLI
    def check(split, lli):
        assert set(split) == {"sei", "plating", "fracture"}
        assert abs(sum(split.values()) - lli) <= 1e-15

    out = tmp_path / "run"
    assert main(["simulate", "--cell", CELL, "--protocol",
                 str(DATA / "protocol_cycle.yaml"), "--max-cycles", "2",
                 "--dt", "60", "--dt-rest", "300", "--out", str(out)]) == 0
    for rec in read_json(out / "cycles.json")["cycles"]:
        check(rec["deep_soh"], rec["degradation"]["LLI"])
    truth = DegradationState(8e-8, 1.5e-8, 0.96 * params.C_p_nom,
                             0.96 * params.C_n_nom, 0.08)
    m = forward_measure(params, degp, truth, n_li0)
    meas = tmp_path / "m.json"
    meas.write_text(json.dumps(m.as_dict()))
    for route in ("--with-expansion", "--without-expansion"):
        out = tmp_path / route
        assert main(["identify", "--cell", CELL, "--measurements", str(meas),
                     route, "--out", str(out)]) == 0
        doc = read_json(out / "identification.json")
        # the unique solution's split sits beside it, a sample's in it
        for state in doc.get("samples", [doc]):
            check(state["deep_soh"], m.LLI)
    members = read_json(serial_demo / "ambiguity.json")["members"]
    lli = yaml.safe_load((DATA / "ambiguity_demo.yaml").read_text())[
        "measurement"]["LLI"]
    for member in members:
        check(member["deep_soh"], lli)
    assert members[0]["deep_soh"] != members[1]["deep_soh"]


def test_ambiguity_jobs_below_one_exits_2(tmp_path, capsys):
    out = tmp_path / "amb"
    assert _run_ambiguity(tmp_path, out, 0) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_ambiguity_jobs_capped_at_the_cpu_count(tmp_path, monkeypatch):
    # a fork pool starts every worker at its first submit, so --jobs past
    # the CPU count would fork that many interpreters at once
    asked = []

    class Pool:
        map = staticmethod(map)

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    argv, _ = _ambiguity(tmp_path, jobs=3, n_members=3)
    assert main(argv + ["--out", str(tmp_path / "o")]) == 0
    assert asked == [2]


@pytest.mark.parametrize("field", ["max_cycles", "n_members", "C_p"])
def test_non_numeric_config_value_exits_2(tmp_path, capsys, field):
    if field == "max_cycles":
        campaign = yaml.safe_load((DATA / "campaign_default.yaml").read_text())
        campaign["protocol"] = str(DATA / campaign["protocol"])
        campaign["max_cycles"] = "abc"
        bad = tmp_path / "campaign.yaml"
        bad.write_text(yaml.safe_dump(campaign))
        argv = ["simulate", "--campaign", str(bad)]
    elif field == "n_members":
        demo = yaml.safe_load((DATA / "ambiguity_demo.yaml").read_text())
        demo["n_members"] = "three"
        bad = tmp_path / "demo.yaml"
        bad.write_text(yaml.safe_dump(demo))
        argv = ["ambiguity", "--demo", str(bad)]
    else:
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({"C_p": "x", "C_n": 5.0, "LLI": 0.05,
                                   "R_s": 0.01}))
        argv = ["identify", "--measurements", str(bad), "--without-expansion"]
    rc = main(argv + ["--cell", CELL, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and field in err


def test_bad_subcommand_exits_2(capsys):
    rc = main(["frobnicate"])
    assert rc == 2
    capsys.readouterr()


def test_console_script_help():
    # the installed console script when there is one, else the module entry
    exe = shutil.which("cellfade")
    cmd = [exe] if exe else [sys.executable, "-m", "cellfade"]
    src = str(DATA.parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run(cmd + ["--help"], capture_output=True, text=True,
                         env=env)
    assert res.returncode == 0
    for word in ("simulate", "rpt", "identify", "ambiguity"):
        assert word in res.stdout


def _write(tmp_path, name, doc):
    path = tmp_path / name
    if not isinstance(doc, str):
        doc = json.dumps(doc) if name.endswith(".json") else yaml.safe_dump(doc)
    path.write_text(doc)
    return str(path)


def _rpt_state(tmp_path, edit):
    """rpt from the fresh default cell's state file, edited by edit(doc)."""
    path = tmp_path / "state.json"
    cio.save_state(path, Cell(*load_cell_config(CELL)))
    path = _write(tmp_path, "state.json", edit(read_json(path)))
    return ["rpt", "--cell", CELL, "--state", path], path


def _simulate_state(tmp_path, name, value):
    """simulate from the fresh default cell's state file with the first
    shell of profile name set to value."""
    _, path = _rpt_state(tmp_path, lambda doc: {**doc, "particles": {
        **doc["particles"], name: [value] + doc["particles"][name][1:]}})
    return _simulate_flags("--protocol", PROTOCOL, "--state", path), path


def _simulate_films_over_lli(tmp_path):
    """simulate from the fresh default cell's state file given an SEI film
    and no LLI to hold its lithium."""
    _, path = _rpt_state(tmp_path, lambda doc: {**doc, "degradation": {
        **doc["degradation"], "delta_sei": 1e-7, "LLI": 0.0}})
    return _simulate_flags("--protocol", PROTOCOL, "--state", path), path


def _simulate_books_open(tmp_path):
    """simulate from the fresh default cell's state file with its negative
    profile halved, so its particles hold less lithium than 1 - LLI."""
    _, path = _rpt_state(tmp_path, lambda doc: {**doc, "particles": {
        **doc["particles"],
        "c_neg": [v / 2.0 for v in doc["particles"]["c_neg"]]}})
    return _simulate_flags("--protocol", PROTOCOL, "--state", path), path


def _state_n_li0(tmp_path, command, value):
    """rpt or simulate from the fresh default cell's state file with its
    n_li0 set to value."""
    argv, path = _rpt_state(tmp_path, lambda doc: {**doc, "n_li0": value})
    if command == "simulate":
        argv = _simulate_flags("--protocol", PROTOCOL, "--state", path)
    return argv, path


def _rising_table(tmp_path):
    """An OCP table whose potential increases with stoichiometry."""
    rows = [f"{0.02 + 0.04 * k!r},{3.0 + 0.036 * k!r}" for k in range(25)]
    return _write(tmp_path, "rising.csv", "\n".join(rows) + "\n")


def _rpt_cell(tmp_path, **changes):
    cell = yaml.safe_load(Path(CELL).read_text())
    path = _write(tmp_path, "cell.yaml", {**cell, **changes})
    return ["rpt", "--cell", path], path


def _unplaced_cell(tmp_path, command, **changes):
    """command on the default cell with changes under which the fresh
    cell has no place on its OCP tables."""
    _, path = _rpt_cell(tmp_path, **changes)
    argv = {"rpt": ["rpt", "--cell", CELL],
            "simulate": _simulate_flags("--protocol", PROTOCOL),
            "identify": _identify(tmp_path)[0]}[command]
    return [path if a == CELL else a for a in argv], path


def _simulate_flags(*flags):
    return ["simulate", "--cell", CELL, "--max-cycles", "1", "--dt", "60",
            "--dt-rest", "300", *flags]


def _simulate_campaign(tmp_path, text):
    path = _write(tmp_path, "campaign.yaml", text)
    return _simulate_flags("--campaign", path), path


def _simulate_protocol(tmp_path, step=None, **changes):
    """simulate with a protocol file of one rest step, step merged into
    that step's mapping and changes into the file's."""
    rest = {"mode": "rest", "until": [
        {"quantity": "time", "comparator": ">=", "threshold": 60}]}
    path = _write(tmp_path, "protocol.yaml",
                  {"steps": [{**rest, **(step or {})}], **changes})
    return _simulate_flags("--protocol", path), path


def _identify(tmp_path, route="--without-expansion", **changes):
    doc = {"C_p": 6.6, "C_n": 5.7, "LLI": 0.11, "R_s": 0.017, **changes}
    path = _write(tmp_path, "m.json", doc)
    return ["identify", "--cell", CELL, "--measurements", path, route], path


def _ambiguity(tmp_path, jobs=1, **changes):
    demo = yaml.safe_load(Path(_small_demo(tmp_path)).read_text())
    path = _write(tmp_path, "demo.yaml", {**demo, "max_cycles": 1, **changes})
    return ["ambiguity", "--cell", CELL, "--demo", path, "--dt", "60",
            "--dt-rest", "300", "--jobs", str(jobs)], path


def _demo_measurement(tmp_path, **changes):
    demo = yaml.safe_load((DATA / "ambiguity_demo.yaml").read_text())
    return _ambiguity(tmp_path, measurement={**demo["measurement"], **changes})


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _degradation(key, value):
    return lambda doc: {**doc, "degradation": {**doc["degradation"], key: value}}


PROTOCOL = str(DATA / "protocol_cycle.yaml")
MALFORMED = [
    pytest.param(lambda t: _rpt_state(t, lambda doc: [1, 2]), "mapping",
                 id="state-list"),
    pytest.param(lambda t: _rpt_state(t, _without("particles")), "particles",
                 id="state-no-particles"),
    pytest.param(lambda t: _rpt_state(t, _degradation("delta_extra", 0.0)),
                 "delta_extra", id="state-extra-degradation-key"),
    pytest.param(lambda t: _rpt_state(t, _degradation("delta_sei", "thick")),
                 "delta_sei", id="state-string-film"),
    pytest.param(lambda t: _rpt_state(t, lambda doc: {**doc, "n_li0": "lots"}),
                 "n_li0", id="state-string-n_li0"),
    # n_li0 <= 0 ended in a ZeroDivisionError (simulate, 0), a run that
    # wrote outputs (simulate, -1) or a CellDeadError (rpt, exit 4)
    *[pytest.param(lambda t, c=command, v=value: _state_n_li0(t, c, v),
                   ": n_li0 must be > 0", id=f"state-n_li0-{value}-{command}")
      for command in ("rpt", "simulate") for value in (0, -1)],
    # out-of-range profiles: diffusion would smooth a negative shell away
    # unseen, and a huge one ended as a numerical failure (exit 4)
    pytest.param(lambda t: _simulate_state(t, "c_neg", -5.0), "particles c_neg",
                 id="state-negative-concentration"),
    pytest.param(lambda t: _simulate_state(t, "c_neg", 1e9), "particles c_neg",
                 id="state-concentration-above-cmax"),
    # film lithium beyond the LLI would read as a negative fracture share
    pytest.param(_simulate_films_over_lli, "more lithium than its LLI",
                 id="state-films-over-lli"),
    # particle lithium must close the books against 1 - LLI
    pytest.param(_simulate_books_open, "1 - LLI", id="state-books-open"),
    pytest.param(lambda t: _rpt_cell(t, ocp_pos=5), "ocp_pos", id="ocp-number"),
    pytest.param(lambda t: _rpt_cell(t, ocp_pos=str(t / "absent.csv")),
                 "absent.csv", id="ocp-missing-csv"),
    pytest.param(lambda t: _rpt_cell(t, ocp_pos=_write(
        t, "bad.csv", "stoichiometry,potential\nlow,high\n")), "bad.csv",
        id="ocp-bad-csv"),
    pytest.param(lambda t: _rpt_cell(t, ocp_pos=_rising_table(t)),
                 "ocp_pos: potential column must be strictly decreasing",
                 id="ocp-increasing"),
    pytest.param(lambda t: _rpt_cell(t, T=True), "T", id="cell-bool"),
    # a huge mesh would ask numpy for gigabytes before any step
    pytest.param(lambda t: _rpt_cell(t, n_shells=100000), "n_shells",
                 id="cell-n_shells-huge"),
    # a fresh cell off its tables ended as a numerical failure (exit 4),
    # or for identify at V_min 0.5 as an infeasible vector (exit 3)
    *[pytest.param(lambda t, c=command, k=key, v=value: _unplaced_cell(
        t, c, **{k: v}), "x100_init, V_max and V_min",
        id=f"cell-unplaced-{key}-{value}-{command}")
      for key, value in (("x100_init", 0.999), ("x100_init", 0.01),
                         ("V_max", 3.1), ("V_min", 0.5))
      for command in ("rpt", "simulate", "identify")],
    pytest.param(lambda t: _simulate_campaign(
        t, "steps:\n  - {mode: rest, until: 5}\n"), "until", id="until-number"),
    pytest.param(lambda t: _simulate_campaign(
        t, "steps:\n  - {mode: cc, setpoint: C/0, until: [{quantity: time, "
        "comparator: '>=', threshold: 60}]}\n"), "C/0", id="c-rate-over-zero"),
    pytest.param(lambda t: _simulate_campaign(t, "protocol: [1, 2]\n"),
                 "protocol", id="protocol-list"),
    # exactly one of steps and protocol: both once ran the inline steps
    pytest.param(lambda t: _simulate_campaign(
        t, "protocol: does_not_exist.yaml\nsteps:\n  - {mode: rest, until: "
        "[{quantity: time, comparator: '>=', threshold: 60}]}\n"),
        "not both", id="campaign-steps-and-protocol"),
    pytest.param(lambda t: _ambiguity(t, protocol=PROTOCOL), "not both",
                 id="demo-steps-and-protocol"),
    # a step's mode is one of the three spellings the README documents
    *[pytest.param(lambda t, m=mode: _simulate_protocol(
        t, {"mode": m, "setpoint": "C/2"}), f"step 1: unknown mode '{mode}'",
        id=f"mode-{mode}")
      for mode in ("constant-current", "CC")],
    # a rest step runs at 0 A, so a setpoint there would be dropped
    pytest.param(lambda t: _simulate_protocol(t, {"setpoint": "C/2"}),
                 "step 1: (rest) takes no setpoint", id="rest-setpoint"),
    pytest.param(lambda t: _simulate_campaign(
        t, f"protocol: {PROTOCOL}\nmax_cycles: .inf\n"), "max_cycles",
        id="max-cycles-inf"),
    pytest.param(lambda t: _simulate_campaign(
        t, f"protocol: {PROTOCOL}\nmax_cycles: on\n"), "max_cycles",
        id="max-cycles-bool"),
    pytest.param(lambda t: _ambiguity(t, lli_budget="false"), "lli_budget",
                 id="lli-budget-string"),
    # a key that no loader reads (a misspelling, or a constant that is not
    # a parameter) is an error naming it in every input file
    pytest.param(lambda t: _rpt_cell(t, kappa_se=5e-6), "'kappa_se'",
                 id="unknown-key-cell"),
    pytest.param(lambda t: _rpt_cell(t, F=96485.0, R_gas=8.3),
                 "unknown keys ['F', 'R_gas']", id="unknown-key-cell-constants"),
    pytest.param(lambda t: _rpt_state(t, lambda doc: {**doc, "lam_lithium": 0.0}),
                 "'lam_lithium'", id="unknown-key-state"),
    pytest.param(lambda t: _rpt_state(t, lambda doc: {**doc, "particles": {
        **doc["particles"], "c_mid": []}}), "particles: unknown keys ['c_mid']",
        id="unknown-key-state-particles"),
    pytest.param(lambda t: _simulate_campaign(
        t, f"protocol: {PROTOCOL}\nmax_cycle: 2\nrpt_evry: 10\n"),
        "unknown keys ['max_cycle', 'rpt_evry']", id="unknown-key-campaign"),
    pytest.param(lambda t: _simulate_protocol(t, repeat=2), "'repeat'",
                 id="unknown-key-protocol"),
    pytest.param(lambda t: _simulate_protocol(t, {"setpiont": 1.0}),
                 "step 1: unknown keys ['setpiont']", id="unknown-key-step"),
    pytest.param(lambda t: _simulate_protocol(t, {"until": [
        {"quantity": "time", "comparator": ">=", "threshold": 60, "unit": "s"}]}),
        "termination: unknown keys ['unit']", id="unknown-key-termination"),
    pytest.param(lambda t: _ambiguity(t, n_member=2), "'n_member'",
                 id="unknown-key-demo"),
    # the demo is the case without an expansion reading
    pytest.param(lambda t: _demo_measurement(t, delta_irr=3e-6),
                 "measurement: unknown keys ['delta_irr']",
                 id="unknown-key-demo-measurement"),
    pytest.param(lambda t: _identify(t, delta_ir=3e-6), "'delta_ir'",
                 id="unknown-key-measurement"),
    pytest.param(lambda t: _identify(t, LLI=1.5), "LLI", id="measurement-LLI"),
    pytest.param(lambda t: _identify(t, C_p=-6.6), "C_p", id="measurement-C_p"),
    pytest.param(lambda t: _identify(t, R_s=True), "R_s", id="measurement-bool"),
    pytest.param(lambda t: _identify(t, "--with-expansion"), "delta_irr",
                 id="expansion-route-without-delta_irr"),
    pytest.param(lambda t: _ambiguity(t, n_members=0), "n_members",
                 id="demo-no-members"),
    pytest.param(lambda t: _ambiguity(t, jobs=2, n_members=0), "n_members",
                 id="demo-no-members-jobs-2"),
    # a huge member count once asked numpy for petabytes of samples
    pytest.param(lambda t: _ambiguity(t, n_members=10**15), "n_members",
                 id="demo-members-huge"),
    # numeric flags: finite and above zero, or exit 2 naming the flag
    pytest.param(lambda t: (_simulate_flags("--protocol", PROTOCOL, "--dt", "0"),
                            "--dt"), "> 0", id="dt-zero"),
    pytest.param(lambda t: (_simulate_flags("--protocol", PROTOCOL, "--dt", "-5"),
                            "--dt"), "> 0", id="dt-negative"),
    pytest.param(lambda t: (_simulate_flags("--protocol", PROTOCOL, "--dt", "nan"),
                            "--dt"), "finite", id="dt-nan"),
    pytest.param(lambda t: (_simulate_flags("--protocol", PROTOCOL,
                                            "--dt-rest", "0"), "--dt-rest"),
                 "> 0", id="dt-rest-zero"),
    pytest.param(lambda t: (_simulate_flags("--protocol", PROTOCOL,
                                            "--dt-rest", "inf"), "--dt-rest"),
                 "finite", id="dt-rest-inf"),
    pytest.param(lambda t: (_simulate_flags(
        "--campaign", str(DATA / "campaign_default.yaml"),
        "--max-cycles", "-3"), "--max-cycles"), "> 0",
        id="max-cycles-negative"),
    pytest.param(lambda t: (_simulate_flags("--protocol", PROTOCOL,
                                            "--max-cycles", "1.5"),
                            "--max-cycles"), "finite int",
                 id="max-cycles-fraction"),
    pytest.param(lambda t: (_identify(t)[0] + ["--family-samples", "0"],
                            "--family-samples"), "> 0",
                 id="family-samples-zero"),
    pytest.param(lambda t: (_identify(t)[0] + ["--family-samples",
                                               str(10**15)],
                            "--family-samples"), "1000",
                 id="family-samples-huge"),
    # the expansion route reports one state, not family samples
    pytest.param(lambda t: (_identify(t, "--with-expansion", delta_irr=3e-6)[0]
                            + ["--family-samples", "7"], "--family-samples"),
                 "--without-expansion", id="family-samples-with-expansion"),
    pytest.param(lambda t: (_ambiguity(t)[0] + ["--dt-rest", "0"],
                            "--dt-rest"), "> 0", id="ambiguity-dt-rest-zero"),
    # identify never steps the cell, so it takes no timestep
    pytest.param(lambda t: (_identify(t)[0] + ["--dt", "5"], "--dt"),
                 "unrecognized", id="identify-dt"),
    # simulate takes exactly one of --campaign and --protocol
    pytest.param(lambda t: (_simulate_flags(), "--campaign"), "--protocol",
                 id="simulate-neither"),
    pytest.param(lambda t: (_simulate_flags(
        "--campaign", str(DATA / "campaign_default.yaml"), "--protocol", PROTOCOL),
        "--campaign"), "--protocol", id="simulate-both"),
]


@pytest.mark.parametrize("build, field", MALFORMED)
def test_malformed_input_exits_2(tmp_path, capsys, build, field):
    # exit 2, no traceback, an error naming the file (or flag) and field,
    # and no output directory left behind
    argv, path = build(tmp_path)
    rc = main(argv + ["--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "error:" in err and path in err and field in err, err
    assert not (tmp_path / "o").exists()



def test_narrow_window_cell_runs(tmp_path):
    # V_min 0.01 V below V_max is a narrow window, not a misplaced cell
    argv, _ = _rpt_cell(tmp_path, V_min=4.19)
    assert main(argv + ["--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("key, value, eol", [
    # the SEI exponential overflows: transport-limited growth
    ("T", 1.0, False), ("U_sei", 1.0e3, False),
    # it underflows to kin = 0, and 1/kin divides by zero: no growth
    ("U_sei", -1.0e3, False),
    # the fatigue power law overflows: a loss that ends the cell
    ("sigma_crit_pos", 1.0e-300, True), ("m_lam", 1.0e6, True),
    # plating takes the whole lithium inventory within a cycle
    ("k_pl", 1.0e10, True),
])
def test_aging_law_overflow_is_the_laws_limit(tmp_path, capsys, key, value,
                                              eol):
    # an aging law pushed past float range takes its limit: no traceback,
    # and no input error mid-run
    _, path = _rpt_cell(tmp_path, **{key: value})
    out = tmp_path / "o"
    rc = main(["simulate", "--cell", path,
               "--campaign", str(DATA / "campaign_default.yaml"),
               "--max-cycles", "2", "--dt", "60", "--dt-rest", "300",
               "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    assert read_json(out / "cycles.json")["eol_reached"] is eol


@pytest.mark.parametrize("key, value", [
    # the full charge overflows, so the active area underflows to 0
    ("l_pos", 1.0e300), ("l_neg", 1.0e300),
    # the shell volumes underflow to 0, or overflow
    ("r_p_pos", 1.0e-300), ("r_p_neg", 1.0e-300),
    ("r_p_pos", 1.0e300), ("r_p_neg", 1.0e300),
    # the shells' exchange rates overflow
    ("D_s_pos", 1.0e300), ("D_s_neg", 1.0e300),
])
def test_geometry_past_double_precision_exits_2(tmp_path, capsys, key, value):
    # refused at load with one line naming the file and the key
    _, path = _rpt_cell(tmp_path, **{key: value})
    out = tmp_path / "o"
    rc = main(["simulate", "--cell", path,
               "--campaign", str(DATA / "campaign_default.yaml"),
               "--max-cycles", "2", "--dt", "60", "--dt-rest", "300",
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.count("\n") == 1 and path in err and key in err, err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    # each puts C_p_nom past what the positive electrode's volume holds
    ("A", 2.0e-4), ("l_pos", 1.0e-300), ("c_smax_pos", 48.0),
])
def test_active_material_fraction_above_one_exits_2(tmp_path, capsys, key,
                                                    value):
    _, path = _rpt_cell(tmp_path, **{key: value})
    out = tmp_path / "o"
    rc = main(["simulate", "--cell", path,
               "--campaign", str(DATA / "campaign_default.yaml"),
               "--max-cycles", "2", "--dt", "60", "--dt-rest", "300",
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.count("\n") == 1 and path in err and "C_p_nom" in err, err
    assert key in err, err
    assert not out.exists()


def test_ambiguity_below_the_film_free_resistance_exits_3(tmp_path, capsys):
    # a demo R_s the kinetics alone exceed is infeasible before any
    # member ages: one line, and the record says why, as identify's does
    argv, _ = _demo_measurement(tmp_path, R_s=0.001)
    out = tmp_path / "o"
    rc = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert err.count("\n") == 1 and err.startswith("infeasible:"), err
    doc = read_json(out / "ambiguity.json")
    assert doc["kind"] == "infeasible"
    assert "film-free" in doc["error"], doc
    assert doc["measurement"]["R_s"] == 0.001


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("keep\n")
    argv, _ = _identify(tmp_path)
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and str(out) in err, err
    assert out.read_text() == "keep\n"


def _flags(text):
    return set(re.findall(r"--[a-z][a-z-]*", text))


def test_readme_command_line_matches_the_parser():
    # each synopsis in the section's first block lists exactly its
    # subcommand's flags, and every flag the section names exists
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {name: {o for a in p._actions for o in a.option_strings
                    if o.startswith("--") and o != "--help"}
             for name, p in sub.choices.items()}
    section = README.read_text().split("## Command line\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    synopses = re.split(r"^cellfade ", section.split("```", 2)[1], flags=re.M)
    listed = {s.split()[0]: _flags(s.split("writes", 1)[0])
              for s in synopses[1:]}
    assert listed == flags
    assert _flags(section) <= set().union(*flags.values())
