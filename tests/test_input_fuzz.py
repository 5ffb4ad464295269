"""Seeded type-mutation fuzz of every input file the CLI reads.

Each field of the packaged cell, campaign, protocol and demo YAML, of a
measurement JSON and of a saved state JSON is deleted, or its value is
replaced by a string, a list, null or a mapping, and a number also by an
infinity or a NaN. The CLI must answer every case with an exit code, never
a traceback, and a non-number in a numeric field must exit 2. A case that
stays valid runs one coarse cycle.

Magnitudes are fuzzed too, for the measurement vector and the cell: each
number is set to 0, -v, v*1e-3, v*1e3, 1e-300 and 1e300. Every vector
runs through both inversion routes; the cell's 264 edits are sampled (the
eight whose derived geometry or particle rates leave double precision
always among them), each running two coarse campaign cycles. Each case
must end in exit 0, 2, 3 or 4 with at most one line on stderr and no
warning, --out must exist only after exit 0 or 3, and the files written
must hold finite numbers. The campaign's and the
demo's counts are not magnitude-fuzzed: n_shells is capped at 1000 (an
8 MB propagator), but nothing bounds the run time that a large max_cycles
asks for.
"""

import contextlib
import io
import json
import math
import random
import string
import warnings
from pathlib import Path

import pytest
import yaml

from cellfade import cli
from cellfade import io as cio
from cellfade.cell import Cell
from cellfade.cli import main
from cellfade.params import load_cell_config

DATA = Path(__file__).resolve().parents[1] / "src" / "cellfade" / "data"
CELL = str(DATA / "cell_default.yaml")
SEED = 5
COARSE = ["--dt", "60", "--dt-rest", "300"]
DELETE = object()


def _fields(doc, path=()):
    """Paths to every value in a nested mapping/list document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, dict) or (isinstance(value, list) and value
                                       and isinstance(value[0], dict)):
            yield from _fields(value, path + (key,))
        elif isinstance(value, list):
            yield path + (key, 0)   # one element of a number list


def _mutations(value, rng):
    word = "".join(rng.choices(string.ascii_letters, k=rng.randint(1, 8)))
    out = [("delete", DELETE), ("string", word),
           ("list", [rng.random() for _ in range(rng.randint(0, 3))]),
           ("null", None), ("mapping", {word: rng.random()})]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out += [("inf", rng.choice([math.inf, -math.inf])), ("nan", math.nan)]
    return out


def _mutated(doc, path, new):
    doc = json.loads(json.dumps(doc))   # deep copy
    *parents, key = path
    target = doc
    for p in parents:
        target = target[p]
    if new is DELETE:
        del target[key]
    else:
        target[key] = new
    return doc


def _value(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _fuzz(tmp_path, name, doc, argv):
    """Run the CLI with argv(file) on every type mutation of doc written
    to the file name; returns the cases that broke the contract."""
    rng = random.Random(f"{SEED}:{name}")
    path = tmp_path / name
    dump = json.dumps if name.endswith(".json") else yaml.safe_dump
    bad = []
    for field in _fields(doc):
        old = _value(doc, field)
        numeric = isinstance(old, (int, float)) and not isinstance(old, bool)
        for kind, new in _mutations(old, rng):
            path.write_text(dump(_mutated(doc, field, new)))
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    rc = main(argv(str(path)) + ["--out", str(tmp_path / "out")])
            except Exception as e:   # record every escape, not just the first
                bad.append((field, kind, repr(e)))
                continue
            if not isinstance(rc, int) or (numeric and kind != "delete" and rc != 2):
                bad.append((field, kind, rc, sink.getvalue()[-300:]))
    return bad


@pytest.fixture
def packaged_cell(monkeypatch, cellpair):
    """The CLI reuses the parsed packaged cell where the mutated file is
    another input: only the file under test is read per case."""
    monkeypatch.setattr(cli, "load_cell_config", lambda path: (
        cellpair if path == CELL else load_cell_config(path)))


def _yaml(name):
    return yaml.safe_load((DATA / name).read_text())


def test_fuzz_cell_config(tmp_path):
    bad = _fuzz(tmp_path, "cell.yaml", _yaml("cell_default.yaml"), lambda p: [
        "simulate", "--cell", p, "--protocol", str(DATA / "protocol_cycle.yaml"),
        "--max-cycles", "1"] + COARSE)
    assert not bad, bad


def test_fuzz_campaign_and_protocol(tmp_path, packaged_cell):
    campaign = _yaml("campaign_default.yaml")
    campaign["protocol"] = str(DATA / campaign["protocol"])
    bad = _fuzz(tmp_path, "campaign.yaml", campaign, lambda p: [
        "simulate", "--cell", CELL, "--campaign", p, "--max-cycles", "1"] + COARSE)
    bad += _fuzz(tmp_path, "protocol.yaml", _yaml("protocol_cycle.yaml"), lambda p: [
        "simulate", "--cell", CELL, "--protocol", p, "--max-cycles", "1"] + COARSE)
    assert not bad, bad


def test_fuzz_demo_config(tmp_path, packaged_cell):
    # one cycle per member, and EOL at once should max_cycles be deleted
    demo = {**_yaml("ambiguity_demo.yaml"), "n_members": 2, "max_cycles": 1,
            "eol_capacity_fraction": 0.999}
    bad = _fuzz(tmp_path, "demo.yaml", demo, lambda p: [
        "ambiguity", "--cell", CELL, "--demo", p] + COARSE)
    assert not bad, bad


def test_fuzz_measurements(tmp_path, packaged_cell):
    doc = {"C_p": 6.432, "C_n": 5.76, "LLI": 0.08, "R_s": 0.0156226,
           "delta_irr": 4.01125e-06}
    bad = _fuzz(tmp_path, "m.json", doc, lambda p: [
        "identify", "--cell", CELL, "--measurements", p, "--with-expansion"])
    assert not bad, bad


def test_fuzz_state_file(tmp_path, packaged_cell):
    saved = tmp_path / "saved.json"
    cio.save_state(saved, Cell(*load_cell_config(CELL)))
    doc = json.loads(saved.read_text())
    bad = _fuzz(tmp_path, "state.json", doc, lambda p: [
        "simulate", "--cell", CELL, "--state", p, "--protocol",
        str(DATA / "protocol_cycle.yaml"), "--max-cycles", "1"] + COARSE)
    assert not bad, bad


def _magnitudes(v):
    return [0, -v, v * 1e-3, v * 1e3, 1e-300, 1e300]


def _finite(doc):
    if isinstance(doc, dict):
        return all(_finite(v) for v in doc.values())
    if isinstance(doc, list):
        return all(_finite(v) for v in doc)
    return not isinstance(doc, float) or math.isfinite(doc)


def _magnitude_case(tmp_path, argv, files):
    """None if argv ends as the contract says, else what broke it."""
    out = tmp_path / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    try:   # a warning would print to stderr: it breaks the case too
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv + ["--out", str(out)])
    except Exception as e:
        return repr(e)
    err = stderr.getvalue()
    if rc not in (0, 2, 3, 4) or err.count("\n") > 1:
        return rc, err[-300:]
    if out.exists() != (rc in (0, 3)):
        return rc, "--out exists" if out.exists() else "no --out"
    if rc == 0 and not all(_finite(json.loads((out / name).read_text()))
                           for name in files):
        return rc, "non-finite output"
    return None


def test_magnitude_fuzz_measurements(tmp_path, packaged_cell):
    doc = {"C_p": 6.432, "C_n": 5.76, "LLI": 0.08, "R_s": 0.0156226,
           "delta_irr": 4.01125e-06}
    path = tmp_path / "m.json"
    bad = []
    for key, old in doc.items():
        for new in _magnitudes(old):
            path.write_text(json.dumps({**doc, key: new}))
            for route in ("--with-expansion", "--without-expansion"):
                got = _magnitude_case(tmp_path / f"{key}{new}{route}", [
                    "identify", "--cell", CELL, "--measurements", str(path),
                    route], ["identification.json"])
                if got:
                    bad.append((key, new, route, got))
    assert not bad, bad


# edits whose derived geometry or particle rates leave double precision
PAST_DOUBLE = [("l_pos", 1e300), ("l_neg", 1e300), ("r_p_pos", 1e-300),
               ("r_p_neg", 1e-300), ("r_p_pos", 1e300), ("r_p_neg", 1e300),
               ("D_s_pos", 1e300), ("D_s_neg", 1e300)]


def test_magnitude_fuzz_cell_config(tmp_path):
    cell = _yaml("cell_default.yaml")
    cases = [(key, new) for key, old in cell.items()
             if not isinstance(old, str) for new in _magnitudes(old)]
    assert len(cases) == 264
    rng = random.Random(f"{SEED}:cell magnitudes")
    sample = PAST_DOUBLE + rng.sample(
        [c for c in cases if c not in PAST_DOUBLE], 12)
    path = tmp_path / "cell.yaml"
    bad = []
    for key, new in sample:
        path.write_text(yaml.safe_dump({**cell, key: new}))
        got = _magnitude_case(tmp_path / f"{key}{new}", [
            "simulate", "--cell", str(path), "--campaign",
            str(DATA / "campaign_default.yaml"), "--max-cycles", "2"] + COARSE,
            ["cycles.json", "state_final.json"])
        if got:
            bad.append((key, new, got))
    assert not bad, bad
