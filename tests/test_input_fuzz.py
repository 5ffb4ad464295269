"""Seeded type-mutation fuzz of every input file the CLI reads.

Each field of the packaged cell, campaign, protocol and demo YAML, of a
measurement JSON and of a saved state JSON is deleted, or its value is
replaced by a string, a list, null or a mapping, and a number also by an
infinity or a NaN. The CLI must answer every case with an exit code, never
a traceback, and a non-number in a numeric field must exit 2. Only types
are mutated, never magnitudes: n_shells is capped at 1000 (an 8 MB
propagator), but nothing bounds the run time that a large max_cycles
asks for. A case that stays valid runs one coarse cycle.
"""

import contextlib
import io
import json
import math
import random
import string
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
