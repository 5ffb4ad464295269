"""The benchmark records at the repository root (BENCH_<n>.json, written
by tools/bench_pairs.py) compare only on one host and one BLAS kernel, so
each names both commits and scipy's OpenBLAS kernel, and each run holds
its correct flag and every end-to-end metric that BENCHMARK.json lists.
A record with timed CLI runs holds each side's wall time and peak RSS;
from BENCH_45.json on, the host says whether the runs wrote bytecode.
Only BENCH_45.json's CLI runs also hold a wall time in reference seconds,
scaled by probes around each run: on runs of many seconds the scaling
widened the spread, so later records keep raw seconds alone."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SHA = re.compile(r"^[0-9a-f]{40}$")


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_names_its_commits_kernel_and_metrics(path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    record = json.loads(path.read_text())
    for side in ("parent", "change"):
        assert SHA.match(record[side]["sha"]), side
    assert record["host"]["blas_core"].startswith("Core: ")
    number = int(path.stem.removeprefix("BENCH_"))
    if number >= 45:
        assert isinstance(record["host"]["dont_write_bytecode"], bool)
    assert record["groups"]
    for group in record["groups"]:
        assert group["pairs"]
        # each group's run length; the first record kept one for all
        assert group.get("seconds", record.get("seconds")) > 0
        for pair in group["pairs"]:
            for side in ("parent", "change"):
                run = pair[side]
                assert isinstance(run["correct"], bool)
                assert set(end_to_end) <= run["metrics"].keys(), side
        assert set(end_to_end) <= group["summary"].keys()
    for run in record.get("cli", []):
        assert run["pairs"], run["run"]
        for pair in run["pairs"]:
            for side in ("parent", "change"):
                metrics = pair[side]["metrics"]
                assert metrics["wall_s"] > 0.0, (run["run"], side)
                assert metrics["peak_rss_mb"] > 0.0, (run["run"], side)
                if number == 45:
                    assert metrics["wall_ref_s"] > 0.0, (run["run"], side)
                else:
                    assert "wall_ref_s" not in metrics, (run["run"], side)
        assert {"wall_s", "peak_rss_mb"} <= run["summary"].keys()


def test_the_repository_holds_a_bench_record():
    assert RECORDS
