"""Smoke tests for the demo scripts.

Each test runs a copy of its script from tmp_path, so the script's out/
directory is written there and not in the repository. The scripts check
their own physics as they go; a test asserts only that the script runs
to the end and writes its files.
"""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script, outputs", [
    ("discharge_curves.py",
     ["discharge_C20.csv", "discharge_C2.csv", "discharge_1C.csv"]),
    ("rpt_health_readout.py", ["rpt_pseudo_ocv.csv"]),
    ("second_life_triage.py",
     ["triage_member_1.csv", "triage_member_2.csv", "triage_member_3.csv"]),
])
def test_demo_runs(tmp_path, script, outputs):
    copy = tmp_path / script
    shutil.copy(DEMOS / script, copy)
    runpy.run_path(str(copy), run_name="__main__")
    for name in outputs:
        assert (tmp_path / "out" / name).stat().st_size > 0
