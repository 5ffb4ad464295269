"""Answers across BLAS kernels.

The particle step's dgemv and ddot run in scipy's OpenBLAS, which picks
its kernel by CPU when it loads. Kernels round differently, so output
bytes hold on one host and one kernel; RUL, every cycle's capacity and
the state hold within REL across kernels. The test forces one kernel
through OPENBLAS_CORETYPE, so it runs only where that applies: x86-64
with scipy built on OpenBLAS.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cellfade"
REL = 1e-10
CYCLES = 50
FORCED = "Prescott"   # the oldest x86-64 kernel, far from a host's own

CAMPAIGN = f"""
import dataclasses, json
from importlib import resources

from cellfade import io
from cellfade.cell import Cell
from cellfade.params import load_cell_config
from cellfade.protocol import reference_capacity, run_campaign

data = resources.files("cellfade.data")
params, degp = load_cell_config(data / "cell_default.yaml")
campaign = dataclasses.replace(
    io.load_campaign(data / "campaign_default.yaml",
                     reference_capacity(params)),
    rpt_every=0, max_cycles={CYCLES})
cell = Cell(params, degp)
traj, rul, _ = run_campaign(cell, campaign, dt=60.0, dt_rest=300.0,
                            keep_series=False)
print(json.dumps({{
    "rul": rul,
    "capacity": [c.capacity_Ah for c in traj.cycles],
    "state": [*cell.degradation.as_dict().values(),
              *cell.particles.c_pos.tolist(),
              *cell.particles.c_neg.tolist()]}}))
"""


def _openblas():
    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas["name"].lower()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or not _openblas(),
                    reason="OPENBLAS_CORETYPE applies to x86-64 OpenBLAS")
def test_campaign_agrees_across_blas_kernels():
    runs = []
    for coretype in (None, FORCED):
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_CORETYPE"}
        env["OPENBLAS_NUM_THREADS"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        runs.append(subprocess.Popen([sys.executable, "-c", CAMPAIGN],
                                     stdout=subprocess.PIPE, text=True,
                                     env=env))
    outs = [run.communicate()[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    host, forced = map(json.loads, outs)
    assert host["rul"] == forced["rul"] == CYCLES
    spread = {}
    for key in ("capacity", "state"):
        assert len(host[key]) == len(forced[key])
        spread[key] = max((abs(a - b) / max(abs(a), abs(b))
                           for a, b in zip(host[key], forced[key]) if a != b),
                          default=0.0)
    print(f"host kernel against {FORCED}, {CYCLES} cycles at dt 60/300: "
          f"capacity spread {spread['capacity']:.2e}, state spread "
          f"{spread['state']:.2e} relative (bound {REL:g})")
    assert max(spread.values()) <= REL, spread
