"""The packaged ambiguity demo's measurement is the default cell's own.

ambiguity_demo.yaml freezes one field-observable vector. It must be what
the model measures after ageing the default cell 160 cycles on the demo's
cycling steps, so a change to the cell parameters cannot leave the demo
asking the model to explain a readout it would never produce. On failure
the test prints the block to paste into the YAML.
"""

from pathlib import Path

from cellfade import io as cio
from cellfade.cell import Cell
from cellfade.measurement import forward_measure
from cellfade.protocol import Campaign, reference_capacity, run_campaign

DEMO = (Path(__file__).resolve().parents[1] / "src" / "cellfade" / "data"
        / "ambiguity_demo.yaml")
MEAS_CYCLE = 160          # mid-life on the default cell, about 11% LLI
DT, DT_REST = 60.0, 300.0
FIELDS = ("C_p", "C_n", "LLI", "R_s")


def _block(y):
    return "measurement:\n" + "".join(
        f"  {k}: {getattr(y, k):.6g}\n" for k in FIELDS)


def test_packaged_demo_measurement_is_the_default_cells(params, degp):
    frozen, _, demo, _ = cio.load_ambiguity_config(
        DEMO, reference_capacity(params))
    cell = Cell(params, degp)
    aged = Campaign(cycle_protocol=demo.cycle_protocol, rpt_every=0,
                    eol_capacity_fraction=0.01, max_cycles=MEAS_CYCLE)
    traj, _, eol = run_campaign(cell, aged, dt=DT, dt_rest=DT_REST,
                                keep_series=False)
    assert len(traj.cycles) == MEAS_CYCLE and not eol
    block = _block(forward_measure(params, degp, cell.degradation,
                                   cell.n_li0))
    print(block)
    assert _block(frozen) == block, (
        f"paste into {DEMO.name}:\n{block}")
