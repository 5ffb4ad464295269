"""Age a cell, then read its health back out through the test bench.

The reference performance test never touches the true state: it runs on
a frozen clone and reports capacity, mid-SOC pulse resistance, expansion
and the electrode windows fitted from the pseudo-OCV curve. Compare the
fit against the internal truth it is not allowed to see.
"""
import time
from importlib import resources
from pathlib import Path

import cellfade as cf
from cellfade import io as cio

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

AGE_CYCLES = 80

t0 = time.time()
params, deg = cf.default_cell()
c1 = cf.reference_capacity(params)
steps = cio.load_protocol(resources.files("cellfade.data") / "protocol_cycle.yaml", c1)

cell = cf.Cell(params, deg)
pre = cf.Campaign(cycle_protocol=steps, rpt_every=0,
                  eol_capacity_fraction=0.01, max_cycles=AGE_CYCLES)
cf.run_campaign(cell, pre, dt=60.0, dt_rest=300.0, keep_series=False)

rpt = cf.run_rpt(cell, dt=30.0)
d = cell.degradation
w = cf.solve_window(params, d.C_p, d.C_n, cell.n_li0 * (1.0 - d.LLI))
e = rpt["esoh"]

print("after %d cycles:" % AGE_CYCLES)
print("                 truth      RPT fit")
print("  capacity_Ah   %7.4f    %7.4f" % (w.C, rpt["capacity_Ah"]))
print("  C_p           %7.4f    %7.4f" % (d.C_p, e["C_p"]))
print("  C_n           %7.4f    %7.4f" % (d.C_n, e["C_n"]))
print("  x_0           %7.4f    %7.4f" % (w.x_0, e["x_0"]))
print("  y_0           %7.4f    %7.4f" % (w.y_0, e["y_0"]))
print("  R_s pulse      %.4f ohm, expansion %.1f um"
      % (rpt["R_s_ohm"], rpt["delta_irr_m"] * 1e6))

# the probe was a frozen clone, so the cell itself did not age further
d2 = cell.degradation
assert d2.delta_sei == d.delta_sei and d2.LLI == d.LLI

cio.write_pseudo_ocv_csv(OUT / "rpt_pseudo_ocv.csv", rpt["pseudo_ocv"])
print("\nwrote rpt_pseudo_ocv.csv, wall %.1f s" % (time.time() - t0))
