"""Discharge a fresh cell at three rates and compare against the
quasi-static voltage curve. Writes one CSV per rate into demos/out/.
Discharge current is positive."""
from pathlib import Path

import numpy as np

import cellfade as cf
from cellfade import io as cio
from cellfade.protocol import Termination, sweep

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

params, deg = cf.default_cell()
c1 = cf.reference_capacity(params)
print("reference capacity %.3f Ah, window %.2f..%.2f V"
      % (c1, params.V_min, params.V_max))

# quasi-static reference: the OCV difference over the fresh window
cell = cf.Cell(params, deg)
w = cf.solve_window(params, cell.degradation.C_p, cell.degradation.C_n,
                    cell.n_li0)
ref = cf.synthesize_pseudo_ocv(params, w)

curves = {}
for label, rate in [("C/20", c1 / 20.0), ("C/2", c1 / 2.0), ("1C", c1)]:
    c = cf.Cell(params, deg)          # fresh cell starts at the top
    q, v = sweep(c, rate, Termination("voltage", "<=", params.V_min), 10.0)
    curves[label] = (q, v)
    cio.write_csv(OUT / ("discharge_%s.csv" % label.replace("/", "")),
                  {"q_Ah": q, "V_V": v})
    print("%-4s  delivered %.3f Ah  (%.1f%% of quasi-static)"
          % (label, q[-1], 100.0 * q[-1] / ref.capacity_Ah[-1]))

# voltage sag below the quasi-static curve at fixed depths of discharge
print("\nsag below quasi-static curve (mV):")
print("  DoD    " + "".join("%8s" % k for k in curves))
for frac in (0.25, 0.50, 0.75):
    q_at = frac * ref.capacity_Ah[-1]
    v_ref = np.interp(q_at, ref.capacity_Ah, ref.voltage)
    row = ""
    for label, (q, v) in curves.items():
        sag = (v_ref - np.interp(q_at, q, v)) * 1e3 if q[-1] >= q_at else np.nan
        row += "%8.1f" % sag
    print("  %.2f   %s" % (frac, row))

print("\nwrote %s" % ", ".join(
    sorted(p.name for p in OUT.glob("discharge_*.csv"))))
