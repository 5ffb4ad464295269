# Cycle the default cell with the packaged campaign (C/2 cycling, RPT
# every 50 cycles, retire at 70% of fresh capacity) and tabulate how the
# internal state drifts. Writes the per-cycle record to demos/out/.
import time
from importlib import resources
from pathlib import Path

import cellfade as cf
from cellfade import io as cio

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

t0 = time.time()
params, deg = cf.default_cell()
c1 = cf.reference_capacity(params)
camp = cio.load_campaign(resources.files("cellfade.data") / "campaign_default.yaml", c1)
print("campaign: rpt every %d, eol at %.0f%%, max %d cycles"
      % (camp.rpt_every, 100 * camp.eol_capacity_fraction, camp.max_cycles))

cell = cf.Cell(params, deg)
traj, rul, eol = cf.run_campaign(cell, camp, dt=60.0, dt_rest=300.0,
                                 keep_series=False)

last = traj.cycles[-1].cycle
print("\ncycle  cap_Ah  fade%  d_sei_nm  d_pl_nm    LLI     C_p    C_n")
for rec in traj.cycles:
    if rec.cycle % 25 == 0 or rec.cycle == 1 or rec.cycle == last:
        d = rec.degradation
        print("%5d  %6.3f  %5.1f  %8.1f  %7.2f  %.4f  %.3f  %.3f"
              % (rec.cycle, rec.capacity_Ah, 100 * (1 - rec.capacity_Ah / c1),
                 d["delta_sei"] * 1e9, d["delta_pl"] * 1e9, d["LLI"],
                 d["C_p"], d["C_n"]))

print("\nreached EOL: %s after %d cycles" % (eol, rul))
for rec in traj.cycles:
    if rec.rpt is None:
        continue
    e = rec.rpt.get("esoh")
    print("RPT @ cycle %3d: cap %.3f Ah, R_s %.4f ohm, expansion %.1f um%s"
          % (rec.cycle, rec.rpt["capacity_Ah"], rec.rpt["R_s_ohm"],
             rec.rpt["delta_irr_m"] * 1e6,
             ", eSOH C_p %.3f C_n %.3f" % (e["C_p"], e["C_n"]) if e else ""))

degs = [rec.degradation for rec in traj.cycles]
cio.write_csv(OUT / "aging_campaign.csv", {
    "cycle": [rec.cycle for rec in traj.cycles],
    "capacity_Ah": [rec.capacity_Ah for rec in traj.cycles],
    "delta_sei_m": [d["delta_sei"] for d in degs],
    "delta_pl_m": [d["delta_pl"] for d in degs],
    "LLI": [d["LLI"] for d in degs],
    "C_p": [d["C_p"] for d in degs],
    "C_n": [d["C_n"] for d in degs]})
print("\nwrote aging_campaign.csv, wall %.1f s" % (time.time() - t0))
