"""Three packs, one measurement, three futures.

A second-life buyer gets the same readout from every candidate pack:
capacities, lithium inventory, one pulse resistance. That vector pins
the total film resistance but not how it splits between the porous SEI
layer and plated lithium, so a whole family of internal states fits it.
Members of that family age apart, because plated lithium feeds back on
itself and SEI does not.

Step 1 samples the family and cycles each member to retirement.
Step 2 adds the irreversible expansion reading, which weighs the films
differently than the resistance does, and recovers each member's true
split from its own aggregate vector.

Run time is a few seconds. Member capacity curves land in demos/out/.
"""
import dataclasses
import time
from importlib import resources
from pathlib import Path

import cellfade as cf
from cellfade import io as cio
from cellfade.identify import invert_with_expansion

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

t0 = time.time()
params, deg = cf.default_cell()
c1 = cf.reference_capacity(params)
y, n_members, camp, lli_budget = cio.load_ambiguity_config(
    resources.files("cellfade.data") / "ambiguity_demo.yaml", c1)
print("measurement: C_p %.3f Ah, C_n %.3f Ah, LLI %.3f, R_s %.4f ohm"
      % (y.C_p, y.C_n, y.LLI, y.R_s))
print("campaign: C/2 cycling, retire at %.0f%% of fresh capacity"
      % (100 * camp.eol_capacity_fraction))

# --- step 1: the family, and how its members age ---
report = cf.ambiguity_experiment(params, deg, y, camp,
                                 n_members=n_members, dt=60.0, dt_rest=300.0,
                                 lli_budget=lli_budget,
                                 progress=lambda s: print("  cycling", s))
e0, e1 = report["family_endpoints"]
sei_lo, sei_hi = sorted((e0[0], e1[0]))
pl_lo, pl_hi = sorted((e0[1], e1[1]))
print("\nfamily of states matching the vector: "
      "sei %.1f..%.1f nm traded against plated %.2f..%.2f nm"
      % (sei_lo * 1e9, sei_hi * 1e9, pl_lo * 1e9, pl_hi * 1e9))
print("R_s relative spread across members: %.2e (identical to the bench)"
      % report["rs_spread_rel"])

print("\nmember  d_sei_nm  d_pl_nm   R_s_ohm   expansion_um  RUL_cycles")
for i, m in enumerate(report["members"]):
    print("  %d     %7.1f  %7.2f   %.5f      %6.1f       %5d"
          % (i + 1, m["delta_sei_m"] * 1e9, m["delta_pl_m"] * 1e9,
             m["R_s_ohm"], m["delta_irr_m"] * 1e6, m["rul_cycles"]))

ruls = [m["rul_cycles"] for m in report["members"]]
gaps = sorted(abs(a - b) for i, a in enumerate(ruls) for b in ruls[i + 1:])
print("pairwise RUL gaps: %s cycles (up to %.0f%% of the best member)"
      % (gaps, 100 * max(gaps) / max(ruls)))

for i, m in enumerate(report["members"]):
    cio.write_csv(OUT / ("triage_member_%d.csv" % (i + 1)), {
        "cycle": [cyc for cyc, _ in m["capacity_curve"]],
        "capacity_Ah": [cap for _, cap in m["capacity_curve"]]})

# --- step 2: the expansion channel breaks the tie ---
print("\nwith the expansion reading added to each member's vector:")
print("member  true sei/pl (nm)      recovered sei/pl (nm)")
for i, m in enumerate(report["members"]):
    y_full = dataclasses.replace(y, delta_irr=m["delta_irr_m"])
    s = invert_with_expansion(params, deg, y_full,
                              cf.pristine_inventory(params),
                              lli_budget=lli_budget).solution
    print("  %d     %7.1f / %6.2f      %7.1f / %6.2f"
          % (i + 1, m["delta_sei_m"] * 1e9, m["delta_pl_m"] * 1e9,
             s.delta_sei * 1e9, s.delta_pl * 1e9))

print("\nwrote triage_member_*.csv, wall %.1f s" % (time.time() - t0))
