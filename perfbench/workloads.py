"""The three benchmark workloads.

Each workload loads its configuration when constructed (counted as set-up
time), makes its inputs in prepare() (not timed), and runs one pass of
fixed work in run_pass(timeline), marking each operation on the timeline.
check(result) compares a pass's physics with the fingerprint recorded at
the seed commit and returns the mismatches; a mismatch fails the run.

Calls into cellfade go through module attributes at call time
(``protocol.run_campaign``), so the tracer's wrappers see them.
"""

from importlib import resources
from pathlib import Path

import numpy as np

from cellfade import cell as cell_mod
from cellfade import electrochem, identify, io, measurement, params, protocol
from cellfade.degradation import (DegradationState, plated_lithium_moles,
                                  sei_lithium_moles)
from cellfade.errors import CellDeadError, CellfadeError

DT, DT_REST = 60.0, 300.0   # s; the bench timesteps of the packaged runs
REL = 1e-9                  # relative tolerance of the physics fingerprint


def _data(name):
    return resources.files("cellfade.data") / name


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class CampaignWorkload:
    """`cellfade simulate` on campaign_default.yaml: one fresh default cell
    to end of life with the series kept, then the run's files written.
    One operation per cycle."""

    probe_every = 0.0
    RUL, CYCLES, STEPS = 449, 450, 100215
    FINAL = {"LLI": 0.2542481130647833,
             "delta_sei": 2.175767240458964e-07,
             "delta_pl": 3.18716655420129e-08}

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.params, self.deg = params.load_cell_config(_data("cell_default.yaml"))
        self.c1 = protocol.reference_capacity(self.params)
        self.campaign = io.load_campaign(_data("campaign_default.yaml"), self.c1)

    def prepare(self):
        self.workdir.mkdir(parents=True, exist_ok=True)

    def run_pass(self, tl):
        out = self.workdir
        tl.mark()
        cell = cell_mod.Cell(self.params, self.deg)
        traj, rul, eol = protocol.run_campaign(
            cell, self.campaign, dt=DT, dt_rest=DT_REST,
            progress=lambda cyc, q: tl.close())
        files = ["trajectory.csv", "cycles.json", "state_final.json"]
        io.write_trajectory_csv(out / files[0], traj)
        io.write_cycles_json(out / files[1], traj, extra={
            "rul_cycles": rul, "eol_reached": eol,
            "reference_capacity_Ah": self.c1})
        io.save_state(out / files[2], cell)
        io.write_manifest(out, {"campaign": "campaign_default.yaml"},
                          self.seed, files, 0.0)
        tl.close(op=False)
        files.append("manifest.json")
        return {"rul": rul, "eol": eol, "cycles": len(traj.cycles),
                "steps": len(traj.t),
                "final": cell.degradation.as_dict(),
                "bytes": sum((out / f).stat().st_size for f in files),
                "esoh_failed": sum(1 for c in traj.cycles
                                   if c.rpt and "esoh_error" in c.rpt),
                "failed": 0}

    def check(self, r):
        bad = []
        if (r["rul"], r["cycles"], r["eol"], r["steps"]) != (
                self.RUL, self.CYCLES, True, self.STEPS):
            bad.append(f"campaign: rul {r['rul']} cycles {r['cycles']} eol "
                       f"{r['eol']} steps {r['steps']}, want {self.RUL} "
                       f"{self.CYCLES} True {self.STEPS}")
        for k, want in self.FINAL.items():
            if _rel(r["final"][k], want) > REL:
                bad.append(f"campaign: final {k} {r['final'][k]!r}, want {want!r}")
        return bad


class AmbiguityWorkload:
    """The calls ambiguity_experiment makes on ambiguity_demo.yaml, serial,
    with each member's campaign timed per cycle. One operation per
    member-cycle."""

    probe_every = 0.0
    RULS = [222, 187, 157]
    RS_SPREAD_MAX = 0.005

    def __init__(self, seed, workdir):
        self.params, self.deg = params.load_cell_config(_data("cell_default.yaml"))
        c1 = protocol.reference_capacity(self.params)
        self.y, self.n_members, self.campaign, self.budget = (
            io.load_ambiguity_config(_data("ambiguity_demo.yaml"), c1))
        self.n_li0 = electrochem.pristine_inventory(self.params)

    def prepare(self):
        pass

    def run_pass(self, tl):
        p, d, y, n_li0 = self.params, self.deg, self.y, self.n_li0
        tl.mark()
        fam = identify.invert_without_expansion(p, d, y, n_li0,
                                                lli_budget=self.budget)
        members = identify.sample_family(fam, y, self.n_members)
        w = electrochem.solve_window(p, y.C_p, y.C_n, n_li0 * (1.0 - y.LLI))
        measurement.synthesize_pseudo_ocv(p, w)
        measures = [measurement.forward_measure(p, d, m, n_li0) for m in members]
        tl.close(op=False)
        ruls, eols = [], []
        for m in members:
            tl.mark()
            _, rul, eol = protocol.run_campaign(
                cell_mod.Cell(p, d, degradation=m.copy(), n_li0=n_li0),
                self.campaign, dt=DT, dt_rest=DT_REST, keep_series=False,
                progress=lambda cyc, q: tl.close())
            tl.close(op=False)
            ruls.append(rul)
            eols.append(eol)
        rs = [m.R_s for m in measures]
        exps = [m.delta_irr for m in measures]
        return {"ruls": ruls, "eols": eols,
                "rs_spread_rel": (max(rs) - min(rs)) / max(rs),
                "expansions_distinct": len(set(np.round(exps, 15))) == len(exps),
                "failed": 0}

    def check(self, r):
        bad = []
        if r["ruls"] != self.RULS or not all(r["eols"]):
            bad.append(f"ambiguity: RULs {r['ruls']} eol {r['eols']}, "
                       f"want {self.RULS} all at EOL")
        if not r["rs_spread_rel"] < self.RS_SPREAD_MAX:
            bad.append(f"ambiguity: rs_spread_rel {r['rs_spread_rel']:.3g}")
        if not r["expansions_distinct"]:
            bad.append("ambiguity: member expansions are not distinct")
        return bad


class IdentifyWorkload:
    """Seeded field vectors through both inversion routes. One operation
    per vector: invert_with_expansion, then invert_without_expansion and
    sample_family(3); every ESOH_EVERY-th vector first fits eSOH to a
    noisy synthesized pseudo-OCV."""

    probe_every = 0.02
    N_VECTORS = 4000
    ESOH_EVERY = 10
    NOISE_MV = 0.5
    ESOH_REL = 0.02   # capacity error allowed for a fit to 0.5 mV noise

    def __init__(self, seed, workdir):
        self.seed = seed
        self.params, self.deg = params.load_cell_config(_data("cell_default.yaml"))
        self.n_li0 = electrochem.pristine_inventory(self.params)

    def prepare(self):
        """Budget-consistent random states of the default cell and their
        noiseless measurement vectors. Only draws forward_measure cannot
        place (CellDeadError) are redrawn."""
        p, d, n_li0 = self.params, self.deg, self.n_li0
        rng = np.random.default_rng(self.seed)
        self.inputs = []
        self.redrawn = 0
        while len(self.inputs) < self.N_VECTORS:
            d_sei = rng.uniform(5e-9, 250e-9)
            d_pl = rng.uniform(0.0, 50e-9)
            film = (sei_lithium_moles(p, d.sei, d_sei)
                    + plated_lithium_moles(p, d.plating, d_pl))
            state = DegradationState(
                d_sei, d_pl, p.C_p_nom * rng.uniform(0.8, 1.0),
                p.C_n_nom * rng.uniform(0.8, 1.0),
                film / n_li0 + rng.uniform(0.0, 0.15))
            try:
                y = measurement.forward_measure(p, d, state, n_li0)
            except CellDeadError:
                self.redrawn += 1
                continue
            curve = None
            if len(self.inputs) % self.ESOH_EVERY == 0:
                w = electrochem.solve_window(p, state.C_p, state.C_n,
                                             n_li0 * (1.0 - state.LLI))
                curve = measurement.synthesize_pseudo_ocv(
                    p, w, noise_mv=self.NOISE_MV, rng=rng)
            self.inputs.append((state, y, curve))

    def run_pass(self, tl):
        p, d, n_li0 = self.params, self.deg, self.n_li0
        failures = {}
        problems = []
        failed = 0
        worst = 0.0

        def fail(route, e):
            key = f"{route}:{type(e).__name__}"
            failures[key] = failures.get(key, 0) + 1

        for state, y, curve in self.inputs:
            esoh = uniq = fam = None
            ok = True
            tl.mark()
            if curve is not None:
                try:
                    esoh = measurement.extract_esoh(curve, p)
                except CellfadeError as e:
                    fail("esoh", e)
                    ok = False
            try:
                uniq = identify.invert_with_expansion(p, d, y, n_li0)
            except CellfadeError as e:
                fail("unique", e)
                ok = False
            try:
                fam = identify.invert_without_expansion(p, d, y, n_li0)
                identify.sample_family(fam, y, 3)
            except CellfadeError as e:
                fail("family", e)
                ok = False
            tl.close()
            failed += not ok
            # checked outside the timed operation; touches no cellfade code
            if uniq is not None:
                scale = max(state.delta_sei, state.delta_pl)
                err = max(abs(uniq.solution.delta_sei - state.delta_sei),
                          abs(uniq.solution.delta_pl - state.delta_pl)) / scale
                worst = max(worst, err)
                if not uniq.residual["ok"] or not err <= REL:
                    problems.append(f"identify: unique route gave films off by "
                                    f"{err:.3g} (residual {uniq.residual})")
            if fam is not None and not fam.residual["ok"]:
                problems.append(f"identify: family residual {fam.residual}")
            if esoh is not None:
                err = max(_rel(esoh.C_p, state.C_p), _rel(esoh.C_n, state.C_n))
                if not err <= self.ESOH_REL:
                    problems.append(f"identify: eSOH capacities off by {err:.3g}")
        return {"problems": problems, "worst_film_error": worst,
                "failures": failures, "failed": failed}

    def check(self, r):
        return r["problems"]


WORKLOADS = {"campaign": CampaignWorkload, "ambiguity": AmbiguityWorkload,
             "identify": IdentifyWorkload}
