"""Command-line surface.

Subcommands: simulate, rpt, identify, ambiguity. Each computes and returns
its exit code with the files to write; main writes them and a manifest
with their content hashes. Outputs are plot-ready CSV/JSON, and the same
inputs reproduce them byte for byte.

Exit codes: 0 ok, 2 input error or unwritable --out, 3 infeasible (or
ambiguous) identification, 4 numerical failure. --out is created only
for exit 0 or 3.
"""

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from functools import partial
from pathlib import Path

from . import io as cio
from .cell import Cell
from .degradation import deep_soh
from .errors import (AmbiguousRootsError, CellfadeError, ConfigError,
                     InfeasibleError)
from .identify import (ambiguity_experiment, invert_with_expansion,
                       invert_without_expansion, sample_family)
from .measurement import forward_measure
from .params import _number, load_cell_config
from .protocol import Campaign, reference_capacity, run_campaign, run_rpt
from .electrochem import pristine_inventory

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

# input-file flags, recorded in the manifest when set
CONFIG_FLAGS = ("cell", "campaign", "protocol", "state", "measurements",
                "demo")


def _positive(kind):
    """argparse type: a finite number of kind (int or float) above zero."""
    def parse(text):
        try:
            value = _number(kind, text, "value")
            if value <= 0:
                raise ConfigError(f"value must be > 0, got {text!r}")
        except ConfigError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
        return value
    return parse


@contextmanager
def _input(where):
    """Name the input file where in a ConfigError raised by the block."""
    try:
        yield
    except ConfigError as e:
        raise ConfigError(f"{where}: {e}") from None


def _load_cell(args):
    params, deg = load_cell_config(args.cell)
    if args.state:
        cell = cio.load_state(args.state, params, deg)
    else:
        cell = Cell(params, deg)
    return params, deg, cell


def cmd_simulate(args):
    params, deg, cell = _load_cell(args)
    c1 = reference_capacity(params)
    if args.campaign:
        campaign = cio.load_campaign(args.campaign, c1)
    else:
        campaign = Campaign(cio.load_protocol(args.protocol, c1), max_cycles=1)
    if args.max_cycles is not None:
        campaign = replace(campaign, max_cycles=args.max_cycles)
    traj, rul, eol = run_campaign(cell, campaign, dt=args.dt,
                                  dt_rest=args.dt_rest)
    print(f"cycles run: {len(traj.cycles)}  rul: {rul}  eol: {eol}")
    return EXIT_OK, {
        "trajectory.csv": partial(cio.write_trajectory_csv, traj=traj),
        "cycles.json": partial(cio.write_cycles_json, traj=traj, extra={
            "rul_cycles": rul, "eol_reached": eol,
            "reference_capacity_Ah": c1}),
        "state_final.json": partial(cio.save_state, cell=cell),
    }


def cmd_rpt(args):
    params, deg, cell = _load_cell(args)
    rpt = run_rpt(cell, dt=args.dt)
    curve = rpt.pop("pseudo_ocv")
    print(f"capacity: {rpt['capacity_Ah']:.4f} Ah  "
          f"R_s: {rpt['R_s_ohm'] * 1e3:.3f} mOhm  "
          f"delta_irr: {rpt['delta_irr_m'] * 1e6:.3f} um")
    return EXIT_OK, {
        "pseudo_ocv.csv": partial(cio.write_pseudo_ocv_csv, curve=curve),
        "rpt.json": partial(cio.write_json, doc=rpt),
    }


def cmd_identify(args):
    if args.with_expansion and args.family_samples is not None:
        raise ConfigError("--family-samples applies only with "
                          "--without-expansion")
    params, deg = load_cell_config(args.cell)
    y = cio.load_measurements(args.measurements)
    n_li0 = pristine_inventory(params)
    budget = not args.no_lli_budget
    doc = {"measurements": y.as_dict()}
    code = EXIT_OK
    invert = (invert_with_expansion if args.with_expansion
              else invert_without_expansion)
    try:
        with _input(f"measurements file {args.measurements}"):
            res = invert(params, deg, y, n_li0, lli_budget=budget)
        if args.with_expansion:
            doc.update({
                "kind": "unique",
                "solution": res.solution.as_dict(),
                "deep_soh": deep_soh(params, deg, res.solution, n_li0),
                "residual": res.residual,
            })
            print("unique solution: "
                  f"delta_sei {res.solution.delta_sei * 1e9:.3f} nm, "
                  f"delta_pl {res.solution.delta_pl * 1e9:.3f} nm")
        else:
            with _input("--family-samples"):
                members = sample_family(res, y, args.family_samples or 3)
            doc.update({
                "kind": "family",
                "family_endpoints": res.family_endpoints,
                "family_span": res.family_span,
                "r_film_areal_ohm_m2": res.r_film_areal,
                "residual": res.residual,
                "samples": [
                    {"delta_sei": m.delta_sei, "delta_pl": m.delta_pl,
                     "delta_irr": forward_measure(params, deg, m, n_li0).delta_irr,
                     "deep_soh": deep_soh(params, deg, m, n_li0)}
                    for m in members],
            })
            (lo, hi) = res.family_endpoints
            print(f"family segment: ({lo[0] * 1e9:.3f} nm SEI, {lo[1] * 1e9:.3f} nm Li)"
                  f" .. ({hi[0] * 1e9:.3f} nm SEI, {hi[1] * 1e9:.3f} nm Li)")
    except AmbiguousRootsError as e:
        doc.update({
            "kind": "ambiguous",
            "candidates": [c.as_dict() for c in e.candidates],
            "error": str(e),
        })
        print(f"ambiguous: {e}", file=sys.stderr)
        code = EXIT_INFEASIBLE
    except InfeasibleError as e:
        doc.update({"kind": "infeasible", "error": str(e)})
        print(f"infeasible: {e}", file=sys.stderr)
        code = EXIT_INFEASIBLE
    return code, {"identification.json": partial(cio.write_json, doc=doc)}


def cmd_ambiguity_demo(args):
    params, deg = load_cell_config(args.cell)
    c1 = reference_capacity(params)
    y, n_members, campaign, budget = cio.load_ambiguity_config(args.demo, c1)

    with ExitStack() as stack:
        members_map = map
        workers = min(args.jobs, n_members, os.cpu_count() or 1)
        if workers > 1:
            members_map = stack.enter_context(
                ProcessPoolExecutor(max_workers=workers)).map
        with _input(f"demo config {args.demo}"):
            report = ambiguity_experiment(
                params, deg, y, campaign, n_members=n_members, dt=args.dt,
                dt_rest=args.dt_rest, lli_budget=budget,
                progress=lambda s: print(s, file=sys.stderr), map=members_map)

    curve = report.pop("pseudo_ocv")
    files = {"pseudo_ocv.csv": partial(cio.write_pseudo_ocv_csv, curve=curve),
             "ambiguity.json": partial(cio.write_json, doc=report)}
    for i, m in enumerate(report["members"]):
        degs = [d for _, d in m["degradation_curve"]]
        files[f"member_{i + 1}_capacity.csv"] = partial(cio.write_csv, columns={
            "cycle": [c for c, _ in m["capacity_curve"]],
            "capacity_Ah": [q for _, q in m["capacity_curve"]],
            "delta_sei_m": [d["delta_sei"] for d in degs],
            "delta_pl_m": [d["delta_pl"] for d in degs],
            "LLI": [d["LLI"] for d in degs]})
    ruls = [m["rul_cycles"] for m in report["members"]]
    print(f"member RULs: {ruls}  spread: "
          f"{report.get('rul_spread_rel', 0.0):.3f}")
    return EXIT_OK, files


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cellfade",
        description="Battery degradation simulation and health identification")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, state=False, dt=True):
        p.add_argument("--cell", required=True, help="cell config YAML")
        p.add_argument("--out", required=True, help="output directory")
        if dt:
            p.add_argument("--dt", type=_positive(float), default=10.0,
                           help="timestep during active steps, s")
        if state:
            p.add_argument("--state", help="resume from a state JSON")

    p = sub.add_parser("simulate", help="run an aging campaign")
    common(p, state=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--campaign", help="campaign YAML (steps + EOL settings)")
    g.add_argument("--protocol", help="protocol YAML (single pass steps)")
    p.add_argument("--dt-rest", type=_positive(float), default=60.0)
    p.add_argument("--max-cycles", type=_positive(int),
                   help="override the campaign cycle cap")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("rpt", help="reference performance test")
    common(p, state=True)
    p.set_defaults(fn=cmd_rpt)

    p = sub.add_parser("identify", help="invert a measurement vector")
    common(p, dt=False)
    p.add_argument("--measurements", required=True, help="measurement JSON")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--with-expansion", action="store_true")
    g.add_argument("--without-expansion", action="store_true")
    p.add_argument("--no-lli-budget", action="store_true",
                   help="disable the lithium-budget feasibility filter")
    p.add_argument("--family-samples", type=_positive(int),
                   help="family members to report (default 3); "
                   "--without-expansion only")
    p.set_defaults(fn=cmd_identify)

    p = sub.add_parser("ambiguity", help="same-measurement divergence demo")
    common(p)
    p.add_argument("--demo", required=True, help="demo YAML")
    p.add_argument("--dt-rest", type=_positive(float), default=60.0)
    p.add_argument("--jobs", type=_positive(int), default=1,
                   help="age the members in up to this many processes")
    p.set_defaults(fn=cmd_ambiguity_demo)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad input already; normalize other exits
        return int(e.code) if e.code else 0
    t0 = time.monotonic()
    try:
        code, files = args.fn(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasibleError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except CellfadeError as e:
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, write in files.items():
            write(out / name)
        configs = {k: getattr(args, k) for k in CONFIG_FLAGS
                   if getattr(args, k, None)}
        # seed 0: no command draws a random number
        cio.write_manifest(out, configs, 0, list(files),
                           time.monotonic() - t0)
    except OSError as e:
        print(f"error: cannot write --out {args.out}: {e}", file=sys.stderr)
        return EXIT_INPUT
    return code
