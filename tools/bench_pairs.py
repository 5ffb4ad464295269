"""Alternating parent/change pairs of perfbench runs, written to one record.

    python3 tools/bench_pairs.py --out BENCH_<n>.json [--seconds S]
        [--cli-pairs N] WORKLOAD:SEED:PAIRS[:SECONDS] [...]

Both sides run perfbench/run.py from fresh temporary copies: the parent
is HEAD (git archive), the change this checkout's tracked and unignored
files; the parent runs first in even pairs. A group runs for its own
SECONDS, else for --seconds (BENCHMARK.json's run_seconds by default).
With --cli-pairs N the sides also alternate N times over the user runs
in CLI, at the default dt: each run's wall time and peak RSS, read from
RUSAGE_CHILDREN in a fresh wrapper process (it keeps the largest child
so far, --jobs workers included; ru_maxrss is in KiB on Linux). The
wall time is raw seconds: probes before and after a run of many seconds
do not see the CPU speed during it, so scaling by them widens the spread
of the long runs rather than narrowing it. The record
holds both shas, the host (with whether the runs write bytecode: the
sides start without __pycache__), the kernel scipy's OpenBLAS picked
(OPENBLAS_VERBOSE=2's Core line), each run's correct flag and metrics,
and per metric both medians, the parent's quartiles and the pairs won in
BENCHMARK.json's direction.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = "src/cellfade/data/"
DEMO = DATA + "ambiguity_demo.yaml"
CLI = {  # the cellfade runs the bench does not time, in a side's root
    "simulate": ["simulate", "--campaign", DATA + "campaign_default.yaml"],
    "ambiguity": ["ambiguity", "--demo", DEMO],
    "ambiguity_jobs2": ["ambiguity", "--demo", DEMO, "--jobs", "2"],
    "identify": ["identify", "--without-expansion", "--measurements",
                 "demo_vector.json"]}
WRAP = """import json, resource, subprocess, sys, time
t = time.perf_counter()
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(json.dumps({"wall_s": time.perf_counter() - t, "peak_rss_mb":
    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}))"""
DEMO_VECTOR = ("import json, yaml; print(json.dumps(yaml.safe_load(open("
               f"{DEMO!r}))['measurement']))")   # the demo block as JSON


def git(*args, text=True):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=text,
                          capture_output=True).stdout


def export(dest, committed):
    """HEAD's files at dest if committed, else the working tree's."""
    if committed:
        with tarfile.open(fileobj=io.BytesIO(git("archive", "HEAD",
                                                 text=False))) as tar:
            return tar.extractall(dest, filter="data")
    for name in git("ls-files", "-co", "--exclude-standard").splitlines():
        if (ROOT / name).is_file():   # not deleted in the working tree
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def blas_core():   # the last Core line: numpy's OpenBLAS loads first
    err = subprocess.run([sys.executable, "-c", "from scipy.linalg import "
                          "_fblas"], text=True, capture_output=True,
                         env=dict(os.environ, OPENBLAS_VERBOSE="2")).stderr
    cores = [ln.strip() for ln in err.splitlines() if ln.startswith("Core:")]
    return cores[-1] if cores else None


def dont_write_bytecode():   # a child's flag, as the environment sets it
    return subprocess.run([sys.executable, "-c", "import sys; print(sys."
                           "flags.dont_write_bytecode)"], text=True,
                          capture_output=True, check=True).stdout == "1\n"


def bench(root, workload, seed, seconds):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=root, text=True, capture_output=True)
    if not proc.stdout.strip():
        sys.exit(f"perfbench failed in {root}:\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    info = json.loads((root / ".bench_out" / f"{workload}_seed{seed}_trace0"
                       ".json").read_text())["info"]
    return {"correct": res["correct"], "source_sha256": info["source_sha256"],
            "metrics": {k: m["value"] for k, m in res["metrics"].items()}}


def cellfade(root, name):
    """One CLI run of the side at root, in a fresh wrapper process."""
    out = root / "cli_out"
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, "-c", WRAP, sys.executable, "-m", "cellfade",
           *CLI[name], "--cell", DATA + "cell_default.yaml", "--out", out]
    proc = subprocess.run(cmd, cwd=root, text=True, capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")))
    if proc.returncode:
        sys.exit(f"cellfade {name} failed in {root}:\n{proc.stderr[-2000:]}")
    return {"metrics": json.loads(proc.stdout)}


def alternate(n, run):
    """n pairs of run(side), the parent first in even pairs; each pair's
    keys in the order its sides ran."""
    return [{side: run(side) for side in
             ("parent", "change")[::1 - 2 * (k % 2)]} for k in range(n)]


def group(text):
    """WORKLOAD:SEED:PAIRS[:SECONDS], with SECONDS None if left out."""
    workload, seed, pairs, *seconds = text.split(":")
    if len(seconds) > 1:
        raise ValueError(text)
    return workload, int(seed), int(pairs), (
        float(seconds[0]) if seconds else None)


def summary(pairs, better):
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        par = [p["parent"]["metrics"][name] for p in pairs]
        chg = [p["change"]["metrics"][name] for p in pairs]
        q1, _, q3 = statistics.quantiles(par, n=4)
        sign = -1.0 if better.get(name) == "higher" else 1.0
        won = sum(sign * (c - p) < 0.0 for p, c in zip(par, chg))
        out[name] = {"parent_median": statistics.median(par),
                     "change_median": statistics.median(chg),
                     "parent_q1": q1, "parent_q3": q3, "pairs_won": won,
                     "pairs": len(pairs)}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("groups", nargs="+", type=group,
                    metavar="WORKLOAD:SEED:PAIRS[:SECONDS]")
    ap.add_argument("--out", required=True, type=Path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--cli-pairs", type=int, default=0)
    args = ap.parse_args(argv)
    if any(g[2] < 2 for g in args.groups) or args.cli_pairs == 1:
        ap.error("each group and --cli-pairs need at least 2 pairs for "
                 "quartiles")
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    head = git("rev-parse", "HEAD").strip()
    record = {  # an uncommitted change records HEAD; source_sha256 differs
        "parent": {"sha": head}, "change": {"sha": head, "uncommitted_src":
                                           bool(git("status", "-s", "src"))},
        "host": {"node": platform.node(), "machine": platform.machine(),
                 "nproc": os.cpu_count(), "python": platform.python_version(),
                 "blas_core": blas_core(),
                 "PYTHONDONTWRITEBYTECODE":
                     os.environ.get("PYTHONDONTWRITEBYTECODE"),
                 "dont_write_bytecode": dont_write_bytecode()},
        "groups": []}
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: Path(tmp) / side for side in ("parent", "change")}
        export(sides["parent"], True)
        export(sides["change"], False)
        for workload, seed, n, seconds in args.groups:
            seconds = seconds or args.seconds
            pairs = alternate(n, lambda side: bench(
                sides[side], workload, seed, seconds))
            record["groups"].append({
                "workload": workload, "seed": seed, "seconds": seconds,
                "pairs": pairs, "summary": summary(pairs, better)})
        if args.cli_pairs:
            for root in sides.values():
                (root / "demo_vector.json").write_text(subprocess.run(
                    [sys.executable, "-c", DEMO_VECTOR], cwd=root, text=True,
                    capture_output=True, check=True).stdout)
            record["cli"] = []
            for name in CLI:
                pairs = alternate(args.cli_pairs,
                                  lambda side: cellfade(sides[side], name))
                record["cli"].append({
                    "run": name, "argv": CLI[name], "pairs": pairs,
                    "summary": summary(pairs, better)})
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
