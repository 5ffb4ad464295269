"""Alternating parent/change pairs of perfbench runs, written to one record.

    python3 tools/bench_pairs.py --out BENCH_<n>.json [--seconds S]
        WORKLOAD:SEED:PAIRS [WORKLOAD:SEED:PAIRS ...]

Both sides run perfbench/run.py from fresh temporary copies: the parent
is HEAD (git archive), the change this checkout's tracked and unignored
files; the parent runs first in even pairs. The record holds both shas,
the host, the kernel scipy's OpenBLAS picked (OPENBLAS_VERBOSE=2's Core
line), each run's correct flag and metrics, and per metric both medians,
the parent's quartiles and the pairs won in BENCHMARK.json's direction.
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
    ap.add_argument("groups", nargs="+", metavar="WORKLOAD:SEED:PAIRS")
    ap.add_argument("--out", required=True, type=Path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    groups = [(w, int(s), int(n)) for w, s, n in
              (g.split(":") for g in args.groups)]
    if any(n < 2 for *_, n in groups):
        ap.error("each group needs at least 2 pairs for quartiles")
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    head = git("rev-parse", "HEAD").strip()
    record = {  # an uncommitted change records HEAD; source_sha256 differs
        "parent": {"sha": head}, "change": {"sha": head, "uncommitted_src":
                                           bool(git("status", "-s", "src"))},
        "host": {"node": platform.node(), "machine": platform.machine(),
                 "nproc": os.cpu_count(), "python": platform.python_version(),
                 "blas_core": blas_core()},
        "seconds": args.seconds, "groups": []}
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: Path(tmp) / side for side in ("parent", "change")}
        export(sides["parent"], True)
        export(sides["change"], False)
        for workload, seed, n in groups:
            pairs = []   # each pair's keys in the order its sides ran
            for k in range(n):
                pairs.append({side: bench(sides[side], workload, seed,
                                          args.seconds) for side in
                              ("parent", "change")[::1 - 2 * (k % 2)]})
            record["groups"].append({
                "workload": workload, "seed": seed, "pairs": pairs,
                "summary": summary(pairs, better)})
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
