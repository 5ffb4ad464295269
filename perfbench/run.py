"""cellfade benchmark: one workload per call, end to end or traced.

    python3 perfbench/run.py --workload campaign|ambiguity|identify \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the repository root is the parent of this directory and
the package is imported from its src/. The workload runs in a fresh child
process with single-threaded BLAS. With --trace 0 the child runs as many
fixed passes of the workload as fill --seconds reference seconds (at least
two); the end-to-end metrics are printed, with set-up time taken as the
median of SETUP_STARTS further fresh start-ups, half of them before the
timed child and half after it, so that they meet more than one of the
host's speed states. With --trace 1 the child runs one untraced pass
and one traced pass and the per-layer metrics are printed. Every pass is
checked against the physics fingerprint; a mismatch prints the result
with "correct": false and exits 1.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A record with the host readings
(thread count, CPU per wall second, versions, source digest) goes to
.bench_out/ under the repository root, next to the traced run's spans.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = HERE / "worker.py"

WORKLOADS = ("campaign", "ambiguity", "identify")
DEFAULT_SEED = 1     # the seed a change is developed against
HELDOUT_SEED = 2     # kept back to confirm a gain on inputs not tuned for
SETUP_STARTS = 7
UNTRACED_MAX = 0.10  # share of traced work the layer spans may leave out
RUN_LIMIT_S = 170.0  # all child processes of one run together
SINGLE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for k in SINGLE_THREAD:
        env[k] = "1"
    # the same string hashes, and so the same dict and set layouts, every run
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def worker_cmd(args, *extra):
    return [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--out", str(OUT), *extra]


def run_worker(args, env, deadline):
    cmd = worker_cmd(args, "--seconds", str(args.seconds),
                     "--trace", str(args.trace))
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("workload did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"workload process failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def time_setup(args, env, deadline):
    """Seconds from starting a fresh interpreter to the workload being
    ready: imports plus configuration loads."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(worker_cmd(args, "--setup-only"), env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("set-up process did not finish in time")
    if line.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"set-up process failed:\n{err.decode()[-4000:]}")
    return t1 - t0


def source_identity():
    """Git sha when the tree is a checkout, and a digest of the package
    source either way."""
    h = hashlib.sha256()
    for f in sorted((SRC / "cellfade").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {"git_sha": sha, "source_sha256": h.hexdigest()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"seed of the identify inputs; {DEFAULT_SEED} is the "
                         f"one to develop against, {HELDOUT_SEED} is held out")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cellfade" / "__init__.py").is_file():
        print(f"perfbench: no cellfade package under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()
    OUT.mkdir(exist_ok=True)
    try:
        starts = [] if args.trace else [
            time_setup(args, env, deadline) for _ in range(SETUP_STARTS // 2)]
        res = run_worker(args, env, deadline)
        if not args.trace:
            starts += [time_setup(args, env, deadline)
                       for _ in range(SETUP_STARTS - len(starts))]
            res["metrics"] = {"setup_s": {"value": statistics.median(starts),
                                          "unit": "s", "n": len(starts)},
                              **res["metrics"]}
            res["info"]["setup_starts_s"] = starts
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    info = res["info"]
    info.update(source_identity())
    info.update({"nproc": os.cpu_count(),
                 "affinity": len(os.sched_getaffinity(0))
                 if hasattr(os, "sched_getaffinity") else None,
                 "env": {k: env[k] for k in SINGLE_THREAD + ("PYTHONHASHSEED",)}})
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    for name, m in res["metrics"].items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']:9s} n={m['n']}")
    print(f"  ops attempted {res['attempted']}  failed {res['failed']} "
          f"(failed_frac {res['failed'] / res['attempted']:.4f})  "
          f"failures by route: {info['failures']}")
    print(f"  host: threads {info['threads']}  cpu/wall {info['cpu_per_wall']:.3f}  "
          f"probe {info['probe_ms_median']:.3f} ms  nproc {info['nproc']}  "
          f"python {info['python']} numpy {info['numpy']} scipy {info['scipy']} "
          f"blas {info['blas']}  git {info['git_sha']}")
    for p in res["problems"]:
        print(f"  FINGERPRINT MISMATCH: {p}")
    untraced = res["metrics"].get("bench.untraced_share")
    if untraced and untraced["value"] > UNTRACED_MAX:
        print(f"  WARNING: {untraced['value']:.3f} of the traced work is in no "
              f"layer's span (limit {UNTRACED_MAX}); the layer shares do not "
              f"account for the wall time")
    record = dict(res, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace)
    (OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in res["metrics"].items()}}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
