"""One workload in one fresh single-threaded process.

Started by run.py; not meant to be run by hand. With --setup-only it
loads the workload's configuration, prints "ready" and exits, so the
parent can time a fresh interpreter's set-up. Otherwise it prints one JSON
line: correctness, operation counts, metrics with unit and sample count,
and the host readings taken during the run.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
MIN_PASSES = 2   # untraced passes per run, so each operation has a lowest time
# Every workload's pass is about this long in reference seconds; --seconds
# is turned into a whole number of passes with it, so the amount of work in
# a run does not depend on how fast the host happens to be.
PASS_REF_S = 10.0
sys.path.insert(0, str(HERE))

from probe import Timeline  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402


def _threads():
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _metric(value, unit, n):
    return {"value": float(value), "unit": unit, "n": int(n)}


def _versions():
    import scipy
    out = {"python": sys.version.split()[0], "numpy": np.__version__,
           "scipy": scipy.__version__}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        out["blas"] = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        out["blas"] = "unknown"
    return out


def end_to_end(tl, n_passes, attempted, failed):
    """Every pass repeats the same operations, so each operation's latency
    is its lowest over the passes: host interference the probe does not
    see (bursts that slow a few hundred ms of work twofold) only ever adds
    time, and it rarely hits the same operation in two passes."""
    norm = tl.normalized()
    pass_no = np.asarray(tl.pass_no)
    is_op = np.asarray(tl.is_op)
    walls = [norm[pass_no == k].sum() for k in range(n_passes)]
    ops_ms = norm[is_op].reshape(n_passes, -1).min(axis=0) * 1e3
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": _metric(np.median(walls), "ref_s", len(walls)),
        "op_p50_ms": _metric(np.percentile(ops_ms, 50), "ref_ms", len(ops_ms)),
        "op_p95_ms": _metric(np.percentile(ops_ms, 95), "ref_ms", len(ops_ms)),
        "peak_rss_mb": _metric(rss_mb, "MB", 1),
        "ok_frac": _metric(1.0 - failed / attempted, "fraction", attempted),
    }


# (metric, kind, span names). "calls" counts the spans; "self" and "share"
# divide their summed self / inclusive time by the traced pass's work time;
# "us" and "ms" are inclusive reference time per call.
SPAN_METRICS = (
    ("particle.step.calls", "calls", ("particle.step",)),
    ("particle.step.self_share", "self", ("particle.step",)),
    ("particle.step.us", "us", ("particle.step",)),
    ("degradation.step.calls", "calls", ("degradation.step",)),
    ("degradation.step.self_share", "self", ("degradation.step",)),
    ("electrochem.voltage.calls", "calls", ("electrochem.voltage",)),
    ("electrochem.voltage.self_share", "self", ("electrochem.voltage",)),
    ("ocp.scalar.calls", "calls", ("ocp.scalar",)),
    ("ocp.scalar.self_share", "self", ("ocp.scalar",)),
    ("cell.step.calls", "calls", ("cell.step",)),
    ("cell.step.self_share", "self", ("cell.step",)),
    ("cell.step.us", "us", ("cell.step",)),
    ("protocol.step_attempts", "calls", ("cell.step",)),
    ("protocol.rollbacks", "calls", ("cell.rollback",)),
    ("protocol.control.self_share", "self",
     ("protocol.campaign", "protocol.protocol", "protocol.step.cc",
      "protocol.step.cv", "protocol.step.rest")),
    ("cell.voltage_after.calls", "calls", ("cell.voltage_after",)),
    ("cell.voltage_after.share", "share", ("cell.voltage_after",)),
    ("cell.snapshot.share", "share", ("cell.snapshot", "cell.rollback")),
    ("protocol.rpt.calls", "calls", ("protocol.rpt",)),
    ("protocol.rpt.share", "share", ("protocol.rpt",)),
    ("io.write.share", "share", ("io.write",)),
    ("measurement.esoh.calls", "calls", ("measurement.esoh",)),
    ("measurement.esoh.self_share", "self", ("measurement.esoh",)),
    ("measurement.esoh.ms", "ms", ("measurement.esoh",)),
    ("identify.unique.calls", "calls", ("identify.unique",)),
    ("identify.unique.self_share", "self", ("identify.unique",)),
    ("identify.family.calls", "calls", ("identify.family",)),
    ("identify.family.self_share", "self", ("identify.family", "identify.sample")),
    ("measurement.forward.calls", "calls", ("measurement.forward",)),
    ("measurement.forward.self_share", "self", ("measurement.forward",)),
    ("electrochem.window.calls", "calls", ("electrochem.window",)),
    ("electrochem.window.self_share", "self", ("electrochem.window",)),
    ("ocp.array.calls", "calls", ("ocp.array",)),
    ("ocp.array.self_share", "self", ("ocp.array",)),
)
UNITS = {"calls": "count", "self": "fraction", "share": "fraction",
         "us": "ref_us", "ms": "ref_ms"}


def per_layer(tracer, tl, traced, host):
    """Per-layer metrics of pass 1, traced, against pass 0, untraced."""
    names = tracer.names
    nid, parent, t0, dur, self_t = tracer.spans()
    pass_no = np.asarray(tl.pass_no)
    sel = pass_no == 1
    raw = np.asarray(tl.raw)
    norm = tl.normalized()
    wall = raw[sel].sum()                     # traced work, raw s
    seg_start = np.asarray(tl.start)[sel]
    seg = np.clip(np.searchsorted(seg_start, t0, "right") - 1, 0, len(seg_start) - 1)
    scaled = dur * tl.segment_scales()[sel][seg]
    k = len(names)
    sums = {"calls": np.bincount(nid, minlength=k).astype(float),
            "self": np.bincount(nid, weights=self_t, minlength=k) / wall,
            "share": np.bincount(nid, weights=dur, minlength=k) / wall,
            "ref": np.bincount(nid, weights=scaled, minlength=k)}

    def total(kind, span_names):
        return float(sum(sums[kind][names.index(n)] for n in span_names
                         if n in names))

    m = {}
    for metric, kind, span_names in SPAN_METRICS:
        calls = total("calls", span_names)
        if kind in ("us", "ms"):
            value = total("ref", span_names) * (1e6 if kind == "us" else 1e3)
            value = value / calls if calls else 0.0
        else:
            value = total(kind, span_names)
        m[metric] = _metric(value, UNITS[kind], calls)

    def under_cv(name):
        """Spans of `name` called directly by a CV run_step."""
        if name not in names or "protocol.step.cv" not in names:
            return 0
        is_cv = (parent >= 0) & (nid[np.maximum(parent, 0)]
                                 == names.index("protocol.step.cv"))
        return int(np.count_nonzero(is_cv & (nid == names.index(name))))

    tried, rolled = m["protocol.step_attempts"]["value"], m["protocol.rollbacks"]["value"]
    solves, trials = under_cv("cell.step"), under_cv("cell.voltage_after")
    failures = traced.get("failures", {})

    def failed(route):
        return sum(v for key, v in failures.items() if key.startswith(route + ":"))

    m["protocol.commit_ratio"] = _metric(
        (tried - rolled) / tried if tried else 0.0, "ratio", tried)
    m["protocol.cv_trials_per_solve"] = _metric(
        trials / solves if solves else 0.0, "ratio", solves)
    m["particle.distinct_dt"] = _metric(len(tracer.particle_dts), "count", 1)
    m["io.write.bytes"] = _metric(traced.get("bytes", 0), "bytes", 1)
    m["measurement.esoh.failed"] = _metric(
        failed("esoh") + traced.get("esoh_failed", 0), "count", 1)
    m["identify.unique.failed"] = _metric(failed("unique"), "count", 1)
    m["identify.family.failed"] = _metric(failed("family"), "count", 1)
    layer_total = 0.0
    for lay in LAYERS:
        share = float(sum(sums["self"][i] for i, n in enumerate(names)
                          if n.split(".")[0] == lay))
        layer_total += share
        m[f"layer.{lay}.self_share"] = _metric(share, "fraction", len(nid))
    n_seg = int(sel.sum())
    m.update({
        "bench.untraced_share": _metric(1.0 - layer_total, "fraction", n_seg),
        "bench.trace_overhead": _metric(
            norm[sel].sum() / norm[pass_no == 0].sum() - 1.0, "ratio", 2),
        "bench.raw_wall_s": _metric(raw[pass_no == 0].sum(), "s", 1),
        "bench.probe_ms": _metric(host["probe_ms_median"], "ms", len(tl.probes)),
        "bench.cpu_per_wall": _metric(host["cpu_per_wall"], "ratio", 1),
        "bench.threads": _metric(host["threads"], "count", 1),
    })
    return m


def main(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="directory for run files")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    out = Path(args.out)
    wl = WORKLOADS[args.workload](args.seed, out / f"work_{os.getpid()}")
    if args.setup_only:
        print("ready", flush=True)
        return 0

    wl.prepare()
    tl = Timeline(wl.probe_every)
    tl.warm_up()
    results = []
    problems = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    threads = _threads()
    tracer = None
    # traced: pass 0 untraced, pass 1 traced
    n_passes = 2 if args.trace else max(MIN_PASSES,
                                        round(args.seconds / PASS_REF_S))
    for k in range(n_passes):
        tl.current_pass = k
        if args.trace and k == 1:
            tracer = Tracer()
            # a span around the timeline's own bookkeeping and probe keeps
            # them out of the self time of the layer that calls back into it
            tl.close = tracer.wrap(tl.close, "bench.timeline")
            tracer.install()
            try:
                r = wl.run_pass(tl)
            finally:
                tracer.uninstall()
        else:
            r = wl.run_pass(tl)
        tl.flush()
        threads = max(threads, _threads())
        problems += wl.check(r)
        results.append(r)
    host = {"cpu_per_wall": (time.process_time() - cpu0)
            / (time.perf_counter() - wall0),
            "threads": threads,
            "probe_ms_median": float(np.median(tl.probes)) * 1e3}
    shutil.rmtree(out / f"work_{os.getpid()}", ignore_errors=True)

    attempted = int(np.count_nonzero(tl.is_op))
    failed = sum(r["failed"] for r in results)
    if args.trace:
        metrics = per_layer(tracer, tl, results[1], host)
        tracer.save(out / f"spans_{args.workload}.npz", wall0)
    else:
        metrics = end_to_end(tl, len(results), attempted, failed)
    info = _versions()
    info.update(host)
    info.update({
        "passes": len(results), "probes": len(tl.probes),
        "raw_wall_s": float(np.asarray(tl.raw).sum()),
        "failures": results[-1].get("failures", {}),
        "redrawn_inputs": getattr(wl, "redrawn", 0),
        "worst_film_error": results[-1].get("worst_film_error"),
    })
    print(json.dumps({"correct": not problems, "problems": problems[:20],
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
