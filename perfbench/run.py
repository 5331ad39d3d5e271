#!/usr/bin/env python3
"""lesionkit benchmark: fixed-seed phantom workloads, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  Workloads are described in
``workloads.py``; metric names, units and bounds in ``BENCHMARK.json``.

How a run goes:

1. Import lesionkit and build the workload's inputs from the seed three
   times (``setup_s`` is the import time plus the median build).
2. A closed loop with one client: one operation after another, each
   checked against the phantom ledger once it is done, until ``--seconds``
   have passed (at least one operation).  Single process, ``threads=1``.
   One untimed warm-up operation, checked like the others, comes first.
3. ``--trace 0`` reports the end-to-end metrics: median seconds per
   operation, patients per second, peak RSS of this process and set-up
   time.  ``--trace 1`` first runs untraced for half the time, then traced
   for the other half (at least two operations), and reports per-layer
   self times and work counts per traced operation (means, so that they
   and the residual add up to the traced operation time), and the tracing
   overhead against the untraced median of the same process.

An operation fails when it raises, when the CLI exits non-zero, when its
output disagrees with the ledger, when its output files' sha256 digests
differ from those of the run's first operation, or, when traced, when a
work count differs from the first traced operation's.  The last line of
standard output is the summary JSON object; the line before it holds the
details: environment, cohort settings, every operation time, failures,
``ops_failed_frac`` and the output digests.

The end-to-end times (``op_s_p50``, ``patients_per_s``, ``setup_s``) and
``trace.overhead_frac`` are adjusted to a fixed host speed: every timed
interval is bracketed by a short reference computation that does not use
lesionkit, and the wall times of a phase (set-up, timed loop, traced
loop) are scaled by the reference's nominal time over its mean measured
time in that phase (see ``hostspeed.py``).  A change to lesionkit moves the
adjusted times as it moves wall times; the host's slow drift cancels.
The detail line keeps the raw wall times and reference times.  Per-layer
self times are raw wall seconds of the traced operations.

Reads in ``evaluate_disk`` are served from a warm page cache: the cohort is
written just before the timed loop and the page cache cannot be dropped
without changing the machine's settings.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostspeed
from tracer import SPAN_KEYS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_TRACED_OPS = 2

# the benchmark measures one thread; keep numeric libraries to one too
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def timed(fn) -> dict:
    """Run fn() once: its wall seconds and the host references around it."""
    ref0 = hostspeed.reference_s()
    t0 = time.perf_counter()
    fn()
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "ref_s": (ref0, hostspeed.reference_s())}


def host_factor(timings) -> float:
    """`hostspeed.factor` over every reference sample of `timings`."""
    return hostspeed.factor([r for t in timings for r in t["ref_s"]])


def p50_s(ops) -> float:
    """Median operation time of `ops`, at reference host speed."""
    return statistics.median(op["wall_s"] for op in ops) * host_factor(ops)


def _import_lesionkit() -> None:
    import lesionkit
    import workloads  # noqa: F401  (imports cli, phantom, evaluation, metrics)

    if not Path(lesionkit.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: lesionkit imported from {lesionkit.__file__}, not {SRC}")


def import_package() -> dict:
    """Import lesionkit from this checkout's src/, timed as by `timed`."""
    if not (SRC / "lesionkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lesionkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    return timed(_import_lesionkit)


def environment(args) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "seed": args.seed,
        "size": args.size,
        "loop": "closed, one client, one process, threads=1",
        "page_cache": "warm: disk inputs are written just before timing and caches are not dropped",
    }


def run_loop(wl, seconds: float, first_op: int, digests: dict, failures: list,
             tracer=None, min_ops: int = 1) -> list[dict]:
    """Run operations until `seconds` have passed and at least `min_ops` ran.

    `digests` holds the run's reference output digests (set by the first
    operation that passes) and `failures` collects every failure message.
    """
    ops = []
    ref_counts = None
    start = time.perf_counter()
    i = first_op
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        errors = []
        result = None
        gc.collect()  # start every operation from the same collector state
        ref0 = hostspeed.reference_s()
        t0 = time.perf_counter()
        try:
            result = wl.run(i)
        except Exception:
            errors.append(traceback.format_exc(limit=3))
        op_s = time.perf_counter() - t0
        ref1 = hostspeed.reference_s()
        rec = {"wall_s": op_s, "ref_s": (ref0, ref1)}
        if tracer is not None:
            rec["trace"] = tracer.take_op(op_s)
            counts = rec["trace"]["counts"]
            if ref_counts is None:
                ref_counts = counts
            elif counts != ref_counts:
                diff = sorted(k for k in counts if counts[k] != ref_counts[k])
                errors.append(f"work counts differ from the first traced op: {diff}")
        if not errors:
            try:
                check_errors, got = wl.check(i, result)
                errors.extend(check_errors)
                if not check_errors:
                    if not digests:
                        digests.update(got)
                    elif got != digests:
                        errors.append("output digests differ from the run's first operation")
            except Exception:
                errors.append(traceback.format_exc(limit=3))
        rec["ok"] = not errors
        failures.extend(f"op {i}: {e}" for e in errors)
        ops.append(rec)
        i += 1
    return ops


def layer_metrics(traced: list[dict], untraced_p50: float) -> dict:
    n = len(traced)
    means = {k: sum(op["trace"]["self_s"][k] for op in traced) / n for k in SPAN_KEYS}
    counts = traced[0]["trace"]["counts"]
    op_s = sum(op["wall_s"] for op in traced) / n
    residual = sum(op["trace"]["residual_s"] for op in traced) / n
    out = dict(means)
    out.update({k: v for k, v in counts.items() if not k.startswith("cluster.filter_")})
    kept, seen = counts["cluster.filter_kept"], counts["cluster.filter_in"]
    out["cluster.kept_ratio"] = kept / seen if seen else 0.0
    out["trace.op_s"] = op_s
    out["trace.residual_s"] = residual
    out["trace.overhead_frac"] = p50_s(traced) / untraced_p50 - 1.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="lesionkit benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny cohorts for the benchmark's own test")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    imported = import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.size, args.seed, work)
        builds = [timed(wl.build) for _ in range(SETUP_REPEATS)]
        wl.prepare()

        digests, failures = {}, []
        # one untimed operation first: its first-touch page faults, allocator
        # growth and cache fills are not part of the steady state measured
        warmup = run_loop(wl, 0, 0, digests, failures)
        if args.trace:
            plain = run_loop(wl, args.seconds / 2, 1, digests, failures)
            with Tracer() as tracer:
                traced = run_loop(wl, args.seconds / 2, 1 + len(plain), digests, failures,
                                  tracer=tracer, min_ops=MIN_TRACED_OPS)
            ops = plain + traced
        else:
            ops = run_loop(wl, args.seconds, 1, digests, failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = sum(not op["ok"] for op in warmup + ops)
    if args.trace:
        untraced_p50 = p50_s(plain)
        values = layer_metrics(traced, untraced_p50)
        wanted = spec["per_layer"]
    else:
        values = {
            "op_s_p50": p50_s(ops),
            "patients_per_s": wl.n_patients * len(ops)
            / (sum(op["wall_s"] for op in ops) * host_factor(ops)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": (imported["wall_s"] + statistics.median(b["wall_s"] for b in builds))
            * host_factor([imported, *builds]),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    detail = {
        "workload": args.workload,
        "environment": environment(args),
        "inputs": wl.describe(),
        "reference_s": hostspeed.REFERENCE_S,
        "setup": {"import": imported, "builds": builds},
        "warmup_op_wall_s": warmup[0]["wall_s"],
        "op_s_samples": len(ops),
        "op_wall_s": [op["wall_s"] for op in ops],
        "op_ref_s": [op["ref_s"] for op in ops],
        "ops_failed_frac": failed / (1 + len(ops)),
        "failures": failures,
        "digests": digests,
    }
    if args.trace:
        detail["trace"] = {
            "untraced_ops": len(plain),
            "traced_ops": len(traced),
            "untraced_op_s_p50": untraced_p50,
            "spans_per_op": traced[0]["trace"]["spans"],
            # self times plus residual minus the traced op time: zero up to rounding
            "sum_check_s": sum(values[k] for k in SPAN_KEYS) + values["trace.residual_s"]
            - values["trace.op_s"],
        }
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": 1 + len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
