"""Benchmark of the stimcf pipeline: one workload per run, one process.

    python3 perfbench/run.py --workload sweeps|apriori|hull_verify \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  With --trace 0 the run times whole passes of the workload and prints
the end-to-end metrics; with --trace 1 it alternates untraced and traced
passes and prints the per-layer metrics from the traced ones.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and metrics.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# one BLAS thread: the benchmark measures a single-threaded process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5
PROBE_TIMEOUT = 60.0
ACCURACY_UNITS = {"flat_rel_err": "1", "horizon_rel_err": "1",
                  "q_deriv_mismatch": "1", "hull_gap_cells": "cells"}


class BenchError(RuntimeError):
    pass


def import_workloads():
    """Import the package from ./src of the checkout, nothing installed."""
    if not os.path.isfile(os.path.join(SRC, "stimcf", "__init__.py")):
        raise BenchError(f"no stimcf sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import stimcf
    if not os.path.abspath(stimcf.__file__).startswith(SRC + os.sep):
        raise BenchError(f"stimcf imported from {stimcf.__file__}, not {SRC}")
    import workloads
    return workloads


def host_facts():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def run_pass(ops, inputs, log, tracer=None):
    """One pass over the operations; returns (seconds, outcomes)."""
    outcomes = []
    t_pass = time.perf_counter()
    c_pass = time.process_time()
    for name, op in ops:
        if tracer is not None:
            tracer.op = name
        t0 = time.perf_counter()
        try:
            ok, values, detail = op(inputs)
        except Exception as exc:       # a raising op is a failed op
            ok, values = False, {"raised": type(exc).__name__}
            detail = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        outcomes.append((name, ok, values))
        log(f"  op {name:<20s} {dt:8.3f} s  {'ok  ' if ok else 'FAIL'}  "
            f"{detail}")
    log(f"  cpu {time.process_time() - c_pass:.3f} s")
    return time.perf_counter() - t_pass, outcomes


def setup_probe(workload, seed):
    """Child mode: import and build the workload's inputs, print seconds."""
    wl = import_workloads()
    setup, _ = wl.WORKLOADS[workload]
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="probe-", dir=OUT)
    try:
        setup(seed, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(repr(time.perf_counter() - T_START))


def probe_setup_seconds(workload, seed):
    """Set-up time: fresh interpreters import the package and build the
    inputs; the median of SETUP_REPEATS runs."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    wl = import_workloads()
    os.makedirs(OUT, exist_ok=True)
    if args.workload not in wl.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(wl.WORKLOADS)}")
    setup, ops = wl.WORKLOADS[args.workload]

    def log(msg):
        print(msg, flush=True)

    facts = host_facts()
    log(f"host {json.dumps(facts, sort_keys=True)}")
    log(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
        f"trace {args.trace}")

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()

    passes = {"plain": [], "traced": []}
    first_values = None
    last_counts = None
    correct = True
    attempted = 0
    failed_per_pass = []
    t_measure = time.perf_counter()
    while True:
        # a traced run alternates an untraced and a traced pass
        traced = bool(args.trace) and len(passes["plain"]) > len(
            passes["traced"])
        scratch = tempfile.mkdtemp(prefix="pass-", dir=OUT)
        try:
            inputs = setup(args.seed, scratch)
            log(f"pass {len(passes['plain']) + len(passes['traced']) + 1} "
                f"({'traced' if traced else 'untraced'})")
            if traced:
                tracer.reset_counts()
                tracer.install()
                try:
                    seconds, outcomes = run_pass(ops, inputs, log, tracer)
                finally:
                    tracer.uninstall()
            else:
                seconds, outcomes = run_pass(ops, inputs, log)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        passes["traced" if traced else "plain"].append(seconds)
        if traced:
            counts = {k: v for k, v in tracer.metrics().items()
                      if v[1] == "count"}
            if passes["traced"][1:] and counts != last_counts:
                log("  per-layer counts differ between traced passes")
                correct = False
            last_counts = counts
        attempted += len(outcomes)
        failed_per_pass.append(sum(1 for _, ok, _ in outcomes if not ok))
        if first_values is None:
            first_values = outcomes
        elif outcomes != first_values:
            log("  outputs differ from the first pass")
            correct = False
        log(f"  pass {seconds:.3f} s")
        elapsed = time.perf_counter() - t_measure
        done = passes["plain"] and (passes["traced"] or not args.trace)
        per_pass = max(passes["plain"] + passes["traced"])
        if done and elapsed + per_pass > args.seconds:
            break

    # acceptance values of the workload, printed by name and unit
    report = {}
    for name, ok, values in first_values:
        for key in ("flat_rel_err", "horizon_rel_err", "hull_gap_cells"):
            if key in values:
                report[key] = float(values[key])
        if "q_deriv_mismatch" in values:
            report["q_deriv_mismatch"] = max(
                report.get("q_deriv_mismatch", 0.0),
                float(values["q_deriv_mismatch"]))
    log(f"ops_failed {failed_per_pass[0]} count (per pass: "
        f"{' '.join(map(str, failed_per_pass))})")
    for key, val in report.items():
        log(f"{key} {val!r} {ACCURACY_UNITS[key]}")

    metrics = {}
    if args.trace:
        for name, (val, unit) in tracer.metrics().items():
            metrics[name] = {"value": val, "unit": unit}
        overhead = (statistics.median(passes["traced"])
                    / statistics.median(passes["plain"]) - 1.0)
        metrics["trace.overhead"] = {"value": 100.0 * overhead, "unit": "%"}
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write(path)
        log(f"{len(tracer.spans)} spans written to {path}")
    else:
        setup_s, setup_all = probe_setup_seconds(args.workload, args.seed)
        log("setup_s samples " + " ".join(f"{t:.4f}" for t in setup_all))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": statistics.median(passes["plain"]),
                       "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    for name, m in metrics.items():
        log(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": sum(failed_per_pass), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
    except Exception:
        traceback.print_exc()
        sys.exit(1)
