"""Check that the benchmark is steady: run it on several seeds and report,
per workload and metric, the median, the quartiles and the quartile spread
as a share of the median.

    python3 perfbench/steady.py --seeds 1-10 [--workloads sweeps,apriori]
        [--trace 0|1] [--seconds S]

Runs go one at a time and interleave the workloads (seed 1 of each
workload, then seed 2, ...), so slow drift of the host spreads over all of
them.  Run from the root of a source checkout.  With --trace 1 it also
checks that every count metric repeats exactly across the runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    results = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            results[w].append(res)
            print(f"{w} seed {seed}: correct {res['correct']} attempted "
                  f"{res['attempted']} failed {res['failed']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                      if args.trace == 0 or v["unit"] != "count"), flush=True)
    print()
    for w, runs in results.items():
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            if unit == "count":
                same = all(v == vals[0] for v in vals)
                print(f"{w:12s} {name:45s} "
                      + (f"{vals[0]} repeated" if same else
                         f"NOT REPEATED {vals}"))
                continue
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"{w:12s} {name:45s} median {med:.6g} {unit} q1 {q1:.6g} "
                  f"q3 {q3:.6g} spread {spread:.2%} "
                  f"{'' if bound is None else f'bound {bound:.0%}'} {flag}")
        print(f"{w:12s} correct {all(r['correct'] for r in runs)} failed "
              f"{[r['failed'] for r in runs]}")


if __name__ == "__main__":
    main()
