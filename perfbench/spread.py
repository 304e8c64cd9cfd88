#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workloads thermal,fermion,oracle --seeds 1-10

The spread is the distance between the first and third quartile of the
per-seed values (statistics.quantiles, n=4) as a share of their median; it
is compared with the metric's bound in BENCHMARK.json.  Runs go one at a
time.  `--out FILE` also writes every run's metrics and the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="thermal,fermion,oracle")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs, summary = {}, {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in args.seeds:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(lines[-1])
            result["env"] = next((json.loads(x[4:]) for x in lines if x.startswith("env ")), None)
            result["seed"], result["wall_s"] = seed, time.monotonic() - start
            runs[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall {result['wall_s']:.1f} s", flush=True)
        summary[workload] = {}
        for name in runs[workload][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            share = (q3 - q1) / med if med else None
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                                       "unit": runs[workload][0]["metrics"][name]["unit"]}
            bound = bounds.get(name)
            mark = "" if bound is None or share is None else (
                f"  bound {bound}  {'ok' if share < bound / 3 else 'WIDE' if share < bound else 'OVER'}")
            shown = "n/a" if share is None else f"{share:.4f}"
            print(f"  {workload:8s} {name:45s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {shown}{mark}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"seconds": seconds, "trace": args.trace,
                                              "summary": summary, "runs": runs}, indent=1) + "\n")


if __name__ == "__main__":
    main()
