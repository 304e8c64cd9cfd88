#!/usr/bin/env python3
"""Closed-loop benchmark of ppoptics: one client, one process, one workload.

    python3 perfbench/run.py --workload thermal --seed 1 --seconds 30 --trace 0

Runs from the root of a source tree and imports the program from `src/`.
With `--trace 0` it reports the end-to-end metrics: set-up time (median of
several fresh processes that import `ppoptics.cli` and run one warm-up job),
the median and tail job latency, throughput and peak RSS.  With `--trace 1`
untraced and traced jobs alternate on the same job seeds; the traced ones
time every public function of each module (see spans.py) and give the
per-layer metrics, and both must write byte-identical outputs.

`--workload all` runs the three workloads one after the other, each in its
own process.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("thermal", "fermion", "oracle")
SETUP_RUNS = 3  # fresh processes timed for setup_s
MIN_JOBS = 20  # keeps job_tail_s (10 jobs beyond it) at or above the median
COUNT_JOBS = 3  # per-layer counts come from this many traced jobs with fixed seeds
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "throughput": "1/s",
    "peak_rss_mb": "MiB",
}


def import_program() -> float:
    """Import ppoptics.cli from this source tree; returns the import time."""
    if not (SRC / "ppoptics" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {SRC}")
    # One client in one process: OpenBLAS worker threads spin while they wait,
    # which on a small shared machine made job times track the neighbours' load.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import ppoptics.cli

    elapsed = time.perf_counter() - start
    if not Path(ppoptics.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: ppoptics was imported from {ppoptics.cli.__file__}, not {SRC}")
    return elapsed


def environment() -> dict:
    import numpy
    import scipy

    np_blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    sp_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                     if line.startswith("model name")), platform.processor()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": f"{np_blas.get('name')} {np_blas.get('version')}",
                 "scipy": f"{sp_blas.get('name')} {sp_blas.get('version')}"},
        "blas_threads": {},
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                       if k in os.environ},
    }
    # the OpenBLAS builds bundled with numpy and scipy export prefixed symbol names
    libs = {line.split()[-1] for line in open("/proc/self/maps")
            if "openblas" in line and line.rstrip().endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getattr(lib, sym).restype = ctypes.c_int
                env["blas_threads"][Path(path).name] = getattr(lib, sym)()
                break
    return env


def run_job(workload, seed, out: Path) -> dict:
    out.mkdir(parents=True)
    start = time.perf_counter()
    try:
        result, error = workload.run(seed, out), None
    except (Exception, SystemExit) as exc:  # a failed job is counted, the run goes on
        result, error = None, f"{type(exc).__name__}: {exc}"
    return {"seed": seed, "out": out, "time": time.perf_counter() - start,
            "result": result, "error": error}


def check_jobs(workload, jobs):
    """Exact per-job checks: (failed jobs, data for the pooled checks, report lines)."""
    failed, pool, lines = 0, [], []
    for job in jobs:
        fails = [job["error"]] if job["error"] else []
        job["items"] = 0
        if not fails:
            fails, job["items"], data = workload.check(job["result"], job["out"])
            pool.append(data)
        if fails:
            failed += 1
            lines.append(f"job seed {job['seed']} FAILED: {'; '.join(fails)}")
    return failed, pool, lines


def tail(times):
    """Highest percentile with at least TAIL_BEYOND jobs beyond it: (value, percentile)."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def setup_probe(workload, seed, spawned: float):
    """In a fresh process: import, one warm-up job, report time since spawn."""
    import workloads

    w = workloads.WORKLOADS[workload]
    out = ROOT / ".perfbench" / f"setup-{os.getpid()}"
    try:
        job = run_job(w, workloads.job_seed(seed, 0, stream=1), out)
        elapsed = time.monotonic() - spawned
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed, "error": job["error"]}))


def measure_setup(workload, seed, runs):
    values = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--setup-probe", repr(time.monotonic())],
            capture_output=True, text=True, timeout=150,
        )
        report = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
        if report.get("error") is not None or "setup_s" not in report:
            raise RuntimeError(f"set-up probe failed: {report or proc.stderr[-2000:]}")
        values.append(report["setup_s"])
    return statistics.median(values), values


def timed_loop(workload, seed, seconds, run_dir):
    import workloads

    jobs = []
    start = time.perf_counter()
    while len(jobs) < MIN_JOBS or time.perf_counter() - start < seconds:
        i = len(jobs)
        jobs.append(run_job(workload, workloads.job_seed(seed, i), run_dir / f"job{i}"))
    return jobs, time.perf_counter() - start


def traced_loop(workload, seed, seconds, run_dir):
    """Untraced and traced jobs on the same seeds, alternating which goes first."""
    import spans
    import workloads

    tracer = spans.Tracer()
    plain, traced, problems = [], [], []
    start = time.perf_counter()
    k = 0
    while k < COUNT_JOBS or time.perf_counter() - start < seconds:
        s = workloads.job_seed(seed, k)
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            out = run_dir / ("traced" if with_trace else "plain") / f"job{k}"
            if not with_trace:
                plain.append(run_job(workload, s, out))
                continue
            tracer.patch()
            try:
                traced.append(run_job(workload, s, out))
            finally:
                left = tracer.restore()
            if left:
                problems.append(f"not restored after job {k}: {', '.join(left)}")
        a, b = plain[-1], traced[-1]
        if not a["error"] and not b["error"]:
            da = workloads.digest(workload.outputs(a["out"]), repr(a["result"]).encode())
            db = workloads.digest(workload.outputs(b["out"]), repr(b["result"]).encode())
            if da != db:
                problems.append(f"traced output differs from untraced for job seed {s}")
        k += 1
    return tracer, plain, traced, problems


def run_workload(name, seed, seconds, trace) -> dict:
    import_s = import_program()
    sys.path.insert(0, str(HERE))
    import workloads

    env = environment()
    w = workloads.WORKLOADS[name]
    run_dir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    lines = [f"env {json.dumps(env, sort_keys=True)}"]
    try:
        if not trace:
            setup_s, setup_values = measure_setup(name, seed, SETUP_RUNS)
        # warm caches and lazy imports in this process before timing
        warm = run_job(w, workloads.job_seed(seed, 0, stream=1), run_dir / "warmup")
        if warm["error"]:
            raise RuntimeError(f"warm-up job failed: {warm['error']}")
        if trace:
            tracer, plain, traced, problems = traced_loop(w, seed, seconds, run_dir)
            failed_traced, _, traced_lines = check_jobs(w, traced)
        else:
            plain, wall = timed_loop(w, seed, seconds, run_dir)
            # before the checks, which hold every job's output in memory at once
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            traced, failed_traced, traced_lines, problems = [], 0, [], []
        # the traced jobs repeat the untraced seeds, so only the untraced ones are pooled
        failed, pool, job_lines = check_jobs(w, plain)
        failed += failed_traced
        job_lines += traced_lines
        pooled = w.pooled(pool, seed) if pool else [("pooled", False, "no job succeeded")]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if run_dir.parent.exists() and not any(run_dir.parent.iterdir()):
            run_dir.parent.rmdir()

    lines += job_lines + problems
    lines += [f"check {'ok  ' if ok else 'FAIL'} {name}.{check}: {detail}"
              for check, ok, detail in pooled]
    correct = failed == 0 and not problems and all(ok for _, ok, _ in pooled)

    if trace:
        p_plain = statistics.median(j["time"] for j in plain)
        p_traced = statistics.median(j["time"] for j in traced)
        layer = tracer.per_layer(COUNT_JOBS)
        layer["setup.import_s"] = import_s
        layer["trace.overhead_frac"] = p_traced / p_plain - 1.0
        metrics = {key: {"value": value, "unit": per_layer_unit(key)}
                   for key, value in sorted(layer.items())}
        lines.append(f"{name}: {len(traced)} traced and {len(plain)} untraced jobs; "
                     f"job p50 {p_traced:.4f} s traced vs {p_plain:.4f} s untraced; "
                     f"self times are per traced job, counts per job over the first "
                     f"{COUNT_JOBS} traced jobs")
    else:
        times = [j["time"] for j in plain]
        tail_s, pct = tail(times)
        busy = sum(times)
        values = {
            "setup_s": setup_s,
            "job_p50_s": statistics.median(times),
            "job_tail_s": tail_s,
            "throughput": sum(j["items"] for j in plain) / busy,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        lines += [
            f"{name}: {len(plain)} jobs in {wall:.2f} s, closed loop, one client",
            f"  setup_s      {values['setup_s']:.4f} s   median of {SETUP_RUNS} fresh processes "
            f"(import ppoptics.cli + one warm-up job): "
            f"{', '.join(f'{v:.4f}' for v in setup_values)}",
            f"  job_p50_s    {values['job_p50_s']:.4f} s   median of {len(plain)} jobs",
            f"  job_tail_s   {tail_s:.4f} s   p{pct:.1f} of {len(plain)} jobs "
            f"({TAIL_BEYOND} beyond it)",
            f"  throughput   {values['throughput']:.3f} 1/s   {w.items} per second of job time",
            f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MiB   ru_maxrss of this process "
            f"after the timed jobs",
            f"  fail_frac    {failed / len(plain):.4f}   {failed} of {len(plain)} jobs failed",
        ]
    return {"lines": lines, "correct": correct, "attempted": len(plain) + len(traced),
            "failed": failed, "metrics": metrics}


def per_layer_unit(key: str) -> str:
    if key.endswith("_s") or key == "samplers.s_per_point":
        return "s"
    if key.endswith("_frac"):
        return "ratio"
    if key == "samplers.csv_bytes":
        return "B"
    if key == "fock.expectation_flops":
        return "flop"
    return "count"


def run_all(args) -> dict:
    """Each workload in its own process, one at a time."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        if proc.returncode != 0 or not out:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        result = json.loads(out[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe is not None:
        import_program()
        sys.path.insert(0, str(HERE))
        setup_probe(args.workload, args.seed, args.setup_probe)
        return
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(result.pop("lines")))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
