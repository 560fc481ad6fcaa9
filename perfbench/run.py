#!/usr/bin/env python3
"""Benchmark of spectre: set-up time, whole-pass wall time and peak RSS.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steady RUNS [--workload W] [--seconds S]

A run repeats whole passes of one workload for at least S seconds.  Each
pass is a fresh worker process (perfbench/worker.py), one at a time, so
every pass starts with spectre's caches and label counters empty.  The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: with --trace 0 the medians over the passes of
setup_s, wall_s and peak_rss_mb; with --trace 1 the per-layer metrics of
traced passes, which alternate with untraced ones so that the tracing
overhead (median traced minus median untraced wall_s) is measured in the
same run.  The run's record, with provenance and per-operation times,
goes to BENCH_<workload>.json (BENCH_<workload>_trace.json with spans for
a traced run) at the root of the checkout.

--steady runs the benchmark RUNS times per workload with seeds 1..RUNS
and prints each end-to-end metric's quartile spread next to its bound
from BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("spectrum", "torus", "residue", "algebra")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
RUN_LIMIT_S = 150        # start no pass that could end a run past this
PASS_TIMEOUT_S = 120


class PassFailed(Exception):
    pass


def run_pass(workload, seed, traced, workdir):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), workload, str(seed),
         "1" if traced else "0", str(workdir)],
        stdout=subprocess.PIPE, timeout=PASS_TIMEOUT_S, check=False)
    lines = proc.stdout.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{workload} pass exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("ready") - start
    result["traced"] = traced
    return result


def run(workload, seed, seconds, trace, workdir):
    """Passes until `seconds` have gone by; with tracing, untraced and
    traced passes alternate and at least one of each runs."""
    passes = []
    start = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        enough = len(passes) >= (2 if trace else 1)
        if enough and (elapsed >= seconds
                       or elapsed + longest > RUN_LIMIT_S):
            break
        t0 = time.monotonic()
        passes.append(run_pass(workload, seed, trace and len(passes) % 2 == 1,
                               workdir))
        longest = max(longest, time.monotonic() - t0)
    return passes


def summarize(passes, trace):
    outcomes = [r["outcome"] for p in passes for r in p["ops"]]
    summary = {"correct": "wrong" not in outcomes,
               "attempted": len(outcomes),
               "failed": sum(o in ("failed", "error") for o in outcomes)}
    plain = [p for p in passes if not p["traced"]]
    if not trace:
        metrics = {name: {"value": statistics.median(p[name] for p in plain),
                          "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        import tracing
        traced = [p for p in passes if p["traced"]]
        metrics = {}
        for name, unit in tracing.PER_LAYER.items():
            if name == "trace.overhead_s":
                value = (statistics.median_low(p["wall_s"] for p in traced)
                         - statistics.median_low(p["wall_s"] for p in plain))
            else:
                value = statistics.median_low(p["layers"][name]
                                              for p in traced)
            metrics[name] = {"value": value, "unit": unit}
    summary["metrics"] = metrics
    return summary


def write_record(workload, seed, seconds, trace, passes, summary):
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "result": summary,
              "provenance": passes[0]["provenance"],
              "passes": [{k: p[k] for k in ("traced", "setup_s", "wall_s",
                                            "peak_rss_mb", "ops")}
                         for p in passes]}
    if trace:
        last = [p for p in passes if p["traced"]][-1]
        origin = min((s[2] for s in last["spans"]), default=0.0)
        record["spans"] = {
            "fields": ["name", "parent", "start_s", "end_s"],
            "rows": [[n, parent, a - origin, b - origin]
                     for n, parent, a, b in last["spans"]]}
        record["layers_per_pass"] = [p["layers"] for p in passes
                                     if p["traced"]]
    suffix = "_trace" if trace else ""
    path = ROOT / f"BENCH_{workload}{suffix}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def benchmark(args):
    if not (ROOT / "src" / "spectre" / "__init__.py").is_file():
        print(f"no spectre sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        passes = run(args.workload, args.seed, args.seconds, args.trace,
                     workdir)
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:     # another run still uses it
            pass
    summary = summarize(passes, args.trace)
    write_record(args.workload, args.seed, args.seconds, args.trace, passes,
                 summary)
    print(json.dumps(summary))
    return 0


def spread(values):
    """Distance between the first and third quartile over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median, median


def steady(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    ok = True
    for workload in names:
        results = []
        for seed in range(1, args.steady + 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, check=False)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            results.append(json.loads(proc.stdout.decode().splitlines()[-1]))
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        ok &= correct and len(shares) == 1
        print(f"{workload}: correct={correct} failed shares="
              f"{sorted(f'{x:.4f}' for x in shares)}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            s, median = spread(values)
            if s < bounds[name] / 3:
                flag = "steady"
            elif s <= bounds[name]:
                flag = "within bound"
            else:
                flag = "OVER BOUND"
                ok &= name == "setup_s"     # its spread is not bounded
            print(f"  {name:12s} median {median:10.4f}  spread {s:7.2%}  "
                  f"bound {bounds[name]:.0%}  {flag}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="RUNS")
    args = ap.parse_args(argv)
    if args.steady:
        if args.steady < 2:
            ap.error("--steady needs at least 2 runs")
        return steady(args)
    if not args.workload or not args.seconds:
        ap.error("--workload and --seconds are required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
