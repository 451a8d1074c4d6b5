"""Repeat the benchmark over seeds and summarize every metric.

    python3 bench/baseline.py [--seeds 1-10] [--workloads a,b] [--trace] [--write]

Runs ``bench/run.py`` for run_seconds once per workload and seed, one
process at a time, seed by seed with the workloads interleaved so that every
workload sees the same host periods. Prints for each metric the median, the
quartiles and the interquartile spread as a share of the median
(statistics.quantiles, n=4; at least two seeds). Without --trace the metrics
are the end-to-end ones plus the raw wall-clock figures of the "info:" line,
with --trace the per-layer ones.
With --write the summary, the seeds and the environment are merged into
bench/baseline.json under "end_to_end" or "per_layer". Run from the root of
a source checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BASELINE = BENCH_DIR / "baseline.json"


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    info = json.loads(next(line for line in lines if line.startswith("info: "))[len("info: "):])
    result = json.loads(lines[-1])
    values = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
    values.update({name: (m["value"], m["unit"]) for name, m in info.get("raw", {}).items()})
    print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}", flush=True)
    return result, values, info["environment"]


def summarize(runs, bounds):
    metrics = {}
    for name, (_, unit) in runs[0][1].items():
        values = [values[name][0] for _, values, _ in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else None
        metrics[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
        bound = bounds.get(name)
        flag = "" if bound is None else f" bound {bound:g}{'  WIDE' if spread > bound / 3 else ''}"
        shown = "-" if spread is None else f"{spread:.4f}"
        print(f"  {name:36s} {med:12.6g} {unit:5s} q1 {q1:.6g} q3 {q3:.6g} spread {shown}{flag}")
    return metrics


def main():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    kind = "per_layer" if args.trace else "end_to_end"

    baseline = json.loads(BASELINE.read_text(encoding="utf-8")) if BASELINE.exists() else {}
    baseline["run_seconds"] = spec["run_seconds"]
    workloads = args.workloads.split(",")
    runs_of = {workload: [] for workload in workloads}
    for seed in args.seeds:
        for workload in workloads:
            runs_of[workload].append(run_once(workload, seed, spec["run_seconds"], args.trace))
    for workload, runs in runs_of.items():
        print(workload)
        entry = baseline.setdefault("workloads", {}).setdefault(workload, {})
        entry[kind] = {
            "seeds": args.seeds,
            "fail_ratio": sum(r["failed"] for r, _, _ in runs) / sum(r["attempted"] for r, _, _ in runs),
            "metrics": summarize(runs, bounds),
        }
        baseline["environment"] = runs[0][2]
    if args.write:
        BASELINE.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
