"""mixedwave benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--toy]

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. Exit code 2 means the benchmark could not start.

Workloads (each stresses a different layer; see workloads.py):
  standing-wave-128    manufactured standing wave, nx = 128, theta = 1/4,
                       dt = 0.18 h, error recording on; CG takes 2 iterations,
                       so spaces (error norms) and set-up dominate.
  hetero-largestep-64  seeded element-wise material, mixed sides, theta = 1,
                       dt = 2.8 h; about 480 Jacobi-CG iterations per step, so
                       linalg (spmv, CG) dominates. Records no errors.
  cli-studies          cli.main for estimate-c0 (nx 64), stability (theta 0,
                       nx 32) and converge (nx 8, forced:1): many short runs,
                       power iteration, load assembly and report writing.

A unit of work is one run() call (stepping workloads) or one study
(cli-studies); a pass runs each of a workload's units once. Passes repeat
until --seconds have passed. A unit is one attempted operation.

End-to-end metrics (--trace 0). A per-pass figure is the median over the
run's units of each part, summed over the parts:
  setup_s      entry of run() to its level-0 probe: assembly, step matrix,
               projection, first step, first energy, level-0 errors; on
               cli-studies summed over the run() calls of a unit; in
               seconds at the reference kernel's nominal speed (below);
               per pass
  run_rel      wall time of a unit in units of the reference kernel around
               it; per pass
  step_p50_rel, step_p90_rel
               median and p90 of the probe-to-probe intervals for levels
               1..N, pooled over units, each in units of the reference
               kernel around its unit
  peak_rss_mb  peak resident memory of this process

The reference kernel (ReferenceKernel) is fixed numpy work timed before the
first unit and after every unit. On a shared 2-vCPU host the same code's
step times moved by up to 1.7x between runs minutes apart, and the
interquartile spread of ten runs' wall times reached 0.2-0.4 of their
median; the ratios to the kernel spread far less, so the gated times are
ratios. setup_s must be in seconds, so it is the ratio times the kernel's
nominal time (ReferenceKernel.NOMINAL_S): the set-up time on a host where
the kernel takes that long. The wall-clock forms (setup_wall_s, run_s,
step_ms_p50, step_ms_p90, reference_ms) and, on cli-studies, the study
times (estimate_c0_s, stability_s, converge_s, medians over passes) are
printed by name and go to the "info:" line, with the seed, the sample
counts and the numerical environment. fail_ratio is failed / attempted of the result line; it is 0
on a correct program and so is not a metric of its own.

With --trace 1 a plain and a traced unit of the same part alternate; the
per-layer metrics (see tracer.py) are averages per traced pass, and
trace.overhead_ratio is the traced pass time over the plain one.

Correctness gates (a failed gate or an exception counts as a failed
operation; fail_ratio = failed / attempted) are listed in workloads.py. In a
traced run the energy series (cli-studies: every report file) must match
the plain unit of the same part bit for bit, and the traced units of a part
must make the same total number of CG iterations.
"""

import os

# Pin the numerical environment before numpy loads its BLAS: one thread
# fixes the order of reductions and narrows run-to-run spread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
from collections import Counter  # noqa: E402
import ctypes  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

MIN_PASSES = 3         # medians of run_rel and setup_s need at least three samples
MIN_TRACED_PASSES = 2  # iteration totals are compared between traced units
MIN_INTERVALS = 110    # p90 with at least ten samples beyond it
TRACE_CHECKS = 2       # bit-identical output, equal CG iteration totals
MAX_OVERRUN = 3        # keeps a run inside the 180 s limit when units slow down

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_rel": "ref",
    "step_p50_rel": "ref",
    "step_p90_rel": "ref",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true", help="tiny problem sizes, for the self-test")
    return parser.parse_args(argv)


def import_package():
    """Import mixedwave from this checkout's src/; None when it is not there."""
    src = ROOT / "src"
    if not (src / "mixedwave" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import mixedwave

    if Path(mixedwave.__file__).resolve().parent != (src / "mixedwave").resolve():
        return None
    return mixedwave


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None when not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                get_threads = getattr(handle, symbol)
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return get_threads()
    return None


def failed_unit(part, log):
    """The unit that stands for work that raised: a failed operation without timings."""
    from workloads import UnitResult

    log.append(traceback.format_exc())
    return UnitResult(0.0, part, failures=["exception"])


def run_unit(workload, part, log):
    """One unit of work; an exception becomes a failed unit without timings."""
    try:
        unit = workload.unit(part)
    except Exception:  # a crash in the program under test is a failed operation
        return failed_unit(part, log)
    log.extend(unit.failures)
    return unit


def per_pass(units, value):
    """Median of value(unit) over the units of each part, summed over the parts of a pass."""
    by_part = {}
    for u in units:
        by_part.setdefault(u.part, []).append(value(u))
    return sum(statistics.median(v) for v in by_part.values())


class ReferenceKernel:
    """A fixed numpy kernel, timed between units, that measures the host's speed.

    It mixes what the workloads spend their time on (a CSR product by
    bincount, a vector update with an elementwise sine, a dot product) on
    fixed data and never calls the package, so its time changes only with
    the host. Units are divided by the mean of the kernel times just before
    and after them: a slowdown of the whole host cancels in the ratio, while
    a slower program raises it. The arrays are small, so per-call overhead
    weighs as much as in the package's loops: over five seeds a 1024-row
    kernel left an interquartile spread of run_rel of 0.04-0.08, a
    16384-row one 0.08-0.13.
    """

    N, PER_ROW, REPEATS = 1024, 7, 500
    NOMINAL_S = 0.025  # a round figure in the 21-31 ms it took on the 2-vCPU baseline host

    def __init__(self):
        rng = np.random.default_rng(0)
        self.rows = np.repeat(np.arange(self.N), self.PER_ROW)
        self.cols = np.clip(self.rows + rng.integers(-30, 31, self.rows.size), 0, self.N - 1)
        self.vals = rng.standard_normal(self.rows.size)
        self.x = rng.standard_normal(self.N)
        self()  # first touch of the arrays stays out of the timings

    def __call__(self):
        x = self.x
        start = time.perf_counter()
        for _ in range(self.REPEATS):
            y = np.bincount(self.rows, weights=self.vals * x[self.cols], minlength=self.N)
            x.dot(x + 0.5 * np.sin(y))
        return time.perf_counter() - start


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(units):
    """(gated metrics, raw wall-clock figures, sample counts) of a plain run."""
    ok = [u for u in units if u.wall_s > 0]
    intervals = [i for u in ok for i in u.intervals_ms]
    rel_intervals = [1e-3 * i / u.reference_s for u in ok for i in u.intervals_ms]
    metrics, raw = {}, {}
    if any(u.setups_s for u in ok):
        nominal = ReferenceKernel.NOMINAL_S
        metrics["setup_s"] = per_pass(ok, lambda u: sum(u.setups_s) * nominal / u.reference_s)
        raw["setup_wall_s"] = (per_pass(ok, lambda u: sum(u.setups_s)), "s")
    if ok:
        metrics["run_rel"] = per_pass(ok, lambda u: u.wall_s / u.reference_s)
        raw["run_s"] = (per_pass(ok, lambda u: u.wall_s), "s")
        raw["reference_ms"] = (1e3 * statistics.median(u.reference_s for u in ok), "ms")
        if len({u.part for u in ok}) > 1:
            raw.update({part: (statistics.median(u.wall_s for u in ok if u.part == part), "s")
                        for part in dict.fromkeys(u.part for u in ok)})
    if intervals:
        metrics["step_p50_rel"] = statistics.median(rel_intervals)
        metrics["step_p90_rel"] = p90(rel_intervals)
        raw["step_ms_p50"] = (statistics.median(intervals), "ms")
        raw["step_ms_p90"] = (p90(intervals), "ms")
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {"units": len(units), "intervals": len(intervals)}
    return metrics, raw, samples


def measure_plain(workload, seconds, log):
    """Passes until --seconds have passed, with at least MIN_PASSES passes and
    MIN_INTERVALS intervals; never past MAX_OVERRUN times --seconds."""
    reference = ReferenceKernel()
    start = time.perf_counter()
    units = []
    before = reference()
    for passes in itertools.count(1):
        for part in workload.parts:
            units.append(run_unit(workload, part, log))
            after = reference()
            units[-1].reference_s, before = 0.5 * (before + after), after
        elapsed = time.perf_counter() - start
        intervals = sum(len(u.intervals_ms) for u in units)
        enough = passes >= MIN_PASSES and intervals >= MIN_INTERVALS
        if elapsed >= MAX_OVERRUN * seconds or (elapsed >= seconds and (enough or not intervals)):
            return units


def measure_traced(workload, seconds, log, spans_path):
    """Plain and traced units of the same part alternate, so both see the same
    warm-up state. Per-layer metrics are per pass over the workload's parts."""
    from tracer import Tracer

    deadline = time.perf_counter() + seconds
    tracer = Tracer()
    plain, traced, cg_totals = [], [], {}
    passes = 0
    while time.perf_counter() < deadline or passes < MIN_TRACED_PASSES:
        for part in workload.parts:
            plain.append(run_unit(workload, part, log))
            with tracer:
                first = len(tracer.cg)
                traced.append(run_unit(workload, part, log))
                cg_totals.setdefault(part, []).append(sum(it for _, it, _ in tracer.cg[first:]))
        passes += 1
    tracer.write_spans(spans_path)
    metrics, missing = tracer.layer_metrics(passes)
    walls = [u for u in traced if u.wall_s > 0]
    plain_walls = [u for u in plain if u.wall_s > 0]
    if walls and plain_walls:
        ratio = per_pass(walls, lambda u: u.wall_s) / per_pass(plain_walls, lambda u: u.wall_s)
        metrics["trace.overhead_ratio"] = (ratio, "ratio")
    checks = []
    for part in workload.parts:
        prints = [u.fingerprint for u in plain + traced if u.part == part]
        if prints[0] is None or any(f != prints[0] for f in prints):
            checks.append(f"{part}: traced output differs from the plain unit's")
    if "linalg.cg.iters" in metrics and any(len(set(t)) != 1 for t in cg_totals.values()):
        checks.append(f"CG iteration totals differ between traced units: {cg_totals}")
    log.extend(checks)
    return plain + traced, metrics, missing, tracer.missing_targets, len(checks)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if import_package() is None:
        print(f"error: no mixedwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT_DIR))
    log = []
    try:
        setup_start = time.perf_counter()
        try:
            workload = WORKLOADS[args.workload](args.seed, toy=args.toy, scratch=scratch)
        except Exception:  # inputs the program cannot build: one failed operation
            workload, units = None, [failed_unit("inputs", log)]
        input_s = time.perf_counter() - setup_start
        checks = failed_checks = 0
        result_metrics, info = {}, {}
        if workload is not None and args.trace:
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
            units, metrics, missing, missing_targets, failed_checks = measure_traced(
                workload, args.seconds, log, spans
            )
            checks = TRACE_CHECKS
            result_metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
            info = {
                "missing_metrics": missing,
                "missing_hook_targets": missing_targets,
                "spans": str(spans.relative_to(ROOT)),
                "spmv_bytes_note": "computed from nnz and n by a CSR traffic model, not measured bandwidth",
            }
        elif workload is not None:
            units = measure_plain(workload, args.seconds, log)
            metrics, raw, samples = end_to_end(units)
            result_metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in metrics.items()}
            info = {"samples": samples, "raw": {name: {"value": v, "unit": u} for name, (v, u) in raw.items()}}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(units) + checks
    failed = sum(bool(u.failures) for u in units) + failed_checks
    info.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        input_s=input_s,
        fail_ratio=failed / attempted,
        environment=environment(),
    )
    for line, times in Counter(log).items():
        print(f"gate failed {times}x: {line}", file=sys.stderr)
    for name, m in result_metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for name, m in info.get("raw", {}).items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']} (wall clock, not gated)")
    print(f"{'fail_ratio':40s} {failed}/{attempted}")
    print("info: " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
