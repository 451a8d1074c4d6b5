"""Fast self-test of the benchmark: every workload at toy size.

    python3 bench/selftest.py

Checks, for each workload with --trace 0 and --trace 1, that the last line
holds exactly the result keys, that every metric BENCHMARK.json names is
printed with its unit, and that no operation failed. Then checks that a
hook whose target is gone is reported as a missing metric while the run
completes, that an exception while building the inputs or inside one CLI
study counts as a failed operation and still prints a result, and that the
benchmark refuses to run without the package sources. Exits 0 when every
check passes.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OUT_DIR = ROOT / ".bench_out"
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]  # for the in-process checks


def run_bench(workload, trace, cwd=ROOT, bench_dir=BENCH_DIR):
    cmd = [sys.executable, str(bench_dir / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0.5", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def check_workload(workload, trace):
    proc = run_bench(workload, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result.get("correct") is True and result.get("failed") == 0 and result.get("attempted", 0) >= 1):
        problems.append(f"fail_ratio {result.get('failed')}/{result.get('attempted')}: {proc.stderr.strip()[-500:]}")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if printed != wanted:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(printed.items()) ^ set(wanted.items()))}")
    bad = [n for n, m in result.get("metrics", {}).items() if not isinstance(m.get("value"), (int, float))]
    if bad:
        problems.append(f"non-numeric values: {bad}")
    return problems


def check_missing_hook():
    """A renamed hook target drops its metric; the unit still completes."""
    import mixedwave.scheme
    from tracer import HOOKS, Tracer
    from workloads import StandingWave

    renamed = tuple(
        (module, "schur_matrix_renamed", span) if (module, path) == ("mixedwave.scheme", "schur_matrix") else (module, path, span)
        for module, path, span in HOOKS
    )
    original = mixedwave.scheme.spmv
    workload = StandingWave(7, toy=True)
    with Tracer(renamed) as tracer:
        unit = workload.unit()
    metrics, missing = tracer.layer_metrics(1)
    problems = []
    if unit.failures:
        problems.append(f"unit failed under a missing hook: {unit.failures}")
    if missing != ["linalg.schur_matrix.ms"] or "linalg.schur_matrix.ms" in metrics:
        problems.append(f"missing metrics {missing}")
    if tracer.missing_targets != ["mixedwave.scheme.schur_matrix_renamed"]:
        problems.append(f"missing targets {tracer.missing_targets}")
    if mixedwave.scheme.spmv is not original:
        problems.append("hooks were not restored")
    return problems


def run_in_process(workload):
    """(exit code, result line) of run.main on a toy-size workload, in this process."""
    import run

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", "0", "--toy"])
    return code, json.loads(stdout.getvalue().strip().splitlines()[-1])


def check_input_exception():
    """A program that raises while the inputs are built gives correct=false, not a crash."""
    import workloads

    def broken(*args, **kwargs):
        raise RuntimeError("make_problem renamed")

    original, workloads.make_problem = workloads.make_problem, broken
    try:
        code, result = run_in_process("standing-wave-128")
    finally:
        workloads.make_problem = original
    if code != 0 or result["correct"] or (result["attempted"], result["failed"]) != (1, 1):
        return [f"input exception: exit {code}, result {result}"]
    return []


def check_study_exception():
    """A study that raises is one failed operation; the other studies still run and are timed."""
    import mixedwave.cli

    inner = mixedwave.cli.main

    def broken(argv):
        if argv[0] == "converge":
            raise RuntimeError("converge study broke")
        return inner(argv)

    mixedwave.cli.main = broken
    try:
        code, result = run_in_process("cli-studies")
    finally:
        mixedwave.cli.main = inner
    passes, rest = divmod(result["attempted"], 3)
    wanted = {m["name"] for m in SPEC["end_to_end"]}
    if code != 0 or result["correct"] or rest or result["failed"] != passes or set(result["metrics"]) != wanted:
        return [f"study exception: exit {code}, result {result}"]
    return []


def check_bare_directory():
    """Without the package sources the benchmark exits non-zero and prints no result."""
    OUT_DIR.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for rel in SPEC["paths"]:
            shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(SPEC["workloads"][0]["name"], 0, cwd=bare, bench_dir=bare / "bench")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[-200:]!r}"]
    return []


def main():
    failures = 0
    checks = [(f"{w['name']} --trace {t}", lambda w=w, t=t: check_workload(w["name"], t))
              for w in SPEC["workloads"] for t in (0, 1)]
    checks += [
        ("missing hook", check_missing_hook),
        ("exception while building inputs", check_input_exception),
        ("exception inside a study", check_study_exception),
        ("bare directory", check_bare_directory),
    ]
    for name, check in checks:
        problems = check()
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {name}")
        for p in problems:
            print(f"     {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
