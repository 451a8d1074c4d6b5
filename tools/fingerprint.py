"""Print one sha256 per case, over the outputs a refactoring must keep bit for bit.

Cases:

- ``standing-wave-128``: the benchmark's standing-wave workload, the
  manufactured standing wave at nx 128, theta = 1/4, 40 steps. Hashed: the
  energies, the error series, the CG iterations, residuals and defect norms
  of every solve, and the final U and P.
- ``hetero-<seed>`` for seeds 1-3: the benchmark's large-step workload,
  seeded heterogeneous material, mixed sides, theta = 1 at dt = 2.8 h. The
  same outputs, without errors (it records none).
- ``report <command>``: the report files of each ``mixedwave`` command that
  CI runs from the README, their bytes with the output directory replaced
  by ``<out>``.

The workloads come from ``bench/workloads.py``, which this script only
imports. The hashes depend on the numpy and BLAS build, so compare them
between two checkouts run by one interpreter on one machine: equal hashes
mean bit-identical outputs.

Run from the root of a source checkout, or from anywhere:

    python tools/fingerprint.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import mixedwave.cli  # noqa: E402
from mixedwave.scheme import run  # noqa: E402
from workloads import HeteroLargeStep, StandingWave  # noqa: E402

HETERO_SEEDS = (1, 2, 3)
# the mixedwave commands of the CI step that runs the README examples
README_COMMANDS = (
    "energy --mesh.nx 16 --mesh.ny 16 --time.dt 0.0078125 --time.T 1.0",
    "stability --scheme.theta 0 --mesh.nx 16 --mesh.ny 16",
    "run --scheme.theta 1 --mesh.nx 32 --mesh.ny 32 --time.dt 0.25 --time.T 1",
    "converge --mesh.nx 8 --problem.case forced:1",
    "energy --mesh.nx 128 --mesh.ny 128 --time.dt 0.001953125 --time.T 0.0625",
    "run --scheme.theta 1 --mesh.nx 128 --mesh.ny 128 --time.dt 0.0625 --time.T 0.25",
)


def run_digest(workload) -> str:
    """sha256 of one run of a benchmark workload's problem."""
    result = run(workload.spec, workload.cfg)
    digest = hashlib.sha256(result.status.encode())
    arrays = [
        [(s.n, s.t_half, s.value) for s in result.energies],
        result.error_u or [],
        result.error_p or [],
        result.cg_iterations,
        result.cg_residuals,
        result.defect_norms,
        result.state.U_curr,
        result.state.P_curr,
    ]
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return digest.hexdigest()


def report_digest(command: str) -> str:
    """sha256 of the report files one CLI command writes; raises on a nonzero exit."""
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = mixedwave.cli.main(command.split() + ["--output.dir", out])
        if code != 0:
            raise SystemExit(f"'mixedwave {command}' exited with {code}")
        digest = hashlib.sha256()
        for path in sorted(Path(out).iterdir()):
            digest.update(path.name.encode() + b"\0")
            digest.update(path.read_bytes().replace(out.encode(), b"<out>"))
        return digest.hexdigest()


def main() -> int:
    cases = [("standing-wave-128", lambda: run_digest(StandingWave(seed=0)))]
    cases += [(f"hetero-{seed}", lambda seed=seed: run_digest(HeteroLargeStep(seed))) for seed in HETERO_SEEDS]
    cases += [(f"report {command}", lambda command=command: report_digest(command)) for command in README_COMMANDS]
    for name, digest in cases:
        print(f"{digest()}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
