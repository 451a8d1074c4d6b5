"""Print one sha256 per case and field, over the outputs a refactoring must keep bit for bit.

Each line is ``<sha256>  <case> <field>``, so a change that moves only some
outputs, say the energies' last bits, shows which. Cases:

- ``standing-wave-128``: the benchmark's standing-wave workload, the
  manufactured standing wave at nx 128, theta = 1/4, 40 steps. Fields: the
  run's status, the energies, the final U and P, the CG iterations,
  residuals and defect norms of every solve, and the velocity and pressure
  error series.
- ``hetero-<seed>`` for seeds 1-3: the benchmark's large-step workload,
  seeded heterogeneous material, mixed sides, theta = 1 at dt = 2.8 h. The
  same fields, without errors (it records none).
- ``report <command>``: the report files of each ``mixedwave`` command that
  CI runs from the README, then of each command of the benchmark's
  cli-studies workload that the README list lacks, one field per file, its
  bytes with the output directory replaced by ``<out>``.

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
from workloads import CliStudies, HeteroLargeStep, StandingWave  # noqa: E402

HETERO_SEEDS = (1, 2, 3)
# the mixedwave commands of the CI step that runs the README examples
README_COMMANDS = (
    "energy --mesh.nx 16 --mesh.ny 16 --time.dt 0.0078125 --time.T 1.0",
    "stability --scheme.theta 0 --mesh.nx 16 --mesh.ny 16",
    "stability --scheme.theta 0 --mesh.nx 8 --mesh.ny 8",
    "stability --scheme.theta 0.25 --mesh.nx 16 --mesh.ny 16",
    "run --scheme.theta 1 --mesh.nx 32 --mesh.ny 32 --time.dt 0.25 --time.T 1",
    "converge --mesh.nx 8 --problem.case forced:1",
    "energy --mesh.nx 128 --mesh.ny 128 --time.dt 0.001953125 --time.T 0.0625",
    "run --scheme.theta 1 --mesh.nx 128 --mesh.ny 128 --time.dt 0.0625 --time.T 0.25",
    "estimate-c0 --scheme.theta 0 --mesh.nx 64 --mesh.ny 64",
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_bytes(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def run_digests(workload) -> list:
    """(field, sha256) pairs of one run of a benchmark workload's problem."""
    result = run(workload.spec, workload.cfg)
    fields = [
        ("status", result.status.encode()),
        ("energies", array_bytes([(s.n, s.t_half, s.value) for s in result.energies])),
        ("U", array_bytes(result.state.U_curr)),
        ("P", array_bytes(result.state.P_curr)),
        ("cg_iterations", array_bytes(result.cg_iterations)),
        ("cg_residuals", array_bytes(result.cg_residuals)),
        ("defect_norms", array_bytes(result.defect_norms)),
    ]
    if result.error_u is not None:
        fields += [("error_u", array_bytes(result.error_u)), ("error_p", array_bytes(result.error_p))]
    return [(name, sha256(data)) for name, data in fields]


def report_digests(command: str) -> list:
    """(file name, sha256) pairs of the report files one CLI command writes;
    raises on a nonzero exit."""
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = mixedwave.cli.main(command.split() + ["--output.dir", out])
        if code != 0:
            raise SystemExit(f"'mixedwave {command}' exited with {code}")
        return [
            (path.name, sha256(path.read_bytes().replace(out.encode(), b"<out>")))
            for path in sorted(Path(out).iterdir())
        ]


def cli_studies_commands() -> list:
    """The commands of the cli-studies workload that ``README_COMMANDS`` lacks."""
    with tempfile.TemporaryDirectory() as scratch:  # the workload's reports would go there; it runs none here
        argvs = CliStudies(seed=0, scratch=scratch).argv.values()
    return [command for command in map(" ".join, argvs) if command not in README_COMMANDS]


def main() -> int:
    commands = [*README_COMMANDS, *cli_studies_commands()]
    cases = [("standing-wave-128", lambda: run_digests(StandingWave(seed=0)))]
    cases += [(f"hetero-{seed}", lambda seed=seed: run_digests(HeteroLargeStep(seed))) for seed in HETERO_SEEDS]
    cases += [(f"report {command}", lambda command=command: report_digests(command)) for command in commands]
    for case, digests in cases:
        for field, digest in digests():
            print(f"{digest}  {case} {field}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
