"""Time the phases of a run's set-up, before its first step.

For each grid size, builds the manufactured standing wave at theta = 1 and
dt = 8 / nx (about 5.7 h, kappa about 1.5e3, so the multigrid V-cycle is
built), and prints the median time of each set-up phase and the run's
preconditioner as a markdown table:

- assembly: ``assemble_operators`` (A, C, D and D^T);
- line solve: the first access of ``MixedOperators.line_solve``, the
  exact solve of A that theta = 0 runs build (this run, at theta = 1, does
  not use it); on the standing wave's uniform material each edge family
  holds one shared inverse, the LDL^T sweeps of one line applied to the
  identity;
- step solver: ``StepSolver``, the step matrix S and its V-cycle;
- projections: the flux interpolants of u0 and v0 (none for the standing
  wave, which starts at rest) and the element averages of p0, as
  ``initialize`` computes them;
- best approx.: ``velocity_best_approximation`` and
  ``pressure_best_approximation``, the once-per-run error projection;
- first solve: the CG solve of ``initialize``, its Taylor step.

Run from the root of a source checkout:

    PYTHONPATH=src python3 tools/setup_phases.py [nx ...]
"""

from __future__ import annotations

import statistics
import sys
import time

from mixedwave.scheme import StepSolver, ThetaConfig, initialize
from mixedwave.spaces import (
    assemble_operators,
    pressure_best_approximation,
    project_pressure_p_h,
    project_velocity_pi_h,
    velocity_best_approximation,
)
from mixedwave.verify import make_problem, mms_standing_wave

SIZES = (32, 64, 128, 256)
ROUNDS = 5
PHASES = ("assembly", "line solve", "step solver", "projections", "best approx.", "first solve")


def timed(fn, *args):
    """fn(*args) and its wall time in seconds."""
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def phase_times(nx):
    """Seconds of each of ``PHASES`` for one set-up on an nx-by-nx grid, and
    the preconditioner the run chose."""
    spec = make_problem(mms_standing_wave(), nx)
    cfg = ThetaConfig.from_steps(1.0, 1.0, max(1, nx // 8))
    ops, assembly = timed(assemble_operators, spec.mesh, spec.bc, spec.material)
    _, line_solve = timed(lambda: ops.line_solve)
    stepper, build = timed(StepSolver, spec, ops, cfg)
    mesh, cls = ops.mesh, ops.classification

    def projections():
        project_velocity_pi_h(mesh, cls, spec.u0)
        if spec.v0 is not None:
            project_velocity_pi_h(mesh, cls, spec.v0)
        project_pressure_p_h(mesh, spec.p0)

    def best_approximations():
        velocity_best_approximation(ops, spec.exact.velocity_profile)
        pressure_best_approximation(ops, spec.exact.pressure_profile)

    _, project = timed(projections)
    _, best = timed(best_approximations)
    solves = []
    solve = stepper.solve

    def timed_solve(defect, guess):
        out, seconds = timed(solve, defect, guess)
        solves.append(seconds)
        return out

    stepper.solve = timed_solve  # initialize calls it once, for U1
    initialize(stepper)
    return (assembly, line_solve, build, project, best, solves[0]), stepper.choice


def main(sizes):
    print("| nx | " + " | ".join(f"{name} ms" for name in PHASES) + " | preconditioner |")
    print("|---:|" + "---:|" * len(PHASES) + "---|")
    for nx in sizes:
        rounds = [phase_times(nx) for _ in range(ROUNDS)]
        medians = (1e3 * statistics.median(column) for column in zip(*(times for times, _ in rounds)))
        print(f"| {nx} | " + " | ".join(f"{ms:.1f}" for ms in medians) + f" | {rounds[0][1]} |")


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or SIZES)
