"""Time the multigrid V-cycle against one apply of the step matrix.

For each grid size, builds the large-step configuration of the benchmark's
hetero workload: theta = 1, dt = 4 / nx (2.83 h on the unit square), rho and
lambda log-uniform in [1/4, 4] per element (seeded), DIRICHLET_P left and
right, NEUMANN_U bottom and top. Prints as a markdown table the median time
of one ``spmv`` of S, of one V-cycle and of the ``StepSolver`` build (S, its
element blocks and the V-cycle hierarchy), the last two also in units of
the spmv(S) timed in the same round, and the mean CG iterations of
V-cycle-preconditioned solves for seeded random right-hand sides at the
default tolerance.

Run from the root of a source checkout:

    PYTHONPATH=src python3 tools/vcycle_cost.py [nx ...]
"""

from __future__ import annotations

import math
import statistics
import sys
import time

import numpy as np

from mixedwave.linalg import cg_solve, spmv
from mixedwave.mesh import BoundaryKind, BoundaryPartition, build_rect_mesh
from mixedwave.multigrid import VCycle
from mixedwave.scheme import ProblemSpec, StepSolver, ThetaConfig
from mixedwave.spaces import MaterialField, assemble_operators

SIZES = (64, 128, 256)
DIR, NEU = BoundaryKind.DIRICHLET_P, BoundaryKind.NEUMANN_U
SIDES = BoundaryPartition(left=DIR, right=DIR, bottom=NEU, top=NEU)
BOUNDS = (0.25, 4.0)
ROUNDS = 7
SOLVES = 3


def mean_time(fn, calls):
    """Mean time of one fn() over ``calls`` calls, in seconds."""
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


def costs(nx):
    """On an nx-by-nx grid: medians over ROUNDS of the seconds of spmv(S),
    one V-cycle and the step-solver build, and of the last two over the
    spmv(S) of their own round, which a drift in the host's speed between
    rounds leaves alone; then the mean CG iterations per solve."""
    rng = np.random.default_rng(nx)
    mesh = build_rect_mesh(nx, nx)
    lo, hi = BOUNDS
    rho, lam = np.exp(rng.uniform(math.log(lo), math.log(hi), (2, mesh.n_elements)))
    spec = ProblemSpec(mesh=mesh, bc=SIDES, material=MaterialField(rho, lam, lo, hi, lo, hi))
    ops = assemble_operators(mesh, spec.bc, spec.material)
    cfg = ThetaConfig.from_steps(1.0, 4.0, nx)  # dt = 4 / nx
    stepper = StepSolver(spec, ops, cfg)
    if not isinstance(stepper.preconditioner, VCycle):
        raise SystemExit(f"nx = {nx}: the step solver chose {stepper.choice}, not the V-cycle")
    S, vcycle = stepper.S, stepper.preconditioner
    b = rng.standard_normal(ops.n_velocity)
    out = np.empty_like(b)
    calls = max(1, int(2e5 // b.size))
    rounds = []
    for _ in range(ROUNDS):
        apply_s = mean_time(lambda: spmv(S, b), calls)
        cycle_s = mean_time(lambda: vcycle(b, out), max(1, calls // 10))
        build_s = mean_time(lambda: StepSolver(spec, ops, cfg), 1)
        rounds.append((apply_s, cycle_s, build_s, cycle_s / apply_s, build_s / apply_s))
    iterations = [cg_solve(S, rng.standard_normal(b.size), stepper.solver, vcycle).iterations for _ in range(SOLVES)]
    return [statistics.median(column) for column in zip(*rounds)] + [statistics.mean(iterations)]


def main(sizes):
    print("| nx | spmv(S) ms | V-cycle ms | build ms | V-cycle / spmv | build / spmv | CG iterations per solve |")
    print("|---:|---:|---:|---:|---:|---:|---:|")
    for nx in sizes:
        apply_s, cycle_s, build_s, cycle_spmv, build_spmv, iterations = costs(nx)
        print(
            f"| {nx} | {1e3 * apply_s:.3f} | {1e3 * cycle_s:.2f} | {1e3 * build_s:.1f} "
            f"| {cycle_spmv:.1f} | {build_spmv:.0f} | {iterations:.1f} |"
        )


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or SIZES)
