"""Time the multigrid V-cycle against one apply of the step matrix.

For each grid size, builds the large-step configuration of the benchmark's
hetero workload: theta = 1, dt = 4 / nx (2.83 h on the unit square), rho and
lambda log-uniform in [1/4, 4] per element (seeded), DIRICHLET_P left and
right, NEUMANN_U bottom and top. Prints as a markdown table the median time
of one ``spmv`` of S, of one V-cycle and of the ``StepSolver`` build (S, its
element blocks and the V-cycle hierarchy). Three parts split the V-cycle's
share of the build: the smoother colours of every level
(``multigrid._patch_colours``), the transfers P and R of every level
(``multigrid.transfers``), and the rest, the coarse grids' element blocks
and step matrices and the coarsest grid's dense inverse. The V-cycle, the
build and its three parts are printed in ms and again in units of the
spmv(S) timed in the same round, which a drift in the host's speed between
rounds, or between two runs of this script, leaves alone. Two columns trace
memory with ``tracemalloc``, in a build of its own outside the timed
rounds: the build's transient peak, the most it held above what was
allocated before it, and the bytes the ``VCycle`` holds once built (its
levels' smoothers, transfers and coarse step matrices, and the coarsest
inverse; the fine S is the step solver's). Two columns count
CG iterations per solve at the default tolerance. The first is the mean
over V-cycle-preconditioned solves for seeded random right-hand sides, each
from a zero start: it measures the V-cycle alone. The second is the mean over a
``STEPS``-step run of the same configuration from smooth compatible initial
data, where each solve starts from the projection on the run's earlier
increments (``scheme.PROJECTION_BASIS``), so its count falls over the run.

Run from the root of a source checkout:

    PYTHONPATH=src python3 tools/vcycle_cost.py [nx ...]
"""

from __future__ import annotations

import contextlib
import math
import statistics
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np

from mixedwave import multigrid, scheme
from mixedwave.linalg import cg_solve, spmv
from mixedwave.mesh import BoundaryKind, BoundaryPartition, build_rect_mesh
from mixedwave.multigrid import VCycle
from mixedwave.scheme import ProblemSpec, StepSolver, ThetaConfig, run
from mixedwave.spaces import MaterialField, assemble_operators

SIZES = (64, 128, 256)
DIR, NEU = BoundaryKind.DIRICHLET_P, BoundaryKind.NEUMANN_U
SIDES = BoundaryPartition(left=DIR, right=DIR, bottom=NEU, top=NEU)
BOUNDS = (0.25, 4.0)
ROUNDS = 7
SOLVES = 3
STEPS = 128


def mean_time(fn, calls):
    """Mean time of one fn() over ``calls`` calls, in seconds."""
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


def timed_build(spec, ops, cfg):
    """Seconds of one ``StepSolver`` build and of three parts of its V-cycle:
    the smoother colours, the transfers, and the rest of the hierarchy."""
    spent = dict.fromkeys(("colours", "transfers", "vcycle"), 0.0)

    def timed(part, fn):
        def call(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[part] += time.perf_counter() - start

        return call

    with contextlib.ExitStack() as stack:
        for part, module, name in (("colours", multigrid, "_patch_colours"), ("transfers", multigrid, "transfers"), ("vcycle", scheme, "VCycle")):
            stack.enter_context(mock.patch.object(module, name, timed(part, getattr(module, name))))
        start = time.perf_counter()
        StepSolver(spec, ops, cfg)
        build = time.perf_counter() - start
    return build, spent["colours"], spent["transfers"], spent["vcycle"] - spent["colours"] - spent["transfers"]


def traced_build(spec, ops, cfg):
    """Bytes of the transient peak of one ``StepSolver`` build, above what
    was traced before it, and of what its ``VCycle`` holds once built."""
    held = {}

    def vcycle(*args):
        before = tracemalloc.get_traced_memory()[0]
        built = VCycle(*args)
        held["vcycle"] = tracemalloc.get_traced_memory()[0] - before
        return built

    tracemalloc.start()
    try:
        with mock.patch.object(scheme, "VCycle", vcycle):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            StepSolver(spec, ops, cfg)
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - start, held["vcycle"]


def initial_data(mesh, lam):
    """Smooth u0 with u_y = 0 on the NEUMANN_U bottom and top, and
    p0 = lambda div u0 per element, so that C P0 = D U0 holds."""
    pi = math.pi

    def u0(x, y):
        return np.sin(pi * (x + 0.3)) * np.cos(pi * y), np.cos(2 * pi * x) * np.sin(pi * y)

    def p0(x, y):
        i = np.clip(((x - mesh.x0) // mesh.hx).astype(np.int64), 0, mesh.nx - 1)
        j = np.clip(((y - mesh.y0) // mesh.hy).astype(np.int64), 0, mesh.ny - 1)
        div = pi * np.cos(pi * (x + 0.3)) * np.cos(pi * y) + pi * np.cos(2 * pi * x) * np.cos(pi * y)
        return lam[j * mesh.nx + i] * div

    return u0, p0


def costs(nx):
    """On an nx-by-nx grid: medians over ROUNDS of the seconds of spmv(S),
    one V-cycle, the step-solver build and its three V-cycle parts
    (``timed_build``), and of the last four over the spmv(S) of their own
    round; then the build's traced peak and the V-cycle's held bytes
    (``traced_build``), and the mean CG iterations per solve for random
    right-hand sides and over a STEPS-step run."""
    rng = np.random.default_rng(nx)
    mesh = build_rect_mesh(nx, nx)
    lo, hi = BOUNDS
    rho, lam = np.exp(rng.uniform(math.log(lo), math.log(hi), (2, mesh.n_elements)))
    u0, p0 = initial_data(mesh, lam)
    spec = ProblemSpec(mesh=mesh, bc=SIDES, material=MaterialField(rho, lam, lo, hi, lo, hi), u0=u0, p0=p0)
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
        build_s, *parts = timed_build(spec, ops, cfg)
        rounds.append((apply_s, cycle_s, build_s, *parts, *(t / apply_s for t in (cycle_s, build_s, *parts))))
    peak, held = traced_build(spec, ops, cfg)
    iterations = [cg_solve(S, rng.standard_normal(b.size), stepper.solver, vcycle).iterations for _ in range(SOLVES)]
    in_run = run(spec, ThetaConfig.from_steps(1.0, STEPS * cfg.dt, STEPS)).cg_iterations
    return [statistics.median(column) for column in zip(*rounds)] + [peak, held, statistics.mean(iterations), in_run.mean()]


def main(sizes):
    print(
        "| nx | spmv(S) ms | V-cycle ms | build ms | colours ms | transfers ms | coarse grids ms "
        "| V-cycle / spmv | build / spmv | colours / spmv | transfers / spmv | coarse grids / spmv "
        "| build peak MB | V-cycle holds MB "
        f"| CG iterations per solve, random b | CG iterations per solve, {STEPS}-step run |"
    )
    print("|---:" * 16 + "|")
    for nx in sizes:
        apply_s, cycle_s, build_s, colours_s, transfers_s, coarse_s, cycle_spmv, build_spmv, *parts_spmv, peak, held, iterations, in_run = costs(nx)
        print(
            f"| {nx} | {1e3 * apply_s:.3f} | {1e3 * cycle_s:.2f} | {1e3 * build_s:.1f} | {1e3 * colours_s:.1f} "
            f"| {1e3 * transfers_s:.1f} | {1e3 * coarse_s:.1f} | {cycle_spmv:.1f} | {build_spmv:.0f} "
            + "".join(f"| {ratio:.1f} " for ratio in parts_spmv)
            + f"| {peak / 1e6:.2f} | {held / 1e6:.2f} | {iterations:.1f} | {in_run:.1f} |"
        )


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or SIZES)
