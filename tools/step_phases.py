"""Time the phases of a run's steps.

For each case, builds its problem and ``StepSolver``, takes the first step
with ``initialize``, advances ``STEPS`` - 1 more levels and prints the
median time per step of each phase, with the preconditioner, the mean CG
iterations per solve and the mean products with the step matrix S per
solve, as a markdown table:

- defect: -dt^2 D^T P[n] (neither problem has a force);
- solve: ``StepSolver.solve``, the solve for the increment from the guess
  2 U[n] - U[n-1], the guess included: CG, or at theta = 0 the line solve
  and its residual product, which takes 0 iterations;
- pressure: the recovery P[n+1] = C^-1 D U[n+1];
- energy: ``discrete_energy``, one sample.

The phases are those of ``scheme.step``, spelled out so that each can be
timed. The last state is checked bit for bit against ``scheme.run`` of the
same problem, so the tool fails when the two part. That run, untimed, also
counts the products with S made inside each ``StepSolver.solve`` (CG's,
the V-cycle's and the line solve's residual), by wrapping ``spmv`` in the
modules that call it; the Taylor step's solve is left out, as it is from
the iterations.

Cases on the manufactured standing wave: theta = 0 at nx 32 with dt = 0.9
of the CFL bound, a stable run of the ``stability`` study, and theta = 1/4
at nx 128 with dt = 1 / (4 nx), about 0.18 h, the standing wave of the
README and the benchmark. The standing wave is one discrete eigenmode, so
CG takes 1 iteration on it, and one product with S, until rounding brings
in other modes: at nx 128 that is after about 100 of the 200 steps, and
the mean is 1.68 iterations and 2.17 products per solve. The ``hetero``
case, at theta = 0 and nx 32, is not one eigenmode: rho and lambda are
seeded log-uniform in [1/4, 4] per element, the left and right sides
DIRICHLET_P and the bottom and top NEUMANN_U, dt = 0.05 / nx, and the run
starts from U0 = P0 = 0 with the standing wave's velocity profile as V0.
At theta = 0 every solve is ``linalg.LineSolve``'s, at every grid size:
one matrix product per edge family with its shared inverse on the
standing wave's uniform material, and the LDL^T sweeps over the lines on
the hetero case's. Given grid sizes, each of the three runs at each.

Run from the root of a source checkout:

    PYTHONPATH=src python3 tools/step_phases.py [nx ...]
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from unittest import mock

import numpy as np

import mixedwave.linalg
import mixedwave.multigrid
import mixedwave.scheme
from mixedwave.linalg import spmv
from mixedwave.mesh import BoundaryKind, BoundaryPartition, build_rect_mesh
from mixedwave.scheme import ProblemSpec, SchemeState, StepSolver, ThetaConfig, discrete_energy, initialize, run
from mixedwave.spaces import MaterialField, assemble_operators, stiffness_bound
from mixedwave.verify import cfl_max_dt, make_problem, mms_standing_wave

STANDING, HETERO = "standing wave", "hetero"
CASES = ((STANDING, 0.0, 32), (STANDING, 0.25, 128), (HETERO, 0.0, 32))
STEPS = 200
CFL_FRACTION = 0.9  # of the explicit bound, one of the stability study's stable multipliers
HETERO_BOUNDS = (0.25, 4.0)
HETERO_SEED = 1
PHASES = ("defect", "solve", "pressure", "energy")


def hetero_problem(nx):
    """The ``hetero`` case's problem on an nx-by-nx grid and its time step."""
    mesh = build_rect_mesh(nx, nx)
    lo, hi = HETERO_BOUNDS
    rng = np.random.default_rng(HETERO_SEED)
    rho, lam = np.exp(rng.uniform(np.log(lo), np.log(hi), (2, mesh.n_elements)))
    dirichlet, neumann = BoundaryKind.DIRICHLET_P, BoundaryKind.NEUMANN_U
    spec = ProblemSpec(
        mesh=mesh,
        bc=BoundaryPartition(left=dirichlet, right=dirichlet, bottom=neumann, top=neumann),
        material=MaterialField(rho, lam, lo, hi, lo, hi),
        v0=mms_standing_wave().exact.velocity_profile,
    )
    return spec, 0.05 / nx


def counted_run(spec, cfg):
    """``scheme.run`` without error recording, and the products with S that
    each of its ``StepSolver.solve`` calls made."""
    products = []
    solve = StepSolver.solve

    def counting_solve(stepper, defect, guess):
        products.append(0)

        def counted(M, x):
            products[-1] += M is stepper.S
            return spmv(M, x)

        with contextlib.ExitStack() as patches:
            for module in (mixedwave.linalg, mixedwave.multigrid, mixedwave.scheme):
                patches.enter_context(mock.patch.object(module, "spmv", counted))
            return solve(stepper, defect, guess)

    with mock.patch.object(StepSolver, "solve", counting_solve):
        return run(spec, cfg, record_errors=False), products


def phase_times(case, theta, nx):
    """Median seconds per step of each of ``PHASES``, the run's
    preconditioner, and its mean CG iterations and products with S per solve."""
    if case == HETERO:
        spec, dt = hetero_problem(nx)
    else:
        spec = make_problem(mms_standing_wave(), nx)
        if theta < 0.25:
            dt = CFL_FRACTION * cfl_max_dt(theta, stiffness_bound(spec.mesh, spec.bc, spec.material))
        else:
            dt = 1.0 / (4 * nx)
    cfg = ThetaConfig.from_steps(theta, STEPS * dt, STEPS)
    dt = cfg.dt  # (STEPS dt) / STEPS, which can differ from dt in its last bit, as at nx 48
    ops = assemble_operators(spec.mesh, spec.bc, spec.material)
    stepper = StepSolver(spec, ops, cfg)
    state = initialize(stepper)
    times = []
    for _ in range(STEPS - 1):
        start = time.perf_counter()
        defect = spmv(ops.DT, state.P_curr)
        defect *= -dt**2
        defected = time.perf_counter()
        U_next = stepper.solve(defect, 2.0 * state.U_curr - state.U_prev)
        solved = time.perf_counter()
        P_next = spmv(ops.D, U_next) / ops.Cdiag
        recovered = time.perf_counter()
        state = SchemeState(state.n + 1, state.U_curr, U_next, state.P_curr, P_next)
        discrete_energy(state, ops, cfg)
        sampled = time.perf_counter()
        times.append((defected - start, solved - defected, recovered - solved, sampled - recovered))
    result, products = counted_run(spec, cfg)
    final = result.state
    if not all(np.array_equal(a, b) for a, b in ((state.U_curr, final.U_curr), (state.P_curr, final.P_curr))):
        raise SystemExit(f"{case}, theta {theta:g}, nx {nx}: the timed steps do not reproduce scheme.run")
    medians = [statistics.median(column) for column in zip(*times)]
    iterations = [solve[0] for solve in stepper.solves[1:]]  # the timed steps' solves, not the Taylor step's
    return medians, stepper.choice.split(",")[0], statistics.mean(iterations), statistics.mean(products[1:])


def main(cases):
    print("| case | theta | nx | " + " | ".join(f"{name} us" for name in PHASES)
          + " | sum us | preconditioner | CG iterations | S products per solve |")
    print("|---|---:|---:|" + "---:|" * (len(PHASES) + 1) + "---|---:|---:|")
    for case, theta, nx in cases:
        medians, choice, iterations, products = phase_times(case, theta, nx)
        cells = [f"{1e6 * s:.1f}" for s in medians] + [f"{1e6 * sum(medians):.1f}"]
        print(f"| {case} | {theta:g} | {nx} | " + " | ".join(cells) + f" | {choice} | {iterations:.2f} | {products:.2f} |")


if __name__ == "__main__":
    sizes = [int(a) for a in sys.argv[1:]]
    main([case for nx in sizes for case in ((STANDING, 0.0, nx), (STANDING, 0.25, nx), (HETERO, 0.0, nx))] if sizes else CASES)
