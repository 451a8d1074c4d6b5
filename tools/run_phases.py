"""Time the phases of a run, from its set-up to its last step.

For each case, makes one ``scheme.run`` and times it by wrapping the names
that ``run`` calls, so what is timed is the run itself, and prints one
markdown table row. The set-up phases, in ms, each one call:

- assembly: ``assemble_operators`` (A, C, D and D^T);
- step solver: ``StepSolver``, with S and the multigrid V-cycle at
  theta = 1, and at theta = 0 the line solve of A, built at first access;
- projections: ``prepare``, the interpolants of u0, v0 and p0;
- best approx.: ``velocity_best_approximation`` and
  ``pressure_best_approximation`` of a run that records errors (the hetero
  case has no exact solution);
- first solve: the ``StepSolver.solve`` of ``initialize``, the Taylor step.

The first case of a call also pays one-time costs, such as caches filled
at first use. The per-step phases, in us, are medians over the steps:

- defect: the D^T product of ``scheme.step`` (no case has a force);
- solve: ``StepSolver.solve``, CG, or at theta = 0 the line solve and its
  residual product, with 0 iterations;
- pressure: the D product of ``scheme.step``, the recovery P = C^-1 D U;
- energy: ``discrete_energy``, one sample.

The row ends with the preconditioner and, over the same solves, the mean
CG iterations and products with S per solve: the products ``spmv`` makes
inside ``StepSolver.solve`` (CG's, the V-cycle's, the line solve's
residual).

Cases: the manufactured standing wave at theta = 0 with dt = 0.9 of the
CFL bound, a stable run of the ``stability`` study; at theta = 1/4 with
dt = 1 / (4 nx), about 0.18 h, as in the README and the benchmark; and at
theta = 1 with dt = 8 / nx, where kappa is about 1.5e3 and the V-cycle is
built. The standing wave is one discrete eigenmode, so CG takes 1
iteration and one product with S on it until rounding brings in other
modes. The ``hetero`` case, at theta = 0, is not: rho and lambda are
seeded log-uniform in [1/4, 4] per element, left and right DIRICHLET_P,
bottom and top NEUMANN_U, dt = 0.05 / nx, and the run starts from
U0 = P0 = 0 with the standing wave's velocity profile as V0. Every run
takes ``STEPS`` steps. Given grid sizes, each case runs at each.

Run from the root of a source checkout:

    PYTHONPATH=src python3 tools/run_phases.py [nx ...]
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from collections import defaultdict
from unittest import mock

import numpy as np

import mixedwave.linalg
import mixedwave.multigrid
import mixedwave.scheme as scheme
from mixedwave.linalg import spmv
from mixedwave.mesh import BoundaryKind, BoundaryPartition, build_rect_mesh
from mixedwave.scheme import ProblemSpec, StepSolver, ThetaConfig
from mixedwave.spaces import MaterialField, stiffness_bound
from mixedwave.verify import cfl_max_dt, make_problem, mms_standing_wave

STANDING, HETERO = "standing wave", "hetero"
KINDS = ((STANDING, 0.0), (STANDING, 0.25), (HETERO, 0.0), (STANDING, 1.0))
DEFAULT_SIZES = (32, 128, 32, 128)  # one per kind
STEPS = 200
CFL_FRACTION = 0.9  # of the explicit bound, one of the stability study's stable multipliers
HETERO_BOUNDS = (0.25, 4.0)
HETERO_SEED = 1
SETUP = ("assembly", "step solver", "projections", "best approx.", "first solve")
PER_STEP = ("defect", "solve", "pressure", "energy")
# The names of the scheme module that run calls, and the phase their calls add to.
TIMED = {"assemble_operators": "assembly", "StepSolver": "step solver", "prepare": "projections",
         "velocity_best_approximation": "best approx.", "pressure_best_approximation": "best approx.",
         "discrete_energy": "energy"}


def problem(case, theta, nx):
    """The problem and time step of a case on an nx-by-nx grid."""
    if case == STANDING:
        spec = make_problem(mms_standing_wave(), nx)
        if theta < 0.25:
            return spec, CFL_FRACTION * cfl_max_dt(theta, stiffness_bound(spec.mesh, spec.bc, spec.material))
        return spec, (0.25 if theta == 0.25 else 8.0) / nx  # theta = 1 takes 8 / nx
    mesh = build_rect_mesh(nx, nx)
    lo, hi = HETERO_BOUNDS
    rho, lam = np.exp(np.random.default_rng(HETERO_SEED).uniform(np.log(lo), np.log(hi), (2, mesh.n_elements)))
    dirichlet, neumann = BoundaryKind.DIRICHLET_P, BoundaryKind.NEUMANN_U
    bc = BoundaryPartition(left=dirichlet, right=dirichlet, bottom=neumann, top=neumann)
    spec = ProblemSpec(mesh, bc, MaterialField(rho, lam, lo, hi, lo, hi), v0=mms_standing_wave().exact.velocity_profile)
    return spec, 0.05 / nx


def timed_run(spec, cfg):
    """One ``scheme.run`` of spec, its seconds per call of each phase, and
    the products with S of each of its solves."""
    times, products, inside = defaultdict(list), [], {}
    solve, step = StepSolver.solve, scheme.step

    def clocked(phase, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times[phase].append(time.perf_counter() - start)
        return wrapper

    first_solve, later_solve = clocked("first solve", solve), clocked("solve", solve)
    defect_product, pressure_product = clocked("defect", spmv), clocked("pressure", spmv)

    def solving(stepper, defect, guess):
        products.append(0)
        inside["solve"] = stepper
        try:
            return (later_solve if times["first solve"] else first_solve)(stepper, defect, guess)
        finally:
            del inside["solve"]

    def stepping(state, stepper):
        inside["step"] = stepper.ops
        try:
            return step(state, stepper)
        finally:
            del inside["step"]

    def product(M, x):
        if "solve" in inside:
            products[-1] += M is inside["solve"].S
        elif "step" in inside:
            ops = inside["step"]
            if M is ops.DT:
                return defect_product(M, x)
            if M is ops.D:
                return pressure_product(M, x)
        return spmv(M, x)

    with contextlib.ExitStack() as patches:
        for name, phase in TIMED.items():
            patches.enter_context(mock.patch.object(scheme, name, clocked(phase, getattr(scheme, name))))
        patches.enter_context(mock.patch.object(scheme, "step", stepping))
        patches.enter_context(mock.patch.object(StepSolver, "solve", solving))
        for module in (mixedwave.linalg, mixedwave.multigrid, scheme):
            patches.enter_context(mock.patch.object(module, "spmv", product))
        return scheme.run(spec, cfg), times, products


def main(cases):
    print("| case | theta | nx | " + " | ".join(f"{name} ms" for name in SETUP) + " | "
          + " | ".join(f"{name} us" for name in PER_STEP) + " | preconditioner | CG iterations | S products per solve |")
    print("|---|---:|---:|" + "---:|" * (len(SETUP) + len(PER_STEP)) + "---|---:|---:|")
    for case, theta, nx in cases:
        spec, dt = problem(case, theta, nx)
        result, times, products = timed_run(spec, ThetaConfig.from_steps(theta, STEPS * dt, STEPS))
        # the means are over the steps' solves, not the Taylor step's
        cells = [case, f"{theta:g}", nx, *(f"{1e3 * sum(times[phase]):.2f}" for phase in SETUP),
                 *(f"{1e6 * statistics.median(times[phase]):.1f}" for phase in PER_STEP),
                 result.preconditioner.split(",")[0],
                 f"{result.cg_iterations[1:].mean():.2f}", f"{statistics.mean(products[1:]):.2f}"]
        print("| " + " | ".join(map(str, cells)) + " |")


if __name__ == "__main__":
    sizes = [int(a) for a in sys.argv[1:]]
    main([(*kind, nx) for nx in sizes for kind in KINDS] if sizes else [(*kind, nx) for kind, nx in zip(KINDS, DEFAULT_SIZES)])
