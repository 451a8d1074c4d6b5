"""Three-level theta time stepping for the displacement-pressure wave system.

The scheme advances the velocity by

    A (U[n+1] - 2 U[n] + U[n-1]) = dt^2 (F[n,theta] - D^T P[n,theta])

with the theta-averages X[n,theta] = theta X[n+1] + (1-2theta) X[n] + theta X[n-1],
and recovers P[n+1] = C^{-1} D U[n+1] by explicit division: the half-sum
constraint C P^{n+1/2} = D U^{n+1/2} telescopes to an equality at every
level because the initial data are projected so that the defect C P0 - D U0
vanishes. theta = 0 gives the explicit leapfrog variant (the solve
degenerates to a mass solve); theta >= 1/4 is unconditionally stable.

Each step solves for the increment from the guess G = 2 U[n] - U[n-1]:

    S (U[n+1] - G) = dt^2 (F[n,theta] - D^T P[n]),   S = A + theta dt^2 D^T C^{-1} D.

Derivation: write P[n+1] = C^{-1} D U[n+1] in the theta-average and move its
term to the left, which gives S U[n+1] = A G - dt^2 D^T ((1-2theta) P[n] +
theta P[n-1]) + dt^2 F[n,theta]. Subtracting S G, the A G terms cancel and
theta dt^2 D^T C^{-1} D G = theta dt^2 D^T (2 P[n] - P[n-1]) merges with the
pressure term, because every level ends with P = C^{-1} D U. The defect is
one D^T product, and it carries no cancellation of two large products.

The first step comes from a Taylor expansion of the initial state and uses
the same SPD operator, so stepping never touches a saddle-point system.

A run of a ``ThetaConfig`` (theta, dt, N) builds one ``StepSolver``, the
context of ``initialize`` and ``step``: the operator with its preconditioner,
the CG settings, the force's loads and the record of every solve (``solves``).
What does not depend on dt, the assembled operators and the projected
initial data, is a ``RunSetup``, which runs of one spec at several dt can
share (``run``).
At theta = 0 the step matrix is the mass matrix A, which is block diagonal
along grid lines (``linalg.LineSolve``). Every solve of such a run, at
every grid size, is then exact: the operators factor A's lines once
(``MixedOperators.line_solve``), and a solve is one forward and one
backward sweep over the lines of each edge family, or one matrix product
with a family's shared inverse where all its lines have the same block,
as on uniform material. It runs no CG: it records 0 iterations and the
true residual of one product with A, and the CG settings do not apply to
it. Every theta > 0 keeps CG.
Jacobi-CG needs more iterations the more the grad-div term outweighs the
mass term; their ratio is bounded by kappa = theta dt^2 mu_max, with
mu_max the closed-form bound of ``spaces.stiffness_bound`` on the largest
eigenvalue of the divergence problem. Below ``MULTIGRID_MIN_KAPPA`` every
solve of the run is preconditioned by one ``linalg.Jacobi`` of S, built
with the step solver, so no solve checks the diagonal or divides by it
again. When kappa reaches that threshold and the grid coarsens, CG is
preconditioned by the multigrid V-cycle instead.

Every solve of a run has the same S; only the defect changes. On the
multigrid path each solve therefore starts from the S-orthogonal projection
of its solution onto the span of the run's earlier increments (Fischer's
projection for successive right-hand sides: P. F. Fischer, Comput. Methods
Appl. Mech. Engrg. 163, 1998, 193-204; ``linalg.SolutionProjection``), with
an S-orthonormal basis of up to ``PROJECTION_BASIS`` increments that
restarts from the newest one when full. CG then spends V-cycles only on
what is new in each step, so the ``cg_iterations`` column of a run falls
over the run (on the benchmark's hetero workload from 13 to 5 or 6 over its
16 solves) and jumps back at each restart. This is not a warm start from
the previous increment alone, which saved under 0.4 iterations per solve.
The Jacobi path keeps its zero start: a solve of the standing wave or of
the CLI studies takes 1 to 5 iterations there (15 in a run that blows up),
and the projection's two products with S and 4K dot products and vector
updates per solve, for a basis of K vectors, would cost more than it saves.
A solve from zero that stops after one iteration, as every solve of the
README standing wave over its first 40 steps at nx 128 does, also makes
only one product with S (``linalg.cg_solve``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .linalg import (
    CsrMatrix,
    GridStepMatrix,
    InputError,
    Jacobi,
    SolutionProjection,
    SolverConfig,
    cg_solve,
    spmv,
)
from .mesh import BoundaryPartition, EdgeClassification, RectMesh
from .multigrid import VCycle, coarsens
from .spaces import (
    MaterialField,
    MixedOperators,
    assemble_load,
    assemble_operators,
    element_blocks,
    pressure_best_approximation,
    pressure_l2_error,
    project_pressure_p_h,
    project_velocity_pi_h,
    schur_matrix,
    stiffness_bound,
    velocity_best_approximation,
    velocity_l2_error,
)

BLOWUP_THRESHOLD = 1e12  # sup-norm guard on velocity coefficients
MAX_STEPS = 10**7  # longest run ThetaConfig accepts; a larger count means a mistyped dt
# Largest steps x free velocity dofs a run accepts. A step cost about 50 ns
# per free dof on the benchmark's Jacobi workload and 1.0-1.4 us on its
# multigrid one (CHANGES.md), so a run at the cap takes 10 minutes to 4
# hours; 10^7 steps on a 256 x 256 grid (1.3e12) would take days.
MAX_STEP_DOFS = 10**10
MULTIGRID_MIN_KAPPA = 500.0  # measured crossover of Jacobi-CG and multigrid-CG run times
PROJECTION_BASIS = 32  # earlier increments a multigrid solve's start is projected on (measured, CHANGES.md)
# Largest dt^2 lambda1 / (rho0 hx hy), the squared Courant number, that a run
# accepts. The grad-div term of the step matrix and the defect scale with it;
# at 1e100 their squares in CG's inner products stay below 1e200, well inside
# the float range (about 1.8e308).
MAX_COURANT_SQUARED = 1e100

COMPLETED = "Completed"
BLOWUP = "BlowUp"


class CompatibilityWarning(UserWarning):
    """Initial pressure is not the stiffness-weighted divergence of the initial velocity."""


@dataclass(frozen=True)
class ThetaConfig:
    """Time discretization: theta in [0,1] and N steps of size dt, up to T = N*dt.

    Rejects a dt whose square overflows (the step matrix scales by dt^2), a
    step count that is not an integer (a bool included) and more than
    ``MAX_STEPS`` steps, so such inputs fail before any work. Every
    rejection is an ``InputError`` naming ``"theta"`` or ``"dt"``.
    """

    theta: float
    dt: float
    num_steps: int

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise InputError("theta", f"theta must lie in [0, 1], got {self.theta}")
        if self.dt <= 0:
            raise InputError("dt", "dt must be positive")
        if not math.isfinite(self.dt * self.dt):
            raise InputError("dt", f"dt^2 is not finite (dt = {self.dt})")
        if isinstance(self.num_steps, bool) or not isinstance(self.num_steps, (int, np.integer)):
            raise InputError("dt", f"the step count must be an integer, got {self.num_steps!r}")
        if self.num_steps < 1:
            raise InputError("dt", "need at least one step")
        if self.num_steps > MAX_STEPS:
            raise InputError("dt", f"{self.num_steps} steps exceed the cap of {MAX_STEPS}")

    @staticmethod
    def from_steps(theta, final_time, num_steps) -> "ThetaConfig":
        if num_steps < 1:  # before the division
            raise InputError("dt", "need at least one step")
        return ThetaConfig(theta, final_time / num_steps, num_steps)

    @staticmethod
    def from_dt(theta, final_time, dt) -> "ThetaConfig":
        """Steps of dt up to final_time, which N dt must hit to 1e-12 relative."""
        cfg = ThetaConfig(theta, dt, max(1, round(step_ratio(final_time, dt))))
        if abs(cfg.num_steps * dt - final_time) > 1e-12 * abs(final_time):
            raise InputError("dt", f"final_time must equal num_steps*dt: {final_time} vs {cfg.num_steps * dt}")
        return cfg


def step_ratio(final_time: float, dt: float) -> float:
    """final_time / dt, the step count before rounding.

    Raises ``InputError("dt", ...)`` when dt is not positive or the ratio is
    not finite or above ``MAX_STEPS``. The cap is checked before rounding, so
    a huge count prints as 1e+300 rather than with all its digits.
    """
    if not dt > 0:
        raise InputError("dt", "dt must be positive")
    steps = final_time / dt
    if not math.isfinite(steps):
        raise InputError("dt", f"final_time / dt is not finite ({final_time} / {dt})")
    if steps > MAX_STEPS + 0.5:
        raise InputError("dt", f"{steps:.3g} steps exceed the cap of {MAX_STEPS}")
    return steps


@dataclass(frozen=True)
class SeparableSolution:
    """Exact fields u = g(t) s_u(x, y) and p = g(t) s_p(x, y).

    Both fields share the time factor g because p = lambda div u. A run
    evaluates and projects the two spatial profiles once, on the quadrature
    of its error norms, and scales the projections by g(t) at every level.
    """

    time_factor: Callable       # t -> g(t)
    velocity_profile: Callable  # (x, y) -> (sx, sy)
    pressure_profile: Callable  # (x, y) -> sp

    def u(self, x, y, t):
        g = self.time_factor(t)
        sx, sy = self.velocity_profile(x, y)
        return g * sx, g * sy

    def p(self, x, y, t):
        return self.time_factor(t) * self.pressure_profile(x, y)


@dataclass(frozen=True)
class SeparableForce:
    """Body force f = h(t) s_f(x, y), callable as f(x, y, t).

    A run assembles the load of the spatial profile once and scales it by
    h(t) at every level; a general callable f(x, y, t) is assembled per level.
    """

    time_factor: Callable  # t -> h(t)
    profile: Callable      # (x, y) -> (sx, sy)

    def __call__(self, x, y, t):
        h = self.time_factor(t)
        sx, sy = self.profile(x, y)
        return h * sx, h * sy


@dataclass
class ProblemSpec:
    """Everything a run needs: geometry, material, data, an optional exact solution.

    Callbacks receive coordinate arrays x and y that broadcast against each
    other, sparse as ``np.ogrid`` makes them (``spaces.ElementQuadrature``),
    and return values broadcastable to their common shape: built from numpy
    ufuncs, a callable computes each factor of x or y once per distinct
    coordinate. Vector fields return an (x-component, y-component) pair;
    time-dependent fields take (x, y, t). A field left as None is zero and
    is never evaluated.
    """

    mesh: RectMesh
    bc: BoundaryPartition
    material: MaterialField
    f: Optional[Callable] = None      # body force f(x, y, t) -> (fx, fy), or a SeparableForce
    u0: Optional[Callable] = None     # initial velocity field (x, y) -> (ux, uy); None is zero
    v0: Optional[Callable] = None     # initial time derivative of the velocity; None is zero
    p0: Optional[Callable] = None     # initial pressure (x, y) -> p; None is zero
    exact: Optional[SeparableSolution] = None  # errors are recorded against it


@dataclass(frozen=True)
class SchemeState:
    """Rolling pair of time levels (n-1, n) for both fields; the solves that
    made them are recorded in ``StepSolver.solves``."""

    n: int
    U_prev: np.ndarray
    U_curr: np.ndarray
    P_prev: np.ndarray
    P_curr: np.ndarray


@dataclass(frozen=True)
class EnergySample:
    n: int          # sample sits between levels n and n+1
    t_half: float   # (n + 1/2) * dt
    value: float


def check_run_input(spec: ProblemSpec, cfg: ThetaConfig) -> None:
    """Raise ``InputError("dt", ...)`` when dt^2 lambda1 / (rho0 hx hy) exceeds
    ``MAX_COURANT_SQUARED`` or the steps times the free velocity dofs exceed
    ``MAX_STEP_DOFS``.

    ``run`` checks this before any assembly, and the studies before their
    first run, so a dt whose products would overflow fails at once instead
    of as a non-finite CG right-hand side, and a run that could not finish
    fails before it starts.
    """
    mesh, m = spec.mesh, spec.material
    dofs = EdgeClassification.of(mesh.nx, mesh.ny, spec.bc).n_free
    if cfg.num_steps * dofs > MAX_STEP_DOFS:
        raise InputError(
            "dt",
            f"{cfg.num_steps} steps x {dofs} free velocity dofs = {cfg.num_steps * dofs:.3g} "
            f"exceed the cap of {MAX_STEP_DOFS:.0e} (dt = {cfg.dt:g})"
        )
    courant_squared = cfg.dt**2 * m.lambda1 / (m.rho0 * mesh.hx * mesh.hy)
    if not courant_squared <= MAX_COURANT_SQUARED:
        raise InputError(
            "dt",
            f"dt^2 lambda1 / (rho0 hx hy) = {courant_squared:.3g} exceeds {MAX_COURANT_SQUARED:g} "
            f"(dt = {cfg.dt:g}); its products would leave the float range"
        )


def step_matrix(ops: MixedOperators, cfg: ThetaConfig) -> CsrMatrix | GridStepMatrix:
    """SPD operator of the implicit solve, A + theta*dt^2 * D^T C^{-1} D."""
    coeff = cfg.theta * cfg.dt**2
    if coeff == 0.0:
        return ops.A  # immutable, so sharing it is safe
    return schur_matrix(ops.mesh, ops.classification, element_blocks(ops.mesh, ops.material, coeff))


def grad_div_weight(ops: MixedOperators, cfg: ThetaConfig) -> float:
    """kappa = theta dt^2 mu_max, with mu_max bounded by ``spaces.stiffness_bound``.

    An upper bound on the Rayleigh quotient of the grad-div term
    theta dt^2 D^T C^{-1} D against the mass matrix A, so the step matrix
    is the mass matrix plus a term up to kappa times larger. Jacobi-CG needs
    more iterations as kappa grows; multigrid does not.
    """
    return cfg.theta * cfg.dt**2 * stiffness_bound(ops.mesh, ops.bc, ops.material)


def _held(shared) -> str:
    """What a ``linalg.LineSolve`` holds, from its ``shared`` flags."""
    if shared[0] == shared[1]:
        return "shared inverses" if shared[0] else "LDL^T factors"
    kinds = ("a shared inverse" if one else "LDL^T factors" for one in shared)
    return " and ".join(f"{kind} ({family})" for kind, family in zip(kinds, ("vertical", "horizontal")))


def _binary_size(nbytes: int) -> str:
    """nbytes in B, KiB or MiB, the largest unit it reaches."""
    for unit, scale in (("MiB", 2**20), ("KiB", 2**10)):
        if nbytes >= scale:
            return f"{nbytes / scale:.1f} {unit}"
    return f"{nbytes} B"


class StepSolver:
    """What every solve of a run shares: the step matrix S, its preconditioner,
    the CG settings (``SolverConfig()`` when None) and the body-force loads.

    Built once per run. At theta = 0 ``line_solve`` is the operators'
    ``linalg.LineSolve``, S is A, and there is no preconditioner and no
    projection. ``choice`` then names, per edge family, the LDL^T factors
    of its lines or one shared inverse, and the bytes held, as in ``line
    solve, shared inverses of A's lines hold 15.0 KiB; exact, no CG`` for
    the standing wave at nx 32. At theta > 0 ``line_solve`` is None and CG
    solves. ``preconditioner`` is the
    multigrid ``VCycle`` when kappa (``grad_div_weight``) is at least
    ``MULTIGRID_MIN_KAPPA`` and the grid coarsens; S and the V-cycle's fine smoother then share one set of
    element blocks, and ``projection`` is the run's
    ``linalg.SolutionProjection`` of up to ``PROJECTION_BASIS`` increments.
    Otherwise it is ``linalg.Jacobi(S)``, which checks S's diagonal and
    stores its reciprocal once for every solve of the run, and
    ``projection`` is None.
    ``choice`` names the preconditioner and the reason for it, as in
    ``multigrid, kappa = 6.1e+03 >= 500; CG starts from the projection on up
    to 32 increments``. ``solves`` holds (CG iterations, residual, defect
    norm ||b||) of every solve, the Taylor step's first; a line solve's
    iterations are 0. The residual is the true ||S x - b|| of one more
    product with S, except for a CG solve that stops after one iteration
    from zero: that one reports the recursive residual r_1, which
    ``linalg.cg_solve`` certifies by a bound on the rounding of its one
    product, so it makes no second product.
    """

    def __init__(self, spec: ProblemSpec, ops: MixedOperators, cfg: ThetaConfig,
                 solver: SolverConfig | None = None):
        self.spec, self.ops, self.cfg = spec, ops, cfg
        self.solver = SolverConfig() if solver is None else solver
        self.line_solve = ops.line_solve if cfg.theta == 0.0 else None
        self._loads = {}
        self._profile_load = None
        self.solves = []
        if self.line_solve is not None:
            self.S, self.preconditioner, self.projection = ops.A, None, None
            self.choice = (
                f"line solve, {_held(self.line_solve.shared)} of A's lines hold "
                f"{_binary_size(self.line_solve.nbytes)}; exact, no CG"
            )
            return
        kappa = grad_div_weight(ops, cfg)
        large = kappa >= MULTIGRID_MIN_KAPPA
        multigrid = large and coarsens(ops.mesh, ops.bc)
        self.choice = (
            f"{'multigrid' if multigrid else 'jacobi'}, "
            f"kappa = {kappa:.3g} {'>=' if large else '<'} {MULTIGRID_MIN_KAPPA:g}"
            + (", but the grid does not coarsen" if large and not multigrid else "")
            + (f"; CG starts from the projection on up to {PROJECTION_BASIS} increments" if multigrid else "")
        )
        if multigrid:
            coeff = cfg.theta * cfg.dt**2
            blocks = element_blocks(ops.mesh, ops.material, coeff)
            self.S = schur_matrix(ops.mesh, ops.classification, blocks)
            self.preconditioner = VCycle(ops, self.S, blocks, coeff)
            self.projection = SolutionProjection(self.S, PROJECTION_BASIS)
        else:
            self.S = step_matrix(ops, cfg)
            self.preconditioner, self.projection = Jacobi(self.S), None

    def load(self, n: int) -> np.ndarray:
        """Load vector of the body force at level n, on the run's quadrature.

        A ``SeparableForce`` has its profile's load assembled once and scaled
        by h(n dt). Any other f costs one evaluation per level, and each
        level's vector is kept for the three consecutive steps that read it.
        """
        f, ops = self.spec.f, self.ops
        if isinstance(f, SeparableForce):
            if self._profile_load is None:
                self._profile_load = assemble_load(ops.quadrature, ops.classification, f.profile)
            return f.time_factor(n * self.cfg.dt) * self._profile_load
        if n not in self._loads:
            self._loads[n] = assemble_load(ops.quadrature, ops.classification, f, n * self.cfg.dt)
            for stale in [k for k in self._loads if k < n - 2]:
                del self._loads[stale]
        return self._loads[n]

    def solve(self, defect, guess) -> np.ndarray:
        """Return guess + delta with S delta = defect.

        The caller passes the defect rhs - S guess in closed form, so the
        absolute accuracy is tied to the increment from ``guess``. On the
        multigrid path CG starts from the projection of delta onto the
        earlier increments, and delta joins them. The line solve makes one
        product with A for its true residual. The solve joins ``solves``.
        """
        if self.line_solve is not None:
            x = self.line_solve.solve(defect)
            r = defect - spmv(self.S, x)
            self.solves.append((0, math.sqrt(r @ r), math.sqrt(defect @ defect)))
            return guess + x
        if self.projection is None:
            result = cg_solve(self.S, defect, self.solver, self.preconditioner)
        else:
            result = self.projection.solve(defect, self.solver, self.preconditioner)
        self.solves.append((result.iterations, result.residual, result.rhs_norm))
        return guess + result.x


@dataclass(frozen=True)
class RunSetup:
    """What a run builds independent of dt: the operators and the projected initial data.

    U0 is the flux interpolant of u0, V0 that of v0 and P0 the element-average
    projection of p0; a datum left as None projects to zero without an
    evaluation. The three arrays are read-only, so runs can share them.
    ``prepare`` builds a set-up; ``run`` returns the one it used in
    ``RunResult.setup`` and takes it back for another run of the same
    ``spec`` object at another dt or theta. A set-up holds no step matrix,
    preconditioner or solve: those depend on dt and stay per run.
    """

    spec: ProblemSpec
    operators: MixedOperators
    U0: np.ndarray
    V0: np.ndarray
    P0: np.ndarray


def prepare(spec: ProblemSpec, ops: MixedOperators) -> RunSetup:
    """Project the initial data of ``spec`` for its assembled operators ``ops``.

    Warns when the initial data are incompatible (C P0 != D U0), which would
    otherwise leave an alternating-sign defect in the pressure recursion.
    This is the only place the check runs, so runs that share a set-up warn
    once.
    """
    mesh, cls = ops.mesh, ops.classification
    U0 = np.zeros(ops.n_velocity) if spec.u0 is None else project_velocity_pi_h(mesh, cls, spec.u0)
    V0 = np.zeros(ops.n_velocity) if spec.v0 is None else project_velocity_pi_h(mesh, cls, spec.v0)
    P0 = np.zeros(ops.n_pressure) if spec.p0 is None else project_pressure_p_h(mesh, spec.p0)

    defect = ops.Cdiag * P0 - spmv(ops.D, U0)
    if defect.size and np.abs(defect).max() > 1e-10:
        warnings.warn(
            "initial data incompatible: max |C P0 - D U0| = "
            f"{np.abs(defect).max():.3e} (is p0 the stiffness-weighted divergence "
            "of u0, and lambda element-wise constant?)",
            CompatibilityWarning,
            stacklevel=2,
        )
    for field in (U0, V0, P0):
        field.flags.writeable = False
    return RunSetup(spec, ops, U0, V0, P0)


def initialize(stepper: StepSolver, setup: RunSetup | None = None) -> SchemeState:
    """Take the Taylor first step from the initial data; returns the state at n=1.

    The initial data come from ``setup``, or from ``prepare`` on the step
    solver's spec and operators when it is None. U1 solves

        (A + theta*dt^2 D^T C^{-1} D) U1 = A U0 + dt A V0
            + (theta - 1/2) dt^2 D^T P0 + dt^2/2 F0 + theta*dt^2 (F1 - F0)

    after eliminating P1 through the divergence constraint. With the guess
    G = U0 + dt V0 the A terms cancel, so CG solves for U1 - G with the defect

        dt^2 [F0/2 + theta (F1 - F0) - D^T ((1/2 - theta) P0 + theta C^{-1} D G)],

    which assumes nothing about P0.
    """
    spec, ops, cfg = stepper.spec, stepper.ops, stepper.cfg
    if setup is None:
        setup = prepare(spec, ops)
    U0, V0, P0 = setup.U0, setup.V0, setup.P0

    dt, theta = cfg.dt, cfg.theta
    guess = U0 + dt * V0
    pressure = (0.5 - theta) * P0 + theta * spmv(ops.D, guess) / ops.Cdiag
    defect = -dt**2 * spmv(ops.DT, pressure)
    if spec.f is not None:
        F0, F1 = stepper.load(0), stepper.load(1)
        defect += dt**2 * ((0.5 - theta) * F0 + theta * F1)
    U1 = stepper.solve(defect, guess)
    P1 = spmv(ops.D, U1) / ops.Cdiag
    return SchemeState(1, U0, U1, P0, P1)


def step(state: SchemeState, stepper: StepSolver) -> SchemeState:
    """Advance one level: three-level velocity update, then the pressure division.

    CG solves S (U[n+1] - G) = dt^2 (F[n,theta] - D^T P[n]) with the guess
    G = 2 U[n] - U[n-1] (module docstring). The defect reads P[n] only; it
    assumes P[n] = C^{-1} D U[n] and P[n-1] = C^{-1} D U[n-1], as every
    level from ``initialize`` and ``step`` has. P[n-1] no longer enters the
    velocity update; it still enters ``discrete_energy``.
    """
    ops, cfg = stepper.ops, stepper.cfg
    n, dt, theta = state.n, cfg.dt, cfg.theta
    defect = spmv(ops.DT, state.P_curr)
    defect *= -dt**2
    if stepper.spec.f is not None:
        F_theta = (
            theta * stepper.load(n + 1)
            + (1.0 - 2.0 * theta) * stepper.load(n)
            + theta * stepper.load(n - 1)
        )
        defect += dt**2 * F_theta
    guess = 2.0 * state.U_curr - state.U_prev
    U_next = stepper.solve(defect, guess)
    P_next = spmv(ops.D, U_next) / ops.Cdiag
    return SchemeState(n + 1, state.U_curr, U_next, state.P_curr, P_next)


def discrete_energy(state: SchemeState, ops: MixedOperators, cfg: ThetaConfig) -> EnergySample:
    """Conserved quadratic form of the scheme, sampled between the state's two levels.

    E = 1/2 [ udot' A udot + dt^2 (theta - 1/4) pdot' C pdot + pbar' C pbar ]

    with udot, pdot the one-step difference quotients and pbar the level
    average. At theta = 1/4 the middle term drops and the form mirrors the
    continuous energy; for theta < 1/4 it is positive only under the CFL
    bound, which is exactly the stability boundary.

    It is evaluated from the level differences dU, dP and the level sum sP,
    with the factors 1/dt and 1/2 taken out of the sums, as

        E = 1/2 [ dU' A dU / dt^2 + (theta - 1/4) dP' C dP + sP' C sP / 4 ].

    Each sum is a BLAS dot product: a three-operand ``np.einsum`` saves a
    pass but sums serially, which raised the measured drift of a 128 x 128
    run from 3e-16 to 7e-15 (CHANGES.md).
    """
    dt, C = cfg.dt, ops.Cdiag
    dU = state.U_curr - state.U_prev
    dP = state.P_curr - state.P_prev
    sP = state.P_curr + state.P_prev
    value = 0.5 * ((dU @ spmv(ops.A, dU)) / dt**2 + (cfg.theta - 0.25) * ((dP * C) @ dP) + 0.25 * ((sP * C) @ sP))
    return EnergySample(state.n - 1, (state.n - 0.5) * dt, float(value))


@dataclass
class RunResult:
    """Trajectory summary: energy series, final state, optional error series.

    ``cg_iterations`` (int), ``cg_residuals`` and ``defect_norms`` (float)
    are the columns of the run's ``StepSolver.solves``, one entry per solve,
    the initial step's first: a residual is the true ||S x - b||, or for a
    CG solve that stopped after one iteration from zero, the recursive
    residual r_1 that ``linalg.cg_solve`` certifies by a rounding bound.
    ``preconditioner`` is the run's ``StepSolver.choice``. ``setup`` is the run's ``RunSetup``, which
    another run of the same spec can take.
    The error series hold one entry per level 0..n of the final state, one
    more than ``energies``; on BlowUp that includes the level whose step
    blew up.
    """

    status: str
    energies: list
    state: SchemeState
    error_u: Optional[list] = None   # per level 0..state.n
    error_p: Optional[list] = None
    config: ThetaConfig = None
    setup: RunSetup = None
    cg_iterations: np.ndarray = None
    cg_residuals: np.ndarray = None
    defect_norms: np.ndarray = None
    preconditioner: str = None

    @property
    def operators(self) -> MixedOperators:
        return self.setup.operators

    @property
    def completed(self):
        return self.status == COMPLETED


def _blown_up(U):
    m = np.abs(U).max() if U.size else 0.0
    return not np.isfinite(m) or m > BLOWUP_THRESHOLD


def run(
    spec: ProblemSpec,
    cfg: ThetaConfig,
    probes=(),
    solver: SolverConfig | None = None,
    record_errors: bool | None = None,
    setup: RunSetup | None = None,
) -> RunResult:
    """Initialize, march N-1 steps, record the energy at every half level.

    Probes are callables probe(level, t, U, P) fired at every level 0..n,
    including a level whose step blew up. When the spec has an exact
    solution (and record_errors is not False) the weighted L2 errors against
    it are recorded per level: its spatial profiles are evaluated and
    projected once per run, and each level costs one product with A
    (``spaces`` module docstring).

    ``setup`` is the dt-independent part of the run, the operators and the
    projected initial data: None builds it (``assemble_operators`` and
    ``prepare``), and the result returns it as ``RunResult.setup``. A study
    that runs one spec at several dt or theta passes the first run's set-up
    to the later ones, which then assemble and project nothing and check
    compatibility no more; their outputs are bit-identical to runs that
    build their own. The step matrix, its preconditioner and every solve
    stay per run. Raises ValueError for a set-up built for another spec
    object.
    """
    if setup is not None and setup.spec is not spec:
        raise ValueError("setup was built for another ProblemSpec; only runs of one spec share a set-up")
    if record_errors is None:
        record_errors = spec.exact is not None
    if record_errors and spec.exact is None:
        raise ValueError("record_errors needs an exact solution (spec.exact)")
    check_run_input(spec, cfg)
    ops = assemble_operators(spec.mesh, spec.bc, spec.material) if setup is None else setup.operators
    stepper = StepSolver(spec, ops, cfg, solver)
    if setup is None:
        setup = prepare(spec, ops)
    err_u = [] if record_errors else None
    err_p = [] if record_errors else None
    exact = spec.exact

    state = initialize(stepper, setup)
    if record_errors:
        Pi_u, beta_u = velocity_best_approximation(ops, exact.velocity_profile)
        mean_p, beta_p = pressure_best_approximation(ops, exact.pressure_profile)

    def observe(level, U, P):
        t = level * cfg.dt
        if record_errors:
            g = exact.time_factor(t)
            err_u.append(velocity_l2_error(ops.A, Pi_u, beta_u, g, U))
            err_p.append(pressure_l2_error(ops.Cdiag, mean_p, beta_p, g, P))
        for probe in probes:
            probe(level, t, U, P)

    energies = [discrete_energy(state, ops, cfg)]
    observe(0, state.U_prev, state.P_prev)
    observe(1, state.U_curr, state.P_curr)
    status = COMPLETED
    if _blown_up(state.U_curr):
        status = BLOWUP
    else:
        for _ in range(cfg.num_steps - 1):
            state = step(state, stepper)
            energies.append(discrete_energy(state, ops, cfg))
            observe(state.n, state.U_curr, state.P_curr)
            if _blown_up(state.U_curr):
                status = BLOWUP
                break
    iterations, residuals, defect_norms = zip(*stepper.solves)
    return RunResult(
        status, energies, state, err_u, err_p, cfg, setup,
        np.array(iterations, dtype=np.int64), np.array(residuals, dtype=np.float64),
        np.array(defect_norms, dtype=np.float64), stepper.choice,
    )
