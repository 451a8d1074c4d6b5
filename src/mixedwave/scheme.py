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

A run builds one ``StepSolver``, the context of ``initialize`` and ``step``:
the operator with its preconditioner, the CG settings and the force's loads.
Jacobi-CG needs more iterations the more the grad-div term outweighs the
mass term; their ratio is bounded by kappa = theta dt^2 (lambda1 / rho0)
mu_max, with mu_max the closed-form largest eigenvalue of the divergence
problem. When kappa reaches ``MULTIGRID_MIN_KAPPA`` and the grid coarsens,
CG is preconditioned by the multigrid V-cycle instead.

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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .linalg import CgResult, CsrMatrix, GridStepMatrix, SolutionProjection, SolverConfig, cg_solve, spmv
from .mesh import BoundaryPartition, RectMesh
from .multigrid import VCycle, coarsens
from .spaces import (
    MaterialField,
    MixedOperators,
    assemble_load,
    assemble_operators,
    element_blocks,
    max_divergence_eigenvalue,
    pressure_best_approximation,
    pressure_l2_error,
    project_pressure_p_h,
    project_velocity_pi_h,
    schur_matrix,
    velocity_best_approximation,
    velocity_l2_error,
)

BLOWUP_THRESHOLD = 1e12  # sup-norm guard on velocity coefficients
MAX_STEPS = 10**7  # longest run ThetaConfig accepts; a larger count means a mistyped dt
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
    """Time discretization: theta in [0,1], N steps of size dt up to T = N*dt.

    Rejects a dt whose square overflows (the step matrix scales by dt^2) and
    more than ``MAX_STEPS`` steps, so such inputs fail before any work.
    """

    theta: float
    dt: float
    num_steps: int
    final_time: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not math.isfinite(self.dt * self.dt):
            raise ValueError(f"dt^2 is not finite (dt = {self.dt})")
        if self.num_steps < 1:
            raise ValueError("need at least one step")
        if self.num_steps > MAX_STEPS:
            raise ValueError(f"{self.num_steps} steps exceed the cap of {MAX_STEPS}")
        if abs(self.num_steps * self.dt - self.final_time) > 1e-12 * abs(self.final_time):
            raise ValueError(
                f"final_time must equal num_steps*dt: {self.final_time} vs {self.num_steps * self.dt}"
            )

    @staticmethod
    def from_steps(theta, final_time, num_steps) -> "ThetaConfig":
        return ThetaConfig(theta, final_time / num_steps, num_steps, final_time)

    @staticmethod
    def from_dt(theta, final_time, dt) -> "ThetaConfig":
        steps = final_time / dt
        if not math.isfinite(steps):
            raise ValueError(f"final_time / dt is not finite ({final_time} / {dt})")
        return ThetaConfig(theta, dt, max(1, round(steps)), final_time)


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
    """Rolling pair of time levels (n-1, n) for both fields.

    ``cg_iterations``, ``cg_residual`` and ``defect_norm`` are the CG
    iterations, the final true residual ||S x - b|| and the defect norm ||b||
    of the solve that produced U_curr (0 for a state built by hand).
    """

    n: int
    U_prev: np.ndarray
    U_curr: np.ndarray
    P_prev: np.ndarray
    P_curr: np.ndarray
    cg_iterations: int = 0
    cg_residual: float = 0.0
    defect_norm: float = 0.0


@dataclass(frozen=True)
class EnergySample:
    n: int          # sample sits between levels n and n+1
    t_half: float   # (n + 1/2) * dt
    value: float


def check_courant_number(spec: ProblemSpec, cfg: ThetaConfig) -> None:
    """Raise ValueError when dt^2 lambda1 / (rho0 hx hy) exceeds ``MAX_COURANT_SQUARED``.

    ``run`` checks this before any assembly, so a dt whose products would
    overflow fails at once instead of as a non-finite CG right-hand side.
    """
    mesh, m = spec.mesh, spec.material
    courant_squared = cfg.dt**2 * m.lambda1 / (m.rho0 * mesh.hx * mesh.hy)
    if not courant_squared <= MAX_COURANT_SQUARED:
        raise ValueError(
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
    """kappa = theta dt^2 (lambda1 / rho0) mu_max.

    An upper bound on the Rayleigh quotient of the grad-div term
    theta dt^2 D^T C^{-1} D against the mass matrix A, so the step matrix
    is the mass matrix plus a term up to kappa times larger. Jacobi-CG needs
    more iterations as kappa grows; multigrid does not.
    """
    m = ops.material
    return cfg.theta * cfg.dt**2 * (m.lambda1 / m.rho0) * max_divergence_eigenvalue(ops.mesh, ops.bc)


class StepSolver:
    """What every solve of a run shares: the step matrix S, its preconditioner,
    the CG settings (``SolverConfig()`` when None) and the body-force loads.

    Built once per run. ``preconditioner`` is the multigrid ``VCycle`` when
    kappa (``grad_div_weight``) is at least ``MULTIGRID_MIN_KAPPA`` and the
    grid coarsens, and None, which means Jacobi, otherwise. S and the
    V-cycle's fine smoother then share one set of element blocks, and
    ``projection`` is the run's ``linalg.SolutionProjection`` of up to
    ``PROJECTION_BASIS`` increments (None on the Jacobi path).
    ``choice`` names the preconditioner and the reason for it, as in
    ``multigrid, kappa = 6.1e+03 >= 500; CG starts from the projection on up
    to 32 increments``.
    """

    def __init__(self, spec: ProblemSpec, ops: MixedOperators, cfg: ThetaConfig,
                 solver: SolverConfig | None = None):
        self.spec, self.ops, self.cfg = spec, ops, cfg
        self.solver = SolverConfig() if solver is None else solver
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
            self.S, self.preconditioner, self.projection = step_matrix(ops, cfg), None, None
        self._loads = {}
        self._profile_load = None

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

    def solve(self, defect, guess) -> tuple[np.ndarray, CgResult]:
        """Return guess + delta with S delta = defect, and the CG result.

        The caller passes the defect rhs - S guess in closed form, so the
        absolute accuracy is tied to the increment from ``guess``. On the
        multigrid path CG starts from the projection of delta onto the
        earlier increments, and delta joins them.
        """
        if self.projection is None:
            result = cg_solve(self.S, defect, self.solver, self.preconditioner)
        else:
            result = self.projection.solve(defect, self.solver, self.preconditioner)
        return guess + result.x, result


def initialize(stepper: StepSolver) -> SchemeState:
    """Project initial data and take the Taylor first step; returns the state at n=1.

    U0 is the flux interpolant of u0 and P0 the element-average projection of
    p0, and a datum left as None projects to zero without an evaluation; U1
    solves

        (A + theta*dt^2 D^T C^{-1} D) U1 = A U0 + dt A V0
            + (theta - 1/2) dt^2 D^T P0 + dt^2/2 F0 + theta*dt^2 (F1 - F0)

    after eliminating P1 through the divergence constraint. With the guess
    G = U0 + dt V0 the A terms cancel, so CG solves for U1 - G with the defect

        dt^2 [F0/2 + theta (F1 - F0) - D^T ((1/2 - theta) P0 + theta C^{-1} D G)],

    which assumes nothing about P0. Warns when the
    initial data are incompatible (C P0 != D U0), which would otherwise leave
    an alternating-sign defect in the pressure recursion.
    """
    spec, ops, cfg = stepper.spec, stepper.ops, stepper.cfg
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

    dt, theta = cfg.dt, cfg.theta
    guess = U0 + dt * V0
    pressure = (0.5 - theta) * P0 + theta * spmv(ops.D, guess) / ops.Cdiag
    defect = -dt**2 * spmv(ops.DT, pressure)
    if spec.f is not None:
        F0, F1 = stepper.load(0), stepper.load(1)
        defect += dt**2 * ((0.5 - theta) * F0 + theta * F1)
    U1, result = stepper.solve(defect, guess)
    P1 = spmv(ops.D, U1) / ops.Cdiag
    return SchemeState(1, U0, U1, P0, P1, result.iterations, result.residual, result.rhs_norm)


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
    U_next, result = stepper.solve(defect, guess)
    P_next = spmv(ops.D, U_next) / ops.Cdiag
    return SchemeState(
        n + 1, state.U_curr, U_next, state.P_curr, P_next, result.iterations, result.residual, result.rhs_norm,
    )


def discrete_energy(state: SchemeState, ops: MixedOperators, cfg: ThetaConfig) -> EnergySample:
    """Conserved quadratic form of the scheme, sampled between the state's two levels.

    E = 1/2 [ udot' A udot + dt^2 (theta - 1/4) pdot' C pdot + pbar' C pbar ]

    with udot, pdot the one-step difference quotients and pbar the level
    average. At theta = 1/4 the middle term drops and the form mirrors the
    continuous energy; for theta < 1/4 it is positive only under the CFL
    bound, which is exactly the stability boundary.
    """
    dt = cfg.dt
    udot = (state.U_curr - state.U_prev) / dt
    pdot = (state.P_curr - state.P_prev) / dt
    pbar = 0.5 * (state.P_curr + state.P_prev)
    value = 0.5 * (
        udot @ spmv(ops.A, udot)
        + dt**2 * (cfg.theta - 0.25) * (pdot * ops.Cdiag) @ pdot
        + (pbar * ops.Cdiag) @ pbar
    )
    return EnergySample(state.n - 1, (state.n - 0.5) * dt, float(value))


@dataclass
class RunResult:
    """Trajectory summary: energy series, final state, optional error series.

    ``cg_iterations`` holds the CG iteration count of every solve, the
    initial step's first, as one int array; ``cg_residuals`` the final
    true residual ||S x - b|| of each and ``defect_norms`` the norm ||b|| of
    its defect, as float arrays of the same shape. ``preconditioner`` is the
    run's ``StepSolver.choice``.
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
    operators: MixedOperators = None
    cg_iterations: np.ndarray = None
    cg_residuals: np.ndarray = None
    defect_norms: np.ndarray = None
    preconditioner: str = None

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
) -> RunResult:
    """Initialize, march N-1 steps, record the energy at every half level.

    Probes are callables probe(level, t, U, P) fired at every level 0..n,
    including a level whose step blew up. When the spec has an exact
    solution (and record_errors is not False) the weighted L2 errors against
    it are recorded per level: its spatial profiles are evaluated and
    projected once per run, and each level costs one product with A
    (``spaces`` module docstring).
    """
    if record_errors is None:
        record_errors = spec.exact is not None
    if record_errors and spec.exact is None:
        raise ValueError("record_errors needs an exact solution (spec.exact)")
    check_courant_number(spec, cfg)
    ops = assemble_operators(spec.mesh, spec.bc, spec.material)
    stepper = StepSolver(spec, ops, cfg, solver)
    err_u = [] if record_errors else None
    err_p = [] if record_errors else None
    exact = spec.exact

    state = initialize(stepper)
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

    iterations, residuals, defect_norms = [state.cg_iterations], [state.cg_residual], [state.defect_norm]
    energies = [discrete_energy(state, ops, cfg)]
    observe(0, state.U_prev, state.P_prev)
    observe(1, state.U_curr, state.P_curr)
    status = COMPLETED
    if _blown_up(state.U_curr):
        status = BLOWUP
    else:
        for _ in range(cfg.num_steps - 1):
            state = step(state, stepper)
            iterations.append(state.cg_iterations)
            residuals.append(state.cg_residual)
            defect_norms.append(state.defect_norm)
            energies.append(discrete_energy(state, ops, cfg))
            observe(state.n, state.U_curr, state.P_curr)
            if _blown_up(state.U_curr):
                status = BLOWUP
                break
    return RunResult(
        status, energies, state, err_u, err_p, cfg, ops,
        np.array(iterations, dtype=np.int64), np.array(residuals, dtype=np.float64),
        np.array(defect_norms, dtype=np.float64), stepper.choice,
    )
