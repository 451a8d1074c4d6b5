"""Manufactured solutions, CFL bound, error norms, and the study drivers.

The workhorse test problem is a force-free standing wave on the unit square
with zero normal velocity on the whole boundary. It exercises energy
conservation and both error norms at once, and its continuous energy has the
closed form pi^4 / 2.

The CFL bound reads one number, the closed-form bound on mu_max of
``spaces.stiffness_bound``: on a uniform rectangle grid the RT0/P0
generalized eigenproblem splits into one 1-D problem per axis. The
inverse-inequality constant C0 = h sqrt(mu_max) for unit material is
reported from the same closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .linalg import InputError, SolverConfig, spmv
from .mesh import BoundaryPartition, EdgeClassification, RectMesh, build_rect_mesh
from .scheme import (
    BLOWUP,
    ProblemSpec,
    RunResult,
    RunSetup,
    SeparableForce,
    SeparableSolution,
    ThetaConfig,
    check_run_input,
    prepare,
    run,
    step_ratio,
)
from .spaces import (
    assemble_operators,
    material_field,
    max_divergence_eigenvalue,
    max_divergence_mode,
    stiffness_bound,
)

STABLE = "Stable"
DRIFT = "Drift"  # completed but the energy drifted beyond tolerance

SQRT2_PI = math.sqrt(2.0) * math.pi
RESIDUAL_SAMPLES = 50  # random space-time points of residual_check
RESIDUAL_TOL = 1e-10   # largest residual residual_check accepts
RESIDUAL_SEED = 20240711
STABLE_DRIFT = 1e-8    # largest energy drift stability_sweep reports as Stable
SEED_SIZE = 1e-10      # max|mu_max mode| / max|U0| in the initial velocity of stability_sweep's runs


@dataclass(frozen=True)
class ManufacturedSolution:
    """Closed-form solution of the coupled displacement-pressure system.

    All callbacks are vectorized: they take coordinate arrays x and y that
    broadcast against each other (sparse ones during a run, see
    ``ProblemSpec``) and return values broadcastable to their common shape;
    vector fields return (x, y) component pairs. The derivative callbacks (u_tt, grad_p, div_u) exist so the
    defining relations rho*u_tt - grad p = f and p = lambda div u can be
    checked pointwise to machine precision. ``exact`` is the same u and p
    in separable form, which a run records its errors against. Every one
    starts at rest, u_t(x, y, 0) = 0, so a run needs no initial velocity;
    ``residual_check`` checks that too.
    """

    name: str
    rho: float
    lam: float
    bc: BoundaryPartition
    u: Callable
    u_t: Callable
    p: Callable
    f: Optional[Callable]  # None means identically zero
    u_tt: Callable
    grad_p: Callable
    div_u: Callable
    energy: Optional[float]  # continuous energy, constant when f = 0
    exact: SeparableSolution


def _spatial_profile(x, y):
    """Common velocity profile: gradient of cos(pi x) cos(pi y) ."""
    return -np.pi * np.sin(np.pi * x) * np.cos(np.pi * y), -np.pi * np.cos(
        np.pi * x
    ) * np.sin(np.pi * y)


def _pressure_profile(x, y):
    """Divergence of the velocity profile: -2 pi^2 cos(pi x) cos(pi y)."""
    return -2.0 * np.pi**2 * np.cos(np.pi * x) * np.cos(np.pi * y)


def mms_forced(omega: float) -> ManufacturedSolution:
    """Same spatial profile driven at frequency omega by a matching body force.

    f = (2 pi^2 - omega^2) cos(omega t) * profile; at omega = sqrt(2) pi the
    force coefficient vanishes and the standing wave is recovered. omega = 0
    freezes the field (u_t = 0).
    """
    if not (math.isfinite(omega * omega) and omega >= 0):
        raise ValueError(f"omega must be nonnegative with a finite square, got {omega}")
    coeff = 2.0 * np.pi**2 - omega**2
    exact = SeparableSolution(lambda t: np.cos(omega * t), _spatial_profile, _pressure_profile)

    def u_t(x, y, t):
        dg = -omega * np.sin(omega * t)
        sx, sy = _spatial_profile(x, y)
        return dg * sx, dg * sy

    def u_tt(x, y, t):
        ddg = -(omega**2) * np.cos(omega * t)
        sx, sy = _spatial_profile(x, y)
        return ddg * sx, ddg * sy

    def grad_p(x, y, t):
        g = np.cos(omega * t)
        sx, sy = _spatial_profile(x, y)
        return -2.0 * np.pi**2 * g * sx, -2.0 * np.pi**2 * g * sy

    return ManufacturedSolution(
        name=f"forced:{omega:g}",
        rho=1.0,
        lam=1.0,
        bc=BoundaryPartition.all_neumann(),
        u=exact.u,
        u_t=u_t,
        p=exact.p,
        f=SeparableForce(lambda t: coeff * np.cos(omega * t), _spatial_profile),
        u_tt=u_tt,
        grad_p=grad_p,
        div_u=exact.p,
        energy=None,
        exact=exact,
    )


def mms_standing_wave() -> ManufacturedSolution:
    """Force-free standing wave, rho = lambda = 1, u.n = 0 on the whole boundary.

    u(x,y,t) = cos(sqrt(2) pi t) * (-pi sin(pi x) cos(pi y), -pi cos(pi x) sin(pi y))
    p(x,y,t) = -2 pi^2 cos(sqrt(2) pi t) cos(pi x) cos(pi y)

    This is ``mms_forced`` at omega = sqrt(2) pi, where the force vanishes.
    The initial time derivative vanishes, and the continuous energy equals
    pi^4 / 2 for all time.
    """
    return replace(mms_forced(SQRT2_PI), name="standing-wave", f=None, energy=0.5 * np.pi**4)


def residual_check(mms: ManufacturedSolution) -> float:
    """Verify the defining relations at ``RESIDUAL_SAMPLES`` random space-time samples.

    Checks rho*u_tt - grad p - f = 0 and p - lambda*div u = 0; raises when
    the largest residual exceeds ``RESIDUAL_TOL`` or is NaN, otherwise returns it. An
    overflow on the way shows up as that NaN, so numpy does not warn of it.
    Also raises when u_t(x, y, 0) is not exactly 0 at the samples: a run
    starts every manufactured solution at rest.
    """
    rng = np.random.default_rng(RESIDUAL_SEED)
    x = rng.uniform(0.0, 1.0, RESIDUAL_SAMPLES)
    y = rng.uniform(0.0, 1.0, RESIDUAL_SAMPLES)
    t = rng.uniform(0.0, 2.0, RESIDUAL_SAMPLES)
    with np.errstate(over="ignore", invalid="ignore"):
        ax, ay = mms.u_tt(x, y, t)
        gx, gy = mms.grad_p(x, y, t)
        fx, fy = mms.f(x, y, t) if mms.f is not None else (0.0, 0.0)
        r1 = np.hypot(mms.rho * ax - gx - fx, mms.rho * ay - gy - fy)
        r2 = np.abs(mms.p(x, y, t) - mms.lam * mms.div_u(x, y, t))
    # np.max propagates NaN; the negated test rejects it
    worst = float(np.max(np.concatenate([np.ravel(r1), np.ravel(r2)])))
    if not worst <= RESIDUAL_TOL:
        raise ValueError(f"manufactured solution violates its equations: residual {worst:.3e}")
    if np.any(mms.u_t(x, y, 0.0)):
        raise ValueError("manufactured solution does not start at rest: u_t(x, y, 0) is not 0")
    return worst


def make_problem(mms: ManufacturedSolution, nx: int, ny: int | None = None) -> ProblemSpec:
    """Discretize a manufactured solution on an nx-by-ny unit-square mesh;
    v0 is None (zero), since it starts at rest."""
    mesh = build_rect_mesh(nx, ny if ny is not None else nx)
    return ProblemSpec(
        mesh=mesh,
        bc=mms.bc,
        material=material_field(mesh, mms.rho, mms.lam),
        f=mms.f,
        u0=lambda x, y: mms.u(x, y, 0.0),
        v0=None,
        p0=lambda x, y: mms.p(x, y, 0.0),
        exact=mms.exact,
    )


def estimate_inverse_constant(mesh: RectMesh, bc: BoundaryPartition) -> float:
    """Constant C0 of the divergence inverse inequality ||div v|| <= C0/h ||v||.

    C0 = h * sqrt(mu_max), where mu_max is the largest generalized
    eigenvalue of (D^T M_p^{-1} D) v = mu M_u v over the free velocity dofs
    with unit material, in the closed form of
    ``spaces.max_divergence_eigenvalue``; the result is exact up to rounding.
    It is the constant the ``estimate-c0`` command reports; the stability
    bound itself reads ``spaces.stiffness_bound``.
    """
    mu = max_divergence_eigenvalue(mesh, bc)
    if mu == 0.0:
        raise InputError("mesh", "mesh has no free velocity dofs; C0 is undefined")
    return mesh.h * math.sqrt(mu)


def check_mesh_width(nx: int, ny: int) -> None:
    """Raise ``InputError("mesh", ...)`` for a mesh one element wide.

    There the manufactured data project to zero, so a relative energy drift
    would measure rounding noise.
    """
    if min(nx, ny) == 1:
        raise InputError(
            "mesh",
            "on a mesh one element wide the manufactured data project to zero, "
            "so the energy drift is rounding noise",
        )


def cfl_max_dt(theta: float, mu: float) -> float:
    """Largest stable time step: dt^2 (1/4 - theta) mu <= 1, so 1 / sqrt((1/4 - theta) mu).

    mu bounds mu_max from above, as ``spaces.stiffness_bound`` does.
    Infinite for theta >= 1/4 (unconditional stability).
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if theta >= 0.25:
        return math.inf
    return 1.0 / math.sqrt((0.25 - theta) * mu)


def error_linf_l2(result: RunResult):
    """Max-over-time of the weighted spatial L2 errors recorded by a run."""
    if result.error_u is None or result.error_p is None:
        raise ValueError("run was executed without exact fields; no errors recorded")
    return max(result.error_u), max(result.error_p)


def relative_drifts(energies) -> list:
    """|E - E0| / |E0| of every energy sample against the first, E0;
    |E - E0| when E0 = 0."""
    e0 = energies[0].value
    scale = abs(e0) if e0 != 0.0 else 1.0
    return [abs(s.value - e0) / scale for s in energies]


def energy_drift(result: RunResult) -> float:
    """Largest relative deviation of the energy series from its first sample."""
    return max(relative_drifts(result.energies))


@dataclass(frozen=True)
class ConvergenceRow:
    nx: int
    h: float
    dt: float
    err_u: float
    err_p: float
    rate_u: Optional[float]
    rate_p: Optional[float]


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple

    @property
    def finest_rates(self):
        last = self.rows[-1]
        return last.rate_u, last.rate_p


def observed_rates(spacings, errors):
    """Pairwise slopes log(e_prev/e_cur) / log(x_prev/x_cur); None for the first row.

    Pure function of the tabulated numbers, so rates recomputed from an
    emitted table reproduce these values exactly.
    """
    rates = [None]
    for k in range(1, len(errors)):
        rates.append(
            math.log(errors[k - 1] / errors[k]) / math.log(spacings[k - 1] / spacings[k])
        )
    return rates


def _build_table(nxs, hs, dts, errs_u, errs_p, spacings):
    ru = observed_rates(spacings, errs_u)
    rp = observed_rates(spacings, errs_p)
    rows = tuple(
        ConvergenceRow(nxs[k], hs[k], dts[k], errs_u[k], errs_p[k], ru[k], rp[k])
        for k in range(len(nxs))
    )
    return ConvergenceTable(rows)


def convergence_levels(theta: float, mesh_sizes, dt_rule, final_time: float) -> list:
    """(nx, ThetaConfig) of every level of a spatial study on the unit square, by increasing nx.

    ``dt_rule`` maps h to a target step; the actual step is final_time / N
    with N rounded up so the horizon is hit exactly. Raises ThetaConfig's
    ``InputError`` for a level that cannot run, before any level has run; one
    about the step names ``"final_time"``, from which the step is derived.
    Repeated sizes raise ValueError: two levels of one h have no rate.
    """
    sizes = sorted(int(n) for n in mesh_sizes)
    if len(set(sizes)) < len(sizes):
        raise ValueError(f"mesh sizes must be distinct, got {sizes}")
    levels = []
    for nx in sizes:
        h = build_rect_mesh(nx, nx).h  # the mesh of make_problem
        try:
            n = max(1, math.ceil(step_ratio(final_time, dt_rule(h)) - 1e-12))
            levels.append((nx, ThetaConfig.from_steps(theta, final_time, n)))
        except InputError as exc:
            if exc.parameter != "dt":
                raise
            raise InputError("final_time", str(exc)) from None
    return levels


def convergence_study(
    mms: ManufacturedSolution,
    theta: float,
    mesh_sizes,
    dt_rule,
    final_time: float,
    solver: SolverConfig | None = None,
) -> ConvergenceTable:
    """Spatial refinement study against the exact solution.

    Levels as in ``convergence_levels``, all checked, their Courant numbers
    and sizes (``scheme.check_run_input``) included, before the first run;
    a level that fails raises ``InputError("final_time", ...)``. Rows are
    ordered by decreasing h and rates are slopes between consecutive rows.
    """
    residual_check(mms)
    levels = [(make_problem(mms, nx), cfg) for nx, cfg in
              convergence_levels(theta, mesh_sizes, dt_rule, final_time)]
    for spec, cfg in levels:
        try:
            check_run_input(spec, cfg)
        except InputError as exc:  # the study derives dt from final_time
            raise InputError("final_time", str(exc)) from None

    def level(spec, cfg):
        result = run(spec, cfg, solver=solver)
        if not result.completed:
            raise RuntimeError(f"convergence run blew up at nx={spec.mesh.nx}")
        err_u, err_p = error_linf_l2(result)
        return spec.mesh.h, cfg.dt, err_u, err_p

    results = [level(spec, cfg) for spec, cfg in levels]
    hs = [r[0] for r in results]
    return _build_table(
        [spec.mesh.nx for spec, _ in levels], hs, [r[1] for r in results],
        [r[2] for r in results], [r[3] for r in results], spacings=hs,
    )


def temporal_study(
    mms: ManufacturedSolution,
    theta: float,
    nx: int,
    final_time: float,
    divisors=(25, 50, 100),
    ref_divisor: int = 800,
    solver: SolverConfig | None = None,
) -> ConvergenceTable:
    """Time-step refinement on a fixed mesh against a fine-step reference run.

    Comparing against a reference on the *same* mesh cancels the spatial
    error exactly, which isolates the quadratic-in-dt part of the error; an
    exact-solution comparison would be swamped by the O(h) spatial term.
    Errors are discrete weighted L2 norms of the coefficient differences,
    maximized over the coarse run's levels.

    The reference run builds the operators and the projected initial data
    (``scheme.RunSetup``) in its own ``run`` call; the coarse runs take them
    from its result, so only their step matrices and solves are new. Every
    run's time step is checked before the first run, as is the mesh: with no
    free velocity dof every error is zero and has no rate.
    """
    residual_check(mms)
    if EdgeClassification.of(nx, nx, mms.bc).n_free == 0:
        raise InputError("mesh", "mesh has no free velocity dofs; the time error is zero")
    divisors = sorted(int(d) for d in divisors)
    if not divisors or divisors[0] < 1:
        raise ValueError(f"divisors must be positive integers, at least one, got {divisors}")
    if len(set(divisors)) < len(divisors):
        raise ValueError(f"divisors must be distinct, got {divisors}")  # two runs of one dt have no rate
    stride = ref_divisor // divisors[-1]
    for d in divisors:  # a divisor of the reference's own step has no error to measure
        if d >= ref_divisor or ref_divisor % d != 0 or (ref_divisor // d) % stride != 0:
            raise ValueError(f"divisor {d} incompatible with reference {ref_divisor}")

    spec = make_problem(mms, nx)
    ref_cfg, *configs = [ThetaConfig.from_steps(theta, final_time, n) for n in (ref_divisor, *divisors)]
    for cfg in (ref_cfg, *configs):
        check_run_input(spec, cfg)
    snapshots = {}

    def keep(level, t, U, P):
        if level % stride == 0:
            snapshots[level] = (U.copy(), P.copy())

    ref = run(spec, ref_cfg, probes=(keep,), solver=solver, record_errors=False)
    if not ref.completed:
        raise RuntimeError("reference run blew up")
    A, Cdiag = ref.operators.A, ref.operators.Cdiag

    rows = []
    for d, cfg in zip(divisors, configs):
        ratio = ref_divisor // d
        worst_u, worst_p = 0.0, 0.0

        def compare(level, t, U, P):
            nonlocal worst_u, worst_p
            du = U - snapshots[level * ratio][0]
            dp = P - snapshots[level * ratio][1]
            worst_u = max(worst_u, math.sqrt(du @ spmv(A, du)))
            worst_p = max(worst_p, math.sqrt((dp * Cdiag) @ dp))

        res = run(spec, cfg, probes=(compare,), solver=solver, record_errors=False, setup=ref.setup)
        if not res.completed:
            raise RuntimeError(f"temporal run blew up at divisor {d}")
        rows.append((final_time / d, worst_u, worst_p))

    dts = [r[0] for r in rows]
    return _build_table(
        [nx] * len(rows), [spec.mesh.h] * len(rows), dts,
        [r[1] for r in rows], [r[2] for r in rows], spacings=dts,
    )


@dataclass(frozen=True)
class StabilityRow:
    theta: float
    multiplier: float
    dt: float
    dt_over_dtmax: float  # 0 when the bound is infinite
    status: str           # Stable / BlowUp / Drift
    final_energy: float   # nan on BlowUp, where the indefinite energy is rounding noise
    drift: float
    blowup_level: Optional[int] = None  # the level whose step blew up, on BlowUp


def stability_sweep(
    mms: ManufacturedSolution,
    thetas,
    multipliers,
    nx: int,
    ny: int | None = None,
    num_steps: int = 500,
    solver: SolverConfig | None = None,
) -> list:
    """Probe the stability boundary: run at multiples of the predicted dt_max.

    dt_max is ``cfl_max_dt`` of the ``spaces.stiffness_bound`` of the
    discretized problem's mesh, sides and material. For theta >= 1/4 the
    bound is infinite and the step is multiplier*10*h instead. The material
    of a manufactured solution is constant, so the bound is mu_max itself,
    and every run starts with the mu_max mode seeded into U0
    (``stability_setup``): at 1.5 dt_max a run blows up within 30 to 80
    steps for theta in [0, 0.2], and below dt_max it stays Stable, whatever
    the rounding. Just above dt_max the mode grows slowly, so such a run
    may complete; it is reported as Drift or even Stable rather than being
    forced into a verdict.

    A BlowUp row reports no final energy (nan): past
    ``scheme.BLOWUP_THRESHOLD`` the indefinite energy of theta < 1/4 cancels
    to rounding noise. It names the level whose step blew up instead.

    ``stability_setup`` builds the operators and the seeded initial data
    (``scheme.RunSetup``) once, after the checks and before the first run,
    and every run takes them, so only their step matrices and solves are
    new; at theta = 0 the runs share the line solve of A too
    (``MixedOperators.line_solve``).

    Every input is checked before the first run. A forced solution raises
    ``InputError("f", ...)``; a mesh with no free velocity dof or one
    element wide (``check_mesh_width``) raises ``InputError("mesh", ...)``;
    each run's ``ThetaConfig`` and Courant number are checked up front.
    """
    if mms.f is not None:
        raise InputError("f", "stability sweep expects a force-free manufactured solution")
    residual_check(mms)
    spec = make_problem(mms, nx, ny)
    mu = stiffness_bound(spec.mesh, spec.bc, spec.material)
    if mu == 0.0:
        raise InputError("mesh", "mesh has no free velocity dofs; dt_max is undefined")
    check_mesh_width(spec.mesh.nx, spec.mesh.ny)
    plan = []  # (multiplier, dt_max, ThetaConfig) of each run, in run order
    for theta in thetas:
        dtmax = cfl_max_dt(theta, mu)
        for m in multipliers:
            dt = m * dtmax if math.isfinite(dtmax) else m * 10.0 * spec.mesh.h
            cfg = ThetaConfig.from_steps(theta, dt * num_steps, num_steps)
            check_run_input(spec, cfg)
            plan.append((m, dtmax, cfg))
    setup = stability_setup(spec)

    def one(m, dtmax, cfg):
        result = run(spec, cfg, solver=solver, record_errors=False, setup=setup)
        if result.status == BLOWUP:
            return StabilityRow(cfg.theta, m, cfg.dt, cfg.dt / dtmax, BLOWUP, math.nan, math.inf, result.state.n)
        drift = energy_drift(result)
        status = STABLE if drift <= STABLE_DRIFT else DRIFT
        return StabilityRow(cfg.theta, m, cfg.dt, cfg.dt / dtmax, status, result.energies[-1].value, drift)

    out = [one(*p) for p in plan]
    return sorted(out, key=lambda r: (r.theta, r.multiplier))


def stability_setup(spec: ProblemSpec) -> RunSetup:
    """The set-up every run of ``stability_sweep`` shares: ``prepare``'s, with
    the mu_max mode seeded into the initial velocity.

    U0 gains ``SEED_SIZE`` max|U0| of ``spaces.max_divergence_mode``, the
    mode that grows first beyond dt_max, scaled to max|mode| = 1, and P0 is
    C^{-1} D U0 of the sum, so the data stay compatible. The mode is a
    closed form that makes no solve; it holds for constant material, which
    is all a sweep passes, since the material of a manufactured solution is
    constant. Without the seed a smooth U0, such as the standing wave,
    which is one discrete eigenmode, holds that mode only at rounding
    level, and whether it grows past
    ``scheme.BLOWUP_THRESHOLD`` within a sweep's steps depends on rounding.
    For constant material the mode is an exact eigenvector, so a theta > 0
    run below dt_max keeps to 2 CG iterations per solve, where a random
    perturbation of the same size took 6.6 to 7.9 (nx 16, theta 1/12 and
    0.2, 0.99 dt_max).
    """
    ops = assemble_operators(spec.mesh, spec.bc, spec.material)
    setup = prepare(spec, ops)
    mode = max_divergence_mode(ops)
    U0 = setup.U0 + (SEED_SIZE * np.abs(setup.U0).max() / np.abs(mode).max()) * mode
    P0 = spmv(ops.D, U0) / ops.Cdiag
    for field in (U0, P0):
        field.flags.writeable = False
    return replace(setup, U0=U0, P0=P0)
