import copy
import dataclasses
import math
import types
import warnings

import numpy as np
import pytest
import sympy

import mixedwave.multigrid as multigrid
import mixedwave.scheme as scheme
import mixedwave.verify as verify
import mixedwave.spaces as spaces
from mixedwave.linalg import InputError, spmv
from mixedwave.mesh import BoundaryKind, BoundaryPartition, RectMesh, build_rect_mesh
from mixedwave.scheme import EnergySample, SeparableSolution, ThetaConfig, check_run_input, run
from mixedwave.spaces import (
    MaterialField,
    assemble_operators,
    material_field,
    max_divergence_mode,
    project_pressure_p_h,
    project_velocity_pi_h,
    stiffness_bound,
)
from mixedwave.verify import (
    BLOWUP,
    DRIFT,
    STABLE,
    cfl_max_dt,
    check_mesh_width,
    convergence_levels,
    convergence_study,
    energy_drift,
    error_linf_l2,
    estimate_inverse_constant,
    make_problem,
    mms_forced,
    mms_standing_wave,
    observed_rates,
    relative_drifts,
    residual_check,
    stability_sweep,
    temporal_study,
)

from oracles import dense_inverse_constant, dense_max_eigenvalue, dense_operators


class TestManufacturedSolutions:
    def test_standing_wave_residual_at_sample_point(self):
        mms = mms_standing_wave()
        x, y, t = 0.3, 0.7, 0.11
        ax, ay = mms.u_tt(x, y, t)
        gx, gy = mms.grad_p(x, y, t)
        assert abs(mms.rho * ax - gx) < 1e-10
        assert abs(mms.rho * ay - gy) < 1e-10
        assert abs(mms.p(x, y, t) - mms.lam * mms.div_u(x, y, t)) < 1e-10

    def test_standing_wave_residual_sampling(self):
        assert residual_check(mms_standing_wave()) < 1e-10

    def test_normal_velocity_vanishes_on_boundary(self):
        # identically zero up to sin(pi) rounding at the far sides
        mms = mms_standing_wave()
        s = np.linspace(0.0, 1.0, 17)
        t = 0.37
        ux_left, _ = mms.u(0.0 * s, s, t)
        ux_right, _ = mms.u(1.0 + 0.0 * s, s, t)
        _, uy_bottom = mms.u(s, 0.0 * s, t)
        _, uy_top = mms.u(s, 1.0 + 0.0 * s, t)
        for vals in (ux_left, ux_right, uy_bottom, uy_top):
            assert np.abs(vals).max() < 1e-14

    def test_continuous_energy_value(self):
        mms = mms_standing_wave()
        assert mms.energy == pytest.approx(np.pi**4 / 2)
        assert mms.energy == pytest.approx(48.70454551700121)

    def test_derivative_callbacks_against_sympy(self):
        # independent derivation: differentiate the closed forms symbolically
        x, y, t, w = sympy.symbols("x y t w", real=True)
        profile = (-sympy.pi * sympy.sin(sympy.pi * x) * sympy.cos(sympy.pi * y),
                   -sympy.pi * sympy.cos(sympy.pi * x) * sympy.sin(sympy.pi * y))
        for mms, g in [
            (mms_standing_wave(), sympy.cos(sympy.sqrt(2) * sympy.pi * t)),
            (mms_forced(1.0), sympy.cos(t)),
            (mms_forced(0.0), sympy.Integer(1)),
        ]:
            u_sym = (g * profile[0], g * profile[1])
            p_sym = sympy.simplify(sympy.diff(u_sym[0], x) + sympy.diff(u_sym[1], y))
            f_sym = (sympy.diff(u_sym[0], t, 2) - sympy.diff(p_sym, x),
                     sympy.diff(u_sym[1], t, 2) - sympy.diff(p_sym, y))
            exprs = [
                u_sym[0], u_sym[1],
                sympy.diff(u_sym[0], t), sympy.diff(u_sym[1], t),
                sympy.diff(u_sym[0], t, 2), sympy.diff(u_sym[1], t, 2),
                p_sym,
                sympy.diff(p_sym, x), sympy.diff(p_sym, y),
                f_sym[0], f_sym[1],
            ]
            rng = np.random.default_rng(21)
            xs, ys, ts = rng.uniform(0, 1, (3, 20))
            got_u = mms.u(xs, ys, ts)
            got_ut = mms.u_t(xs, ys, ts)
            got_utt = mms.u_tt(xs, ys, ts)
            got_p = mms.p(xs, ys, ts)
            got_gp = mms.grad_p(xs, ys, ts)
            got_f = mms.f(xs, ys, ts) if mms.f is not None else (0 * xs, 0 * ys)
            gots = [got_u[0], got_u[1], got_ut[0], got_ut[1], got_utt[0], got_utt[1],
                    got_p, got_gp[0], got_gp[1], got_f[0], got_f[1]]
            for expr, got in zip(exprs, gots):
                fn = sympy.lambdify((x, y, t), expr)
                ref = np.broadcast_to(np.asarray(fn(xs, ys, ts), dtype=float), xs.shape)
                got = np.broadcast_to(np.asarray(got, dtype=float), xs.shape)
                assert np.abs(got - ref).max() < 1e-12

    def test_forced_at_resonance_is_force_free(self):
        mms = mms_forced(math.sqrt(2.0) * math.pi)
        x = np.linspace(0, 1, 7)
        fx, fy = mms.f(x, x, 0.5)
        assert np.abs(fx).max() < 1e-13 and np.abs(fy).max() < 1e-13

    def test_forced_unit_frequency_residual(self):
        assert residual_check(mms_forced(1.0)) < 1e-10

    def test_forced_zero_frequency_is_static(self):
        mms = mms_forced(0.0)
        x = np.linspace(0, 1, 5)
        for t in (0.0, 0.7, 2.3):
            vx, vy = mms.u_t(x, x, t)
            assert np.abs(vx).max() == 0.0 and np.abs(vy).max() == 0.0

    def test_every_solution_starts_at_rest_without_a_v0(self):
        x, y = np.meshgrid(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 7))
        for mms in (mms_standing_wave(), mms_forced(0.0), mms_forced(1.0), mms_forced(3.5), mms_mixed_sides()):
            assert not np.any(mms.u_t(x, y, 0.0))
            assert make_problem(mms, 4).v0 is None

    def test_residual_check_rejects_a_solution_not_at_rest(self):
        from dataclasses import replace

        # the equations still hold; only the initial velocity is off
        mms = mms_standing_wave()
        moving = replace(mms, u_t=lambda x, y, t: mms.u(x, y, t))
        with pytest.raises(ValueError, match="does not start at rest"):
            residual_check(moving)

    def test_residual_check_catches_broken_solution(self):
        from dataclasses import replace

        broken = replace(mms_standing_wave(), p=lambda x, y, t: 0.0 * x)
        with pytest.raises(ValueError, match="residual"):
            residual_check(broken)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -1.0, 1e200])
    def test_forced_rejects_bad_frequency(self, omega):
        with pytest.raises(ValueError, match="omega"):
            mms_forced(omega)

    def test_residual_check_reports_an_overflow_as_nan_without_warning(self):
        # omega^2 = 1e308 is finite, but the residual overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="residual nan"):
                residual_check(mms_forced(1e154))

    @pytest.mark.parametrize("field", ["u_tt", "p"])
    def test_residual_check_rejects_nan(self, field):
        # u_tt feeds the first residual, p the second
        from dataclasses import replace

        def nan_field(x, y, t):
            return np.full_like(x, np.nan) if field == "p" else (np.full_like(x, np.nan), 0.0 * y)

        broken = replace(mms_standing_wave(), **{field: nan_field})
        with pytest.raises(ValueError, match="residual nan"):
            residual_check(broken)


DIR, NEU = BoundaryKind.DIRICHLET_P, BoundaryKind.NEUMANN_U
ALL_PARTITIONS = [
    BoundaryPartition(*[NEU if code >> side & 1 else DIR for side in range(4)])
    for code in range(16)
]


def log_uniform_material(mesh, seed=20240711, bounds=(0.25, 4.0)):
    """Seeded rho and lambda per element, log-uniform in bounds; the field's
    bounds are the sampled extremes, as ``material_field`` sets them."""
    rng = np.random.default_rng(seed)
    rho, lam = np.exp(rng.uniform(*np.log(bounds), (2, mesh.n_elements)))
    return MaterialField(rho, lam, rho.min(), rho.max(), lam.min(), lam.max())


MATERIALS = {
    "unit": lambda mesh: material_field(mesh, 1.0, 1.0),
    "uniform": lambda mesh: material_field(mesh, 4.0, 0.25),
    "log-uniform": log_uniform_material,
}


class TestInverseConstant:
    @pytest.mark.parametrize("material", MATERIALS)
    @pytest.mark.parametrize("bc", ALL_PARTITIONS)
    @pytest.mark.parametrize(
        "nx,ny,extents", [(3, 5, (0.0, 1.0, 0.0, 1.0)), (5, 2, (-1.0, 2.0, 0.0, 0.5))]
    )
    def test_closed_form_matches_dense_on_every_partition(self, nx, ny, extents, bc, material):
        """The stiffness bound equals mu_max for uniform material and bounds it otherwise."""
        mesh = build_rect_mesh(nx, ny, extents)
        field = MATERIALS[material](mesh)
        bound, dense = stiffness_bound(mesh, bc, field), dense_max_eigenvalue(mesh, bc, field)
        if material == "log-uniform":
            assert bound >= dense
        else:  # compared as C0 = h sqrt(mu)
            assert mesh.h * math.sqrt(bound) == pytest.approx(mesh.h * math.sqrt(dense), rel=1e-12, abs=0.0)
        if material == "unit":
            assert estimate_inverse_constant(mesh, bc) == mesh.h * math.sqrt(bound)

    @pytest.mark.parametrize("nx", [2, 4])
    def test_matches_dense_eigensolve(self, nx):
        mesh = build_rect_mesh(nx, nx)
        bc = BoundaryPartition.all_dirichlet()
        assert estimate_inverse_constant(mesh, bc) == pytest.approx(
            dense_inverse_constant(mesh, bc), abs=1e-6
        )

    def test_matches_dense_eigensolve_constrained(self):
        mesh = build_rect_mesh(4, 4)
        bc = BoundaryPartition.all_neumann()
        assert estimate_inverse_constant(mesh, bc) == pytest.approx(
            dense_inverse_constant(mesh, bc), abs=1e-6
        )

    def test_h_independence_on_unconstrained_family(self):
        vals = [
            estimate_inverse_constant(build_rect_mesh(nx, nx), BoundaryPartition.all_dirichlet())
            for nx in (4, 8, 16)
        ]
        assert (max(vals) - min(vals)) / min(vals) <= 0.02

    def test_positive_for_any_free_dof(self):
        mesh = build_rect_mesh(2, 1)
        assert estimate_inverse_constant(mesh, BoundaryPartition.all_neumann()) > 0

    def test_rejects_fully_constrained_mesh(self):
        mesh = build_rect_mesh(1, 1)
        with pytest.raises(ValueError):
            estimate_inverse_constant(mesh, BoundaryPartition.all_neumann())


def bound_from_c0(h, C0, rho0, lambda1):
    """mu = C0^2 lambda1 / (h^2 rho0): the bound of material bounds rho0, lambda1
    on a mesh whose unit-material inverse constant is C0."""
    return C0**2 * lambda1 / (h**2 * rho0)


class TestCflBound:
    MU = bound_from_c0(0.1, 2.0, 1.0, 1.0)  # 400

    def test_infinite_at_and_above_quarter(self):
        assert cfl_max_dt(0.25, self.MU) == math.inf
        assert cfl_max_dt(1.0, self.MU) == math.inf

    def test_explicit_value(self):
        assert cfl_max_dt(0.0, self.MU) == pytest.approx(0.1)

    def test_density_scaling(self):
        base = cfl_max_dt(0.0, self.MU)
        assert cfl_max_dt(0.0, bound_from_c0(0.1, 2.0, 2.0, 1.0)) == pytest.approx(math.sqrt(2) * base)

    def test_monotone_in_theta(self):
        vals = [cfl_max_dt(th, self.MU) for th in (0.0, 0.1, 0.2, 0.24)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("mu", [0.0, -1.0, math.nan])
    def test_rejects_a_bound_that_is_not_positive(self, mu):
        with pytest.raises(ValueError, match="mu must be positive"):
            cfl_max_dt(0.0, mu)

    def test_no_free_dof_has_a_zero_bound(self):
        mesh = build_rect_mesh(1, 1)
        assert stiffness_bound(mesh, BoundaryPartition.all_neumann(), material_field(mesh, 1.0, 1.0)) == 0.0


ENERGY_SERIES = [  # energies, their drifts against the first
    ((2.0, 3.0, 1.0), [0.0, 0.5, 0.5]),
    ((0.0, -0.25, 0.5), [0.0, 0.25, 0.5]),  # E0 = 0: the deviation itself
]


def energy_samples(values):
    return [EnergySample(n, n + 0.5, v) for n, v in enumerate(values)]


class TestEnergyDrift:
    @pytest.mark.parametrize("values, drifts", ENERGY_SERIES)
    def test_drifts_are_relative_to_the_first_sample(self, values, drifts):
        samples = energy_samples(values)
        assert relative_drifts(samples) == drifts
        assert energy_drift(types.SimpleNamespace(energies=samples)) == max(drifts)


class TestErrorNorms:
    def test_zero_against_zero(self):
        spec = make_problem(mms_standing_wave(), 3)
        spec.u0 = spec.v0 = lambda x, y: (0.0 * x, 0.0 * y)
        spec.p0 = lambda x, y: 0.0 * x
        spec.exact = SeparableSolution(
            lambda t: 1.0, lambda x, y: (0.0 * x, 0.0 * y), lambda x, y: 0.0 * x
        )
        res = run(spec, ThetaConfig.from_steps(0.25, 0.1, 4))
        assert error_linf_l2(res) == (0.0, 0.0)

    def test_projected_exact_state_reports_projection_error(self):
        mms = mms_standing_wave()
        spec = make_problem(mms, 8)
        from mixedwave.spaces import (
            assemble_operators,
            pressure_best_approximation,
            pressure_l2_error,
            velocity_best_approximation,
            velocity_l2_error,
        )

        ops = assemble_operators(spec.mesh, spec.bc, spec.material)
        U = project_velocity_pi_h(spec.mesh, ops.classification, spec.u0)
        P = project_pressure_p_h(spec.mesh, spec.p0)
        exact = spec.exact
        Pi_u, beta_u = velocity_best_approximation(ops, exact.velocity_profile)
        mean_p, beta_p = pressure_best_approximation(ops, exact.pressure_profile)
        g0 = exact.time_factor(0.0)
        eu = velocity_l2_error(ops.A, Pi_u, beta_u, g0, U)
        ep = pressure_l2_error(ops.Cdiag, mean_p, beta_p, g0, P)
        assert 0 < eu < 0.5 * spec.mesh.h * np.pi**2
        assert 0 < ep < 2.0 * spec.mesh.h * np.pi**2

    def test_errors_shrink_under_refinement(self):
        mms = mms_standing_wave()
        errs = []
        for nx in (8, 16):
            res = run(make_problem(mms, nx), ThetaConfig.from_steps(0.25, 0.5, 64))
            errs.append(error_linf_l2(res))
        assert errs[1][0] < errs[0][0]
        assert errs[1][1] < errs[0][1]

    def test_requires_exact_fields(self):
        spec = make_problem(mms_standing_wave(), 4)
        res = run(spec, ThetaConfig.from_steps(0.25, 0.1, 4), record_errors=False)
        with pytest.raises(ValueError):
            error_linf_l2(res)


class TestConvergenceStudies:
    def test_single_level_has_errors_but_no_rates(self):
        table = convergence_study(
            mms_standing_wave(), 0.25, [8], lambda h: h / 4, 0.25
        )
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row.err_u > 0 and row.err_p > 0
        assert row.rate_u is None and row.rate_p is None

    def test_rows_ordered_by_decreasing_h(self):
        table = convergence_study(
            mms_standing_wave(), 0.25, [16, 8], lambda h: h / 4, 0.25
        )
        assert table.rows[0].h > table.rows[1].h
        assert table.rows[1].rate_u == pytest.approx(1.0, abs=0.15)

    def test_every_level_is_checked_before_the_first_run(self, monkeypatch):
        # nx 8, 16 and 32 could run; nx 64 needs 18.1 M steps, above the cap
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(verify, "run", no_run)
        with pytest.raises(ValueError, match="exceed the cap"):
            convergence_study(mms_standing_wave(), 0.25, [8, 16, 32, 64], lambda h: h / 4, 1e5)

    def test_observed_rates_reference_formula(self):
        rates = observed_rates([0.2, 0.1], [1.0, 0.5])
        assert rates[0] is None
        assert rates[1] == pytest.approx(1.0)

    def test_temporal_mode_sees_second_order(self):
        table = temporal_study(mms_standing_wave(), 0.25, 16, 0.5,
                               divisors=(25, 50), ref_divisor=400)
        assert 1.8 <= table.rows[-1].rate_u <= 2.2
        assert 1.8 <= table.rows[-1].rate_p <= 2.2

    def test_forced_problem_keeps_first_order_in_space(self):
        # exercises the load assembly end to end against the exact solution
        table = convergence_study(mms_forced(1.0), 0.25, (8, 16), lambda h: h / 4, 0.5)
        assert 0.85 <= table.rows[-1].rate_u <= 1.15
        assert 0.85 <= table.rows[-1].rate_p <= 1.15


def checkerboard(base, bump, n):
    def field(x, y):
        i = np.clip(np.floor(np.asarray(x) * n), 0, n - 1)
        j = np.clip(np.floor(np.asarray(y) * n), 0, n - 1)
        return base + bump * ((i + j) % 2)

    return field


class TestHeterogeneousMaterial:
    """Energy conservation with cell-aligned variable density and stiffness."""

    def build_spec(self, n=8):
        from mixedwave.scheme import ProblemSpec
        from mixedwave.spaces import material_field

        mesh = build_rect_mesh(n, n)
        rho = checkerboard(1.0, 0.25, n)
        lam = checkerboard(1.0, 0.5, n)
        return ProblemSpec(
            mesh=mesh,
            bc=BoundaryPartition.all_dirichlet(),
            material=material_field(mesh, rho, lam),
            f=None,
            u0=lambda x, y: (x, 1.0 * y),  # div u0 = 2
            v0=lambda x, y: (0.0 * x, 0.0 * y),
            p0=lambda x, y: 2.0 * lam(x, y),
        )

    @pytest.mark.parametrize("theta", [0.25, 1.0])
    def test_energy_conserved_unconditionally(self, theta):
        spec = self.build_spec()
        res = run(spec, ThetaConfig.from_steps(theta, 2.0, 100), record_errors=False)
        assert res.completed
        assert energy_drift(res) <= 1e-10

    def test_energy_conserved_under_material_scaled_cfl(self):
        spec = self.build_spec()
        dt = 0.9 * cfl_max_dt(0.0, stiffness_bound(spec.mesh, spec.bc, spec.material))
        res = run(spec, ThetaConfig(0.0, dt, 300), record_errors=False)
        assert res.completed
        assert energy_drift(res) <= 1e-10


def mms_mixed_sides():
    """Force-free mode with pressure sides left/right, no-flux sides bottom/top.

    Gradient of sin(pi x) cos(pi y): the pressure vanishes at x in {0, 1}
    (consistent with DIRICHLET_P) and the normal velocity at y in {0, 1}
    (consistent with NEUMANN_U). Same frequency and energy as the
    all-no-flux standing wave.
    """
    from mixedwave.mesh import BoundaryKind
    from mixedwave.verify import ManufacturedSolution, SQRT2_PI

    def grad_psi(x, y):
        return np.pi * np.cos(np.pi * x) * np.cos(np.pi * y), -np.pi * np.sin(
            np.pi * x
        ) * np.sin(np.pi * y)

    def psi_laplacian(x, y):
        return -2.0 * np.pi**2 * np.sin(np.pi * x) * np.cos(np.pi * y)

    exact = SeparableSolution(lambda t: np.cos(SQRT2_PI * t), grad_psi, psi_laplacian)

    def u_t(x, y, t):
        gx, gy = grad_psi(x, y)
        dg = -SQRT2_PI * np.sin(SQRT2_PI * t)
        return dg * gx, dg * gy

    def u_tt(x, y, t):
        gx, gy = grad_psi(x, y)
        ddg = -2.0 * np.pi**2 * np.cos(SQRT2_PI * t)
        return ddg * gx, ddg * gy

    def grad_p(x, y, t):
        gx, gy = grad_psi(x, y)
        g = np.cos(SQRT2_PI * t)
        return -2.0 * np.pi**2 * g * gx, -2.0 * np.pi**2 * g * gy

    return ManufacturedSolution(
        name="mixed-sides",
        rho=1.0,
        lam=1.0,
        bc=BoundaryPartition(
            left=BoundaryKind.DIRICHLET_P,
            right=BoundaryKind.DIRICHLET_P,
            bottom=BoundaryKind.NEUMANN_U,
            top=BoundaryKind.NEUMANN_U,
        ),
        u=exact.u,
        u_t=u_t,
        p=exact.p,
        f=None,
        u_tt=u_tt,
        grad_p=grad_p,
        div_u=exact.p,
        energy=0.5 * np.pi**4,
        exact=exact,
    )


class TestMixedBoundaryPartition:
    """End-to-end behavior with a genuinely mixed side tagging."""

    def test_residual_and_energy_conservation(self):
        mms = mms_mixed_sides()
        assert residual_check(mms) < 1e-10
        spec = make_problem(mms, 16)
        res = run(spec, ThetaConfig.from_steps(0.25, 1.0, 128))
        assert res.completed
        assert energy_drift(res) <= 1e-10
        assert res.energies[0].value == pytest.approx(mms.energy, rel=0.02)

    def test_first_order_convergence(self):
        table = convergence_study(mms_mixed_sides(), 0.25, (8, 16), lambda h: h / 4, 0.5)
        assert 0.85 <= table.rows[-1].rate_u <= 1.15
        assert 0.85 <= table.rows[-1].rate_p <= 1.15


class TestStabilitySweep:
    def test_explicit_scheme_boundary(self):
        rows = stability_sweep(
            mms_standing_wave(), [0.0], (0.9, 1.5), 16, num_steps=500
        )
        by_mult = {r.multiplier: r for r in rows}
        assert by_mult[0.9].status == STABLE
        assert by_mult[1.5].status == BLOWUP
        assert by_mult[0.9].dt_over_dtmax == pytest.approx(0.9)

    def test_unconditionally_stable_theta(self):
        rows = stability_sweep(
            mms_standing_wave(), [0.5], (0.9, 1.5), 8, num_steps=100
        )
        assert all(r.status == STABLE for r in rows)
        assert all(r.dt_over_dtmax == 0.0 for r in rows)
        assert rows[0].dt == pytest.approx(0.9 * 10 * build_rect_mesh(8, 8).h)

    def test_rejects_forced_solution(self):
        with pytest.raises(ValueError):
            stability_sweep(mms_forced(1.0), [0.0], (0.9,), 4)

    # Without the seeded mode, theta = 0 read Stable or Drift at 1.5 dt_max on
    # these sizes: the standing wave holds the mu_max mode at rounding level only
    @pytest.mark.parametrize("thetas, nx", [
        *[([0.0], nx) for nx in (5, 6, 7, 8, 11, 13, 15, 18)],
        *[([1 / 12, 0.2], nx) for nx in (8, 16)],
    ])
    def test_the_seeded_mode_decides_the_boundary(self, thetas, nx):
        rows = stability_sweep(mms_standing_wave(), thetas, (0.99, 1.5), nx)
        want = [(theta, m, status) for theta in thetas for m, status in ((0.99, STABLE), (1.5, BLOWUP))]
        assert [(r.theta, r.multiplier, r.status) for r in rows] == want
        # The seed s = SEED_SIZE max|U0| of the mode at mu_max evolves as s T_n(c), with T_n the
        # Chebyshev polynomial and c = (1 - (1/2 - theta) x) / (1 + theta x), x = dt^2 mu_max
        # (the closed form of TestClosedFormTrajectory), so max|U| passes BLOWUP_THRESHOLD at
        # the first n with s cosh(n arccosh|c|) above it
        spec = make_problem(mms_standing_wave(), nx)
        seed = verify.SEED_SIZE * np.abs(scheme.prepare(spec, assemble_operators(spec.mesh, spec.bc, spec.material)).U0).max()
        for r in rows[1::2]:
            x = r.multiplier**2 / (0.25 - r.theta)
            c = (1.0 - (0.5 - r.theta) * x) / (1.0 + r.theta * x)
            predicted = math.ceil(math.acosh(scheme.BLOWUP_THRESHOLD / seed) / math.acosh(abs(c)))
            assert abs(r.blowup_level - predicted) <= 1

    def test_the_seed_is_compatible_and_small(self):
        spec = make_problem(mms_standing_wave(), 8)
        seeded = verify.stability_setup(spec)
        plain = scheme.prepare(spec, seeded.operators)
        ops = seeded.operators
        assert np.array_equal(seeded.P0, spmv(ops.D, seeded.U0) / ops.Cdiag)
        change = np.abs(seeded.U0 - plain.U0).max()
        assert change == pytest.approx(verify.SEED_SIZE * np.abs(plain.U0).max(), rel=1e-5)
        assert np.array_equal(seeded.V0, plain.V0)
        for field in (seeded.U0, seeded.P0):
            assert not field.flags.writeable

    def test_the_runs_share_one_set_of_line_inverses(self, monkeypatch):
        built = []
        inner = spaces.LineSolve

        def counting(*args):
            built.append(args)
            return inner(*args)

        monkeypatch.setattr(spaces, "LineSolve", counting)
        stability_sweep(mms_standing_wave(), [0.0], (0.5, 0.99, 1.5), 8, num_steps=50)
        assert len(built) == 1

    def test_rows_sorted(self):
        rows = stability_sweep(
            mms_standing_wave(), [0.5, 0.25], (0.5, 0.9), 4, num_steps=20
        )
        keys = [(r.theta, r.multiplier) for r in rows]
        assert keys == sorted(keys)


class TestMaxDivergenceMode:
    """``spaces.max_divergence_mode`` against the dense oracle operators."""

    BOX = (0.0, 1.3, 0.0, 0.7)

    @pytest.mark.parametrize("nx, ny, extents, rho, lam", [
        pytest.param(5, 4, (0.0, 1.0, 0.0, 1.0), 1.0, 1.0, id="5-4"),
        pytest.param(1, 5, (0.0, 1.0, 0.0, 1.0), 1.0, 1.0, id="1-5"),
        pytest.param(6, 1, (0.0, 1.0, 0.0, 1.0), 1.0, 1.0, id="6-1"),
        pytest.param(5, 7, BOX, 2.5, 0.6, id="5-7-box"),
        pytest.param(1, 4, BOX, 2.5, 0.6, id="1-4-box"),
        pytest.param(10, 6, BOX, 2.5, 0.6, id="10-6-box"),
    ])
    @pytest.mark.parametrize("bc", ALL_PARTITIONS)
    def test_is_an_eigenvector_at_mu_max(self, nx, ny, extents, rho, lam, bc):
        mesh = build_rect_mesh(nx, ny, extents)
        material = material_field(mesh, rho, lam)
        A, Cdiag, D = dense_operators(mesh, bc, material)
        U = max_divergence_mode(assemble_operators(mesh, bc, material))
        mu = stiffness_bound(mesh, bc, material)  # mu_max itself, for constant material
        KU = D.T @ ((D @ U) / Cdiag)
        assert np.linalg.norm(KU - mu * (A @ U)) <= 1e-10 * np.linalg.norm(KU)
        assert np.abs(U).max() > 0


class TestSharedSetUp:
    """The studies build one set-up and share it between their runs: the
    temporal study in its first run, the stability sweep before its runs."""

    @staticmethod
    def independent(monkeypatch, own_setup):
        """Make every run of a study take a set-up of its own, ``own_setup(spec)``;
        None makes the run build it."""
        inner = verify.run

        def fresh(spec, *args, setup=None, **kwargs):
            return inner(spec, *args, setup=own_setup(spec), **kwargs)

        monkeypatch.setattr(verify, "run", fresh)

    @staticmethod
    def recording(monkeypatch):
        """Count the set-up work of a study: the calls of assemble_operators and
        of the two projections in all, and per run, those made during it and
        whether it was given a set-up."""
        counts = {"assemble": 0, "project": 0}
        per_run = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(scheme, "assemble_operators", counting("assemble", scheme.assemble_operators))
        monkeypatch.setattr(verify, "assemble_operators", counting("assemble", verify.assemble_operators))
        monkeypatch.setattr(scheme, "project_velocity_pi_h", counting("project", scheme.project_velocity_pi_h))
        monkeypatch.setattr(scheme, "project_pressure_p_h", counting("project", scheme.project_pressure_p_h))
        inner = verify.run

        def observed(*args, **kwargs):
            before = dict(counts)
            result = inner(*args, **kwargs)
            per_run.append((kwargs.get("setup") is not None, counts["assemble"] - before["assemble"],
                            counts["project"] - before["project"]))
            return result

        monkeypatch.setattr(verify, "run", observed)
        return counts, per_run

    def sweep(self):
        # nx 12 at theta = 0 blows up at 1.5 dt_max, so a BlowUp row is compared too
        return stability_sweep(mms_standing_wave(), [0.0, 0.25], (0.5, 0.99, 1.5), 12, num_steps=500)

    def temporal(self):
        return temporal_study(mms_standing_wave(), 0.25, 8, 0.25, divisors=(2, 4, 8), ref_divisor=32)

    def test_sweep_rows_are_those_of_independent_runs(self, monkeypatch):
        shared = self.sweep()
        assert BLOWUP in {r.status for r in shared}
        self.independent(monkeypatch, verify.stability_setup)
        # repr prints every float round-trip exactly, nan included
        assert repr(shared) == repr(self.sweep())

    def test_temporal_table_is_that_of_independent_runs(self, monkeypatch):
        shared = self.temporal()
        self.independent(monkeypatch, lambda spec: None)
        assert repr(shared) == repr(self.temporal())

    @pytest.mark.parametrize("study", ["stability", "temporal"])
    def test_later_runs_assemble_and_project_nothing(self, study, monkeypatch):
        counts, per_run = self.recording(monkeypatch)
        self.sweep() if study == "stability" else self.temporal()
        # the standing wave has u0 and p0; v0 is None and projects to zero
        assert counts == {"assemble": 1, "project": 2}
        first = (True, 0, 0) if study == "stability" else (False, 1, 2)  # the sweep seeds its set-up before its runs
        assert per_run == [first] + [(True, 0, 0)] * (len(per_run) - 1)
        assert len(per_run) == (6 if study == "stability" else 4)

    def test_blowup_rows_report_no_energy(self):
        rows = {r.multiplier: r for r in self.sweep() if r.theta == 0.0}
        assert rows[1.5].status == BLOWUP and math.isnan(rows[1.5].final_energy)
        assert 1 < rows[1.5].blowup_level < 500
        for m in (0.5, 0.99):
            assert rows[m].status == STABLE and math.isfinite(rows[m].final_energy)
            assert rows[m].blowup_level is None


def assert_same(before, after):
    """Recursive equality of a deep copy taken before a call and the object after it.

    Arrays compare by dtype and value, dataclasses and meshes field by field;
    functions and scalars by ==, which for a deep-copied function is identity.
    """
    if isinstance(before, np.ndarray):
        assert isinstance(after, np.ndarray) and before.dtype == after.dtype
        assert np.array_equal(before, after)
    elif dataclasses.is_dataclass(before):
        assert type(before) is type(after)
        for field in dataclasses.fields(before):
            assert_same(getattr(before, field.name), getattr(after, field.name))
    elif isinstance(before, types.MethodType):  # deepcopy copies a bound method's instance
        assert before.__func__ is after.__func__
        assert_same(before.__self__, after.__self__)
    elif isinstance(before, RectMesh):
        assert vars(before).keys() == vars(after).keys()
        for name, value in vars(before).items():
            assert_same(value, getattr(after, name))
    else:
        assert before == after


class TestInputsAreLeftAlone:
    """Library calls leave the ProblemSpec or ManufacturedSolution they are given unchanged."""

    def hetero_spec(self, nx):
        # the forced profile has u.n = 0 on every side, so any partition keeps C P0 = D U0
        spec = make_problem(mms_forced(1.0), nx)
        rho = np.random.default_rng(6).uniform(0.5, 2.0, spec.mesh.n_elements)
        bc = BoundaryPartition(BoundaryKind.DIRICHLET_P, BoundaryKind.NEUMANN_U,
                               BoundaryKind.NEUMANN_U, BoundaryKind.DIRICHLET_P)
        return dataclasses.replace(spec, bc=bc, material=material_field(spec.mesh, lambda x, y: rho, 1.0))

    @pytest.mark.parametrize("theta, dt_per_h", [(0.25, 0.2), (1.0, 3.0)])
    def test_run(self, theta, dt_per_h, monkeypatch):
        # a coarsest grid of 16 dofs sends the large step down the multigrid path
        monkeypatch.setattr(multigrid, "COARSEST_DOFS", 16)
        spec = self.hetero_spec(8)
        before = copy.deepcopy(spec)
        res = run(spec, ThetaConfig.from_steps(theta, 6 * dt_per_h * spec.mesh.h, 6))
        assert res.completed and len(res.error_u) == 7
        assert_same(before, spec)

    def test_assemble_operators(self):
        spec = self.hetero_spec(5)
        before = copy.deepcopy(spec)
        assemble_operators(spec.mesh, spec.bc, spec.material)
        assert_same(before, spec)

    @pytest.mark.parametrize("study", ["stability", "convergence", "temporal"])
    def test_studies(self, study):
        mms = mms_forced(1.0) if study == "convergence" else mms_standing_wave()
        before = copy.deepcopy(mms)
        if study == "stability":
            stability_sweep(mms, [0.0, 0.25], (0.5,), 4, num_steps=10)
        elif study == "convergence":
            convergence_study(mms, 0.25, (4, 8), lambda h: h / 4, 0.1)
        else:
            temporal_study(mms, 0.25, 4, 0.1, divisors=(2, 4), ref_divisor=8)
        assert_same(before, mms)


QUARTER_H = lambda h: h / 4  # noqa: E731


class TestInputErrors:
    """Each input check raises an InputError, a ValueError that names the
    parameter at fault; the studies raise theirs before their first run."""

    @pytest.mark.parametrize("parameter, call", [
        pytest.param("theta", lambda: ThetaConfig(1.5, 0.1, 10), id="theta-range"),
        pytest.param("theta", lambda: convergence_levels(-0.1, [8], QUARTER_H, 1.0), id="levels-theta"),
        pytest.param("dt", lambda: ThetaConfig(0.25, -0.1, 10), id="dt-negative"),
        pytest.param("dt", lambda: ThetaConfig(0.25, 0.1, 0), id="no-step"),
        pytest.param("dt", lambda: ThetaConfig(0.25, 0.1, 2.5), id="steps-fraction"),
        pytest.param("dt", lambda: ThetaConfig(0.25, 0.1, math.nan), id="steps-nan"),
        pytest.param("dt", lambda: ThetaConfig(0.25, 0.1, True), id="steps-bool"),
        pytest.param("dt", lambda: ThetaConfig.from_steps(0.25, 1.0, 2.5), id="from-steps-fraction"),
        pytest.param("dt", lambda: ThetaConfig.from_dt(0.25, 1.5, 0.4), id="horizon"),  # 4 steps reach 1.6
        pytest.param("dt", lambda: ThetaConfig.from_dt(0.25, 1.0, 0.3), id="not-a-divisor"),
        pytest.param("dt", lambda: ThetaConfig.from_dt(0.25, 1.0, 1e-300), id="steps-cap"),
        pytest.param("dt", lambda: ThetaConfig.from_dt(0.25, 1.0, 1e-320), id="steps-not-finite"),
        pytest.param("dt", lambda: ThetaConfig.from_dt(0.25, 1e200, 1e200), id="dt-squared"),
        pytest.param("dt", lambda: ThetaConfig.from_dt(0.25, 1.0, 0.0), id="from-dt-zero"),
        pytest.param("dt", lambda: ThetaConfig.from_steps(0.25, 1.0, 0), id="from-steps-zero"),
        pytest.param("dt", lambda: check_run_input(make_problem(mms_standing_wave(), 8),
                                                   ThetaConfig.from_dt(0.25, 1e50, 1e50)), id="courant"),
        # 10^6 steps x 130 560 free dofs = 1.31e11
        pytest.param("dt", lambda: check_run_input(make_problem(mms_standing_wave(), 256), ThetaConfig(0.25, 1e-6, 10**6)),
                     id="step-dofs-cap"),
        # nx 64 needs 18.1 M steps; converge derives dt from T
        pytest.param("final_time", lambda: convergence_levels(0.25, [8, 64], QUARTER_H, 1e5), id="levels-cap"),
        pytest.param("final_time", lambda: convergence_study(mms_standing_wave(), 0.25, [8, 64], QUARTER_H, 1e5),
                     id="convergence-cap"),
        # nx 64 takes 1.81 M steps, below the step cap, x 8064 free dofs = 1.46e10
        pytest.param("final_time", lambda: convergence_study(mms_standing_wave(), 0.25, [8, 64], QUARTER_H, 1e4),
                     id="convergence-step-dofs-cap"),
        pytest.param("final_time", lambda: convergence_study(mms_standing_wave(), 0.25, [2, 4], QUARTER_H, math.inf),
                     id="convergence-infinite-horizon"),
        pytest.param("f", lambda: stability_sweep(mms_forced(1.0), [0.0], (0.9,), 4), id="sweep-forced"),
        pytest.param("dt", lambda: stability_sweep(mms_standing_wave(), [0.0], (0.5,), 4, num_steps=0),
                     id="sweep-no-step"),
        pytest.param("dt", lambda: stability_sweep(mms_standing_wave(), [0.0], (0.5,), 4, num_steps=2.5),
                     id="sweep-steps-fraction"),
        pytest.param("mesh", lambda: estimate_inverse_constant(build_rect_mesh(1, 1), BoundaryPartition.all_neumann()),
                     id="no-free-dof"),
        pytest.param("mesh", lambda: stability_sweep(mms_standing_wave(), [0.0], (0.5,), 1, 1), id="sweep-no-free-dof"),
        pytest.param("mesh", lambda: stability_sweep(mms_standing_wave(), [0.0], (0.5,), 1, 8), id="sweep-1-wide"),
        pytest.param("mesh", lambda: stability_sweep(mms_standing_wave(), [0.0], (0.5,), 8, 1), id="sweep-1-high"),
        pytest.param("mesh", lambda: check_mesh_width(5, 1), id="mesh-width"),
        pytest.param("mesh", lambda: temporal_study(mms_standing_wave(), 0.25, 1, 0.25, divisors=(1, 2), ref_divisor=8),
                     id="temporal-no-free-dof"),
        # the second run's Courant number overflows: found before the first run
        pytest.param("dt", lambda: stability_sweep(mms_standing_wave(), [0.0], (0.5, 1e60), 8), id="sweep-courant"),
        # dt^2 lambda1 / (rho0 hx hy) = dt^2 nx^2 at dt = T = 1e50: 1e100 at nx 1, 4e100 at nx 2
        # convergence_study takes no dt: it derives the step from final_time
        pytest.param("final_time", lambda: convergence_study(mms_standing_wave(), 0.25, [1, 2], lambda h: 1e50, 1e50),
                     id="convergence-courant"),
        # 6.25e98 for the reference run at nx 2, 4e100 for the one coarse run
        pytest.param("dt", lambda: temporal_study(mms_standing_wave(), 0.25, 2, 1e50, divisors=(1,), ref_divisor=8),
                     id="temporal-courant"),
    ])
    def test_names_its_parameter_before_any_run(self, parameter, call, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(verify, "run", no_run)
        with pytest.raises(ValueError) as caught:
            call()
        assert isinstance(caught.value, InputError)
        assert caught.value.parameter == parameter

    @pytest.mark.parametrize("call, message", [
        # two levels or runs of one step have no rate between them
        (lambda: convergence_study(mms_standing_wave(), 0.25, [2, 4, 2], QUARTER_H, 0.25), "must be distinct"),
        (lambda: temporal_study(mms_standing_wave(), 0.25, 2, 0.25, divisors=(2, 1, 2), ref_divisor=8),
         "must be distinct"),
        # the reference's own step has no error against it
        (lambda: temporal_study(mms_standing_wave(), 0.25, 2, 0.25, divisors=(1, 8), ref_divisor=8),
         "divisor 8 incompatible"),
        # a zero divisor has no step
        (lambda: temporal_study(mms_standing_wave(), 0.25, 2, 0.25, divisors=(0, 2), ref_divisor=8),
         "divisors must be positive"),
    ])
    def test_studies_reject_inputs_without_a_rate_before_any_run(self, call, message, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(verify, "run", no_run)
        with pytest.raises(ValueError, match=message):
            call()
