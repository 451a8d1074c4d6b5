import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import mixedwave.linalg as linalg
import mixedwave.scheme as scheme
import mixedwave.spaces as spaces
from mixedwave.cli import SWEEP_MULTIPLIERS, SWEEP_STEPS
from mixedwave.linalg import CsrMatrix, GridDivergence, GridStepMatrix, Jacobi, NonConvergence, SolverConfig, cg_solve, spmv
from mixedwave.mesh import BoundaryKind, BoundaryPartition, build_rect_mesh
from mixedwave.scheme import (
    BLOWUP,
    COMPLETED,
    MAX_STEPS,
    CompatibilityWarning,
    ProblemSpec,
    RunSetup,
    SchemeState,
    SeparableForce,
    SeparableSolution,
    StepSolver,
    ThetaConfig,
    discrete_energy,
    initialize,
    prepare,
    run,
    step,
    step_matrix,
)
from mixedwave.spaces import (
    MaterialField,
    assemble_load,
    assemble_operators,
    material_field,
    project_pressure_p_h,
    project_velocity_pi_h,
    stiffness_bound,
)
from mixedwave.verify import (
    STABLE,
    cfl_max_dt,
    energy_drift,
    make_problem,
    mms_forced,
    mms_standing_wave,
    stability_sweep,
    temporal_study,
)

import oracles
from oracles import dense_theta_step, random_consistent_state, todense

ZERO_V = lambda x, y: (0.0 * x, 0.0 * y)
ZERO_S = lambda x, y: 0.0 * x


def zero_problem(nx=4, bc=None):
    mesh = build_rect_mesh(nx, nx)
    bc = bc or BoundaryPartition.all_dirichlet()
    return ProblemSpec(
        mesh=mesh,
        bc=bc,
        material=material_field(mesh, 1.0, 1.0),
        f=None,
        u0=ZERO_V,
        v0=ZERO_V,
        p0=ZERO_S,
    )


class TestThetaConfig:
    def test_rejects_theta_outside_unit_interval(self):
        for theta in (-0.1, 1.5):
            with pytest.raises(ValueError):
                ThetaConfig(theta, 0.1, 10)

    def test_takes_python_and_numpy_integer_step_counts(self):
        assert ThetaConfig(0.25, 0.1, np.int64(3)).num_steps == 3
        assert ThetaConfig.from_steps(0.25, 1.0, np.int32(4)).dt == 0.25

    def test_from_dt_rounds_to_integer_steps(self):
        cfg = ThetaConfig.from_dt(0.25, 1.0, 1 / 128)
        assert cfg.num_steps == 128

    def test_from_dt_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            ThetaConfig.from_dt(0.25, 1.0, 0.3)

    @pytest.mark.parametrize("final_time, dt", [(1.0, 1e-320), (float("inf"), 0.1)])
    def test_from_dt_rejects_a_non_finite_step_count(self, final_time, dt):
        # round() of an infinite ratio raised OverflowError
        with pytest.raises(ValueError, match="not finite"):
            ThetaConfig.from_dt(0.25, final_time, dt)

    def test_rejects_a_dt_whose_square_overflows(self):
        # the step matrix scales by dt^2
        with pytest.raises(ValueError, match=r"dt\^2 is not finite"):
            ThetaConfig.from_dt(0.25, 1e200, 1e200)

    def test_rejects_more_steps_than_the_cap(self):
        assert ThetaConfig(0.25, 1e-7, MAX_STEPS).num_steps == MAX_STEPS
        with pytest.raises(ValueError, match="exceed the cap"):
            ThetaConfig(0.25, 1e-7, MAX_STEPS + 1)
        with pytest.raises(ValueError, match="exceed the cap"):
            ThetaConfig.from_dt(0.25, 1.0, 1e-300)  # about 1e300 steps

    def test_from_dt_prints_a_huge_step_count_in_three_digits(self):
        # T / dt is compared with the cap before rounding, not printed as a 301-digit integer
        assert ThetaConfig.from_dt(0.25, 1.0, 1e-7).num_steps == MAX_STEPS
        with pytest.raises(ValueError) as caught:
            ThetaConfig.from_dt(0.25, 1.0, 1e-300)
        assert str(caught.value) == f"1e+300 steps exceed the cap of {MAX_STEPS}"
        with pytest.raises(ValueError, match="exceed the cap"):
            ThetaConfig.from_dt(0.25, 1.0, 1e-7 / (1 + 1e-7))  # one step above the cap


class TestInitialize:
    def test_zero_data_stays_zero(self):
        spec = zero_problem()
        ops = assemble_operators(spec.mesh, spec.bc, spec.material)
        state = initialize(StepSolver(spec, ops, ThetaConfig.from_steps(0.25, 1.0, 100)))
        assert np.array_equal(state.U_curr, np.zeros(ops.n_velocity))
        assert np.array_equal(state.P_curr, np.zeros(ops.n_pressure))

    def test_explicit_taylor_start_at_theta_zero(self):
        mms = mms_standing_wave()
        spec = make_problem(mms, 4)
        ops = assemble_operators(spec.mesh, spec.bc, spec.material)
        dt = 1e-3
        cfg = ThetaConfig.from_dt(0.0, 1.0, dt)
        state = initialize(StepSolver(spec, ops, cfg))
        U0 = project_velocity_pi_h(spec.mesh, ops.classification, spec.u0)
        V0 = project_velocity_pi_h(spec.mesh, ops.classification, lambda x, y: mms.u_t(x, y, 0.0))
        from mixedwave.spaces import project_pressure_p_h

        P0 = project_pressure_p_h(spec.mesh, spec.p0)
        accel = cg_solve(ops.A, -spmv(ops.DT, P0), SolverConfig(1e-14)).x
        expected = U0 + dt * V0 + 0.5 * dt**2 * accel
        assert np.abs(state.U_curr - expected).max() < 1e-12

    def test_first_step_consistency_against_exact_state(self):
        # ||U1 - Pi_h u(dt)||_A is quadratic in dt at fixed h (measured
        # 6.34e-5 at dt=1/64 on the 8x8 mesh, ratio 0.263 under halving)
        mms = mms_standing_wave()
        spec = make_problem(mms, 8)
        ops = assemble_operators(spec.mesh, spec.bc, spec.material)
        errs = []
        for dt in (1 / 64, 1 / 128):
            cfg = ThetaConfig.from_dt(0.25, 1.0, dt)
            state = initialize(StepSolver(spec, ops, cfg))
            ref = project_velocity_pi_h(spec.mesh, ops.classification, lambda x, y: mms.u(x, y, dt))
            d = state.U_curr - ref
            errs.append(np.sqrt(d @ spmv(ops.A, d)))
        assert errs[0] < 1e-4
        assert 0.15 < errs[1] / errs[0] < 0.35

    def test_incompatible_pressure_warns(self):
        spec = zero_problem()
        spec.u0 = lambda x, y: (x, 0.0 * y)   # div u0 = 1
        spec.p0 = ZERO_S                      # but p0 = 0
        ops = assemble_operators(spec.mesh, spec.bc, spec.material)
        with pytest.warns(CompatibilityWarning):
            initialize(StepSolver(spec, ops, ThetaConfig.from_steps(0.25, 1.0, 10)))

    def test_explicit_taylor_start_includes_force(self):
        mms = mms_forced(1.0)
        spec = make_problem(mms, 4)
        ops = assemble_operators(spec.mesh, spec.bc, spec.material)
        dt = 1e-3
        state = initialize(StepSolver(spec, ops, ThetaConfig.from_dt(0.0, 1.0, dt)))
        U0 = project_velocity_pi_h(spec.mesh, ops.classification, spec.u0)
        from mixedwave.spaces import assemble_load, project_pressure_p_h

        P0 = project_pressure_p_h(spec.mesh, spec.p0)
        F0 = assemble_load(ops.quadrature, ops.classification, mms.f, 0.0)
        accel = cg_solve(ops.A, F0 - spmv(ops.DT, P0), SolverConfig(1e-14)).x
        expected = U0 + 0.5 * dt**2 * accel  # v0 = 0 at this frequency
        assert np.abs(state.U_curr - expected).max() < 1e-12


class TestStep:
    def test_zero_state_stays_zero(self):
        spec = zero_problem()
        ops = assemble_operators(spec.mesh, spec.bc, spec.material)
        cfg = ThetaConfig.from_steps(0.5, 1.0, 10)
        n = ops.n_velocity
        state = SchemeState(1, np.zeros(n), np.zeros(n), np.zeros(ops.n_pressure), np.zeros(ops.n_pressure))
        out = step(state, StepSolver(spec, ops, cfg))
        assert np.array_equal(out.U_curr, np.zeros(n))
        assert np.array_equal(out.P_curr, np.zeros(ops.n_pressure))

    def test_theta_zero_reduces_to_explicit_leapfrog(self):
        spec = zero_problem(3)
        ops = assemble_operators(spec.mesh, spec.bc, spec.material)
        cfg = ThetaConfig.from_steps(0.0, 0.05, 10)
        rng = np.random.default_rng(2)
        U_prev, U_curr, P_prev, P_curr = random_consistent_state(ops, rng)
        out = step(SchemeState(1, U_prev, U_curr, P_prev, P_curr), StepSolver(spec, ops, cfg))
        rhs = spmv(ops.A, 2 * U_curr - U_prev) - cfg.dt**2 * spmv(ops.DT, P_curr)
        explicit = cg_solve(ops.A, rhs, SolverConfig(1e-14)).x
        assert np.abs(out.U_curr - explicit).max() < 1e-12

    def test_matches_dense_block_oracle(self):
        spec = zero_problem(2)
        ops = assemble_operators(spec.mesh, spec.bc, spec.material)
        cfg = ThetaConfig.from_steps(0.25, 0.2, 10)
        rng = np.random.default_rng(4)
        U_prev, U_curr, P_prev, P_curr = random_consistent_state(ops, rng)
        out = step(SchemeState(1, U_prev, U_curr, P_prev, P_curr),
                   StepSolver(spec, ops, cfg, SolverConfig(1e-13)))
        U_ref, P_ref = dense_theta_step(
            todense(ops.A), ops.Cdiag, todense(ops.D),
            U_prev, U_curr, P_prev, P_curr, cfg.theta, cfg.dt,
            np.zeros(ops.n_velocity),
        )
        assert np.abs(out.U_curr - U_ref).max() < 1e-10
        assert np.abs(out.P_curr - P_ref).max() < 1e-10

    def test_load_averaging_matches_dense_oracle(self):
        # a time-dependent force pins the three-level weighting of the load
        from mixedwave.spaces import assemble_load

        spec = zero_problem(2)
        spec.f = lambda x, y, t: (np.sin(3 * t) * (1 + x), np.cos(2 * t) * y**2)
        ops = assemble_operators(spec.mesh, spec.bc, spec.material)
        theta, dt = 0.3, 0.07
        cfg = ThetaConfig(theta, dt, 10)
        rng = np.random.default_rng(6)
        U_prev, U_curr, P_prev, P_curr = random_consistent_state(ops, rng)
        n = 3  # step from level 3 to 4: loads at t2, t3, t4
        out = step(SchemeState(n, U_prev, U_curr, P_prev, P_curr),
                   StepSolver(spec, ops, cfg, SolverConfig(1e-13)))
        loads = [assemble_load(ops.quadrature, ops.classification, spec.f, k * dt) for k in (n - 1, n, n + 1)]
        F_theta = theta * loads[2] + (1 - 2 * theta) * loads[1] + theta * loads[0]
        U_ref, P_ref = dense_theta_step(
            todense(ops.A), ops.Cdiag, todense(ops.D),
            U_prev, U_curr, P_prev, P_curr, theta, dt, F_theta,
        )
        assert np.abs(out.U_curr - U_ref).max() < 1e-10
        assert np.abs(out.P_curr - P_ref).max() < 1e-10

    def test_second_order_against_exact_semidiscrete_propagator(self):
        # the semidiscrete system A u'' + K u = 0 has the closed-form solution
        # u(t) = sum_k cos(sqrt(mu_k) t) c_k v_k; the fully discrete iterates
        # must approach it at second order in dt
        import scipy.linalg

        spec = make_problem(mms_standing_wave(), 8)
        ops = assemble_operators(spec.mesh, spec.bc, spec.material)
        Ad = todense(ops.A)
        K = todense(ops.D).T @ np.diag(1.0 / ops.Cdiag) @ todense(ops.D)
        mu, V = scipy.linalg.eigh(K, Ad)
        U0 = project_velocity_pi_h(spec.mesh, ops.classification, spec.u0)
        c = V.T @ (Ad @ U0)
        T = 0.5
        exact = V @ (np.cos(np.sqrt(np.maximum(mu, 0.0)) * T) * c)

        errs = []
        for steps in (50, 100):
            res = run(spec, ThetaConfig.from_steps(0.25, T, steps), record_errors=False)
            d = res.state.U_curr - exact
            errs.append(np.sqrt(d @ spmv(ops.A, d)))
        assert 3.5 < errs[0] / errs[1] < 4.5


class TestDiscreteEnergy:
    def test_zero_state(self):
        spec = zero_problem()
        ops = assemble_operators(spec.mesh, spec.bc, spec.material)
        cfg = ThetaConfig.from_steps(0.25, 1.0, 10)
        n = ops.n_velocity
        state = SchemeState(1, np.zeros(n), np.zeros(n), np.zeros(ops.n_pressure), np.zeros(ops.n_pressure))
        assert discrete_energy(state, ops, cfg).value == 0.0

    def test_quarter_theta_drops_difference_term(self):
        # at theta = 1/4 the energy must not see the pressure increment
        spec = zero_problem(3)
        ops = assemble_operators(spec.mesh, spec.bc, spec.material)
        cfg = ThetaConfig.from_steps(0.25, 1.0, 10)
        rng = np.random.default_rng(8)
        U_prev, U_curr, _, _ = random_consistent_state(ops, rng)
        P_curr = rng.standard_normal(ops.n_pressure)
        for scale in (0.0, 1.0, 50.0):
            P_prev = P_curr + scale * rng.standard_normal(ops.n_pressure)
            got = discrete_energy(SchemeState(1, U_prev, U_curr, P_prev, P_curr), ops, cfg).value
            udot = (U_curr - U_prev) / cfg.dt
            pbar = 0.5 * (P_curr + P_prev)
            want = 0.5 * (udot @ spmv(ops.A, udot) + (pbar * ops.Cdiag) @ pbar)
            assert got == pytest.approx(want, rel=1e-14)

    def test_tracks_continuous_energy(self):
        mms = mms_standing_wave()
        spec = make_problem(mms, 16)
        ops = assemble_operators(spec.mesh, spec.bc, spec.material)
        cfg = ThetaConfig.from_dt(0.25, 1.0, 1 / 128)
        state = initialize(StepSolver(spec, ops, cfg))
        sample = discrete_energy(state, ops, cfg)
        assert sample.value == pytest.approx(np.pi**4 / 2, rel=0.02)
        assert sample.t_half == pytest.approx(cfg.dt / 2)

    @pytest.mark.parametrize("theta", [0.0, 0.1, 0.25, 1.0])
    @pytest.mark.parametrize("code", range(16))
    def test_matches_the_difference_quotient_form(self, theta, code):
        sides = [BoundaryKind.NEUMANN_U if code >> side & 1 else BoundaryKind.DIRICHLET_P for side in range(4)]
        mesh = build_rect_mesh(5, 4)
        ops = assemble_operators(mesh, BoundaryPartition(*sides), random_material(mesh, code))
        dt = 0.05
        cfg = ThetaConfig.from_steps(theta, 10 * dt, 10)
        # the form is defined for any two levels; these make the velocity and
        # level-sum terms of one size and the pressure-difference term about
        # a tenth of them, so no term hides below the tolerance
        rng = np.random.default_rng(code)
        U_prev, V, P_prev, dP = (rng.standard_normal(n) for n in (ops.n_velocity, ops.n_velocity, ops.n_pressure, ops.n_pressure))
        state = SchemeState(3, U_prev, U_prev + 0.2 * dt * V, P_prev, P_prev + 0.5 * dP)
        got = discrete_energy(state, ops, cfg).value
        want = oracles.reference_discrete_energy(state, todense(ops.A), ops.Cdiag, theta, dt)
        assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.25, 1.0])
    def test_half_step_pressure_identity(self, theta):
        # theta-average == dt^2 (theta - 1/4) * second difference + mean of
        # the two half-sums, as vectors, for any three consecutive levels
        rng = np.random.default_rng(13)
        p_prev, p_curr, p_next = rng.standard_normal((3, 40))
        dt = 0.37
        theta_avg = theta * p_next + (1 - 2 * theta) * p_curr + theta * p_prev
        ddot = (p_next - 2 * p_curr + p_prev) / dt**2
        half_mean = 0.5 * (0.5 * (p_next + p_curr) + 0.5 * (p_curr + p_prev))
        rebuilt = dt**2 * (theta - 0.25) * ddot + half_mean
        assert np.abs(theta_avg - rebuilt).max() < 1e-13


class TestRun:
    def test_zero_data_completes_with_zero_energy(self):
        spec = zero_problem()
        res = run(spec, ThetaConfig.from_steps(0.25, 1.0, 20))
        assert res.status == COMPLETED
        assert all(s.value == 0.0 for s in res.energies)

    def test_energy_is_conserved(self):
        spec = make_problem(mms_standing_wave(), 8)
        res = run(spec, ThetaConfig.from_steps(0.25, 0.5, 64))
        assert res.status == COMPLETED
        assert energy_drift(res) <= 1e-10
        assert len(res.energies) == 64
        assert all(s.value >= 0 for s in res.energies)  # theta >= 1/4

    def test_constraint_preserved_along_trajectory(self):
        spec = make_problem(mms_standing_wave(), 8)
        ops = assemble_operators(spec.mesh, spec.bc, spec.material)
        worst = []
        probe = lambda n, t, U, P: worst.append(
            np.abs(ops.Cdiag * P - spmv(ops.D, U)).max()
        )
        run(spec, ThetaConfig.from_steps(0.25, 0.5, 64), probes=(probe,))
        assert max(worst) <= 1e-9

    def test_blowup_detected_beyond_cfl(self):
        # 16x16: the unstable checkerboard mode surfaces from roundoff well
        # before step 400 (observed: level 172)
        mms = mms_standing_wave()
        spec = make_problem(mms, 16)
        dt = 1.5 * cfl_max_dt(0.0, stiffness_bound(spec.mesh, spec.bc, spec.material))
        res = run(spec, ThetaConfig(0.0, dt, 500), record_errors=False)
        assert res.status == BLOWUP
        assert res.state.n < 400
        assert res.cg_iterations.shape == (res.state.n,)  # every solve up to the blow-up

    def test_the_level_that_blew_up_is_observed(self):
        # explicit leapfrog far beyond the CFL bound blows up within a few
        # dozen levels; errors and probes must cover that last level too
        seen = []
        res = run(make_problem(mms_standing_wave(), 16), ThetaConfig.from_dt(0.0, 5.0, 0.125),
                  probes=((lambda n, t, U, P: seen.append(n)),))
        assert res.status == BLOWUP
        assert len(res.error_u) == len(res.error_p) == len(res.energies) + 1
        assert seen == list(range(res.state.n + 1))
        assert np.abs(res.state.U_curr).max() > scheme.BLOWUP_THRESHOLD

    def test_unconditional_stability_with_large_steps(self):
        spec = make_problem(mms_standing_wave(), 8)
        dt = 10.0 * spec.mesh.h
        res = run(spec, ThetaConfig(0.5, dt, 200), record_errors=False)
        assert res.status == COMPLETED
        assert energy_drift(res) <= 1e-8

    def test_records_the_iterations_of_every_solve(self):
        spec = make_problem(mms_standing_wave(), 8)
        res = run(spec, ThetaConfig.from_steps(0.25, 0.5, 64))
        assert res.cg_iterations.dtype == np.int64
        assert res.cg_iterations.shape == (64,)  # the initial step and 63 steps
        assert res.cg_iterations.min() >= 1

    def test_the_step_solver_keeps_the_record_the_run_reports(self):
        # StepSolver.solves is the one copy: a run's three columns are its columns
        spec = make_problem(mms_standing_wave(), 8)
        cfg = ThetaConfig.from_steps(0.25, 0.5, 4)
        stepper = StepSolver(spec, assemble_operators(spec.mesh, spec.bc, spec.material), cfg)
        state = initialize(stepper)
        assert len(stepper.solves) == 1  # the Taylor step's
        for _ in range(cfg.num_steps - 1):
            state = step(state, stepper)
        res = run(spec, cfg)
        assert list(zip(res.cg_iterations, res.cg_residuals, res.defect_norms)) == stepper.solves
        assert len(stepper.solves) == cfg.num_steps and np.array_equal(state.U_curr, res.state.U_curr)

    @pytest.mark.parametrize("nx", [16, 128])  # below and above spaces.GRID_MIN_DOFS
    def test_records_the_residual_of_every_solve(self, nx, monkeypatch):
        spec = make_problem(mms_standing_wave(), nx)
        rho = np.exp(np.random.default_rng(1).uniform(-1.0, 1.0, spec.mesh.n_elements))
        spec.material = material_field(spec.mesh, lambda x, y: rho, 1.0)  # CG iterates
        solver = SolverConfig(1e-9)
        defect_norms, residuals = [], []

        def recording_cg(M, b, cfg, precondition):
            defect_norms.append(np.linalg.norm(b))
            result = cg_solve(M, b, cfg, precondition)
            residuals.append(result.residual)
            return result

        monkeypatch.setattr(scheme, "cg_solve", recording_cg)
        res = run(spec, ThetaConfig.from_steps(0.25, 6 / (4 * nx), 6), solver=solver, record_errors=False)
        assert isinstance(res.operators.A, GridStepMatrix) == (nx == 128)
        assert res.cg_iterations.min() > 1
        assert res.cg_residuals.dtype == np.float64
        assert res.cg_residuals.shape == res.cg_iterations.shape == (6,)
        assert np.array_equal(res.cg_residuals, residuals)
        assert np.all(res.cg_residuals <= solver.rel_tolerance * np.array(defect_norms))
        assert res.defect_norms.dtype == np.float64 and res.defect_norms.shape == (6,)
        np.testing.assert_allclose(res.defect_norms, defect_norms, rtol=1e-15, atol=0.0)
        assert np.all(res.cg_residuals <= solver.rel_tolerance * res.defect_norms)

    def test_rejects_a_dt_whose_products_overflow_before_assembly(self, monkeypatch):
        def no_assembly(*args):
            raise AssertionError("assembly started")

        monkeypatch.setattr(scheme, "assemble_operators", no_assembly)
        spec = make_problem(mms_standing_wave(), 8)
        # dt^2 lambda1 / (rho0 hx hy) = 64 dt^2: 6.4e101 and 6.4e307
        for theta, dt in ((0.25, 1e50), (1.0, 1e153)):
            with pytest.raises(ValueError, match=r"dt\^2 lambda1 / \(rho0 hx hy\)"):
                run(spec, ThetaConfig.from_dt(theta, dt, dt))

    def test_probes_see_every_level(self):
        spec = zero_problem()
        seen = []
        run(spec, ThetaConfig.from_steps(0.25, 1.0, 5), probes=((lambda n, t, U, P: seen.append(n)),))
        assert seen == [0, 1, 2, 3, 4, 5]


def random_material(mesh, seed):
    rng = np.random.default_rng(seed)
    rho, lam = np.exp(rng.uniform(math.log(0.25), math.log(4.0), (2, mesh.n_elements)))
    return MaterialField(rho, lam, 0.25, 4.0, 0.25, 4.0)


def counting(exact):
    """The same exact solution, with its two profiles counting their calls."""
    calls = {"velocity": 0, "pressure": 0}

    def velocity(x, y):
        calls["velocity"] += 1
        return exact.velocity_profile(x, y)

    def pressure(x, y):
        calls["pressure"] += 1
        return exact.pressure_profile(x, y)

    return SeparableSolution(exact.time_factor, velocity, pressure), calls


class TestErrorRecording:
    """run() samples the exact profiles once and scales them per level."""

    @staticmethod
    def standing_wave_16():
        return make_problem(mms_standing_wave(), 16), ThetaConfig.from_steps(0.25, 0.25, 32)

    @staticmethod
    def forced_12_by_7():
        return make_problem(mms_forced(1.0), 12, 7), ThetaConfig.from_steps(0.5, 0.3, 12)

    @staticmethod
    def random_weights():
        spec = make_problem(mms_standing_wave(), 10, 6)
        spec.material = random_material(spec.mesh, 8)
        return spec, ThetaConfig.from_steps(0.25, 0.2, 10)

    @staticmethod
    def mixed_sides_wide_weights():
        # free boundary edges enter the projection; rho and lambda span 1e4
        spec = make_problem(mms_forced(1.0), 9, 7)
        spec.bc = mixed_sides()
        rng = np.random.default_rng(9)
        rho, lam = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), (2, spec.mesh.n_elements)))
        spec.material = MaterialField(rho, lam, 1e-2, 1e2, 1e-2, 1e2)
        return spec, ThetaConfig.from_steps(0.5, 0.3, 12)

    @pytest.mark.parametrize(
        "case", ["standing_wave_16", "forced_12_by_7", "random_weights", "mixed_sides_wide_weights"]
    )
    def test_matches_the_per_call_norms_at_every_level(self, case):
        spec, cfg = getattr(self, case)()
        exact, m = spec.exact, spec.material
        ref_u, ref_p = [], []

        def reference(level, t, U, P):
            ref_u.append(oracles.velocity_l2_error(
                spec.mesh, spec.bc, m.rho_per_element, U, lambda x, y: exact.u(x, y, t)))
            ref_p.append(oracles.pressure_l2_error(
                spec.mesh, m.lambda_per_element, P, lambda x, y: exact.p(x, y, t)))

        with warnings.catch_warnings():
            # random lambda makes p0 incompatible with u0; the norms do not care
            warnings.simplefilter("ignore", CompatibilityWarning)
            res = run(spec, cfg, probes=(reference,))
        assert len(res.error_u) == len(res.error_p) == cfg.num_steps + 1
        np.testing.assert_allclose(res.error_u, ref_u, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(res.error_p, ref_p, rtol=1e-12, atol=0.0)
        assert spaces.velocity_best_approximation(res.operators, exact.velocity_profile)[1] >= 0.0
        assert spaces.pressure_best_approximation(res.operators, exact.pressure_profile)[1] >= 0.0

    @pytest.mark.parametrize("steps", [4, 40])
    def test_profiles_are_evaluated_once_per_run(self, steps):
        spec = make_problem(mms_standing_wave(), 6)
        spec.exact, calls = counting(spec.exact)
        res = run(spec, ThetaConfig.from_steps(0.25, steps / 64, steps))
        assert len(res.error_u) == steps + 1
        assert calls == {"velocity": 1, "pressure": 1}

    def test_profiles_are_not_evaluated_without_error_recording(self):
        spec = make_problem(mms_standing_wave(), 6)
        spec.exact, calls = counting(spec.exact)
        res = run(spec, ThetaConfig.from_steps(0.25, 0.125, 8), record_errors=False)
        assert res.error_u is None and res.error_p is None
        assert "quadrature" not in vars(res.operators)  # f is None: nothing needed it
        mms = replace(mms_standing_wave(), exact=spec.exact)
        stability_sweep(mms, [0.5], (0.9,), 4, num_steps=10)
        temporal_study(mms, 0.25, 4, 0.25, divisors=(2, 4), ref_divisor=8)
        assert calls == {"velocity": 0, "pressure": 0}

    def test_recording_without_an_exact_solution_is_rejected(self):
        with pytest.raises(ValueError, match="exact"):
            run(zero_problem(), ThetaConfig.from_steps(0.25, 0.1, 4), record_errors=True)


class TestMissingInitialData:
    def test_none_is_the_zero_field_and_is_never_evaluated(self, monkeypatch):
        def no_projection(*args):
            raise AssertionError("a missing datum was evaluated")

        monkeypatch.setattr(scheme, "project_velocity_pi_h", no_projection)
        monkeypatch.setattr(scheme, "project_pressure_p_h", no_projection)
        mesh = build_rect_mesh(4, 4)
        spec = ProblemSpec(mesh=mesh, bc=BoundaryPartition.all_neumann(), material=material_field(mesh, 1.0, 1.0))
        res = run(spec, ThetaConfig.from_steps(0.25, 0.5, 8))
        assert res.completed and res.state.n == 8
        s = res.state
        assert s.U_prev.shape == s.U_curr.shape == (res.operators.n_velocity,) == (24,)
        assert s.P_prev.shape == s.P_curr.shape == (16,)
        assert not any(a.any() for a in (s.U_prev, s.U_curr, s.P_prev, s.P_curr))
        assert [e.value for e in res.energies] == [0.0] * 8
        assert not res.cg_iterations.any() and not res.defect_norms.any()

    @pytest.mark.parametrize("mms", [mms_standing_wave(), mms_forced(0.0), mms_forced(1.0)], ids=lambda m: m.name)
    def test_none_matches_a_callable_that_returns_zero(self, mms):
        spec = make_problem(mms, 8)
        assert spec.v0 is None  # every mms_forced case starts at rest
        cfg = ThetaConfig.from_steps(0.25, 0.25, 16)
        got = run(spec, cfg)
        spec.v0 = lambda x, y: mms.u_t(x, y, 0.0)
        want = run(spec, cfg)
        assert [e.value for e in got.energies] == [e.value for e in want.energies]
        assert got.error_u == want.error_u and got.error_p == want.error_p
        assert np.array_equal(got.state.U_curr, want.state.U_curr)
        assert np.array_equal(got.state.P_curr, want.state.P_curr)


class TestLoadSetUp:
    def test_a_run_classifies_edges_and_builds_its_load_rule_once(self, monkeypatch):
        counts = {"edge_classify": 0, "rule 3": 0}
        classify, quadrature = spaces.edge_classify, spaces.element_quadrature

        def counted_classify(mesh, bc):
            counts["edge_classify"] += 1
            return classify(mesh, bc)

        def counted_quadrature(mesh, n=spaces.ASSEMBLY_RULE):
            counts["rule 3"] += n == spaces.ASSEMBLY_RULE
            return quadrature(mesh, n)

        monkeypatch.setattr(spaces, "edge_classify", counted_classify)
        monkeypatch.setattr(spaces, "element_quadrature", counted_quadrature)
        res = run(make_problem(mms_forced(1.0), 6), ThetaConfig.from_steps(0.25, 0.5, 20))
        assert res.completed
        # assemble_operators once; the velocity projections reuse its classification
        assert counts == {"edge_classify": 1, "rule 3": 1}


class TestLongHorizon:
    STEPS = (250, 500, 1000, 2000)
    TOL = 1e-12
    DRIFT_PER_STEP = 1.0  # relative drift per step, in units of the CG tolerance

    def test_energy_drift_grows_at_most_linearly_in_the_step_count(self):
        # random consistent data on heterogeneous material and mixed sides, so
        # CG does real work (about 22 iterations per solve) in every step
        mesh = build_rect_mesh(8, 8)
        dirichlet, neumann = BoundaryKind.DIRICHLET_P, BoundaryKind.NEUMANN_U
        spec = ProblemSpec(
            mesh=mesh,
            bc=BoundaryPartition(dirichlet, dirichlet, neumann, neumann),
            material=random_material(mesh, 0),
        )
        n = max(self.STEPS)
        cfg = ThetaConfig.from_steps(0.25, n * mesh.h / 4, n)
        ops = assemble_operators(mesh, spec.bc, spec.material)
        stepper = StepSolver(spec, ops, cfg, SolverConfig(self.TOL))
        state = SchemeState(1, *random_consistent_state(ops, np.random.default_rng(0)))
        energies = [discrete_energy(state, ops, cfg).value]
        for _ in range(n):
            state = step(state, stepper)
            energies.append(discrete_energy(state, ops, cfg).value)
        deviation = np.abs(np.array(energies) / energies[0] - 1.0)
        for steps in self.STEPS:  # the first `steps` steps are a run of that length
            assert deviation[: steps + 1].max() <= self.DRIFT_PER_STEP * steps * self.TOL


def mixed_sides():
    dirichlet, neumann = BoundaryKind.DIRICHLET_P, BoundaryKind.NEUMANN_U
    return BoundaryPartition(left=dirichlet, right=neumann, bottom=neumann, top=dirichlet)


def general_force(x, y, t):
    return np.sin(3 * t) * (1 + x), np.cos(2 * t) * y**2


def separable_force():
    return SeparableForce(lambda t: 0.5 + np.cos(2 * t), lambda x, y: (np.sin(3 * x) + y, x * y**2))


FORCES = {"none": lambda: None, "general": lambda: general_force, "separable": separable_force}


def recording_solves(stepper):
    """Make ``stepper.solve`` keep a copy of every defect it is given."""
    defects = []
    solve = stepper.solve

    def recording(defect, guess):
        defects.append(defect.copy())
        return solve(defect, guess)

    stepper.solve = recording
    return defects


class TestClosedFormDefect:
    """The defect passed to the solve equals rhs - S guess of the full right-hand side.

    The full form cancels A guess against S guess, so the two agree to
    rounding relative to ||A guess||.
    """

    RTOL = 1e-13

    @staticmethod
    def problem(force, seed):
        mesh = build_rect_mesh(7, 5)
        spec = ProblemSpec(
            mesh=mesh,
            bc=mixed_sides(),
            material=random_material(mesh, seed),
            f=FORCES[force](),
            u0=lambda x, y: (np.sin(2 * x) * (1 + y), np.cos(x + 3 * y)),
            v0=lambda x, y: (x * y, np.sin(y) - x),
            p0=lambda x, y: np.cos(3 * x) * y,
        )
        return spec, assemble_operators(mesh, spec.bc, spec.material)

    @staticmethod
    def loads(spec, ops, dt, levels):
        return [assemble_load(ops.quadrature, ops.classification, spec.f, k * dt) for k in levels]

    @pytest.mark.parametrize("force", sorted(FORCES))
    @pytest.mark.parametrize("theta", [0.0, 0.25, 0.5, 1.0])
    def test_step_defect_matches_the_full_right_hand_side(self, theta, force):
        spec, ops = self.problem(force, seed=3)
        dt = 0.6 * spec.mesh.h
        cfg = ThetaConfig(theta, dt, 10)
        stepper = StepSolver(spec, ops, cfg)
        defects = recording_solves(stepper)
        U_prev, U_curr, P_prev, P_curr = random_consistent_state(ops, np.random.default_rng(5))
        n = 3
        step(SchemeState(n, U_prev, U_curr, P_prev, P_curr), stepper)
        if spec.f is None:
            F_theta = np.zeros(ops.n_velocity)
        else:
            F_prev, F_curr, F_next = self.loads(spec, ops, dt, (n - 1, n, n + 1))
            F_theta = theta * F_next + (1 - 2 * theta) * F_curr + theta * F_prev
        want, scale = oracles.reference_step_defect(
            todense(ops.A), todense(ops.D), todense(stepper.S),
            U_prev, U_curr, P_prev, P_curr, theta, dt, F_theta,
        )
        assert len(defects) == 1
        assert np.linalg.norm(defects[0] - want) <= self.RTOL * scale

    @pytest.mark.parametrize("force", sorted(FORCES))
    @pytest.mark.parametrize("theta", [0.0, 0.25, 0.5, 1.0])
    def test_initial_defect_matches_the_full_right_hand_side(self, theta, force):
        # random lambda makes p0 incompatible with u0: the initial defect
        # must not assume C P0 = D U0
        spec, ops = self.problem(force, seed=4)
        dt = 0.6 * spec.mesh.h
        cfg = ThetaConfig(theta, dt, 10)
        stepper = StepSolver(spec, ops, cfg)
        defects = recording_solves(stepper)
        with pytest.warns(CompatibilityWarning):
            initialize(stepper)
        U0 = project_velocity_pi_h(spec.mesh, ops.classification, spec.u0)
        V0 = project_velocity_pi_h(spec.mesh, ops.classification, spec.v0)
        P0 = project_pressure_p_h(spec.mesh, spec.p0)
        F0, F1 = self.loads(spec, ops, dt, (0, 1)) if spec.f is not None else (np.zeros(ops.n_velocity),) * 2
        want, scale = oracles.reference_initial_defect(
            todense(ops.A), todense(ops.D), todense(stepper.S), U0, V0, P0, F0, F1, theta, dt,
        )
        assert len(defects) == 1
        assert np.linalg.norm(defects[0] - want) <= self.RTOL * scale

    @pytest.mark.parametrize("force", sorted(FORCES))
    def test_a_step_makes_one_product_with_each_divergence_matrix(self, force, monkeypatch):
        spec, ops = self.problem(force, seed=6)
        cfg = ThetaConfig.from_steps(0.25, 0.5, 10)
        stepper = StepSolver(spec, ops, cfg)
        products = []

        def recording_spmv(M, x):
            assert isinstance(M, (CsrMatrix, GridStepMatrix, GridDivergence))
            assert isinstance(M.nnz, int)  # a trace wrapper reads M.nnz
            products.append(M)
            return spmv(M, x)

        monkeypatch.setattr(scheme, "spmv", recording_spmv)
        state = SchemeState(2, *random_consistent_state(ops, np.random.default_rng(7)))
        step(state, stepper)
        count = lambda M: sum(P is M for P in products)
        assert (count(ops.DT), count(ops.D)) == (1, 1)
        assert count(ops.A) == count(stepper.S) == 0
        assert len(products) == 2

    def test_initialize_makes_no_product_with_the_mass_or_step_matrix(self, monkeypatch):
        spec, ops = self.problem("separable", seed=6)
        cfg = ThetaConfig.from_steps(0.25, 0.5, 10)
        stepper = StepSolver(spec, ops, cfg)
        products = []

        def recording_spmv(M, x):
            assert isinstance(M, (CsrMatrix, GridStepMatrix, GridDivergence))
            products.append(M)
            return spmv(M, x)

        monkeypatch.setattr(scheme, "spmv", recording_spmv)
        with pytest.warns(CompatibilityWarning):
            initialize(stepper)
        assert not any(P is ops.A or P is stepper.S for P in products)


class TestSeparableForce:
    def test_every_level_matches_the_general_load(self):
        spec = make_problem(mms_forced(2.5), 9, 6)
        spec.bc = mixed_sides()
        ops = assemble_operators(spec.mesh, spec.bc, spec.material)
        dt = 0.05
        stepper = StepSolver(spec, ops, ThetaConfig(0.0, dt, 12))
        general = lambda x, y, t: spec.f(x, y, t)
        for n in range(12):
            want = assemble_load(ops.quadrature, ops.classification, general, n * dt)
            assert np.abs(stepper.load(n) - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("steps", [4, 40])
    def test_profile_is_evaluated_once_per_run(self, steps):
        spec = make_problem(mms_forced(1.0), 6)
        calls = []
        profile = spec.f.profile

        def counted(x, y):
            calls.append(1)
            return profile(x, y)

        spec.f = SeparableForce(spec.f.time_factor, counted)
        res = run(spec, ThetaConfig.from_steps(0.25, steps / 64, steps))
        assert res.completed and res.state.n == steps
        assert len(calls) == 1

    def test_run_matches_the_general_callable(self):
        spec = make_problem(mms_forced(1.0), 8)
        cfg = ThetaConfig.from_steps(0.5, 0.25, 16)
        separable = run(spec, cfg)
        force = spec.f
        spec.f = lambda x, y, t: force(x, y, t)
        general = run(spec, cfg)
        np.testing.assert_allclose([s.value for s in separable.energies],
                                   [s.value for s in general.energies], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(separable.error_u, general.error_u, rtol=1e-9, atol=0.0)


class TestRunSolverConfig:
    """A run's SolverConfig reaches every solve, the Taylor start's included.

    Heterogeneous rho with lambda = 1 keeps the standing wave's data
    compatible while Jacobi-CG needs about 30 iterations per solve, so a cap
    of one iteration must stop each solve.
    """

    CAPPED = SolverConfig(max_iterations=1)

    @staticmethod
    def case():
        spec = make_problem(mms_standing_wave(), 8)
        rho = np.exp(np.random.default_rng(0).uniform(-1.4, 1.4, spec.mesh.n_elements))
        spec.material = material_field(spec.mesh, lambda x, y: rho, 1.0)
        ops = assemble_operators(spec.mesh, spec.bc, spec.material)
        return spec, ops, ThetaConfig.from_steps(0.25, 0.5, 4)

    def test_every_solve_needs_more_than_one_jacobi_iteration(self):
        spec, ops, cfg = self.case()
        stepper = StepSolver(spec, ops, cfg)
        assert isinstance(stepper.preconditioner, Jacobi)
        step(initialize(stepper), stepper)
        assert len(stepper.solves) == 2 and min(iterations for iterations, _, _ in stepper.solves) > 1

    def test_run_raises(self):
        spec, _, cfg = self.case()
        with pytest.raises(NonConvergence):
            run(spec, cfg, solver=self.CAPPED)

    def test_initialize_raises(self):
        with pytest.raises(NonConvergence):
            initialize(StepSolver(*self.case(), self.CAPPED))

    def test_step_raises(self):
        spec, ops, cfg = self.case()
        state = initialize(StepSolver(spec, ops, cfg))
        with pytest.raises(NonConvergence):
            step(state, StepSolver(spec, ops, cfg, self.CAPPED))


class TestJacobiPath:
    """The run's one ``Jacobi`` of S solves as ``cg_solve``'s per-call default does."""

    @pytest.mark.parametrize("theta", [0.25])
    @pytest.mark.parametrize("nx, layout", [(32, CsrMatrix), (64, GridStepMatrix)])  # padded rows, stencils
    def test_run_is_bit_identical_to_a_jacobi_built_per_solve(self, theta, nx, layout, monkeypatch):
        spec = make_problem(mms_standing_wave(), nx)
        dt = 0.9 * cfl_max_dt(0.0, stiffness_bound(spec.mesh, spec.bc, spec.material))
        cfg = ThetaConfig.from_steps(theta, 12 * dt, 12)
        stepper = StepSolver(spec, assemble_operators(spec.mesh, spec.bc, spec.material), cfg)
        assert isinstance(stepper.preconditioner, Jacobi) and isinstance(stepper.S, layout)
        got = run(spec, cfg, record_errors=False)

        # cg_solve builds a Jacobi of S per call when it is given no preconditioner
        monkeypatch.setattr(scheme, "cg_solve", lambda S, defect, solver, preconditioner: cg_solve(S, defect, solver))
        want = run(spec, cfg, record_errors=False)
        assert got.completed and want.completed
        assert got.cg_iterations.sum() > 0
        for name in ("cg_iterations", "cg_residuals", "defect_norms"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        for name in ("U_prev", "U_curr", "P_prev", "P_curr"):
            assert getattr(got.state, name).tobytes() == getattr(want.state, name).tobytes()
        assert got.energies == want.energies


class TestRunSetup:
    """The dt-independent set-up a run returns and another run of the same spec takes."""

    def spec(self, nx=8):
        return make_problem(mms_standing_wave(), nx)

    def test_a_run_returns_the_set_up_it_built(self):
        spec = self.spec()
        res = run(spec, ThetaConfig.from_steps(0.25, 0.25, 8))
        assert isinstance(res.setup, RunSetup) and res.setup.spec is spec
        assert res.operators is res.setup.operators
        assert res.state.n == 8 and res.setup.U0.shape == (res.operators.n_velocity,)

    def test_a_run_given_a_set_up_keeps_it(self):
        spec = self.spec()
        setup = prepare(spec, assemble_operators(spec.mesh, spec.bc, spec.material))
        res = run(spec, ThetaConfig.from_steps(0.25, 0.25, 8), setup=setup)
        assert res.setup is setup

    @pytest.mark.parametrize("other", ["equal spec", "replaced spec", "other mesh"])
    def test_a_set_up_of_another_spec_is_rejected(self, other):
        spec = self.spec()
        setup = run(spec, ThetaConfig.from_steps(0.25, 0.25, 8)).setup
        foreign = {
            "equal spec": lambda: self.spec(),
            "replaced spec": lambda: replace(spec),
            "other mesh": lambda: self.spec(4),
        }[other]()
        with pytest.raises(ValueError, match="another ProblemSpec"):
            run(foreign, ThetaConfig.from_steps(0.25, 0.25, 8), setup=setup)

    def test_the_initial_data_are_read_only(self):
        spec = self.spec()
        setup = prepare(spec, assemble_operators(spec.mesh, spec.bc, spec.material))
        for field in (setup.U0, setup.V0, setup.P0):
            assert not field.flags.writeable
            with pytest.raises(ValueError):
                field[0] = 1.0

    @pytest.mark.parametrize("theta, dt", [(0.0, 0.02), (0.25, 0.05), (1.0, 0.5)])
    def test_a_shared_set_up_gives_the_bytes_of_a_fresh_one(self, theta, dt):
        # the 1.0 case at nx 16 takes the multigrid path
        spec = self.spec(16)
        setup = run(spec, ThetaConfig.from_steps(0.5, 0.2, 4)).setup
        cfg = ThetaConfig.from_steps(theta, 12 * dt, 12)
        shared, fresh = run(spec, cfg, setup=setup), run(spec, cfg)
        assert shared.preconditioner == fresh.preconditioner
        for a, b in [
            (shared.state.U_curr, fresh.state.U_curr), (shared.state.P_curr, fresh.state.P_curr),
            (shared.cg_iterations, fresh.cg_iterations), (shared.cg_residuals, fresh.cg_residuals),
            ([e.value for e in shared.energies], [e.value for e in fresh.energies]),
            (shared.error_u, fresh.error_u), (shared.error_p, fresh.error_p),
        ]:
            assert np.array_equal(a, b)

    def test_incompatible_data_warn_once_per_set_up(self):
        spec = zero_problem()
        spec.u0 = lambda x, y: (x, 0.0 * y)   # div u0 = 1
        spec.p0 = ZERO_S                      # but p0 = 0
        with pytest.warns(CompatibilityWarning):
            setup = run(spec, ThetaConfig.from_steps(0.25, 0.1, 4)).setup
        with warnings.catch_warnings():
            warnings.simplefilter("error", CompatibilityWarning)
            run(spec, ThetaConfig.from_steps(1.0, 0.4, 4), setup=setup)


class TestClosedFormTrajectory:
    """The standing wave is one discrete eigenmode, K U0 = mu_h A U0 with
    K = D^T C^{-1} D, so from V0 = 0 the scheme's trajectory has a closed form.

    The Taylor start gives U1 = c U0 with x = dt^2 mu_h and
    c = (1 - (1/2 - theta) x) / (1 + theta x), and the three-level recursion
    then gives U^n = cos(n phi) U0 with cos(phi) = c. On the unit square with
    every side NEUMANN_U the mode's eigenvalue is the sum over both axes of
    (6 / h^2) (1 - cos(pi h)) / (2 + cos(pi h)).
    """

    STEPS = 200

    @staticmethod
    def dts(theta, nx):
        if theta < 0.25:
            spec = make_problem(mms_standing_wave(), nx)
            dt_max = cfl_max_dt(theta, stiffness_bound(spec.mesh, spec.bc, spec.material))
            return [0.5 * dt_max, 0.99 * dt_max]
        return [0.5 / nx, 4.0 / nx]

    @pytest.mark.parametrize("nx", [8, 32])
    @pytest.mark.parametrize("theta", [0.0, 1 / 12, 0.25, 1.0])
    def test_the_trajectory_is_cos_n_phi_times_the_initial_data(self, theta, nx):
        h = 1.0 / nx
        mu_h = 2 * (6 / h**2) * (1 - math.cos(math.pi * h)) / (2 + math.cos(math.pi * h))
        spec = make_problem(mms_standing_wave(), nx)
        for dt in self.dts(theta, nx):
            levels = []
            res = run(spec, ThetaConfig.from_steps(theta, self.STEPS * dt, self.STEPS),
                      probes=(lambda n, t, U, P: levels.append(U.copy()),), record_errors=False)
            assert res.completed and len(levels) == self.STEPS + 1
            U0 = levels[0]
            AU0 = spmv(res.operators.A, U0)
            a = np.array([U @ AU0 for U in levels]) / (U0 @ AU0)
            x = dt**2 * mu_h
            c = (1 - (0.5 - theta) * x) / (1 + theta * x)
            assert abs(c) <= 1.0  # inside the sharp bound dt^2 (1/4 - theta) mu <= 1
            expected = np.cos(np.arange(self.STEPS + 1) * math.acos(c))
            assert np.abs(a - expected).max() <= 1e-12


class TestLineSolvePath:
    """theta = 0 at any grid size: every solve is a line solve of A, which
    runs no CG."""

    @staticmethod
    def case(nx=8, steps=40, rho="random", bc=None):
        """The standing wave's data, with rho seeded per element (``random``),
        per element row (``layered``) or 1 (``uniform``); lambda = 1 keeps
        them compatible, as does any ``bc`` in place of NEUMANN_U on every side."""
        spec = make_problem(mms_standing_wave(), nx)
        if bc is not None:
            spec.bc = bc
        if rho != "uniform":
            rng = np.random.default_rng(0)
            rows = spec.mesh.ny if rho == "layered" else spec.mesh.n_elements
            values = np.repeat(np.exp(rng.uniform(-1.4, 1.4, rows)), spec.mesh.n_elements // rows)
            spec.material = material_field(spec.mesh, lambda x, y: values, 1.0)
        dt = 0.5 * cfl_max_dt(0.0, stiffness_bound(spec.mesh, spec.bc, spec.material))
        return spec, ThetaConfig.from_steps(0.0, steps * dt, steps)

    @staticmethod
    def no_cg(*args, **kwargs):
        raise AssertionError("CG ran")

    # 8 x 8 elements, every side pinned: 8 rows of 7 vertical edges and 8 columns of 7 horizontal ones
    @pytest.mark.parametrize("rho, held", [
        ("random", "LDL^T factors of A's lines hold 1.8 KiB"),  # 2 (8 7 + 8 7) floats
        ("layered", "LDL^T factors (vertical) and a shared inverse (horizontal) of A's lines hold 1.3 KiB"),  # 2 8 7 + 7^2
        ("uniform", "shared inverses of A's lines hold 784 B"),  # 7^2 + 7^2
    ])
    def test_runs_no_cg_and_records_the_true_residual(self, rho, held, monkeypatch):
        spec, cfg = self.case(rho=rho)
        monkeypatch.setattr(scheme, "cg_solve", self.no_cg)
        result = run(spec, cfg, record_errors=False)
        assert result.completed
        assert result.preconditioner == f"line solve, {held}; exact, no CG"
        assert result.cg_iterations.tolist() == [0] * cfg.num_steps
        assert (result.cg_residuals <= 1e-14 * result.defect_norms).all()
        assert result.cg_residuals.max() > 0.0  # a product with A, not a zero written in
        assert energy_drift(result) <= 1e-12

    # above 160 x 160, where one dense inverse per line would take over 64 MiB
    @pytest.mark.parametrize("nx, rho, bc", [
        (200, "random", BoundaryPartition(bottom=BoundaryKind.NEUMANN_U, top=BoundaryKind.NEUMANN_U)),
        (256, "uniform", None),
    ])
    def test_large_grids_run_no_cg(self, nx, rho, bc, monkeypatch):
        spec, cfg = self.case(nx, steps=4, rho=rho, bc=bc)
        monkeypatch.setattr(scheme, "cg_solve", self.no_cg)
        result = run(spec, cfg, record_errors=False)
        assert result.completed
        assert result.cg_iterations.tolist() == [0] * cfg.num_steps
        assert (result.cg_residuals <= 1e-14 * result.defect_norms).all()

    @pytest.mark.parametrize("nx, rho", [(32, "random"), (64, "layered")])
    def test_run_is_bit_identical_to_a_line_solve_built_per_solve(self, nx, rho, monkeypatch):
        # the factors and inverses a run keeps are left as built by its solves
        spec, cfg = self.case(nx, steps=12, rho=rho)
        got = run(spec, cfg, record_errors=False)
        build, init, builds = spaces.MixedOperators.line_solve.func, StepSolver.__init__, []

        def fresh(b, ops):
            builds.append(build(ops))
            return builds[-1].solve(b)

        def init_fresh_per_solve(stepper, *args, **kwargs):
            init(stepper, *args, **kwargs)
            stepper.line_solve = SimpleNamespace(solve=lambda b: fresh(b, stepper.ops))

        monkeypatch.setattr(StepSolver, "__init__", init_fresh_per_solve)
        want = run(spec, cfg, record_errors=False)
        assert got.completed and want.completed and len(builds) == cfg.num_steps
        assert builds[0].shared == {"random": (False, False), "layered": (False, True)}[rho]
        for name in ("cg_iterations", "cg_residuals", "defect_norms"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        for name in ("U_prev", "U_curr", "P_prev", "P_curr"):
            assert getattr(got.state, name).tobytes() == getattr(want.state, name).tobytes()
        assert got.energies == want.energies

    def test_matches_a_tight_jacobi_cg_run(self, monkeypatch):
        spec, cfg = self.case()
        exact = run(spec, cfg, record_errors=False)
        iterations = []

        def jacobi_cg(stepper, defect, guess):
            result = cg_solve(stepper.ops.A, defect, SolverConfig(1e-13))
            iterations.append(result.iterations)
            stepper.solves.append((result.iterations, result.residual, result.rhs_norm))
            return guess + result.x

        monkeypatch.setattr(StepSolver, "solve", jacobi_cg)
        iterative = run(spec, cfg, record_errors=False)
        assert len(iterations) == cfg.num_steps and min(iterations) > 1
        for got, want in ((exact.state.U_curr, iterative.state.U_curr), (exact.state.P_curr, iterative.state.P_curr)):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        np.testing.assert_allclose([s.value for s in exact.energies], [s.value for s in iterative.energies],
                                   rtol=1e-11, atol=0.0)

    def test_shared_inverses_move_the_stability_sweep_at_rounding_level_only(self, monkeypatch):
        # the CLI's theta = 0 sweep on uniform material, with each family's one
        # shared inverse and then with the sweeps over its lines' factors forced
        held = []
        line_solver = linalg._line_solver

        def sweep(build):
            monkeypatch.setattr(linalg, "_line_solver", lambda diagonal, off: held.append(build(diagonal, off)) or held[-1])
            return stability_sweep(mms_standing_wave(), [0.0], SWEEP_MULTIPLIERS, 32, num_steps=SWEEP_STEPS)

        shared = sweep(line_solver)
        assert [a.ndim for a in held] == [2, 2]  # one build of the sweep's operators
        held.clear()
        swept = sweep(linalg.ldl_factors)
        assert [a.ndim for a in held] == [3, 3]
        assert {r.status for r in shared} == {STABLE, BLOWUP}
        assert [(r.status, r.blowup_level) for r in shared] == [(r.status, r.blowup_level) for r in swept]
        np.testing.assert_allclose([r.final_energy for r in shared], [r.final_energy for r in swept],
                                   rtol=1e-13, atol=0.0)  # nan on both sides for a BlowUp row

    @pytest.mark.parametrize("theta", [1e-3, 0.25])
    def test_theta_above_zero_keeps_cg(self, theta):
        spec, cfg = self.case()
        ops = assemble_operators(spec.mesh, spec.bc, spec.material)
        stepper = StepSolver(spec, ops, replace(cfg, theta=theta))
        assert ops.line_solve is not None and stepper.line_solve is None
        assert isinstance(stepper.preconditioner, Jacobi)


class TestOneIterationStop:
    """A CG solve from zero that meets the tolerance after one iteration makes
    one product with S: a bound on the rounding of that product certifies the
    recursive residual (``linalg.cg_solve``). Every other stop recomputes it."""

    def test_one_iteration_makes_one_product_with_s_and_two_make_three(self, monkeypatch):
        # the README standing wave at dt = h: its Jacobi solves take 1 iteration, then 2
        spec = make_problem(mms_standing_wave(), 8)
        products = []
        inner = linalg.spmv

        def counted(M, x):
            products[-1] += 1
            return inner(M, x)

        def counting_cg(S, b, solver, precondition):
            products.append(0)
            return cg_solve(S, b, solver, precondition)

        monkeypatch.setattr(linalg, "spmv", counted)  # cg_solve's products, each with S
        monkeypatch.setattr(scheme, "cg_solve", counting_cg)
        result = run(spec, ThetaConfig(0.25, spec.mesh.h, 6), record_errors=False)
        assert result.preconditioner.startswith("jacobi")
        solves = list(zip(result.cg_iterations.tolist(), products))
        assert (1, 1) in solves and (2, 3) in solves
        assert all(count == (1 if iterations == 1 else iterations + 1) for iterations, count in solves)

    @pytest.mark.parametrize("nx", [4, 8, 16, 31, 64, 128])
    def test_every_one_iteration_solve_meets_the_tolerance(self, nx, monkeypatch):
        spec = make_problem(mms_standing_wave(), nx)
        solves = []

        def recording_cg(M, b, cfg=None, precondition=None, x0=None):
            result = cg_solve(M, b, cfg, precondition, x0)
            solves.append((M, b, cfg, result))
            return result

        monkeypatch.setattr(scheme, "cg_solve", recording_cg)
        monkeypatch.setattr(linalg, "cg_solve", recording_cg)  # the multigrid path's, through SolutionProjection
        setup = None
        for theta in (1 / 12, 0.25, 1.0):
            for multiple in (0.18, 2.8, 30.0):
                setup = run(spec, ThetaConfig(theta, multiple * spec.mesh.h, 8), record_errors=False, setup=setup).setup
        one = [(M, b, cfg, result) for M, b, cfg, result in solves if result.iterations == 1]
        assert one
        for M, b, cfg, result in one:
            assert np.linalg.norm(b - spmv(M, result.x)) <= cfg.rel_tolerance * np.linalg.norm(b)
