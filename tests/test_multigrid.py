import itertools
import math
import re

import numpy as np
import pytest

import mixedwave.multigrid as multigrid
import mixedwave.linalg as linalg
import mixedwave.scheme as scheme
import mixedwave.spaces as spaces
from mixedwave.linalg import CsrMatrix, GridStepMatrix, Jacobi, NonConvergence, SolverConfig, cg_solve, spmv
from mixedwave.mesh import BoundaryKind, BoundaryPartition, EdgeClassification, build_rect_mesh
from mixedwave.multigrid import VCycle, coarsens, grid_shapes, transfers
from mixedwave.scheme import (
    MULTIGRID_MIN_KAPPA,
    PROJECTION_BASIS,
    ProblemSpec,
    StepSolver,
    ThetaConfig,
    grad_div_weight,
    initialize,
    run,
    step,
)
from mixedwave.spaces import MaterialField, assemble_operators, element_blocks, material_field, schur_matrix
from mixedwave.verify import energy_drift, make_problem, mms_forced, mms_standing_wave

from oracles import (
    assert_same_rows,
    dense_operators,
    dense_solve,
    dense_step_matrix,
    reference_patch_colours,
    reference_patch_sweep,
    reference_transfers,
    reference_vertex_patches,
    todense,
)

PARTITIONS = [BoundaryPartition(*tags) for tags in itertools.product(tuple(BoundaryKind), repeat=4)]
MIXED = BoundaryPartition(
    BoundaryKind.DIRICHLET_P, BoundaryKind.DIRICHLET_P, BoundaryKind.NEUMANN_U, BoundaryKind.NEUMANN_U
)


def random_material(mesh, rng, lo=0.25, hi=4.0):
    rho, lam = np.exp(rng.uniform(math.log(lo), math.log(hi), (2, mesh.n_elements)))
    return MaterialField(rho, lam, lo, hi, lo, hi)


def assert_spd_inverse(M, inverse, identity):
    """``inverse`` (m, k, k) is bitwise symmetric and inverts the SPD M
    (m, k, k) up to ``identity`` within 16 eps cond(M) in the 2-norm, the
    rounding of a Cholesky-based inverse."""
    assert inverse.tobytes() == np.ascontiguousarray(inverse.transpose(0, 2, 1)).tobytes()
    residual = np.linalg.norm(M @ inverse - identity, 2, axis=(1, 2))
    assert (residual <= 16 * np.finfo(float).eps * np.linalg.cond(M)).all()


def vcycle_matrix(vcycle, n):
    out = np.empty(n)
    columns = []
    for e in np.eye(n):
        vcycle(e, out)
        columns.append(out.copy())
    return np.column_stack(columns)


class TestHierarchy:
    def test_halves_while_even_and_large(self):
        bc = MIXED
        assert grid_shapes(64, 64, bc) == [(64, 64), (32, 32), (16, 16), (8, 8)]
        assert grid_shapes(48, 24, bc)[-1] == (12, 6)
        assert grid_shapes(63, 64, bc) == [(63, 64)]

    def test_coarsens_needs_a_small_coarsest_grid(self):
        bc = BoundaryPartition.all_dirichlet()
        assert coarsens(build_rect_mesh(64, 64), bc)
        assert not coarsens(build_rect_mesh(63, 63), bc)       # odd: no coarser grid
        assert not coarsens(build_rect_mesh(66, 66), bc)       # 33 x 33 is too large
        assert not coarsens(build_rect_mesh(8, 8), bc)         # small enough already

    @pytest.mark.parametrize("bc", PARTITIONS[::5])
    def test_prolongation_commutes_with_divergence(self, bc):
        # D_fine P = Q D_coarse / 4, Q copying a coarse element value to its children
        rng = np.random.default_rng(1)
        fine_mesh = build_rect_mesh(6, 4, (0.0, 3.0, -1.0, 1.0))
        fine = assemble_operators(fine_mesh, bc, random_material(fine_mesh, rng))
        coarse = assemble_operators(build_rect_mesh(3, 2, (0.0, 3.0, -1.0, 1.0)), bc, multigrid.coarse_material(fine_mesh, fine.material))
        P, R = (todense(M) for M in transfers(fine.classification, coarse.classification))
        assert np.array_equal(R, P.T)
        Q = np.zeros((fine_mesh.n_elements, 6))
        for e in range(fine_mesh.n_elements):
            i, j = e % 6, e // 6
            Q[e, (j // 2) * 3 + i // 2] = 1.0
        assert np.array_equal(todense(fine.D) @ P, 0.25 * Q @ todense(coarse.D))
        # averaged lambda makes the coarse grad-div term the Galerkin product
        K_fine = todense(fine.D).T @ np.diag(1.0 / fine.Cdiag) @ todense(fine.D)
        K_coarse = todense(coarse.D).T @ np.diag(1.0 / coarse.Cdiag) @ todense(coarse.D)
        assert np.abs(P.T @ K_fine @ P - K_coarse).max() <= 1e-13 * np.abs(K_coarse).max()


    @pytest.mark.parametrize("nx, ny", [(2, 2), (12, 4), (32, 32), (64, 32)])
    def test_transfers_match_the_coo_oracle_bit_for_bit(self, nx, ny):
        fine, coarse = build_rect_mesh(nx, ny), build_rect_mesh(nx // 2, ny // 2)
        for bc in PARTITIONS:
            P, R = transfers(EdgeClassification.of(nx, ny, bc), EdgeClassification.of(nx // 2, ny // 2, bc))
            want_P, want_R = reference_transfers(fine, coarse, bc)
            assert_same_rows(P, want_P)
            assert_same_rows(R, want_R)


class TestSmoother:
    def test_slot_maps_match_their_definition(self):
        assert np.array_equal(multigrid.OTHER_SLOTS, np.setdiff1d(np.arange(12), multigrid.PATCH_SLOTS))
        at_vertex = np.isin(multigrid.CORNER_SLOTS, multigrid.PATCH_SLOTS)
        assert np.array_equal(multigrid.AT_VERTEX, at_vertex)
        rows = [np.searchsorted(multigrid.PATCH_SLOTS, slots[at]) for slots, at in zip(multigrid.CORNER_SLOTS, at_vertex)]
        assert np.array_equal(multigrid.PATCH_ROWS, rows)
        others = [np.searchsorted(multigrid.OTHER_SLOTS, slots[~at]) for slots, at in zip(multigrid.CORNER_SLOTS, at_vertex)]
        assert np.array_equal(multigrid.OTHER_ROWS, others)
        # each edge r lies in one corner only
        assert np.array_equal(np.sort(multigrid.OTHER_ROWS.ravel()), np.arange(8))

    @pytest.mark.parametrize("log_cond", [0, 5, 10])
    def test_spd_inverse_of_random_batches(self, log_cond):
        rng = np.random.default_rng(log_cond)
        Q, _ = np.linalg.qr(rng.standard_normal((500, 4, 4)))
        spectra = np.logspace(0, -log_cond, 4)[rng.permuted(np.tile(np.arange(4), (500, 1)), axis=1)]
        M = (Q * (spectra * np.exp(rng.uniform(-5.0, 5.0, (500, 1))))[:, None, :]) @ Q.transpose(0, 2, 1)
        M = 0.5 * (M + M.transpose(0, 2, 1))
        inverse = multigrid.spd_inverse(M.transpose(1, 2, 0)).transpose(2, 0, 1)
        assert_spd_inverse(M, inverse, np.eye(4))

    @pytest.mark.parametrize("shape", [(6, 4), (8, 8)])
    def test_patch_inverses_on_every_partition(self, shape):
        # S_pp read from the dense S, with the unit diagonal at dummy slots
        # that spd_inverse sees, against the colours' inverses, whose dummy
        # rows and columns are 0
        rng = np.random.default_rng(shape[0] + shape[1])
        mesh = build_rect_mesh(*shape, (0.0, 1.5, -0.5, 0.5))
        for bc in PARTITIONS:
            material = random_material(mesh, rng)
            coeff = math.exp(rng.uniform(math.log(1e-3), 0.0))
            A, Cdiag, D = dense_operators(mesh, bc, material)
            S = dense_step_matrix(A, D, Cdiag, coeff)
            n = S.shape[0]
            padded_S = np.zeros((n + 1, n + 1))
            padded_S[:n, :n] = S
            for colour in multigrid._patch_colours(EdgeClassification.of(*shape, bc), element_blocks(mesh, material, coeff)):
                patch = colour.rows.reshape(4, -1).T
                dummy = patch == n
                S_pp = padded_S[patch[:, :, None], patch[:, None, :]] + dummy[:, :, None] * np.eye(4)
                inverse = colour.inverse.transpose(2, 1, 0)
                for rows in (inverse[dummy], inverse.transpose(0, 2, 1)[dummy]):
                    assert not rows.view(np.uint64).any()  # exact +0.0
                assert_spd_inverse(S_pp, inverse, np.eye(4) * ~dummy[:, None, :])
                assert_spd_inverse(S_pp, multigrid.spd_inverse(S_pp.transpose(1, 2, 0)).transpose(2, 0, 1), np.eye(4))

    @pytest.mark.parametrize("shape", [(32, 32), (64, 32), (12, 4), (2, 2), (2, 8), (8, 2), (10, 6)])
    def test_strided_colours_match_the_corner_gather(self, shape):
        rng = np.random.default_rng(shape[0] + 100 * shape[1])
        mesh = build_rect_mesh(*shape)
        for bc in PARTITIONS:
            coeff = math.exp(rng.uniform(math.log(1e-3), 0.0))
            blocks = element_blocks(mesh, random_material(mesh, rng), coeff)
            cls = EdgeClassification.of(*shape, bc)
            colours, reference = multigrid._patch_colours(cls, blocks), reference_patch_colours(cls, blocks)
            assert len(colours) == len(reference)
            for colour, expected in zip(colours, reference):
                for got, want in zip(colour, expected):
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes()  # bit for bit: -0.0 is not 0.0 here

    @pytest.mark.parametrize("shape", [(6, 4), (8, 8)])
    def test_sweeps_match_dense_patch_solves(self, shape):
        rng = np.random.default_rng(shape[0] * shape[1])
        mesh = build_rect_mesh(*shape, (0.0, 1.5, -0.5, 0.5))
        for bc in PARTITIONS:
            material = random_material(mesh, rng)
            coeff = math.exp(rng.uniform(math.log(1e-3), 0.0))
            A, Cdiag, D = dense_operators(mesh, bc, material)
            S = dense_step_matrix(A, D, Cdiag, coeff)
            colours = multigrid._patch_colours(EdgeClassification.of(*shape, bc), element_blocks(mesh, material, coeff))
            patches = [colour for colour in reference_vertex_patches(mesh, bc) if colour]
            assert [colour.rows.size for colour in colours] == [4 * len(colour) for colour in patches]
            n = S.shape[0]
            b, x = rng.standard_normal((2, n))
            # the smoother's buffer z = [x, 0]
            z = np.zeros(n + 1)
            solved = multigrid._patch_rhs(colours, np.append(b, 0.0))
            multigrid._pre_smooth(colours, z, solved)
            ref = reference_patch_sweep(S, patches, b, np.zeros(n))
            assert np.abs(z[:n] - ref).max() <= 1e-12 * np.abs(ref).max()
            assert z[n] == 0.0
            z[:n] = x
            multigrid._post_smooth(colours, z, solved)
            ref = reference_patch_sweep(S, patches[::-1], b, x)
            assert np.abs(z[:n] - ref).max() <= 1e-12 * np.abs(ref).max()
            assert z[n] == 0.0


class TestVCycle:
    @pytest.mark.parametrize("shape", [(8, 8), (16, 8)])
    def test_symmetric_positive_definite_on_every_partition(self, shape, monkeypatch):
        monkeypatch.setattr(multigrid, "COARSEST_DOFS", 16)
        rng = np.random.default_rng(5)
        mesh = build_rect_mesh(*shape)
        for bc in PARTITIONS:
            ops = assemble_operators(mesh, bc, random_material(mesh, rng))
            # kappa 60 and 6e4, ten times the large-step benchmark; rounding
            # in the patch inverses makes B drift from symmetry as eps * kappa
            for coeff in (1e-3, 1.0):
                blocks = element_blocks(ops.mesh, ops.material, coeff)
                S = schur_matrix(ops.mesh, ops.classification, blocks)
                vcycle = VCycle(ops, S, blocks, coeff)
                assert len(vcycle.levels) >= 2
                B = vcycle_matrix(vcycle, ops.n_velocity)
                assert np.abs(B - B.T).max() <= 1e-12 * np.abs(B).max()
                assert np.linalg.eigvalsh(0.5 * (B + B.T)).min() > 0

    @pytest.mark.parametrize("bc", [MIXED, BoundaryPartition.all_neumann(), BoundaryPartition.all_dirichlet()])
    def test_preconditioned_cg_matches_dense_solve(self, bc, monkeypatch):
        monkeypatch.setattr(multigrid, "COARSEST_DOFS", 16)
        rng = np.random.default_rng(7)
        mesh = build_rect_mesh(16, 8, (0.0, 2.0, 0.0, 0.5))
        ops = assemble_operators(mesh, bc, random_material(mesh, rng))
        blocks = element_blocks(ops.mesh, ops.material, 0.5)
        S = schur_matrix(ops.mesh, ops.classification, blocks)
        b = rng.standard_normal(ops.n_velocity)
        x = cg_solve(S, b, SolverConfig(1e-13), VCycle(ops, S, blocks, 0.5)).x
        ref = dense_solve(S, b)
        assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("nx", [16, 32, 64])
    @pytest.mark.parametrize("dt_over_h", [1.0, 2.83, 10.0])
    def test_iterations_flat_in_mesh_and_step(self, nx, dt_over_h):
        rng = np.random.default_rng(nx)
        mesh = build_rect_mesh(nx, nx)
        ops = assemble_operators(mesh, MIXED, random_material(mesh, rng))
        coeff = (dt_over_h * mesh.h) ** 2  # theta = 1
        blocks = element_blocks(ops.mesh, ops.material, coeff)
        S = schur_matrix(ops.mesh, ops.classification, blocks)
        result = cg_solve(S, rng.standard_normal(ops.n_velocity), SolverConfig(), VCycle(ops, S, blocks, coeff))
        assert result.iterations <= 20


    def test_coarse_levels_build_only_their_step_matrix_and_transfers(self, monkeypatch):
        mesh = build_rect_mesh(64, 64)
        ops = assemble_operators(mesh, MIXED, random_material(mesh, np.random.default_rng(2)))
        blocks = element_blocks(ops.mesh, ops.material, 1.0)
        S = schur_matrix(ops.mesh, ops.classification, blocks)
        calls = []
        inner = linalg.csr_from_candidates

        def counted(blocks, n_cols):
            matrix = inner(blocks, n_cols)
            calls.append(matrix.shape)
            return matrix

        for module in (linalg, spaces, multigrid):
            monkeypatch.setattr(module, "csr_from_candidates", counted)
        vcycle = VCycle(ops, S, blocks, 1.0)
        # P and R = P^T per coarse grid (32, 16 and 8 square), S for each but
        # the coarsest, whose dense S is summed from its blocks; no A, D or D^T
        n = [EdgeClassification.of(k, k, MIXED).n_free for k in (64, 32, 16, 8)]
        assert len(vcycle.levels) == 3
        transfer_shapes = [((f, c), (c, f)) for f, c in zip(n, n[1:])]
        assert calls == [*transfer_shapes[0], (n[1], n[1]), *transfer_shapes[1], (n[2], n[2]), *transfer_shapes[2]]

    @pytest.mark.parametrize("shape", [(8, 8), (6, 4), (1, 5)])
    def test_coarsest_dense_sum_is_the_padded_step_matrix_bit_for_bit(self, shape):
        rng = np.random.default_rng(shape[0] + shape[1])
        mesh = build_rect_mesh(*shape)
        for bc in PARTITIONS:
            cls = EdgeClassification.of(*shape, bc)
            blocks = element_blocks(mesh, random_material(mesh, rng), 0.37)
            S = schur_matrix(mesh, cls, blocks)
            assert isinstance(S, CsrMatrix)
            assert multigrid._dense_sum(cls, blocks).tobytes() == todense(S).tobytes()

    @pytest.mark.parametrize("shape", [(8, 8), (6, 4), (1, 5), (12, 6)])
    def test_coarsest_inverse_by_block_sweeps(self, shape):
        # sizes below, at and above the 32 x 32 pivot blocks
        rng = np.random.default_rng(shape[0] * shape[1])
        mesh = build_rect_mesh(*shape)
        for bc in PARTITIONS:
            cls = EdgeClassification.of(*shape, bc)
            S = multigrid._dense_sum(cls, element_blocks(mesh, random_material(mesh, rng), 0.37))
            inverse = multigrid._dense_inverse(S.copy())
            assert inverse.shape == S.shape
            assert_spd_inverse(S[None], inverse[None], np.eye(S.shape[0]))

    def test_each_grid_computes_its_element_blocks_once(self, monkeypatch):
        calls = []
        inner = spaces.element_blocks

        def counted(mesh, material, coeff):
            calls.append((mesh.nx, coeff))
            return inner(mesh, material, coeff)

        for module in (spaces, multigrid, scheme):
            monkeypatch.setattr(module, "element_blocks", counted)
        spec = hetero_spec(64)
        ops = assemble_operators(spec.mesh, spec.bc, spec.material)
        cfg = ThetaConfig.from_steps(1.0, 1.0, 16)  # dt = 2.83 h: multigrid
        assert isinstance(StepSolver(spec, ops, cfg).preconditioner, VCycle)
        # A, then one set per grid, shared by its S and its smoother
        coeff = cfg.dt**2
        assert calls == [(64, 0.0), (64, coeff), (32, coeff), (16, coeff), (8, coeff)]


def hetero_spec(nx, seed=3):
    """Element-wise log-uniform material, mixed sides, compatible smooth data."""
    rng = np.random.default_rng(seed)
    mesh = build_rect_mesh(nx, nx)
    material = random_material(mesh, rng)
    lam = material.lambda_per_element

    def u0(x, y):
        return np.sin(np.pi * (x + 0.3)) * np.cos(np.pi * y), np.cos(2 * np.pi * x) * np.sin(np.pi * y)

    def p0(x, y):
        i = np.clip(((x - mesh.x0) // mesh.hx).astype(np.int64), 0, nx - 1)
        j = np.clip(((y - mesh.y0) // mesh.hy).astype(np.int64), 0, nx - 1)
        div = np.pi * np.cos(np.pi * (x + 0.3)) * np.cos(np.pi * y) + np.pi * np.cos(2 * np.pi * x) * np.cos(np.pi * y)
        return lam[j * nx + i] * div

    return ProblemSpec(mesh=mesh, bc=MIXED, material=material, u0=u0, v0=lambda x, y: (0.0 * x, 0.0 * y), p0=p0)


class TestSelection:
    def test_large_steps_on_a_coarsening_grid_use_multigrid(self):
        spec = hetero_spec(64)
        ops = assemble_operators(spec.mesh, spec.bc, spec.material)
        cfg = ThetaConfig.from_steps(1.0, 1.0, 16)  # dt = 2.83 h
        assert grad_div_weight(ops, cfg) == pytest.approx(6.14e3, rel=1e-2)
        stepper = StepSolver(spec, ops, cfg)
        assert isinstance(stepper.preconditioner, VCycle)
        assert re.fullmatch(
            r"multigrid, kappa = 6\.1\de\+03 >= 500; CG starts from the projection on up to \d+ increments", stepper.choice
        )

    def test_kappa_below_the_crossover_keeps_jacobi(self):
        spec = hetero_spec(64)
        ops = assemble_operators(spec.mesh, spec.bc, spec.material)
        dt = 0.99 * math.sqrt(MULTIGRID_MIN_KAPPA / grad_div_weight(ops, ThetaConfig.from_steps(1.0, 1.0, 1)))
        cfg = ThetaConfig.from_steps(1.0, 4 * dt, 4)
        assert grad_div_weight(ops, cfg) < MULTIGRID_MIN_KAPPA
        stepper = StepSolver(spec, ops, cfg)
        assert isinstance(stepper.preconditioner, Jacobi)
        assert stepper.choice == "jacobi, kappa = 490 < 500"  # (0.99)^2 of the threshold

    @pytest.mark.parametrize("nx", [63, 66])
    def test_grids_that_do_not_coarsen_keep_jacobi(self, nx):
        # 63 is odd; 66 halves once, to a 33 x 33 grid too large for a dense solve
        mesh = build_rect_mesh(nx, nx)
        spec = ProblemSpec(mesh=mesh, bc=MIXED, material=material_field(mesh, 0.25, 4.0))
        ops = assemble_operators(mesh, spec.bc, spec.material)
        cfg = ThetaConfig.from_steps(1.0, 1.0, 16)
        assert grad_div_weight(ops, cfg) >= MULTIGRID_MIN_KAPPA
        stepper = StepSolver(spec, ops, cfg)
        assert isinstance(stepper.preconditioner, Jacobi)
        assert re.fullmatch(r"jacobi, kappa = \S+ >= 500, but the grid does not coarsen", stepper.choice)

    @pytest.mark.parametrize(
        "nx, theta, steps_per_unit_time",
        [
            (128, 0.25, 512),   # the standing-wave benchmark, dt = 0.18 h
            (8, 0.25, None),    # converge at dt = h/4, its coarsest and finest grids
            (64, 0.25, None),
        ],
    )
    def test_small_steps_keep_jacobi(self, nx, theta, steps_per_unit_time):
        spec = make_problem(mms_standing_wave(), nx)
        ops = assemble_operators(spec.mesh, spec.bc, spec.material)
        steps = steps_per_unit_time or math.ceil(4.0 / spec.mesh.h)
        cfg = ThetaConfig.from_steps(theta, 1.0, steps)
        assert grad_div_weight(ops, cfg) < 1.0
        assert isinstance(StepSolver(spec, ops, cfg).preconditioner, Jacobi)

    @pytest.mark.parametrize(
        "nx, steps_per_unit_time",
        [
            (32, 100),  # the explicit stability sweep's steps
            (64, 4),    # steps at which theta = 1 takes multigrid
        ],
    )
    def test_explicit_steps_take_the_line_solve(self, nx, steps_per_unit_time, monkeypatch):
        # theta = 0 builds no step matrix and no preconditioner, whatever the step: S is A
        def built(*args, **kwargs):
            raise AssertionError("a step matrix or a preconditioner was built")

        for name in ("step_matrix", "schur_matrix", "Jacobi", "VCycle", "SolutionProjection"):
            monkeypatch.setattr(scheme, name, built)
        spec = hetero_spec(nx)
        ops = assemble_operators(spec.mesh, spec.bc, spec.material)
        implicit = ThetaConfig.from_steps(1.0, 1.0, steps_per_unit_time)
        assert (grad_div_weight(ops, implicit) >= MULTIGRID_MIN_KAPPA) == (steps_per_unit_time == 4)
        stepper = StepSolver(spec, ops, ThetaConfig.from_steps(0.0, 1.0, steps_per_unit_time))
        assert stepper.line_solve is ops.line_solve and stepper.S is ops.A
        assert stepper.preconditioner is None and stepper.projection is None
        assert re.fullmatch(r"line solve, LDL\^T factors of A's lines hold \S+ \S+; exact, no CG", stepper.choice)


class TestMultigridRun:
    def test_large_step_run_conserves_energy_and_constraint(self):
        spec = hetero_spec(32, seed=11)
        cfg = ThetaConfig.from_steps(1.0, 16 * 2.8 * spec.mesh.h, 16)
        result = run(spec, cfg)
        assert result.completed
        assert result.cg_iterations.shape == (16,)
        assert result.cg_iterations.max() <= 20  # Jacobi-CG needs hundreds here
        assert energy_drift(result) <= 1e-10
        ops, state = result.operators, result.state
        DU = spmv(ops.D, state.U_curr)
        assert np.abs(ops.Cdiag * state.P_curr - DU).max() <= 1e-10 * np.abs(DU).max()

    def test_both_operator_formats_take_the_same_iterations(self, monkeypatch):
        spec = hetero_spec(64)
        n = EdgeClassification.of(64, 64, spec.bc).n_free
        cfg = ThetaConfig.from_steps(1.0, 8 * 2.8 * spec.mesh.h, 8)
        results = []
        # the fine grid on padded rows, then on stencils, then every grid on
        # stencils down to the coarsest, whose dense S comes from its blocks
        for switch in (n + 1, n, 0):
            monkeypatch.setattr(spaces, "GRID_MIN_DOFS", switch)
            results.append(run(spec, cfg))
        padded, grid, all_grid = results
        assert isinstance(padded.operators.A, CsrMatrix) and isinstance(grid.operators.A, GridStepMatrix)
        assert np.array_equal(padded.cg_iterations, grid.cg_iterations)
        assert np.array_equal(padded.cg_iterations, all_grid.cg_iterations)
        for result in results:
            assert result.completed
            assert energy_drift(result) <= 1e-10

    def test_forced_run_matches_jacobi_run(self, monkeypatch):
        spec = make_problem(mms_forced(3.0), 32)
        cfg = ThetaConfig.from_steps(1.0, 2.0, 8)  # kappa = 1.5e3
        with_multigrid = run(spec, cfg)
        monkeypatch.setattr("mixedwave.scheme.MULTIGRID_MIN_KAPPA", math.inf)
        with_jacobi = run(spec, cfg)
        assert with_multigrid.cg_iterations.max() < with_jacobi.cg_iterations.max()
        U, U_ref = with_multigrid.state.U_curr, with_jacobi.state.U_curr
        assert np.abs(U - U_ref).max() <= 1e-9 * np.abs(U_ref).max()


class TestProjectedStart:
    """A multigrid run starts each solve from the projection of its defect on
    the run's earlier increments (``linalg.SolutionProjection``)."""

    K = PROJECTION_BASIS

    def case(self):
        spec = hetero_spec(32, seed=11)
        steps = 2 * self.K + 4  # as many solves: the basis fills and restarts twice
        return spec, ThetaConfig.from_steps(1.0, steps * 2.8 * spec.mesh.h, steps)

    def test_a_run_past_two_restarts_meets_every_tolerance_and_repeats_bit_for_bit(self):
        spec, cfg = self.case()
        first, second = run(spec, cfg), run(spec, cfg)
        assert first.preconditioner.endswith(f"CG starts from the projection on up to {self.K} increments")
        iterations = first.cg_iterations
        assert iterations.size == 2 * self.K + 4
        assert np.all(first.cg_residuals <= SolverConfig().rel_tolerance * first.defect_norms)
        assert energy_drift(first) <= 1e-10
        assert iterations[self.K:].mean() < iterations[:2].mean()
        for name in ("cg_iterations", "cg_residuals", "defect_norms"):
            assert np.array_equal(getattr(first, name), getattr(second, name))
        assert [e.value for e in first.energies] == [e.value for e in second.energies]
        assert np.array_equal(first.state.U_curr, second.state.U_curr)
        assert np.array_equal(first.state.P_curr, second.state.P_curr)

    def test_a_tolerance_below_rounding_fails_fast_with_a_full_basis(self):
        spec, cfg = self.case()
        ops = assemble_operators(spec.mesh, spec.bc, spec.material)
        stepper = StepSolver(spec, ops, cfg)
        state = initialize(stepper)
        for _ in range(self.K - 1):
            state = step(state, stepper)
        assert len(stepper.projection.basis) >= self.K // 2
        cycles = []
        inner = stepper.preconditioner
        stepper.preconditioner = lambda r, out: cycles.append(1) or inner(r, out)
        stepper.solver = SolverConfig(1e-16)
        with pytest.raises(NonConvergence, match=r"(stagnated|underflowed) at relative residual"):
            step(state, stepper)
        assert len(cycles) <= 40
        with pytest.raises(NonConvergence, match=r"(stagnated|underflowed) at relative residual"):
            run(spec, cfg, solver=SolverConfig(1e-16))

    def test_the_jacobi_path_keeps_no_basis(self):
        spec = hetero_spec(32, seed=11)
        ops = assemble_operators(spec.mesh, spec.bc, spec.material)
        stepper = StepSolver(spec, ops, ThetaConfig.from_steps(0.25, 1.0, 1000))
        assert isinstance(stepper.preconditioner, Jacobi) and stepper.projection is None
        assert "projection" not in stepper.choice
