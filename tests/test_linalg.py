import math
import sys
import warnings

import numpy as np
import pytest

import mixedwave.linalg as linalg
import mixedwave.spaces as spaces
from mixedwave.linalg import (
    CsrMatrix,
    NonConvergence,
    SolverConfig,
    cg_solve,
    csr_from_coo,
    spmv,
)
from mixedwave.mesh import BoundaryKind, BoundaryPartition, build_rect_mesh
from mixedwave.spaces import GRID_MIN_DOFS, assemble_operators, element_blocks, material_field, schur_matrix
from mixedwave.scheme import ThetaConfig, step_matrix
from oracles import dense_operators, dense_solve, dense_step_matrix, max_asymmetry

DIR, NEU = BoundaryKind.DIRICHLET_P, BoundaryKind.NEUMANN_U
ALL_PARTITIONS = [
    BoundaryPartition(*[NEU if code >> side & 1 else DIR for side in range(4)])
    for code in range(16)
]


def identity_csr(n):
    return csr_from_coo(np.arange(n), np.arange(n), np.ones(n), (n, n))


def random_sparse(rng, n, density=0.2):
    mask = rng.uniform(size=(n, n)) < density
    dense = np.where(mask, rng.standard_normal((n, n)), 0.0)
    rows, cols = np.nonzero(dense)
    return csr_from_coo(rows, cols, dense[rows, cols], (n, n)), dense


def operators_on(nx, bc=None, rho=1.0, lam=1.0):
    mesh = build_rect_mesh(nx, nx)
    bc = bc or BoundaryPartition.all_dirichlet()
    return assemble_operators(mesh, bc, material_field(mesh, rho, lam))


def hetero_operators(bc, nx=5, ny=3, seed=0):
    """Operators on an nx-by-ny mesh with element-wise random rho and lambda."""
    mesh = build_rect_mesh(nx, ny)
    rng = np.random.default_rng(seed)
    rho, lam = rng.uniform(0.25, 4.0, (2, mesh.n_elements))
    return assemble_operators(mesh, bc, material_field(mesh, lambda x, y: rho, lambda x, y: lam))


def uneven_csr():
    """4x5 matrix with rows of 2, 0, 3 and 1 entries; the empty row is row 1."""
    dense = np.array([
        [0.0, 2.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [3.0, 0.0, 4.0, 0.0, 5.0],
        [0.0, 0.0, 0.0, 0.0, -6.0],
    ])
    rows, cols = np.nonzero(dense)
    return csr_from_coo(rows, cols, dense[rows, cols], dense.shape), dense


class TestCsrMatrix:
    @pytest.mark.parametrize("row, col", [(-1, 0), (2, 0), (0, -1), (0, 3), (-5, 7)])
    def test_coo_rejects_indices_outside_the_shape(self, row, col):
        # a negative column would otherwise wrap silently in the spmv gather
        with pytest.raises(ValueError, match="outside"):
            csr_from_coo([0, row], [1, col], [1.0, 2.0], (2, 3))

    def test_coo_rejects_arrays_of_unequal_length(self):
        with pytest.raises(ValueError, match="equal length"):
            csr_from_coo([0, 1], [0], [1.0, 2.0], (2, 2))

    def test_coo_coalesces_duplicates(self):
        M = csr_from_coo([0, 0, 1], [1, 1, 0], [2.0, 3.0, 4.0], (2, 2))
        assert M.nnz == 2
        assert M.todense()[0, 1] == 5.0


class TestPaddedRows:
    def test_widths_of_the_package_operators(self):
        ops = hetero_operators(BoundaryPartition.all_dirichlet())
        S = step_matrix(ops, ThetaConfig.from_steps(1.0, 1.0, 4))
        widths = [M.cols.shape[0] for M in (S, ops.A, ops.D, ops.DT)]
        assert widths == [7, 3, 4, 2]

    def test_uneven_rows_round_trip_and_pad_with_own_columns(self):
        M, dense = uneven_csr()
        assert M.cols.shape == M.vals.shape == (3, 4)
        assert np.array_equal(M.row_nnz, [2, 0, 3, 1])
        stored = (np.arange(3)[:, None] < M.row_nnz).T  # (row, slot), row order
        rows = np.repeat(np.arange(4), M.row_nnz)
        cols = M.cols.T[stored]
        assert np.array_equal(cols, [1, 3, 0, 2, 4, 4])
        assert np.array_equal(M.vals.T[stored], [2.0, -1.0, 3.0, 4.0, 5.0, -6.0])
        assert M.nnz == 6
        assert np.array_equal(M.todense(), dense)
        assert np.array_equal(M.cols[:, 1], [0, 0, 0])
        for i in (0, 2, 3):
            assert set(M.cols[:, i]) == set(cols[rows == i])
            assert M.vals[M.row_nnz[i]:, i].tolist() == [0.0] * (3 - M.row_nnz[i])

    def test_uneven_rows_spmv(self):
        M, dense = uneven_csr()
        x = np.random.default_rng(1).standard_normal(5)
        y = spmv(M, x)
        assert np.abs(y - dense @ x).max() < 1e-13
        assert y[1] == 0.0

    def test_rows_of_a_matrix_without_columns_are_zero(self):
        M = csr_from_coo([], [], [], (3, 0))
        assert M.cols.shape == (0, 3)
        assert np.array_equal(spmv(M, np.zeros(0)), np.zeros(3))

    @pytest.mark.parametrize("col", range(5))
    def test_inf_reaches_only_rows_storing_its_column(self, col):
        M, dense = uneven_csr()
        x = np.ones(5)
        x[col] = np.inf
        assert np.array_equal(~np.isfinite(spmv(M, x)), dense[:, col] != 0)

    def test_inf_in_step_matrix_product(self):
        ops = hetero_operators(ALL_PARTITIONS[5])
        S = step_matrix(ops, ThetaConfig.from_steps(0.25, 1.0, 4))
        dense = S.todense()
        for col in (0, S.shape[1] // 2, S.shape[1] - 1):
            x = np.ones(S.shape[1])
            x[col] = np.inf
            assert np.array_equal(~np.isfinite(spmv(S, x)), dense[:, col] != 0)

    @pytest.mark.parametrize("bc", ALL_PARTITIONS)
    def test_spmv_matches_dense_for_package_operators(self, bc):
        ops = hetero_operators(bc)
        S = step_matrix(ops, ThetaConfig.from_steps(0.5, 1.0, 3))
        rng = np.random.default_rng(2)
        for M in (ops.A, ops.D, ops.DT, S):
            x = rng.standard_normal(M.shape[1])
            assert np.abs(spmv(M, x) - M.todense() @ x).max() < 1e-13

    def test_diagonal_is_cached_read_only_and_exact(self):
        ops = hetero_operators(ALL_PARTITIONS[9])
        S = step_matrix(ops, ThetaConfig.from_steps(1.0, 1.0, 4))
        for M in (S, ops.A, ops.D, ops.DT, uneven_csr()[0]):
            d = M.diagonal()
            assert np.array_equal(d, np.diag(M.todense()))
            assert M.diagonal() is d
            with pytest.raises(ValueError):
                d[0] = 1.0


class TestSpmv:
    def test_identity(self):
        x = np.arange(7.0)
        assert np.array_equal(spmv(identity_csr(7), x), x)

    def test_zero_matrix(self):
        M = csr_from_coo([], [], [], (5, 5))
        assert np.array_equal(spmv(M, np.ones(5)), np.zeros(5))

    def test_matches_dense_product(self):
        rng = np.random.default_rng(42)
        M, dense = random_sparse(rng, 20)
        x = rng.standard_normal(20)
        assert np.abs(spmv(M, x) - dense @ x).max() < 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            spmv(identity_csr(3), np.ones(4))


class TestCg:
    def test_identity_converges_in_one_iteration(self):
        b = np.random.default_rng(0).standard_normal(9)
        x, iters, _, _ = cg_solve(identity_csr(9), b)
        assert iters == 1
        assert np.abs(x - b).max() < 1e-14

    def test_zero_rhs(self):
        x, iters, res, norm_b = cg_solve(identity_csr(4), np.zeros(4))
        assert iters == 0 and res == 0.0 and norm_b == 0.0
        assert np.array_equal(x, np.zeros(4))

    def test_empty_system(self):
        # a grid whose every edge is pinned has no free velocity dof
        x, iters, res, norm_b = cg_solve(identity_csr(0), np.zeros(0))
        assert x.shape == (0,) and iters == 0 and res == 0.0 and norm_b == 0.0

    def test_step_matrix_solve_matches_dense(self):
        ops = operators_on(4)
        cfg = ThetaConfig.from_dt(0.25, 1.0, 0.01)
        S = step_matrix(ops, cfg)
        rng = np.random.default_rng(7)
        b = rng.standard_normal(S.shape[0])
        x, _, res, norm_b = cg_solve(S, b, SolverConfig(rel_tolerance=1e-12))
        assert norm_b == pytest.approx(np.linalg.norm(b), rel=1e-15)
        assert res <= 1e-12 * norm_b
        assert np.abs(x - dense_solve(S, b)).max() < 1e-9

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_raises_value_error(self, bad):
        ops = operators_on(4)
        S = step_matrix(ops, ThetaConfig.from_dt(0.25, 1.0, 0.01))
        b = np.ones(S.shape[0])
        b[3] = bad
        with pytest.raises(ValueError, match="not finite"):
            cg_solve(S, b)

    def test_finite_rhs_whose_square_overflows_is_solved_scaled(self):
        S = step_matrix(operators_on(4), ThetaConfig.from_dt(0.25, 1.0, 0.01))
        v = np.random.default_rng(3).standard_normal(S.shape[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning either
            x, iters, res, norm_b = cg_solve(S, 1e300 * v)
        want = 1e300 * dense_solve(S, v)
        assert iters >= 1
        assert np.abs(x - want).max() <= 1e-9 * np.abs(want).max()
        assert res <= 1e-12 * 1e300 * np.linalg.norm(v)
        assert norm_b == pytest.approx(1e300 * np.linalg.norm(v), rel=1e-14)

    @pytest.mark.parametrize("scale", [1e-155, 1e-170])  # ||b||^2 subnormal, then 0
    def test_tiny_rhs_is_solved_scaled(self, scale):
        S = step_matrix(operators_on(4), ThetaConfig.from_dt(0.25, 1.0, 0.01))
        v = np.random.default_rng(3).standard_normal(S.shape[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no underflow warning either
            x, iters, res, norm_b = cg_solve(S, scale * v)
        want = scale * dense_solve(S, v)
        assert iters >= 1
        assert np.abs(x - want).max() <= 1e-9 * np.abs(want).max()
        assert res <= 1e-12 * scale * np.linalg.norm(v)
        assert norm_b == pytest.approx(scale * np.linalg.norm(v), rel=1e-14)

    def test_indefinite_matrix_raises(self):
        M = csr_from_coo([0, 1], [0, 1], [1.0, -1.0], (2, 2))
        with pytest.raises(NonConvergence):
            cg_solve(M, np.ones(2))

    def test_unreachable_tolerance_raises_when_the_residual_stagnates(self, monkeypatch):
        # eigenvalues 2 and 1e-10: rounding keeps the true residual near 1e-7
        # of ||b||, far above the tolerance, and a restart gains nothing
        M = csr_from_coo([0, 0, 1, 1], [0, 1, 0, 1], [1.0, 1.0 - 1e-10, 1.0 - 1e-10, 1.0], (2, 2))
        calls = []
        inner = linalg.spmv

        def counted(A, x):
            calls.append(1)
            return inner(A, x)

        monkeypatch.setattr(linalg, "spmv", counted)
        with pytest.raises(NonConvergence, match=r"stagnated at relative residual .* above the tolerance 1e-12"):
            cg_solve(M, np.array([0.3, 0.7]), SolverConfig(1e-12))
        assert 0 < len(calls) <= 20

    @pytest.mark.parametrize("nx, coeff", [(4, 1e-3), (4, 10.0), (6, 0.1)])
    def test_tolerance_below_the_smallest_double_reports_an_underflow(self, nx, coeff):
        # p . Mp falls below the normal doubles long before the residual
        # reaches 1e-300 of ||b||; acting on it would divide by 0 or overflow
        ops = operators_on(nx)
        S = schur_matrix(ops.mesh, ops.classification, element_blocks(ops.mesh, ops.material, coeff))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergence, match=r"underflowed at relative residual \S+ in iteration \d+, above the tolerance 1e-300"):
                cg_solve(S, np.ones(S.shape[0]), SolverConfig(1e-300))

    @pytest.mark.parametrize("offdiagonal", [2.0, 1.0])  # indefinite, singular
    def test_nonpositive_curvature_reports_a_matrix_that_is_not_spd(self, offdiagonal):
        M = csr_from_coo([0, 0, 1, 1], [0, 1, 0, 1], [1.0, offdiagonal, offdiagonal, 1.0], (2, 2))
        with pytest.raises(NonConvergence, match=r"nonpositive curvature at iteration 1; matrix is not SPD"):
            cg_solve(M, np.array([1.0, -1.0]))

    def test_iteration_cap_raises(self):
        ops = operators_on(4)
        with pytest.raises(NonConvergence):
            cg_solve(ops.A, np.ones(ops.A.shape[0]), SolverConfig(1e-12, max_iterations=1))

    @pytest.mark.parametrize("nx,dt", [(16, 0.01), (64, 0.005), (64, None)])
    def test_converges_well_under_3n(self, nx, dt):
        # dt=None exercises the badly conditioned large-step operator
        ops = operators_on(nx)
        dt = dt if dt is not None else 10.0 * ops.mesh.h
        S = step_matrix(ops, ThetaConfig.from_dt(0.25, 100 * dt, dt))
        rng = np.random.default_rng(11)
        b = rng.standard_normal(S.shape[0])
        x, iters, _, _ = cg_solve(S, b, SolverConfig(rel_tolerance=1e-12))
        assert iters <= 3 * S.shape[0]


def step_system(nx=4, seed=3):
    """A step matrix S and a seeded right-hand side."""
    S = step_matrix(operators_on(nx), ThetaConfig.from_dt(0.25, 1.0, 0.01))
    return S, np.random.default_rng(seed).standard_normal(S.shape[0])


class TestCgStart:
    def test_x0_is_not_modified(self):
        S, b = step_system()
        x0 = np.random.default_rng(5).standard_normal(b.size)
        kept = x0.copy()
        x, iters, res, _ = cg_solve(S, b, SolverConfig(1e-12), x0=x0)
        assert np.array_equal(x0, kept) and x is not x0
        assert iters >= 1 and res <= 1e-12 * np.linalg.norm(b)

    def test_a_start_within_the_tolerance_returns_after_no_iteration(self):
        S, b = step_system()
        x0 = dense_solve(S, b)
        x, iters, res, norm_b = cg_solve(S, b, SolverConfig(1e-12), x0=x0)
        assert iters == 0
        assert np.array_equal(x, x0) and x is not x0
        assert res == np.linalg.norm(b - spmv(S, x0)) and res <= 1e-12 * norm_b
        assert norm_b == pytest.approx(np.linalg.norm(b), rel=1e-15)

    def test_the_tolerance_stays_relative_to_b(self):
        # the start's residual is 1e-9 of ||b||: a test relative to it would
        # ask for 1e-21 of ||b||, below rounding, and fail
        S, b = step_system()
        x = dense_solve(S, b)
        e = np.random.default_rng(6).standard_normal(b.size)
        x0 = x + 1e-9 * np.linalg.norm(b) / np.linalg.norm(spmv(S, e)) * e
        want = np.linalg.norm(b - spmv(S, x0)) / np.linalg.norm(b)
        assert 0.5e-9 < want < 2e-9
        _, iters, res, norm_b = cg_solve(S, b, SolverConfig(1e-12), x0=x0)
        assert iters >= 1
        assert res <= 1e-12 * norm_b
        assert norm_b == pytest.approx(np.linalg.norm(b), rel=1e-15)

    @pytest.mark.parametrize("x0", [np.zeros(3), np.zeros((1, 40)), np.zeros(41)])
    def test_a_start_of_the_wrong_shape_raises_value_error(self, x0):
        S, b = step_system()
        assert b.shape == (40,)
        with pytest.raises(ValueError, match="start x0 has shape"):
            cg_solve(S, b, x0=x0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_start_that_is_not_finite_raises_value_error(self, bad):
        S, b = step_system()
        x0 = np.zeros(b.size)
        x0[7] = bad
        with pytest.raises(ValueError, match="start x0 is not finite"):
            cg_solve(S, b, x0=x0)

    @pytest.mark.parametrize("scale", [1e300, 1e-170])  # ||b||^2 overflows, underflows
    def test_the_rescaled_paths_scale_the_start_too(self, scale):
        S, v = step_system()
        x = dense_solve(S, v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = cg_solve(S, scale * v, SolverConfig(1e-12), x0=scale * x)
        # the start solves the scaled system, so no iteration is needed
        assert result.iterations == 0
        assert np.abs(result.x - scale * x).max() <= 1e-15 * scale * np.abs(x).max()
        assert result.residual <= 1e-12 * scale * np.linalg.norm(v)
        assert result.rhs_norm == pytest.approx(scale * np.linalg.norm(v), rel=1e-14)

    def test_zero_rhs_returns_zeros_whatever_the_start(self):
        x, iters, res, norm_b = cg_solve(identity_csr(4), np.zeros(4), x0=np.ones(4))
        assert np.array_equal(x, np.zeros(4)) and iters == 0 and res == 0.0 and norm_b == 0.0


def m_gram(M, vectors):
    """The Gram matrix q_i . M q_j."""
    return np.array([[u @ spmv(M, v) for v in vectors] for u in vectors])


class TestSolutionProjection:
    def test_the_start_is_the_m_orthogonal_projection_of_the_solution(self, monkeypatch):
        S, _ = step_system(6)
        rng = np.random.default_rng(9)
        projection = linalg.SolutionProjection(S, 8)
        for _ in range(4):
            projection.solve(rng.standard_normal(S.shape[0]), SolverConfig(1e-13))
        Q = np.column_stack(projection.basis)
        assert np.abs(m_gram(S, projection.basis) - np.eye(4)).max() <= 1e-12
        b = rng.standard_normal(S.shape[0])
        x = dense_solve(S, b)
        # the M-orthogonal projection minimises ||x - Q c||_M: Q^T S Q c = Q^T S x
        dense = S.todense()
        want = Q @ np.linalg.solve(Q.T @ dense @ Q, Q.T @ dense @ x)
        starts = []
        inner = linalg.cg_solve
        monkeypatch.setattr(linalg, "cg_solve", lambda *a: starts.append(a[4]) or inner(*a))
        result = projection.solve(b, SolverConfig(1e-13))
        assert np.abs(starts[0] - want).max() <= 1e-10 * np.abs(want).max()
        assert np.abs(result.x - x).max() <= 1e-10 * np.abs(x).max()

    def test_a_full_basis_restarts_from_the_newest_solution(self):
        S, _ = step_system(6)
        rng = np.random.default_rng(10)
        projection = linalg.SolutionProjection(S, 3)
        sizes = []
        for _ in range(7):
            result = projection.solve(rng.standard_normal(S.shape[0]), SolverConfig(1e-13))
            sizes.append(len(projection.basis))
            assert np.abs(m_gram(S, projection.basis) - np.eye(sizes[-1])).max() <= 1e-12
        assert sizes == [1, 2, 3, 1, 2, 3, 1]
        # after the restart the one basis vector is the last solution, M-normalised
        q, x = projection.basis[0], result.x
        assert np.abs(q - x / math.sqrt(x @ spmv(S, x))).max() <= 1e-12 * np.abs(q).max()

    def test_a_solution_in_the_span_of_the_basis_is_not_appended(self):
        S, b = step_system(6)
        projection = linalg.SolutionProjection(S, 4)
        first = projection.solve(b, SolverConfig(1e-13))
        for scale in (2.0, -0.5):
            again = projection.solve(scale * b, SolverConfig(1e-13))
            assert again.iterations == 0
            assert np.abs(again.x - scale * first.x).max() <= 1e-12 * np.abs(first.x).max()
        assert len(projection.basis) == 1
        # a new part of 1e-10 of the solution takes CG iterations but is not
        # appended: normalising it would blow its rounding error up
        nearly = projection.solve(b + 1e-10 * np.random.default_rng(2).standard_normal(b.size), SolverConfig(1e-13))
        assert nearly.iterations >= 1 and nearly.residual <= 1e-13 * nearly.rhs_norm
        assert len(projection.basis) == 1

    def test_rejects_an_empty_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            linalg.SolutionProjection(identity_csr(2), 0)


class TestSchurMatrix:
    def test_step_matrix_at_theta_zero_is_the_mass_matrix_itself(self):
        ops = operators_on(3)
        assert step_matrix(ops, ThetaConfig.from_steps(0.0, 1.0, 4)) is ops.A

    @pytest.mark.parametrize("bc", ALL_PARTITIONS)
    def test_matches_dense_oracle_on_every_partition(self, bc):
        ops = hetero_operators(bc, nx=5, ny=3, seed=4)
        A_ref, C_ref, D_ref = dense_operators(ops.mesh, bc, ops.material)
        A = schur_matrix(ops.mesh, ops.classification, element_blocks(ops.mesh, ops.material, 0.0))
        assert A.cols.shape[0] == 3  # only the mass pattern: L-R and B-T pairs
        assert np.abs(A.todense() - A_ref).max() <= 1e-14 * np.abs(A_ref).max()
        for coeff in (2.5e-5, 0.37):
            S = schur_matrix(ops.mesh, ops.classification, element_blocks(ops.mesh, ops.material, coeff))
            dense = dense_step_matrix(A_ref, D_ref, C_ref, coeff)
            assert np.abs(S.todense() - dense).max() <= 1e-14 * np.abs(dense).max()

    def test_matches_dense_triple_product(self):
        ops = operators_on(2)
        coeff = 2.5e-5
        S = schur_matrix(ops.mesh, ops.classification, element_blocks(ops.mesh, ops.material, coeff))
        D = ops.D.todense()
        dense = ops.A.todense() + coeff * D.T @ np.diag(1.0 / ops.Cdiag) @ D
        assert np.abs(S.todense() - dense).max() < 1e-14

    def test_symmetry(self):
        ops = operators_on(5, bc=BoundaryPartition.all_neumann())
        S = schur_matrix(ops.mesh, ops.classification, element_blocks(ops.mesh, ops.material, 0.37))
        assert max_asymmetry(S) <= 1e-14

    def test_matches_oracle_with_hetero_material_and_mixed_sides(self):
        # pinned left and bottom sides leave D rows of 2 (corner), 3 and 4 entries
        ops = hetero_operators(BoundaryPartition(NEU, DIR, NEU, DIR), seed=4)
        assert set(ops.D.row_nnz) == {2, 3, 4}
        coeff = 0.37
        S = schur_matrix(ops.mesh, ops.classification, element_blocks(ops.mesh, ops.material, coeff))
        dense = dense_step_matrix(ops.A.todense(), ops.D.todense(), ops.Cdiag, coeff)
        assert np.abs(S.todense() - dense).max() < 1e-12


def test_solver_config_rejects_nonpositive_tolerance():
    with pytest.raises(ValueError):
        SolverConfig(rel_tolerance=0.0)


def absolute(M: CsrMatrix) -> CsrMatrix:
    """|M| entrywise, for rounding bounds |M| |x|."""
    return CsrMatrix(M.cols, np.abs(M.vals), M.row_nnz, M.shape)


class TestEdgeGridOperators:
    """The edge-grid stencils apply the operators the padded rows store."""

    COEFFS = (0.0, 0.37)  # S at coeff 0 is A summed by schur_matrix itself

    @staticmethod
    def both_formats(nx, ny, bc, monkeypatch, seed=0):
        """[A, D, D^T, S(coeff) for COEFFS] as padded rows, then as stencils,
        with rho and lambda log-uniform in [1/4, 4]."""
        mesh = build_rect_mesh(nx, ny)
        rho, lam = np.exp(np.random.default_rng(seed).uniform(-1.4, 1.4, (2, mesh.n_elements)))
        material = material_field(mesh, lambda x, y: rho, lambda x, y: lam)
        formats = []
        for switch in (sys.maxsize, 0):
            monkeypatch.setattr(spaces, "GRID_MIN_DOFS", switch)
            ops = assemble_operators(mesh, bc, material)
            steps = [schur_matrix(mesh, ops.classification, element_blocks(mesh, material, c)) for c in TestEdgeGridOperators.COEFFS]
            formats.append([ops.A, ops.D, ops.DT, *steps])
        return formats

    @staticmethod
    def assert_same_operators(padded, grid, seed=1):
        rng = np.random.default_rng(seed)
        for k, (P, G) in enumerate(zip(padded, grid)):
            assert isinstance(P, CsrMatrix) and not isinstance(G, CsrMatrix)
            assert G.shape == P.shape
            assert G.nnz == P.nnz  # a trace wrapper reads M.nnz
            for x in rng.standard_normal((3, P.shape[1])):
                bound = 1e-14 * max(spmv(absolute(P), np.abs(x)).max(initial=0.0), 1e-300)
                assert np.abs(spmv(G, x) - spmv(P, x)).max(initial=0.0) <= bound
            if k in (0, 3, 4):  # the square operators CG reads the diagonal of
                d = G.diagonal()
                assert np.abs(d - P.diagonal()).max(initial=0.0) <= 1e-14 * np.abs(P.diagonal()).max(initial=0.0)
                assert G.diagonal() is d
                with pytest.raises(ValueError):
                    d[0] = 1.0

    @pytest.mark.parametrize("bc", ALL_PARTITIONS)
    @pytest.mark.parametrize("nx,ny", [(9, 7), (1, 5), (4, 1)])
    def test_match_padded_rows_on_small_grids(self, nx, ny, bc, monkeypatch):
        self.assert_same_operators(*self.both_formats(nx, ny, bc, monkeypatch))

    @pytest.mark.parametrize("bc", ALL_PARTITIONS)
    @pytest.mark.parametrize("nx,ny", [(80, 80), (6000, 2)])
    def test_match_padded_rows_above_the_switch(self, nx, ny, bc, monkeypatch):
        padded, grid = self.both_formats(nx, ny, bc, monkeypatch, seed=5)
        assert grid[0].shape[0] >= GRID_MIN_DOFS
        self.assert_same_operators(padded, grid)

    def test_format_follows_the_free_dof_count(self):
        for nx, grid in ((64, False), (128, True)):
            ops = operators_on(nx)  # all sides DIRICHLET_P: every edge is free
            S = step_matrix(ops, ThetaConfig.from_dt(0.25, 1.0, 1 / 128))
            assert (ops.n_velocity >= GRID_MIN_DOFS) == grid
            for M in (ops.A, ops.D, ops.DT, S):
                assert isinstance(M, CsrMatrix) != grid
