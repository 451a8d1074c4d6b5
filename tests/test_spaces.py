import numpy as np
import pytest

from mixedwave.linalg import spmv
from mixedwave.mesh import BoundaryPartition, build_rect_mesh, edge_classify
from mixedwave.spaces import (
    assemble_load,
    assemble_operators,
    edge_fluxes,
    element_quadrature,
    material_field,
    project_pressure_p_h,
    project_velocity_pi_h,
)
from mixedwave.verify import mms_forced

from oracles import dense_operators, max_asymmetry, pressure_l2_error, rt0_basis_eval, velocity_l2_error

ALL_D = BoundaryPartition.all_dirichlet()


def unit_ops(nx, ny=None, bc=ALL_D, rho=1.0, lam=1.0):
    mesh = build_rect_mesh(nx, ny if ny is not None else nx)
    return assemble_operators(mesh, bc, material_field(mesh, rho, lam))


class TestBasis:
    def test_unit_flux_on_own_edge(self):
        mesh = build_rect_mesh(1, 1)
        y = np.linspace(0.1, 0.9, 5)
        vx, vy = rt0_basis_eval(mesh, 0, 1, np.ones_like(y), y)  # right edge
        assert np.allclose(vx, 1.0) and np.allclose(vy, 0.0)

    def test_vanishes_on_opposite_edge(self):
        mesh = build_rect_mesh(1, 1)
        y = np.linspace(0.0, 1.0, 5)
        vx, vy = rt0_basis_eval(mesh, 0, 1, np.zeros_like(y), y)
        assert np.allclose(vx, 0.0) and np.allclose(vy, 0.0)

    def test_linear_profile_on_square_element(self):
        h = 0.3
        mesh = build_rect_mesh(1, 1, (0.0, h, 0.0, h))
        x = np.array([0.05, 0.15, 0.25])
        vx, vy = rt0_basis_eval(mesh, 0, 1, x, np.full_like(x, 0.1))
        assert np.allclose(vx, x / h**2)
        assert np.allclose(vy, 0.0)

    def test_invalid_local_edge(self):
        mesh = build_rect_mesh(1, 1)
        with pytest.raises(ValueError):
            rt0_basis_eval(mesh, 0, 4, 0.5, 0.5)


class TestAssembly:
    def test_single_element_divergence_row(self):
        ops = unit_ops(1)
        # columns ordered left, right, bottom, top by the global numbering
        assert np.array_equal(ops.D.todense(), [[-1.0, 1.0, -1.0, 1.0]])
        assert np.array_equal(ops.Cdiag, [1.0])

    def test_pressure_mass_scales_with_lambda(self):
        ops = unit_ops(1, lam=4.0)
        assert np.array_equal(ops.Cdiag, [0.25])

    def test_velocity_mass_matches_quadrature_oracle(self):
        ops = unit_ops(2)
        A_ref, C_ref, D_ref = dense_operators(ops.mesh, ops.bc, ops.material)
        assert np.abs(ops.A.todense() - A_ref).max() < 1e-12
        assert np.abs(ops.Cdiag - C_ref).max() < 1e-12
        assert np.abs(ops.D.todense() - D_ref).max() < 1e-12

    def test_symmetry_and_positive_definiteness(self):
        ops = unit_ops(4, bc=BoundaryPartition.all_neumann(), rho=2.5)
        assert max_asymmetry(ops.A) <= 1e-14
        rng = np.random.default_rng(5)
        for _ in range(100):
            v = rng.standard_normal(ops.n_velocity)
            assert v @ spmv(ops.A, v) > 0

    def test_row_sparsity_bound(self):
        ops = unit_ops(6)
        assert ops.A.row_nnz.max() <= 7

    def test_divergence_column_sums(self):
        ops = unit_ops(3, 4)
        cls = ops.classification
        dense = ops.D.todense()
        sums = dense.sum(axis=0)
        elements_per_edge = np.bincount(ops.mesh.element_edges.ravel(), minlength=ops.mesh.n_edges)
        for e, fi in enumerate(cls.free_index):
            if fi < 0:
                continue
            if elements_per_edge[e] == 2:  # interior edge
                assert sums[fi] == 0.0
            else:
                assert abs(sums[fi]) == 1.0
        assert (np.count_nonzero(dense, axis=0) <= 2).all()

    def test_material_bound_violation(self):
        mesh = build_rect_mesh(2, 2)
        with pytest.raises(ValueError, match="material bound"):
            material_field(mesh, 1.0, 1.0, rho_bounds=(2.0, 3.0))
        with pytest.raises(ValueError):
            material_field(mesh, -1.0, 1.0)


def load(mesh, bc, f, t):
    return assemble_load(element_quadrature(mesh), edge_classify(mesh, bc), f, t)


class TestLoad:
    def test_zero_force(self):
        mesh = build_rect_mesh(3, 3)
        F = load(mesh, ALL_D, lambda x, y, t: (0.0 * x, 0.0 * y), 0.0)
        assert np.array_equal(F, np.zeros(F.size))

    def test_constant_force_unit_square(self):
        mesh = build_rect_mesh(1, 1)
        c = 3.7
        F = load(mesh, ALL_D, lambda x, y, t: (c + 0.0 * x, 0.0 * y), 0.0)
        assert np.allclose(F[:2], c / 2)  # both vertical edges
        assert np.allclose(F[2:], 0.0)

    def test_force_free_manufactured_case(self):
        # at the resonant frequency the forcing coefficient cancels exactly
        mms = mms_forced(np.sqrt(2.0) * np.pi)
        mesh = build_rect_mesh(4, 4)
        F = load(mesh, ALL_D, mms.f, 0.31)
        assert np.abs(F).max() < 1e-12


class TestVelocityProjection:
    def test_constant_field(self):
        mesh = build_rect_mesh(1, 1)
        coeffs = project_velocity_pi_h(mesh, edge_classify(mesh, ALL_D), lambda x, y: (1.0 + 0.0 * x, 0.0 * y))
        assert np.allclose(coeffs, [1.0, 1.0, 0.0, 0.0])

    def test_linear_field(self):
        mesh = build_rect_mesh(1, 1)
        coeffs = project_velocity_pi_h(mesh, edge_classify(mesh, ALL_D), lambda x, y: (x, y))
        assert np.allclose(coeffs, [0.0, 1.0, 0.0, 1.0], atol=1e-15)

    def test_neumann_dofs_are_dropped(self):
        mesh = build_rect_mesh(2, 1)
        coeffs = project_velocity_pi_h(
            mesh, edge_classify(mesh, BoundaryPartition.all_neumann()), lambda x, y: (x, y)
        )
        assert coeffs.shape == (1,)
        assert coeffs[0] == pytest.approx(0.5)

    def test_commuting_identity_for_trig_field(self):
        mesh = build_rect_mesh(4, 4)
        z = lambda x, y: (np.sin(np.pi * x) * np.cos(np.pi * y), 0.0 * y)
        div_z = lambda x, y: np.pi * np.cos(np.pi * x) * np.cos(np.pi * y)
        assert commuting_residual(mesh, z, div_z) < 1e-10


def commuting_residual(mesh, z, div_z):
    """max_T |(div Pi_h z, w_T) - (div z, w_T)| with the exact side via fine quadrature."""
    fluxes = edge_fluxes(mesh, z)
    ee = mesh.element_edges
    lhs = -fluxes[ee[:, 0]] + fluxes[ee[:, 1]] - fluxes[ee[:, 2]] + fluxes[ee[:, 3]]
    rhs = project_pressure_p_h(mesh, div_z) * mesh.hx * mesh.hy
    return float(np.abs(lhs - rhs).max())


SMOOTH_FIELDS = [
    (lambda x, y: (np.sin(np.pi * x) * np.cos(np.pi * y), 0.0 * y),
     lambda x, y: np.pi * np.cos(np.pi * x) * np.cos(np.pi * y)),
    (lambda x, y: (x**3 - 2 * x * y, y**2 + x),
     lambda x, y: 3 * x**2 - 2 * y + 2 * y),
    (lambda x, y: (np.cos(2 * np.pi * x) * np.sin(np.pi * y), x * y**2),
     lambda x, y: -2 * np.pi * np.sin(2 * np.pi * x) * np.sin(np.pi * y) + 2 * x * y),
    (lambda x, y: (np.exp(x) * np.cos(y), np.exp(y) * np.sin(x)),
     lambda x, y: np.exp(x) * np.cos(y) + np.exp(y) * np.sin(x)),
    (lambda x, y: (x**5 - y**4, x**2 * y**3),
     lambda x, y: 5 * x**4 + 3 * x**2 * y**2),
]


@pytest.mark.parametrize("nx", [2, 4])
@pytest.mark.parametrize("field", range(len(SMOOTH_FIELDS)))
def test_commuting_projection_smooth_fields(nx, field):
    mesh = build_rect_mesh(nx, nx)
    z, div_z = SMOOTH_FIELDS[field]
    assert commuting_residual(mesh, z, div_z) <= 1e-10


class TestPressureProjection:
    def test_constant(self):
        mesh = build_rect_mesh(3, 2)
        assert np.allclose(project_pressure_p_h(mesh, lambda x, y: 5.0 + 0.0 * x), 5.0)

    def test_linear_on_two_elements(self):
        mesh = build_rect_mesh(2, 1)
        assert np.allclose(project_pressure_p_h(mesh, lambda x, y: x), [0.25, 0.75])

    def test_trig_matches_analytic_averages(self):
        mesh = build_rect_mesh(4, 4)
        got = project_pressure_p_h(mesh, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
        for el in range(mesh.n_elements):
            a, c = mesh.element_x0[el], mesh.element_y0[el]
            b, d = a + mesh.hx, c + mesh.hy
            exact = (
                (np.sin(np.pi * b) - np.sin(np.pi * a))
                * (np.sin(np.pi * d) - np.sin(np.pi * c))
                / (np.pi**2 * mesh.hx * mesh.hy)
            )
            assert got[el] == pytest.approx(exact, abs=1e-12)


class TestApproximationOrders:
    def fit_slope(self, hs, errs):
        return np.polyfit(np.log(hs), np.log(errs), 1)[0]

    def test_velocity_interpolation_first_order(self):
        z = lambda x, y: (np.sin(np.pi * x) * np.cos(np.pi * y),
                          np.cos(np.pi * x) * np.sin(np.pi * y))
        hs, errs = [], []
        for nx in (4, 8, 16, 32):
            mesh = build_rect_mesh(nx, nx)
            coeffs = project_velocity_pi_h(mesh, edge_classify(mesh, ALL_D), z)
            err = velocity_l2_error(mesh, ALL_D, np.ones(mesh.n_elements), coeffs, z, rule=7)
            hs.append(mesh.h)
            errs.append(err)
        assert np.all(np.diff(errs) < 0)
        assert self.fit_slope(hs, errs) >= 0.9

    def test_pressure_projection_first_order(self):
        phi = lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y)
        hs, errs = [], []
        for nx in (4, 8, 16, 32):
            mesh = build_rect_mesh(nx, nx)
            vals = project_pressure_p_h(mesh, phi)
            err = pressure_l2_error(mesh, np.ones(mesh.n_elements), vals, phi, rule=7)
            hs.append(mesh.h)
            errs.append(err)
        assert np.all(np.diff(errs) < 0)
        assert self.fit_slope(hs, errs) >= 0.9
