import numpy as np
import pytest

from mixedwave.linalg import spmv
from mixedwave.mesh import BoundaryKind, BoundaryPartition, build_rect_mesh, edge_classify
from mixedwave.spaces import (
    GRID_MIN_DOFS,
    MaterialField,
    PROJECTION_BLOCK,
    PROJECTION_RULE,
    assemble_load,
    assemble_operators,
    edge_fluxes,
    element_blocks,
    element_quadrature,
    gauss_rule_1d,
    integrate_load,
    material_field,
    pressure_best_approximation,
    project_pressure_p_h,
    project_velocity_pi_h,
    schur_matrix,
    velocity_best_approximation,
)
from mixedwave.verify import mms_forced

from oracles import (
    assert_same_rows,
    dense_operators,
    element_corners,
    element_edges,
    global_edge_fluxes,
    max_asymmetry,
    n_edges,
    pressure_l2_error,
    reference_divergence,
    reference_edge_classify,
    reference_integrate_load,
    reference_schur_matrix,
    rt0_basis_eval,
    todense,
    velocity_l2_error,
)

ALL_D = BoundaryPartition.all_dirichlet()
ALL_PARTITIONS = [
    BoundaryPartition(*[BoundaryKind.NEUMANN_U if code >> side & 1 else BoundaryKind.DIRICHLET_P for side in range(4)])
    for code in range(16)
]


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
        assert np.array_equal(todense(ops.D), [[-1.0, 1.0, -1.0, 1.0]])
        assert np.array_equal(ops.Cdiag, [1.0])

    def test_pressure_mass_scales_with_lambda(self):
        ops = unit_ops(1, lam=4.0)
        assert np.array_equal(ops.Cdiag, [0.25])

    def test_velocity_mass_matches_quadrature_oracle(self):
        ops = unit_ops(2)
        A_ref, C_ref, D_ref = dense_operators(ops.mesh, ops.bc, ops.material)
        assert np.abs(todense(ops.A) - A_ref).max() < 1e-12
        assert np.abs(ops.Cdiag - C_ref).max() < 1e-12
        assert np.abs(todense(ops.D) - D_ref).max() < 1e-12

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
        free_index, _ = reference_edge_classify(ops.mesh, ops.bc)
        dense = todense(ops.D)
        sums = dense.sum(axis=0)
        elements_per_edge = np.bincount(element_edges(ops.mesh).ravel(), minlength=n_edges(ops.mesh))
        for e, fi in enumerate(free_index):
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
            MaterialField(np.ones(mesh.n_elements), np.ones(mesh.n_elements), 2.0, 3.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            material_field(mesh, -1.0, 1.0)

    # One NaN rho on an 8 x 8 grid ran into the CG iteration cap, and a length-1
    # lambda beside 16 rho was broadcast as a uniform lambda.
    ONES = np.ones(16)
    NAN_AT_3 = np.where(np.arange(16) == 3, np.nan, 1.0)

    @pytest.mark.parametrize("rho, lam, bounds, match", [
        pytest.param(NAN_AT_3, ONES, (1.0, 1.0, 1.0, 1.0), "rho has a non-finite entry", id="nan-rho"),
        pytest.param(ONES, np.where(ONES > 0, np.inf, 0.0), (1.0, 1.0, 1.0, 1.0), "lambda has a non-finite",
                     id="inf-lambda"),
        pytest.param(ONES, ONES, (1.0, np.inf, 1.0, 1.0), "rho bounds must be finite", id="inf-rho-bound"),
        pytest.param(ONES, ONES, (1.0, 1.0, np.nan, 1.0), "lambda bounds must be finite", id="nan-lambda-bound"),
        pytest.param(ONES, np.ones(1), (1.0, 1.0, 1.0, 1.0), "one length", id="length-1-lambda"),
        pytest.param(np.ones(15), ONES, (1.0, 1.0, 1.0, 1.0), "one length", id="short-rho"),
        pytest.param(np.ones((4, 4)), np.ones((4, 4)), (1.0, 1.0, 1.0, 1.0), "1-D", id="2-d"),
        pytest.param(1.0, 1.0, (1.0, 1.0, 1.0, 1.0), "1-D", id="scalars"),
    ])
    def test_rejects_non_finite_or_mismatched_per_element_values(self, rho, lam, bounds, match):
        with pytest.raises(ValueError, match=match):
            MaterialField(rho, lam, *bounds)


def load(mesh, bc, f, t):
    return assemble_load(element_quadrature(mesh), edge_classify(mesh, bc), f, t)


class TestLineSolve:
    """``MixedOperators.line_solve``: A solved by the LDL^T factors of its
    lines, or by one inverse per edge family whose lines have the same block."""

    @staticmethod
    def material(kind, mesh, rng):
        """rho and lambda log-uniform in [1/4, 4]: per element (``random``),
        per element row (``layered``, so every column of horizontal edges
        has the same block and the rows of vertical edges do not), or one
        value for all (``uniform``)."""
        shape = {"uniform": (2, 1, 1), "layered": (2, mesh.ny, 1), "random": (2, mesh.ny, mesh.nx)}[kind]
        rho, lam = np.exp(rng.uniform(np.log(0.25), np.log(4.0), shape))
        rho, lam = (np.broadcast_to(a, (mesh.ny, mesh.nx)).ravel() for a in (rho, lam))
        return MaterialField(rho, lam, 0.25, 4.0, 0.25, 4.0)

    # the last two are above 160 x 160, where one dense inverse per line would take over 64 MiB
    @pytest.mark.parametrize("nx, ny", [(1, 1), (1, 5), (5, 1), (12, 4), (32, 32), (64, 32), (2894, 1), (170, 165)])
    @pytest.mark.parametrize("kind", ["uniform", "layered", "random"])
    def test_solves_exactly_on_every_partition(self, kind, nx, ny):
        mesh = build_rect_mesh(nx, ny)
        rng = np.random.default_rng(100 * nx + ny)
        material = self.material(kind, mesh, rng)
        for bc in ALL_PARTITIONS:
            ops = assemble_operators(mesh, bc, material)
            assert ops.line_solve is ops.line_solve  # built once
            # whatever the material, a family of one line, or of lines with no free edge, has one block;
            # it shares an inverse of L^2 floats only when its factors, 2 L per line, are no smaller
            (rows, row), (column, columns) = ops.classification.shapes
            same = (kind == "uniform" or ny == 1 or row == 0, kind != "random" or nx == 1 or column == 0)
            shared = (same[0] and row <= 2 * rows, same[1] and column <= 2 * columns)
            assert ops.line_solve.shared == shared  # (rows of vertical edges, columns of horizontal ones)
            assert ops.line_solve.nbytes <= 16 * ops.n_velocity
            b = rng.standard_normal(ops.n_velocity)
            x = ops.line_solve.solve(b)
            assert np.linalg.norm(b - spmv(ops.A, x)) <= 1e-14 * np.linalg.norm(b)

    def test_a_family_shares_only_when_the_off_diagonals_match_too(self):
        # rows of rho (1, 2, 1) and (2, 1, 2) with every side pinned: both rows of
        # vertical edges have the diagonal 3 (1, 1) hx / (3 hy) but the off-diagonals
        # 2 and 1 hx / (6 hy); each column of horizontal edges is one edge of diagonal 3
        mesh = build_rect_mesh(3, 2)
        rho = np.array([1.0, 2.0, 1.0, 2.0, 1.0, 2.0])
        ops = assemble_operators(mesh, BoundaryPartition.all_neumann(), MaterialField(rho, rho, 1.0, 2.0, 1.0, 2.0))
        assert ops.line_solve.shared == (False, True)
        b = np.random.default_rng(0).standard_normal(ops.n_velocity)
        x = ops.line_solve.solve(b)
        assert np.linalg.norm(b - spmv(ops.A, x)) <= 1e-14 * np.linalg.norm(b)


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
    fluxes = np.concatenate([grid.ravel() for grid in edge_fluxes(mesh, z)])  # in global id order
    ee = element_edges(mesh)
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
        corner_x, corner_y = element_corners(mesh)
        for el in range(mesh.n_elements):
            a, c = corner_x[el], corner_y[el]
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


# --- sampling on sparse coordinates -----------------------------------------
# Every data callable gets x and y that broadcast against each other. The
# oracles below evaluate the same callables on full np.meshgrid coordinates,
# as one (points, rule) array each, and must agree bit for bit.

SAMPLING_MESHES = [(9, 7), (1, 5), (1100, 2)]  # 1100 wide: one element row per call of p0


def sampling_mesh(nx, ny):
    return build_rect_mesh(nx, ny, (-0.5, 1.5, 0.25, 1.0))


def full_element_points(mesh, n):
    """(n_elements, n*n) coordinates of the n-by-n rule, xi running slowest."""
    s, _ = gauss_rule_1d(n)
    i, j = np.meshgrid(np.arange(mesh.nx), np.arange(mesh.ny))
    x = (mesh.x0 + i.ravel() * mesh.hx)[:, None] + mesh.hx * np.repeat(s, n)
    y = (mesh.y0 + j.ravel() * mesh.hy)[:, None] + mesh.hy * np.tile(s, n)
    return x, y


def full_pressure_projection(mesh, phi):
    """Element averages by the 7x7 rule on full coordinates, reduced in the
    bands of element rows that ``project_pressure_p_h`` uses."""
    x, y = full_element_points(mesh, PROJECTION_RULE)
    values = np.broadcast_to(np.asarray(phi(x, y), dtype=np.float64), x.shape)
    band = max(1, PROJECTION_BLOCK // mesh.nx) * mesh.nx
    w = element_quadrature(mesh, PROJECTION_RULE).weights
    return np.concatenate([values[k : k + band] @ w for k in range(0, mesh.n_elements, band)])


def on_full_points(mesh, fn):
    """fn evaluated on full coordinates of the 3x3 rule, handed out in the
    (ny, nx, 3, 3) layout whatever the coordinates it is called with."""
    x, y = full_element_points(mesh, 3)
    shape = (mesh.ny, mesh.nx, 3, 3)

    def full(_x, _y, *args):
        value = fn(x, y, *args)
        if isinstance(value, tuple):
            return tuple(np.broadcast_to(v, x.shape).reshape(shape) for v in value)
        return np.broadcast_to(value, x.shape).reshape(shape)

    return full


def cell_lookup(mesh):
    """Scalar field that reads a per-element table by locating each point's
    element, like a heterogeneous p0 = lambda div u0."""
    table = np.random.default_rng(2).uniform(0.25, 4.0, mesh.n_elements)

    def phi(x, y):
        i = np.clip(((x - mesh.x0) // mesh.hx).astype(np.int64), 0, mesh.nx - 1)
        j = np.clip(((y - mesh.y0) // mesh.hy).astype(np.int64), 0, mesh.ny - 1)
        return table[j * mesh.nx + i] * np.cos(x - 2.0 * y)

    return phi


def modal(x, y):
    """Sum over modes along a trailing axis, as the benchmark's seeded u0."""
    k = np.array([1.0, 2.0, 3.0])
    x, y = np.asarray(x)[..., None], np.asarray(y)[..., None]
    return (np.sin(k * x + y) * np.cos(k * y)).sum(-1), (np.cos(k * x * y)).sum(-1)


def vector_fields(mesh):
    lookup = cell_lookup(mesh)
    return {
        "non-separable": lambda x, y: (np.sin(3 * x + 2 * y) * np.exp(x * y), np.cos(x - y**2)),
        "lookup": lambda x, y: (lookup(x, y), x * lookup(x, y)),
        "scalar component": lambda x, y: (np.sin(x * y), 0.0),
        "constant": lambda x, y: (1.5, -0.5),
        "modal": modal,
    }


def scalar_fields(mesh):
    return {
        "non-separable": lambda x, y: np.exp(np.sin(x * y)) + x / (2.0 + y),
        "lookup": cell_lookup(mesh),
        "scalar": lambda x, y: 2.5,
        "x only": lambda x, y: np.cos(x),
    }


@pytest.mark.parametrize("nx, ny", SAMPLING_MESHES)
class TestSampling:
    def test_quadrature_coordinates_are_sparse(self, nx, ny):
        mesh = sampling_mesh(nx, ny)
        quad = element_quadrature(mesh)
        assert quad.x.shape == (1, nx, 3, 1) and quad.y.shape == (ny, 1, 1, 3)
        x, y = full_element_points(mesh, 3)
        fx, fy = quad.sample(lambda x, y: (x + 0.0 * y, y + 0.0 * x))
        assert np.array_equal(fx, x) and np.array_equal(fy, y)

    def test_edge_fluxes(self, nx, ny):
        mesh = sampling_mesh(nx, ny)
        for name, z in vector_fields(mesh).items():
            V, H = edge_fluxes(mesh, z)
            assert V.shape == (ny, nx + 1) and H.shape == (ny + 1, nx)
            want = global_edge_fluxes(mesh, z, PROJECTION_RULE)
            assert np.array_equal(np.concatenate([V.ravel(), H.ravel()]), want), name

    def test_pressure_projection(self, nx, ny):
        mesh = sampling_mesh(nx, ny)
        for name, phi in scalar_fields(mesh).items():
            assert np.array_equal(project_pressure_p_h(mesh, phi), full_pressure_projection(mesh, phi)), name

    def test_load(self, nx, ny):
        mesh = sampling_mesh(nx, ny)
        quad, cls = element_quadrature(mesh), edge_classify(mesh, ALL_D)
        for name, z in vector_fields(mesh).items():
            f = lambda x, y, t: tuple(t * v for v in z(x, y))
            x, y = full_element_points(mesh, 3)
            want = integrate_load(quad, cls, *(np.broadcast_to(v, x.shape) for v in f(x, y, 0.7)))
            assert np.array_equal(assemble_load(quad, cls, f, 0.7), want), name

    def test_best_approximations(self, nx, ny):
        mesh = sampling_mesh(nx, ny)
        rho = np.random.default_rng(4).uniform(0.5, 2.0, mesh.n_elements)
        ops = assemble_operators(mesh, ALL_D, material_field(mesh, lambda x, y: rho, lambda x, y: 1.0 / rho))
        for name, z in vector_fields(mesh).items():
            got, want = (velocity_best_approximation(ops, p) for p in (z, on_full_points(mesh, z)))
            assert np.array_equal(got[0], want[0]) and got[1] == want[1], name
        for name, phi in scalar_fields(mesh).items():
            got, want = (pressure_best_approximation(ops, p) for p in (phi, on_full_points(mesh, phi)))
            assert np.array_equal(got[0], want[0]) and got[1] == want[1], name


@pytest.mark.parametrize("bc", ALL_PARTITIONS)
@pytest.mark.parametrize("nx, ny", [(9, 7), (1, 5), (4, 1)])
class TestGlobalIdReferences:
    """The load and the flux interpolant, taken from the free-dof layout,
    equal the sums and gathers over global edge ids bit for bit."""

    def test_load(self, nx, ny, bc):
        mesh = sampling_mesh(nx, ny)
        quad = element_quadrature(mesh)
        fx, fy = np.random.default_rng(nx + ny).standard_normal((2, mesh.n_elements, quad.weights.size))
        got = integrate_load(quad, edge_classify(mesh, bc), fx, fy)
        assert got.tobytes() == reference_integrate_load(quad, bc, fx, fy).tobytes()

    def test_flux_interpolant(self, nx, ny, bc):
        mesh = sampling_mesh(nx, ny)
        cls = edge_classify(mesh, bc)
        _, free_edges = reference_edge_classify(mesh, bc)
        for name, z in vector_fields(mesh).items():
            want = global_edge_fluxes(mesh, z, PROJECTION_RULE)[free_edges]
            assert project_velocity_pi_h(mesh, cls, z).tobytes() == want.tobytes(), name


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 3), (3, 1), (2, 2), (5, 7), (12, 4), (32, 32), (64, 32)])
def test_padded_rows_match_the_coo_oracle_bit_for_bit(nx, ny):
    """A, the step matrix at coeff 0 and 0.37, D and D^T, laid out from the
    index grids, equal the COO triplets summed by csr_from_coo."""
    mesh = build_rect_mesh(nx, ny)
    rng = np.random.default_rng(nx * ny)
    for bc in ALL_PARTITIONS:
        rho, lam = rng.uniform(0.25, 4.0, (2, mesh.n_elements))
        material = MaterialField(rho, lam, 0.25, 4.0, 0.25, 4.0)
        ops = assemble_operators(mesh, bc, material)
        assert ops.n_velocity < GRID_MIN_DOFS
        assert_same_rows(ops.A, reference_schur_matrix(mesh, bc, element_blocks(mesh, material, 0.0)))
        for coeff in (0.0, 0.37):
            blocks = element_blocks(mesh, material, coeff)
            assert_same_rows(schur_matrix(mesh, ops.classification, blocks), reference_schur_matrix(mesh, bc, blocks))
        D, DT = reference_divergence(mesh, bc)
        assert_same_rows(ops.D, D)
        assert_same_rows(ops.DT, DT)


@pytest.mark.parametrize("nx, ny, calls", [
    (9, 7, [63]),
    (1, 5, [5]),
    (1100, 2, [1100, 1100]),       # wider than PROJECTION_BLOCK: one row per call
    (100, 25, [1000, 1000, 500]),  # ten whole rows per call
])
def test_pressure_projection_calls_p0_per_band_of_rows(nx, ny, calls):
    mesh = sampling_mesh(nx, ny)
    seen = []

    def phi(x, y):
        assert x.shape == (1, nx, PROJECTION_RULE, 1) and y.shape[1:] == (1, 1, PROJECTION_RULE)
        seen.append(y.shape[0] * nx)
        return np.sin(x) * y

    project_pressure_p_h(mesh, phi)
    assert seen == calls
    assert max(seen) <= max(PROJECTION_BLOCK, nx)
