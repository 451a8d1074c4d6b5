import numpy as np
import pytest

from mixedwave.mesh import (
    BoundaryKind,
    BoundaryPartition,
    EdgeClassification,
    build_rect_mesh,
    edge_classify,
)

from oracles import element_corners, element_edges, hedge_id, n_edges, reference_edge_classify, vedge_id

ALL_PARTITIONS = [
    BoundaryPartition(*[BoundaryKind.NEUMANN_U if code >> side & 1 else BoundaryKind.DIRICHLET_P for side in range(4)])
    for code in range(16)
]


def edge_grids(cls):
    """The free indices of all edges, vertical then horizontal, each row-major."""
    V, H = cls.index_grids
    return np.concatenate([V.ravel(), H.ravel()])


def test_unit_square_single_element():
    mesh = build_rect_mesh(1, 1)
    assert mesh.n_elements == 1
    V, H = edge_classify(mesh, BoundaryPartition.all_dirichlet()).index_grids
    assert V.shape == (1, 2) and H.shape == (2, 1)
    assert mesh.h == pytest.approx(np.sqrt(2.0))


def test_four_by_four_counts():
    mesh = build_rect_mesh(4, 4)
    assert mesh.n_elements == 16
    V, H = edge_classify(mesh, BoundaryPartition.all_dirichlet()).index_grids
    assert V.size == 20 and H.size == 20
    assert mesh.hx == 0.25 and mesh.hy == 0.25


def test_centroids_are_row_major_element_centres():
    mesh = build_rect_mesh(3, 2, (1.0, 2.5, -1.0, 0.0))
    cx, cy = mesh.centroids()
    assert np.array_equal(cx, [1.25, 1.75, 2.25] * 2)
    assert np.array_equal(cy, [-0.75] * 3 + [-0.25] * 3)
    # corner plus half a step, bit for bit, so material samples do not move
    mesh = build_rect_mesh(9, 7, (-0.5, 1.5, 0.25, 1.0))
    corner_x, corner_y = element_corners(mesh)
    cx, cy = mesh.centroids()
    assert cx.tobytes() == (corner_x + 0.5 * mesh.hx).tobytes()
    assert cy.tobytes() == (corner_y + 0.5 * mesh.hy).tobytes()


def test_stretched_domain():
    mesh = build_rect_mesh(2, 3, (0.0, 2.0, 0.0, 3.0))
    assert mesh.hx == 1.0 and mesh.hy == 1.0
    assert mesh.h == pytest.approx(np.sqrt(2.0))
    assert mesh.n_elements == 6


# An infinite extent failed later as "matrix is not SPD", and a subnormal one as
# an InputError that blamed dt.
@pytest.mark.parametrize(
    "nx,ny,extents,match",
    [
        (0, 1, (0, 1, 0, 1), "element counts"),
        (1, 0, (0, 1, 0, 1), "element counts"),
        (1, 1, (1, 1, 0, 1), "degenerate"),
        (1, 1, (0, 1, 2, 1), "degenerate"),
        (4, 4, (0, np.inf, 0, 1), "extents must be finite"),
        (4, 4, (0, 1, -np.inf, 1), "extents must be finite"),
        (4, 4, (0, 1, 0, np.nan), "extents must be finite"),
        (4, 4, (-1e308, 1e308, 0, 1), "hx = inf"),
        (4, 4, (0, 1e-320, 0, 1), "reciprocals must be finite"),
        (4, 4, (0, 1, 0, 1e-310), "reciprocals must be finite"),
        (4, 4, (0, 5e-324, 0, 1), "hx = 0"),
        # a count that is not an integer was truncated: 2.5 built 2 elements, True 1
        (2.5, 4, (0, 1, 0, 1), "nx must be an integer"),
        (True, 4, (0, 1, 0, 1), "nx must be an integer"),
        (4, 3.0, (0, 1, 0, 1), "ny must be an integer"),
        (4, np.nan, (0, 1, 0, 1), "ny must be an integer"),
    ],
)
def test_rejects_bad_inputs(nx, ny, extents, match):
    with pytest.raises(ValueError, match=match):
        build_rect_mesh(nx, ny, extents)


def test_takes_python_and_numpy_integer_counts():
    mesh = build_rect_mesh(np.int64(3), 2)
    assert (mesh.nx, mesh.ny, mesh.n_elements) == (3, 2, 6)


def test_all_neumann_single_element_has_no_free_dofs():
    mesh = build_rect_mesh(1, 1)
    cls = edge_classify(mesh, BoundaryPartition.all_neumann())
    assert (edge_grids(cls) == -1).all()
    assert (cls.element_dofs == -1).all()
    assert cls.n_free == 0


def test_two_by_one_all_neumann_frees_only_interior_edge():
    mesh = build_rect_mesh(2, 1)
    cls = edge_classify(mesh, BoundaryPartition.all_neumann())
    assert cls.n_free == 1
    V, _ = cls.index_grids
    assert V[0, 1] == 0  # the vertical edge at x = 1/2
    # interior: the RIGHT edge of element 0 and the LEFT edge of element 1
    assert np.array_equal(cls.element_dofs, [[-1, 0, -1, -1], [0, -1, -1, -1]])


def test_all_dirichlet_frees_everything():
    mesh = build_rect_mesh(2, 2)
    cls = edge_classify(mesh, BoundaryPartition.all_dirichlet())
    assert cls.n_free == 12
    assert np.array_equal(edge_grids(cls), np.arange(12))


def test_mixed_sides_label_the_right_edges():
    mesh = build_rect_mesh(3, 2)
    bc = BoundaryPartition(
        left=BoundaryKind.NEUMANN_U,
        right=BoundaryKind.DIRICHLET_P,
        bottom=BoundaryKind.DIRICHLET_P,
        top=BoundaryKind.NEUMANN_U,
    )
    cls = edge_classify(mesh, bc)
    V, H = cls.index_grids
    for j in range(mesh.ny):
        assert V[j, 0] == -1
        assert V[j, mesh.nx] >= 0
    for i in range(mesh.nx):
        assert H[0, i] >= 0
        assert H[mesh.ny, i] == -1
    # only the left and top sides are pinned
    assert (edge_grids(cls) == -1).sum() == mesh.ny + mesh.nx


def test_edge_element_incidence_is_consistent():
    mesh = build_rect_mesh(5, 3)
    # all DIRICHLET_P frees every edge; all NEUMANN_U pins exactly the boundary edges
    everything = edge_classify(mesh, BoundaryPartition.all_dirichlet())
    counts = np.bincount(everything.element_dofs.ravel(), minlength=everything.n_free)
    interior = edge_grids(edge_classify(mesh, BoundaryPartition.all_neumann())) >= 0
    assert (counts[interior] == 2).all()
    assert (counts[~interior] == 1).all()


def test_numbering_is_a_bijection():
    mesh = build_rect_mesh(4, 7)
    cls = edge_classify(mesh, BoundaryPartition.all_neumann())
    index = edge_grids(cls)
    assert cls.n_free + (index == -1).sum() == n_edges(mesh)
    assert np.array_equal(index[index >= 0], np.arange(cls.n_free))
    all_ids = np.concatenate(
        [
            [vedge_id(mesh, i, j) for j in range(mesh.ny) for i in range(mesh.nx + 1)],
            [hedge_id(mesh, i, j) for j in range(mesh.ny + 1) for i in range(mesh.nx)],
        ]
    )
    assert (np.sort(all_ids) == np.arange(n_edges(mesh))).all()


def test_refinement_halves_spacings_exactly():
    coarse = build_rect_mesh(3, 5, (0.0, 0.7, -0.2, 1.1))
    fine = build_rect_mesh(6, 10, (0.0, 0.7, -0.2, 1.1))
    assert fine.hx == coarse.hx / 2
    assert fine.hy == coarse.hy / 2


LAYOUT_SHAPES = [(1, 1), (1, 5), (4, 1), (6, 4), (9, 7)]


@pytest.mark.parametrize("bc", ALL_PARTITIONS)
@pytest.mark.parametrize("nx,ny", LAYOUT_SHAPES)
def test_layout_matches_the_global_id_reference(nx, ny, bc):
    mesh = build_rect_mesh(nx, ny)
    free_index, free_edges = reference_edge_classify(mesh, bc)
    cls = edge_classify(mesh, bc)
    assert cls == EdgeClassification.of(nx, ny, bc)
    assert cls.n_free == free_edges.size
    assert np.array_equal(edge_grids(cls), free_index)
    assert np.array_equal(cls.element_dofs, free_index[element_edges(mesh)])


@pytest.mark.parametrize("bc", ALL_PARTITIONS)
@pytest.mark.parametrize("nx,ny", LAYOUT_SHAPES)
def test_gather_and_edge_sum_match_the_global_id_reference(nx, ny, bc):
    mesh = build_rect_mesh(nx, ny)
    _, free_edges = reference_edge_classify(mesh, bc)
    cls = edge_classify(mesh, bc)
    rng = np.random.default_rng(nx + 10 * ny)
    values = rng.standard_normal(n_edges(mesh))
    n_vertical = (nx + 1) * ny
    V, H = values[:n_vertical].reshape(ny, nx + 1), values[n_vertical:].reshape(ny + 1, nx)
    assert cls.gather(V, H).tobytes() == values[free_edges].tobytes()
    # each element's values for its LEFT, RIGHT, BOTTOM and TOP slots
    slots = rng.standard_normal((mesh.n_elements, 4))
    full = np.bincount(element_edges(mesh).ravel(), slots.ravel(), minlength=n_edges(mesh))
    got = cls.edge_sum(*(slots[:, k].reshape(ny, nx) for k in range(4)))
    assert got.tobytes() == full[free_edges].tobytes()  # at most two terms an edge: bit for bit


@pytest.mark.parametrize("bc", ALL_PARTITIONS[::5])
def test_split_returns_views_of_the_free_dof_vector(bc):
    cls = EdgeClassification.of(6, 4, bc)
    x = np.arange(cls.n_free, dtype=np.float64)
    V, H = cls.split(x)
    assert (V.shape, H.shape) == cls.shapes
    assert np.shares_memory(V, x) and np.shares_memory(H, x)
    V[...] = -1.0
    H[...] = -2.0
    assert np.array_equal(x, np.repeat([-1.0, -2.0], [V.size, H.size]))
