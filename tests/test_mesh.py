import numpy as np
import pytest

from mixedwave.mesh import (
    BoundaryKind,
    BoundaryPartition,
    EdgeClassification,
    build_rect_mesh,
    edge_classify,
)

from oracles import reference_edge_classify

ALL_PARTITIONS = [
    BoundaryPartition(*[BoundaryKind.NEUMANN_U if code >> side & 1 else BoundaryKind.DIRICHLET_P for side in range(4)])
    for code in range(16)
]


def test_unit_square_single_element():
    mesh = build_rect_mesh(1, 1)
    assert mesh.n_elements == 1
    assert mesh.n_vedges == 2
    assert mesh.n_hedges == 2
    assert mesh.h == pytest.approx(np.sqrt(2.0))


def test_four_by_four_counts():
    mesh = build_rect_mesh(4, 4)
    assert mesh.n_elements == 16
    assert mesh.n_vedges == 20
    assert mesh.n_hedges == 20
    assert mesh.hx == 0.25 and mesh.hy == 0.25


def test_stretched_domain():
    mesh = build_rect_mesh(2, 3, (0.0, 2.0, 0.0, 3.0))
    assert mesh.hx == 1.0 and mesh.hy == 1.0
    assert mesh.h == pytest.approx(np.sqrt(2.0))
    assert mesh.n_elements == 6


@pytest.mark.parametrize(
    "nx,ny,extents",
    [(0, 1, (0, 1, 0, 1)), (1, 0, (0, 1, 0, 1)), (1, 1, (1, 1, 0, 1)), (1, 1, (0, 1, 2, 1))],
)
def test_rejects_bad_inputs(nx, ny, extents):
    with pytest.raises(ValueError):
        build_rect_mesh(nx, ny, extents)


def test_all_neumann_single_element_has_no_free_dofs():
    mesh = build_rect_mesh(1, 1)
    cls = edge_classify(mesh, BoundaryPartition.all_neumann())
    assert (cls.free_index == -1).all()
    assert cls.n_free == 0


def test_two_by_one_all_neumann_frees_only_interior_edge():
    mesh = build_rect_mesh(2, 1)
    cls = edge_classify(mesh, BoundaryPartition.all_neumann())
    assert cls.n_free == 1
    assert cls.free_edges[0] == mesh.vedge_id(1, 0)
    assert np.bincount(mesh.element_edges.ravel())[cls.free_edges[0]] == 2  # interior


def test_all_dirichlet_frees_everything():
    mesh = build_rect_mesh(2, 2)
    cls = edge_classify(mesh, BoundaryPartition.all_dirichlet())
    assert cls.n_free == 12
    assert (cls.free_index >= 0).all()
    assert (np.sort(cls.free_index) == np.arange(12)).all()


def test_mixed_sides_label_the_right_edges():
    mesh = build_rect_mesh(3, 2)
    bc = BoundaryPartition(
        left=BoundaryKind.NEUMANN_U,
        right=BoundaryKind.DIRICHLET_P,
        bottom=BoundaryKind.DIRICHLET_P,
        top=BoundaryKind.NEUMANN_U,
    )
    cls = edge_classify(mesh, bc)
    for j in range(mesh.ny):
        assert cls.free_index[mesh.vedge_id(0, j)] == -1
        assert cls.free_index[mesh.vedge_id(mesh.nx, j)] >= 0
    for i in range(mesh.nx):
        assert cls.free_index[mesh.hedge_id(i, 0)] >= 0
        assert cls.free_index[mesh.hedge_id(i, mesh.ny)] == -1
    # only the left and top sides are pinned
    assert (cls.free_index == -1).sum() == mesh.ny + mesh.nx


def test_edge_element_incidence_is_consistent():
    mesh = build_rect_mesh(5, 3)
    counts = np.zeros(mesh.n_edges, dtype=int)
    for edges in mesh.element_edges:
        counts[edges] += 1
    # all NEUMANN_U pins exactly the boundary edges
    cls = edge_classify(mesh, BoundaryPartition.all_neumann())
    interior = cls.free_index >= 0
    assert (counts[interior] == 2).all()
    assert (counts[~interior] == 1).all()


def test_numbering_is_a_bijection():
    mesh = build_rect_mesh(4, 7)
    cls = edge_classify(mesh, BoundaryPartition.all_neumann())
    assert cls.n_free + (cls.free_index == -1).sum() == mesh.n_edges
    all_ids = np.concatenate(
        [
            [mesh.vedge_id(i, j) for j in range(mesh.ny) for i in range(mesh.nx + 1)],
            [mesh.hedge_id(i, j) for j in range(mesh.ny + 1) for i in range(mesh.nx)],
        ]
    )
    assert (np.sort(all_ids) == np.arange(mesh.n_edges)).all()


def test_refinement_halves_spacings_exactly():
    coarse = build_rect_mesh(3, 5, (0.0, 0.7, -0.2, 1.1))
    fine = build_rect_mesh(6, 10, (0.0, 0.7, -0.2, 1.1))
    assert fine.hx == coarse.hx / 2
    assert fine.hy == coarse.hy / 2


@pytest.mark.parametrize("bc", ALL_PARTITIONS)
@pytest.mark.parametrize("nx,ny", [(1, 1), (1, 5), (4, 1), (6, 4), (9, 7)])
def test_layout_matches_the_global_id_reference(nx, ny, bc):
    mesh = build_rect_mesh(nx, ny)
    free_index, free_edges = reference_edge_classify(mesh, bc)
    cls = edge_classify(mesh, bc)
    assert cls == EdgeClassification.of(nx, ny, bc)
    assert np.array_equal(cls.free_index, free_index)
    assert np.array_equal(cls.free_edges, free_edges)
    assert cls.n_free == free_edges.size
    assert np.array_equal(cls.element_dofs, free_index[mesh.element_edges])
    V, H = cls.index_grids
    assert np.array_equal(np.concatenate([V.ravel(), H.ravel()]), free_index)


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
