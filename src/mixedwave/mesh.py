"""Structured rectangular meshes with global edge numbering.

Velocity degrees of freedom live on edges, so the mesh owns the edge
indexing scheme: vertical edges (normal +x) come first, then horizontal
edges (normal +y), each block row-major. Elements are row-major as well.
Meshes are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

# local edge slots within an element
LEFT, RIGHT, BOTTOM, TOP = 0, 1, 2, 3


class BoundaryKind(Enum):
    """What a boundary side imposes on the trace of the solution."""

    DIRICHLET_P = "dirichlet-p"  # pressure condition; edge velocity dof stays free
    NEUMANN_U = "neumann-u"      # normal velocity pinned to zero; dof eliminated


@dataclass(frozen=True)
class BoundaryPartition:
    """One tag per box side; together the four sides cover the boundary."""

    left: BoundaryKind = BoundaryKind.DIRICHLET_P
    right: BoundaryKind = BoundaryKind.DIRICHLET_P
    bottom: BoundaryKind = BoundaryKind.DIRICHLET_P
    top: BoundaryKind = BoundaryKind.DIRICHLET_P

    @staticmethod
    def all_dirichlet() -> "BoundaryPartition":
        return BoundaryPartition()

    @staticmethod
    def all_neumann() -> "BoundaryPartition":
        k = BoundaryKind.NEUMANN_U
        return BoundaryPartition(k, k, k, k)


class RectMesh:
    """Uniform nx-by-ny partition of the box [x0,x1] x [y0,y1].

    Attributes
    ----------
    hx, hy : exact element edge lengths (x1-x0)/nx, (y1-y0)/ny
    h : mesh parameter, the element diameter sqrt(hx^2 + hy^2)
    """

    def __init__(self, nx, ny, x0, x1, y0, y1):
        if nx < 1 or ny < 1:
            raise ValueError("element counts must be positive")
        if not (x1 > x0 and y1 > y0):
            raise ValueError("degenerate domain extents")
        self.nx = int(nx)
        self.ny = int(ny)
        self.x0, self.x1 = float(x0), float(x1)
        self.y0, self.y1 = float(y0), float(y1)
        self.hx = (self.x1 - self.x0) / self.nx
        self.hy = (self.y1 - self.y0) / self.ny
        self.h = float(np.hypot(self.hx, self.hy))

        self.n_elements = self.nx * self.ny
        self.n_vedges = (self.nx + 1) * self.ny
        self.n_hedges = self.nx * (self.ny + 1)
        self.n_edges = self.n_vedges + self.n_hedges

        ii, jj = np.meshgrid(np.arange(self.nx), np.arange(self.ny), indexing="xy")
        ii = ii.ravel()  # element column index, row-major over rows j
        jj = jj.ravel()
        # per-element global edge ids in local slot order (L, R, B, T)
        self.element_edges = np.column_stack(
            [
                self.vedge_id(ii, jj),
                self.vedge_id(ii + 1, jj),
                self.hedge_id(ii, jj),
                self.hedge_id(ii, jj + 1),
            ]
        )
        self.element_x0 = self.x0 + ii * self.hx
        self.element_y0 = self.y0 + jj * self.hy

    # --- numbering -------------------------------------------------------

    def vedge_id(self, i, j):
        """Vertical edge at x = x0 + i*hx spanning row j. Normal +x."""
        return j * (self.nx + 1) + i

    def hedge_id(self, i, j):
        """Horizontal edge at y = y0 + j*hy spanning column i. Normal +y."""
        return self.n_vedges + j * self.nx + i

    def centroids(self):
        return self.element_x0 + 0.5 * self.hx, self.element_y0 + 0.5 * self.hy

    def __repr__(self):
        return (
            f"RectMesh({self.nx}x{self.ny}, "
            f"[{self.x0},{self.x1}]x[{self.y0},{self.y1}], h={self.h:.4g})"
        )


def build_rect_mesh(nx: int, ny: int, extents=(0.0, 1.0, 0.0, 1.0)) -> RectMesh:
    """Build a uniform rectangular mesh; extents are (x0, x1, y0, y1)."""
    x0, x1, y0, y1 = extents
    return RectMesh(nx, ny, x0, x1, y0, y1)


@dataclass(frozen=True)
class EdgeClassification:
    """The free-dof numbering induced by the boundary tags.

    ``free_index[e]`` is the position of edge e among free velocity dofs, or
    -1 when the edge lies on a NEUMANN_U side (normal velocity pinned to 0).
    """

    free_index: np.ndarray
    free_edges: np.ndarray

    @property
    def n_free(self):
        return self.free_edges.size


def edge_classify(mesh: RectMesh, bc: BoundaryPartition) -> EdgeClassification:
    """Pin the edges of the NEUMANN_U sides and number the remaining free dofs."""
    pinned = np.zeros(mesh.n_edges, dtype=bool)
    neumann = BoundaryKind.NEUMANN_U
    jv = np.arange(mesh.ny)
    pinned[mesh.vedge_id(0, jv)] = bc.left is neumann
    pinned[mesh.vedge_id(mesh.nx, jv)] = bc.right is neumann
    ih = np.arange(mesh.nx)
    pinned[mesh.hedge_id(ih, 0)] = bc.bottom is neumann
    pinned[mesh.hedge_id(ih, mesh.ny)] = bc.top is neumann

    free_index = np.full(mesh.n_edges, -1, dtype=np.int64)
    free_edges = np.flatnonzero(~pinned)
    free_index[free_edges] = np.arange(free_edges.size)
    return EdgeClassification(free_index, free_edges)
