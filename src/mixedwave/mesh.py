"""Structured rectangular meshes and the one numbering of their edges.

A ``RectMesh`` is geometry only: the box, the element counts and sizes.
Elements are row-major. Velocity degrees of freedom live on edges, and the
only edge numbering is that of the free dofs the boundary tags leave,
``EdgeClassification``: vertical edges (normal +x) first, then horizontal
edges (normal +y), each block row-major, pinned edges left out. Assembly,
loads, the flux interpolant, the stencils of ``linalg`` and the multigrid
transfers all read it. Meshes are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

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
        for name, count in (("nx", nx), ("ny", ny)):
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
                raise ValueError(f"element count {name} must be an integer, got {count!r}")
        if nx < 1 or ny < 1:
            raise ValueError("element counts must be positive")
        if not np.isfinite([x0, x1, y0, y1]).all():
            raise ValueError(f"domain extents must be finite, got ({x0}, {x1}, {y0}, {y1})")
        if not (x1 > x0 and y1 > y0):
            raise ValueError("degenerate domain extents")
        self.nx = int(nx)
        self.ny = int(ny)
        self.x0, self.x1 = float(x0), float(x1)
        self.y0, self.y1 = float(y0), float(y1)
        self.hx = (self.x1 - self.x0) / self.nx
        self.hy = (self.y1 - self.y0) / self.ny
        if not all(0 < size < np.inf and np.isfinite(1.0 / size) for size in (self.hx, self.hy)):  # assembly divides by both
            raise ValueError(f"element sizes hx = {self.hx:g}, hy = {self.hy:g} and their reciprocals must be finite")
        self.h = float(np.hypot(self.hx, self.hy))

        self.n_elements = self.nx * self.ny

    def centroids(self):
        """Element centres as two (n_elements,) arrays, elements row-major."""
        x = self.x0 + np.arange(self.nx) * self.hx + 0.5 * self.hx
        y = self.y0 + np.arange(self.ny) * self.hy + 0.5 * self.hy
        return np.tile(x, self.ny), np.repeat(y, self.nx)

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
    """The free velocity dofs of an nx-by-ny grid.

    A side flag is 1 when the side is NEUMANN_U, which pins the normal
    velocity on all its edges to 0, and 0 otherwise. Free dofs keep the edge
    order (vertical edges first, each block row-major), so a free-dof vector
    reshapes with no copy (``split``) into the free vertical-edge and
    horizontal-edge grids. The index arrays are sliced out at first use and
    cached.
    """

    nx: int
    ny: int
    left: int
    right: int
    bottom: int
    top: int

    @classmethod
    def of(cls, nx: int, ny: int, bc: BoundaryPartition) -> EdgeClassification:
        """The layout of an nx-by-ny grid tagged by ``bc``, built without a mesh."""
        pinned = (int(side is BoundaryKind.NEUMANN_U) for side in (bc.left, bc.right, bc.bottom, bc.top))
        return cls(nx, ny, *pinned)

    @property
    def shapes(self):
        """Shapes of the free vertical-edge and horizontal-edge grids."""
        return (self.ny, self.nx + 1 - self.left - self.right), (self.ny + 1 - self.bottom - self.top, self.nx)

    @property
    def n_free(self):
        (a, b), (c, d) = self.shapes
        return a * b + c * d

    def split(self, x):
        """Views of a free-dof vector as the vertical-edge and horizontal-edge grids."""
        vertical, horizontal = self.shapes
        n = vertical[0] * vertical[1]
        return x[:n].reshape(vertical), x[n:].reshape(horizontal)

    @cached_property
    def index_grids(self):
        """Free index of every vertical edge, an (ny, nx + 1) array, and of
        every horizontal edge, (ny + 1, nx); -1 where the edge is pinned."""
        V = np.full((self.ny, self.nx + 1), -1, dtype=np.int64)
        H = np.full((self.ny + 1, self.nx), -1, dtype=np.int64)
        free_V, free_H = self.split(np.arange(self.n_free))
        V[:, self.left : self.nx + 1 - self.right], H[self.bottom : self.ny + 1 - self.top] = free_V, free_H
        return V, H

    @cached_property
    def padded_index_grids(self):
        """``index_grids`` with one ring of -1 around each: vertical edge
        (j, i) at [j + 1, i + 1] of an (ny + 2, nx + 3) array, horizontal
        edge (j, i) at [j + 1, i + 1] of an (ny + 3, nx + 2) one. On a grid
        of elements padded alike, element (j, i) at [j + 1, i + 1], the
        edges of the element at [r, c] are then at [r, c] (LEFT) and
        [r, c + 1] (RIGHT) of the first and at [r, c] (BOTTOM) and
        [r + 1, c] (TOP) of the second, for every element of the ring too."""
        return tuple(padded(grid, -1) for grid in self.index_grids)

    @cached_property
    def element_dofs(self):
        """(n_elements, 4) free indices of each element's edges in LEFT,
        RIGHT, BOTTOM, TOP order, -1 where pinned."""
        V, H = self.index_grids
        return np.stack([V[:, :-1], V[:, 1:], H[:-1], H[1:]], axis=-1).reshape(-1, 4)

    def gather(self, V, H):
        """The free-dof vector of values given on every vertical edge, an
        (ny, nx + 1) array, and on every horizontal edge, (ny + 1, nx)."""
        return np.concatenate([
            V[:, self.left : self.nx + 1 - self.right].ravel(),
            H[self.bottom : self.ny + 1 - self.top].ravel(),
        ])

    def edge_sum(self, left, right, bottom, top):
        """Per free dof, the sum of the (ny, nx) element values ``left``,
        ``right``, ``bottom`` and ``top`` over the (up to two) elements the
        edge bounds, each element adding its value for the slot the edge
        fills there."""
        V = np.zeros((self.ny, self.nx + 1))
        V[:, :-1] += left
        V[:, 1:] += right
        H = np.zeros((self.ny + 1, self.nx))
        H[:-1] += bottom
        H[1:] += top
        return self.gather(V, H)


def padded(grid, fill):
    """``grid`` with one ring of ``fill`` around its last two axes."""
    out = np.full(grid.shape[:-2] + (grid.shape[-2] + 2, grid.shape[-1] + 2), fill, dtype=grid.dtype)
    out[..., 1:-1, 1:-1] = grid
    return out


def edge_classify(mesh: RectMesh, bc: BoundaryPartition) -> EdgeClassification:
    """The free-dof layout of ``mesh`` under the boundary tags ``bc``."""
    return EdgeClassification.of(mesh.nx, mesh.ny, bc)
