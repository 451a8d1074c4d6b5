"""Geometric multigrid V-cycle for the step matrix on the nested uniform grids.

The step matrix S = A + coeff * D^T C^{-1} D is ill-conditioned when the
grad-div term dominates the mass term (large theta*dt^2): its kernel, the
discretely divergence-free fluxes, is large, and point smoothers such as
Jacobi do not reach it. The V-cycle here stays robust in coeff:

- Hierarchy: halve nx and ny while both are even and the grid still has
  more than ``COARSEST_DOFS`` free dofs; the coarsest grid is solved with a
  dense inverse of S, summed straight from its element blocks
  (``_dense_sum``) whatever format the other grids' S take, and inverted by
  block sweeps whose BLAS calls are all too small to start threads
  (``_dense_inverse``).
- Coarse operators: a coarse grid builds only its element blocks and their
  sum, the step matrix (``spaces.schur_matrix``), with rho and lambda
  averaged over the 4 children of each coarse element. For the RT0
  prolongation below, D_fine P = Q D_coarse / 4 with Q copying an element
  value to its 4 children, so averaging lambda makes the coarse grad-div
  term exactly the Galerkin product.
- Transfers: the prolongation P is the RT0 embedding of integrated fluxes:
  each half of a coarse edge carries half its flux, and each fine edge
  inside a coarse element gets a quarter of each of the two parallel coarse
  edges. Restriction is P^T. Both are built from the free-dof layouts
  (``mesh.EdgeClassification``) of the two grids alone, by strided slices
  of their index grids; a coarse grid's layout needs no mesh.
- Smoother: multiplicative vertex-patch Schwarz (Arnold, Falk & Winther,
  "Preconditioning in H(div) and applications", Math. Comp. 66, 1997;
  "Multigrid in H(div) and H(curl)", Numer. Math. 85, 2000). A patch is the
  up to 4 free edges p meeting at one vertex. Its rows of S are summed from
  the element blocks (``spaces.element_blocks``) of the 2x2 elements
  around the vertex, so the smoother never reads the storage of S, and
  their other columns lie on the 8 remaining edges r of those elements.
  With the free-dof index grids and the element blocks padded by one ring
  (the dummy dof for an edge outside the grid, a zero block for an element
  outside it), each of the 4 corner blocks and 12 edge slots of every
  vertex is one slice, so a grid's patch data come from one pass over all
  its vertices (``_patch_colours``): S_pp^{-1} by a closed-form 4x4
  Cholesky factorisation evaluated elementwise over the vertices
  (``spd_inverse``), with no LAPACK call per patch, and -S_pp^{-1} S_pr
  from the corner blocks, where each edge r lies in one corner element and
  so meets only that element's 2 patch edges. The result is split into the
  colours (below), strided sub-grids of the vertices, at the end. A patch
  solve writes the new values x_p = S_pp^{-1} (b_p - S_pr x_r), with
  S_pp^{-1} and -S_pp^{-1} S_pr computed once per grid; it equals the
  residual correction
  x_p += S_pp^{-1} (b - S x)_p, and c = S_pp^{-1} b_p is computed once per
  visit of a level and serves both sweeps. The
  patches are visited in 4 colours (i mod 2, j mod 2) of their vertex
  (i, j): patches of one colour share no element, so S does not couple
  them and one colour is updated at once. Pre-smoothing starts from x = 0,
  where the first colour's solves are x_p = c, and visits colours 0..3;
  post-smoothing visits 3..0, so the V-cycle is symmetric positive
  definite and can precondition CG.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .linalg import CsrMatrix, GridStepMatrix, csr_from_candidates, spmv
from .mesh import BOTTOM, LEFT, RIGHT, TOP, BoundaryPartition, EdgeClassification, RectMesh, build_rect_mesh
from .spaces import MaterialField, MixedOperators, element_blocks, schur_matrix

COARSEST_DOFS = 256  # largest grid solved by a dense inverse


def grid_shapes(nx: int, ny: int, bc: BoundaryPartition) -> list:
    """(nx, ny) of every level, fine first: halve while both are even and the
    level has more than ``COARSEST_DOFS`` free dofs, never down to a grid
    with none."""
    shapes = [(nx, ny)]
    while (
        nx % 2 == 0
        and ny % 2 == 0
        and EdgeClassification.of(nx, ny, bc).n_free > COARSEST_DOFS
        and EdgeClassification.of(nx // 2, ny // 2, bc).n_free > 0
    ):
        nx, ny = nx // 2, ny // 2
        shapes.append((nx, ny))
    return shapes


def coarsens(mesh: RectMesh, bc: BoundaryPartition) -> bool:
    """True when the grid halves at least once and ends at a dense-solvable size."""
    shapes = grid_shapes(mesh.nx, mesh.ny, bc)
    return len(shapes) > 1 and EdgeClassification.of(*shapes[-1], bc).n_free <= COARSEST_DOFS


def coarse_material(mesh: RectMesh, material: MaterialField) -> MaterialField:
    """rho and lambda averaged over the 4 children of each coarse element."""

    def average(field):
        return field.reshape(mesh.ny // 2, 2, mesh.nx // 2, 2).mean(axis=(1, 3)).ravel()

    return replace(
        material,
        rho_per_element=average(material.rho_per_element),
        lambda_per_element=average(material.lambda_per_element),
    )


def transfers(fine: EdgeClassification, coarse: EdgeClassification) -> tuple[CsrMatrix, CsrMatrix]:
    """The prolongation P, the RT0 embedding of the coarse grid's fluxes into
    the fine grid's over their free dofs, and the restriction R = P^T.

    Each half of a coarse edge carries half of its flux, and each fine edge
    inside a coarse element a quarter of each of the element's two coarse
    edges parallel to it. So a row of P (a fine edge) has its coarse edge,
    or those two, and a row of R (a coarse edge) the 2 fine halves and the
    4 fine edges parallel to it in its (up to two) elements. Both are laid
    out from strided slices of the index grids.
    """
    (Vc, Hc), (Vf, Hf) = coarse.index_grids, fine.padded_index_grids
    # P: the (up to 2) coarse candidates of every fine edge, on the full fine grids
    PV = np.full((2, fine.ny, fine.nx + 1), -1, dtype=np.int64)
    PH = np.full((2, fine.ny + 1, fine.nx), -1, dtype=np.int64)
    for half in (0, 1):
        PV[0, half::2, ::2], PV[0, half::2, 1::2], PV[1, half::2, 1::2] = Vc, Vc[:, :-1], Vc[:, 1:]
        PH[0, ::2, half::2], PH[0, 1::2, half::2], PH[1, 1::2, half::2] = Hc, Hc[:-1], Hc[1:]
    weights_V, weights_H = np.full((2, 1, fine.nx + 1), 0.25), np.full((2, fine.ny + 1, 1), 0.25)
    weights_V[0, :, ::2] = weights_H[0, ::2] = 0.5
    free_V = (slice(None), slice(fine.left, fine.nx + 1 - fine.right))
    free_H = (slice(fine.bottom, fine.ny + 1 - fine.top), slice(None))
    P = csr_from_candidates(
        [
            (fine.shapes[0], [(PV[s][free_V], weights_V[s][free_V]) for s in (0, 1)]),
            (fine.shapes[1], [(PH[s][free_H], weights_H[s][free_H]) for s in (0, 1)]),
        ],
        coarse.n_free,
    )
    # R: coarse vertical edge (j, i) reads fine vertical edges (2j + r, 2i + c),
    # r in (0, 1) and c in (-1, 0, 1), at [2j + r + 1, 2i + c + 1] of the
    # padded grid, and coarse horizontal edge (j, i) fine horizontal edges
    # (2j + r, 2i + c), r in (-1, 0, 1) and c in (0, 1): in increasing order
    (ny, nv), (nh, nx) = coarse.shapes
    j0, i0 = 1 + 2 * coarse.bottom, 1 + 2 * coarse.left

    def every_other(grid, r, c, rows, cols):
        return grid[r : r + 2 * rows : 2, c : c + 2 * cols : 2]

    R = csr_from_candidates(
        [
            ((ny, nv), [(every_other(Vf, 1 + r, i0 + c, ny, nv), 0.5 if c == 0 else 0.25) for r in (0, 1) for c in (-1, 0, 1)]),
            ((nh, nx), [(every_other(Hf, j0 + r, 1 + c, nh, nx), 0.5 if r == 0 else 0.25) for r in (-1, 0, 1) for c in (0, 1)]),
        ],
        fine.n_free,
    )
    return P, R


class _Colour(NamedTuple):
    """Vertex patches of one colour, laid out for ``_smooth``.

    Per level the smoother works on z = [x, 0], the iterate followed by a
    dummy dof that stays 0 and stands for a missing or pinned edge, and
    reads the right-hand side b, padded the same way. A patch solve sets
    the patch edges p to

        x_p = S_pp^{-1} (b_p - S_pr x_r) = c + W x_r,   c = S_pp^{-1} b_p,

    with r the 8 other edges of the 2x2 elements around its vertex, which
    hold every other column of the patch's rows of S. ``rows`` (4 * m,) are
    the patch edges, slot-major; ``cols`` (8, m) the edges r; ``weights``
    (8, 4, m) holds W = -S_pp^{-1} S_pr and ``inverse`` (4, 4, m)
    S_pp^{-1}. Dummy slots have weight 0 and rows and columns of 0 in
    ``inverse``. ``_patch_colours`` builds the 4 colours of a grid in one
    pass over all its vertices: S_pp^{-1} by ``spd_inverse``, a closed-form
    4x4 Cholesky factorisation applied to every vertex at once, and W from
    the corner blocks, where each edge r has only the 2 patch edges of its
    one corner element as neighbours.
    """

    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    inverse: np.ndarray


# The 12 edges of the 2x2 elements around vertex (i, j) by slot: vertical
# edge (i + a, j + b) is slot 3b + a + 4, horizontal edge (i + a, j + b)
# slot 2b + a + 9. The edges (L, R, B, T) of each corner element, by the
# offset of its lower-left corner (-1, -1), (0, -1), (-1, 0), (0, 0):
CORNER_SLOTS = np.array([[0, 1, 6, 8], [1, 2, 7, 9], [3, 4, 8, 10], [4, 5, 9, 11]])
PATCH_SLOTS = np.array([1, 4, 8, 9])  # edges (i, j - 1), (i, j) vertical, (i - 1, j), (i, j) horizontal
OTHER_SLOTS = np.array([0, 2, 3, 5, 6, 7, 10, 11])  # the edges r, every slot not in PATCH_SLOTS
# Each corner's 2 edges at the vertex, their positions in PATCH_SLOTS, and
# its 2 other edges, their positions in OTHER_SLOTS; each edge r lies in
# one corner only. Literals, not computed at import: np.setdiff1d there
# imported numpy.ma into every run (1.7 MB resident).
AT_VERTEX = np.array([[0, 1, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 1, 0]], dtype=bool)
PATCH_ROWS = np.array([[0, 2], [0, 3], [1, 2], [1, 3]])
OTHER_ROWS = np.array([[0, 4], [1, 5], [2, 6], [3, 7]])


def spd_inverse(M: np.ndarray) -> np.ndarray:
    """Inverses of a batch of symmetric positive definite k x k matrices,
    laid out entry-major: ``M[i, j]`` holds entry (i, j) of every matrix.

    A closed-form Cholesky factorisation M = L L^T, its inverse U = L^{-1}
    by forward substitution and M^{-1} = U^T U, each entry one expression
    in the entries before it, applied elementwise to the whole batch: no
    LAPACK call, and no loop over the matrices. Only the lower triangle of
    M is read, and the result is exactly symmetric.
    """
    k = M.shape[0]
    L, U = {}, {}
    for j in range(k):  # column j of L, its diagonal as U[j, j] = 1 / L[j, j]
        for i in range(j, k):
            s = M[i, j]
            for p in range(j):
                s = s - L[i, p] * L[j, p]
            if i == j:
                U[j, j] = 1.0 / np.sqrt(s)
            else:
                L[i, j] = s * U[j, j]
    for j in range(k):  # U[i, j] = -U[i, i] * sum_p L[i, p] U[p, j], p = j .. i - 1
        for i in range(j + 1, k):
            s = L[i, j] * U[j, j]
            for p in range(j + 1, i):
                s = s + L[i, p] * U[p, j]
            U[i, j] = -s * U[i, i]
    inverse = np.empty_like(M)
    for i in range(k):  # (U^T U)[i, j] = sum_p U[p, i] U[p, j], p = max(i, j) .. k - 1
        for j in range(i, k):
            s = U[j, i] * U[j, j]
            for p in range(j + 1, k):
                s = s + U[p, i] * U[p, j]
            inverse[i, j] = inverse[j, i] = s
    return inverse


def _patch_colours(cls: EdgeClassification, blocks) -> list:
    """The 4 colours (i mod 2, j mod 2) of vertex patches, in visiting order;
    ``blocks`` are the grid's element blocks of S (``spaces.element_blocks``).

    The index grids are padded by one ring, with the dummy dof n for edges
    outside the grid (pinned edges map to it too), and by one more column of
    n on the right. Vertex (i, j) then finds vertical edge (i + a, j + b) at
    V[j + b + 1, i + a + 1] and horizontal edge (i + a, j + b) at
    H[j + b + 1, i + a + 1]. The vertices are laid out in ny + 1 rows of
    nx + 2, the last of a row a padding vertex whose edges are all dummy,
    so that over all of them each slot is a slice, and so is each corner
    block (``_patch_solves``). The patch data are computed for every vertex
    at once and split into the colours, strided sub-grids of the vertices
    with a patch, at the end: W first, whose all-vertex array is freed
    before S_pp^{-1} is split, so that the build holds little more than its
    result."""
    n, nx, ny = cls.n_free, cls.nx, cls.ny

    def with_dummies(grid):  # -1 to n, and a column of n on the right
        out = np.full((grid.shape[0], grid.shape[1] + 1), n)
        np.copyto(out[:, :-1], grid, where=grid >= 0)
        return out

    V, H = map(with_dummies, cls.padded_index_grids)

    def at(grid, r, c):
        return grid[r : r + ny + 1, c : c + nx + 2]

    slots = [at(V, r, c) for r in range(2) for c in range(3)] + [at(H, r, c) for r in range(3) for c in range(2)]
    patch, other = (np.stack([slots[s] for s in which]).reshape(len(which), -1) for which in (PATCH_SLOTS, OTHER_SLOTS))
    colour = np.add.outer(2 * (np.arange(ny + 1) % 2), np.arange(nx + 2) % 2).ravel()
    has_patch = (patch < n).any(axis=0)
    vertices = [np.flatnonzero(has_patch & (colour == k)) for k in range(4)]
    vertices = [chosen for chosen in vertices if chosen.size]

    def split(data):
        return [np.take(data, chosen, axis=-1) for chosen in vertices]

    inverse, weights = _patch_solves(cls, blocks, patch == n, other == n)
    weights = split(weights)
    inverse = split(inverse)
    return [_Colour(rows.ravel(), *data) for rows, *data in zip(split(patch), split(other), weights, inverse)]


def _patch_solves(cls: EdgeClassification, blocks, dummy_patch, dummy_other):
    """S_pp^{-1} (4, 4, m) and W = -S_pp^{-1} S_pr (8, 4, m) of the patches
    of the m = (ny + 1) (nx + 2) vertices of ``_patch_colours``, with rows
    and columns of 0 at the dummy slots ``dummy_patch`` (4, m) and
    ``dummy_other`` (8, m).

    The blocks are padded by one ring of zero blocks for the elements outside
    the grid, rows of nx + 2 elements, and the rows and columns of pinned
    edges, the edges of a NEUMANN_U side, are zeroed in them, since S has
    none. Flattened, with one spare zero block at the end, they hold the
    corner element (i + c - 1, j + r - 1) of every vertex (i, j) in the
    slice that starts at r (nx + 2) + c."""
    nx, ny = cls.nx, cls.ny
    width, m = nx + 2, (ny + 1) * (nx + 2)
    ring = np.zeros((4, 4, (ny + 2) * width + 1))
    inside = ring[..., :-1].reshape(4, 4, ny + 2, width)[..., 1:-1, 1:-1]
    inside[...] = blocks.reshape(4, 4, ny, nx)
    sides = ((LEFT, cls.left, np.s_[..., 0]), (RIGHT, cls.right, np.s_[..., -1]),
             (BOTTOM, cls.bottom, np.s_[..., 0, :]), (TOP, cls.top, np.s_[..., -1, :]))
    for edge, pinned, elements in sides:
        if pinned:
            inside[edge][elements] = inside[:, edge][elements] = 0.0
    corners = [ring[..., r * width + c : r * width + c + m] for r in range(2) for c in range(2)]
    # The lower triangle of S_pp: the corner blocks' entries between their 2
    # edges at the vertex, summed in corner order; a unit diagonal at dummy
    # slots so that it inverts
    S_pp = np.zeros((4, 4, m))
    for block, at_vertex, (p, q) in zip(corners, AT_VERTEX, PATCH_ROWS):
        e_p, e_q = np.flatnonzero(at_vertex)
        S_pp[p, p] += block[e_p, e_p]
        S_pp[q, p] += block[e_q, e_p]
        S_pp[q, q] += block[e_q, e_q]
    slot, vertex = np.nonzero(dummy_patch)
    S_pp[slot, slot, vertex] = 1.0
    inverse = spd_inverse(S_pp)
    del S_pp
    inverse[slot, :, vertex] = inverse[:, slot, vertex] = 0.0
    # W[r] = -(S_pp^{-1}[:, p] S[p, r] + S_pp^{-1}[:, q] S[q, r]), p < q the
    # patch rows of the one corner that holds edge r
    weights = np.empty((8, 4, m))
    for block, at_vertex, (p, q), others in zip(corners, AT_VERTEX, PATCH_ROWS, OTHER_ROWS):
        e_p, e_q = np.flatnonzero(at_vertex)
        for e_r, r in zip(np.flatnonzero(~at_vertex), others):
            w = weights[r]
            np.multiply(inverse[:, p], block[e_p, e_r], out=w)
            w += inverse[:, q] * block[e_q, e_r]
            np.negative(w, out=w)
    weights[:, slot, vertex] = 0.0
    r, vertex = np.nonzero(dummy_other)
    weights[r, :, vertex] = 0.0
    return inverse, weights


class _Level(NamedTuple):
    S: CsrMatrix | GridStepMatrix
    colours: list
    P: CsrMatrix
    R: CsrMatrix


class VCycle:
    """Symmetric V-cycle B ~ S^{-1} for ``cg_solve(..., precondition=VCycle(...))``.

    ``ops`` are the fine grid's operators, ``blocks`` its element blocks of
    S = A + coeff * D^T C^{-1} D (``spaces.element_blocks``) and S their sum
    (``spaces.schur_matrix``). Every level sums S and its smoother from one
    set of blocks. The grid must coarsen (``coarsens``).
    """

    def __init__(self, ops: MixedOperators, S: CsrMatrix | GridStepMatrix, blocks: np.ndarray, coeff: float):
        mesh, cls, material = ops.mesh, ops.classification, ops.material
        self.levels = []
        for nx, ny in grid_shapes(mesh.nx, mesh.ny, ops.bc)[1:]:
            if self.levels:  # a coarse grid's S, summed once it is a level: the coarsest needs none
                S = schur_matrix(mesh, cls, blocks)
            coarse = EdgeClassification.of(nx, ny, ops.bc)
            self.levels.append(_Level(S, _patch_colours(cls, blocks), *transfers(cls, coarse)))
            material = coarse_material(mesh, material)
            mesh, cls = build_rect_mesh(nx, ny, (mesh.x0, mesh.x1, mesh.y0, mesh.y1)), coarse
            blocks = element_blocks(mesh, material, coeff)
        self.coarsest = _dense_inverse(_dense_sum(cls, blocks))

    def __call__(self, r, out):
        out[:] = self._cycle(0, r)

    def _cycle(self, depth, b):
        if depth == len(self.levels):
            return self.coarsest @ b
        level = self.levels[depth]
        n = b.size
        z = np.zeros(n + 1)
        solved = _patch_rhs(level.colours, np.append(b, 0.0))
        _pre_smooth(level.colours, z, solved)
        x = z[:n]
        residual = b - spmv(level.S, x)
        x += spmv(level.P, self._cycle(depth + 1, spmv(level.R, residual)))
        _post_smooth(level.colours, z, solved)
        return x


def _dense_sum(cls: EdgeClassification, blocks) -> np.ndarray:
    """The dense sum of the (4, 4, n_elements) element blocks over the free
    dofs of ``cls``; pinned slots add to a dummy row and column, dropped."""
    n = cls.n_free
    dofs = np.where(cls.element_dofs >= 0, cls.element_dofs, n)
    S = np.zeros((n + 1, n + 1))
    np.add.at(S, (dofs[:, :, None], dofs[:, None, :]), blocks.transpose(2, 0, 1))
    return S[:n, :n]


def _dense_inverse(S: np.ndarray) -> np.ndarray:
    """S^{-1}, symmetrised, of a dense SPD S, written over S by block
    Gauss-Jordan sweeps with pivot blocks of 32 rows; no copy of S is made.

    Every LAPACK and BLAS call stays below the sizes at which OpenBLAS
    starts threads: the LU of a 32 x 32 pivot and products of at most
    32 x 32 x n, the rank-32 update as 32-row bands of them. So the cost
    does not depend on the BLAS thread count. One ``np.linalg.inv`` of the
    whole S threads from about n = 100 on: on a busy 2-vCPU host it took
    85-150 ms for the 112 x 112 S of a 16 x 16 grid's coarsest level with
    OpenBLAS's default threads, against 0.4-0.6 ms with one.
    """
    n = S.shape[0]
    for k in range(0, n, 32):
        K = slice(k, k + 32)
        pivot = np.linalg.inv(S[K, K])
        row = pivot @ S[K]
        column = S[:, K].copy()
        for b in range(0, n, 32):
            S[b : b + 32] -= column[b : b + 32] @ row
        S[K] = row
        S[:, K] = -column @ pivot
        S[K, K] = pivot
    for b in range(0, n, 32):  # S = (S + S^T) / 2, a band at a time
        mean = 0.5 * (S[b : b + 32, b:] + S[b:, b : b + 32].T)
        S[b : b + 32, b:] = mean
        S[b:, b : b + 32] = mean.T
    return S


def _patch_rhs(colours, b) -> list:
    """c = S_pp^{-1} b_p of every patch, one (4, m) array per colour; b ends
    with the dummy dof's 0."""
    return [np.einsum("jip,jp->ip", colour.inverse, b[colour.rows].reshape(4, -1)) for colour in colours]


def _pre_smooth(colours, z, solved):
    """Patch solves in colour order from x = 0, where the first colour's are c."""
    z[colours[0].rows] = solved[0].ravel()
    for colour, c in zip(colours[1:], solved[1:]):
        _smooth(colour, z, c)


def _post_smooth(colours, z, solved):
    """Patch solves in reverse colour order, which makes the V-cycle symmetric."""
    for colour, c in zip(reversed(colours), reversed(solved)):
        _smooth(colour, z, c)


def _smooth(colour: _Colour, z, c):
    """One colour of patch solves: x_p = S_pp^{-1} (b_p - S_pr x_r) = c + W x_r."""
    update = np.einsum("jip,jp->ip", colour.weights, z[colour.cols])
    update += c
    z[colour.rows] = update.ravel()
