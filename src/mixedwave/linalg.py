"""Minimal sparse kernel: two operator formats, mat-vec, preconditioned CG.

Everything at desk scale is float64 numpy. Operators come in two formats,
and ``spmv`` applies either:

- Padded rows (ELLPACK, ``CsrMatrix``): every operator the package
  assembles (in ``spaces`` and ``multigrid``) has at most 7 entries per row
  (the step matrix 7, A 3, D 4, D^T 2, the restriction 6, the prolongation
  2), so a mat-vec is one gather and one row sum over a few slots, with no
  scatter. On the uniform grid every row's pattern is known in advance, so
  the package lays each row out from its candidate columns, strided slices
  of the free-dof index grids, with ``csr_from_candidates``; no sort is
  needed.
- Edge-grid stencils (``GridStepMatrix``, ``GridDivergence``): they take
  the free-dof layout of ``mesh`` (``EdgeClassification``), under which a
  free-dof vector is two 2-D arrays of edge values, and apply A,
  A + D^T diag(w) D, D and D^T as a few array-slice multiply-adds with
  per-element coefficients; the layout sums those onto the edges for the
  diagonal. They store no entries and gather nothing.

The gather costs more than the arithmetic on large grids and less than the
slicing overhead on small ones, so ``spaces`` picks the format by the number
of free dofs (``spaces.GRID_MIN_DOFS`` = 6 000, a measured crossover): every
32 x 32 grid is on padded rows, and every 64 x 64 or larger grid on
stencils. Both hand out their main diagonal read-only: the stencil step
matrices compute it at construction, padded rows on the first request,
since the rectangular D, D^T and transfers never need one. The solver is
conjugate gradients, preconditioned by ``Jacobi`` or by a caller's
symmetric positive definite preconditioner (the multigrid V-cycle of
``multigrid``); the step matrices are symmetric positive definite by
construction, so CG is the right tool. A ``Jacobi`` checks the diagonal
and stores its reciprocal once, so a run that builds one for its step
matrix pays nothing per solve for it; ``cg_solve`` builds one per call by
default. CG starts from zero or from a caller's x0; ``SolutionProjection``
chooses x0 for a sequence of solves with one matrix. CG checks the true
residual b - M x at its stop with one more product, except after a single
iteration from zero, where a bound on the rounding of the one product it
made, from M's ``abs_row_sum_bound()``, certifies the recursive residual
instead (``cg_solve``): such a solve makes one product with M.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .mesh import EdgeClassification


class NonConvergence(RuntimeError):
    """CG stopped short of its tolerance: the iteration cap (``IterationCap``),
    a true residual that stopped decreasing, or a matrix that is not
    positive definite."""


class IterationCap(NonConvergence):
    """CG used up ``SolverConfig.iteration_cap`` iterations short of its tolerance."""


class InputError(ValueError):
    """An input no run can take, found before any work starts.

    ``parameter`` names the library argument at fault (``"theta"``, ``"dt"``,
    ``"final_time"``, ``"f"`` or ``"mesh"``), so a front end can report the
    setting it came from.
    """

    def __init__(self, parameter: str, message: str):
        super().__init__(message)
        self.parameter = parameter


class CsrMatrix:
    """Sparse matrix stored as padded rows (ELLPACK); the name is historical.

    Build one from each row's candidate columns (``csr_from_candidates``).
    Every operator this package builds has at most 7
    entries per row, so the rows are stored padded to the widest one:
    ``cols`` and ``vals`` are (width, n_rows) arrays in which slot k of row
    i holds column ``cols[k, i]`` and value ``vals[k, i]``. Slot-major order
    keeps each slot contiguous, which is the fastest order for the numpy
    product in ``spmv``. Row i stores ``row_nnz[i]`` entries in its
    first slots, columns strictly increasing. A shorter row is padded with
    its first stored column and value 0, so padding neither reads outside
    the row's own columns nor changes a sum; an empty row is padded with
    column 0. The arrays are read-only, and so is the main diagonal, which
    only square operators need: it is computed on the first ``diagonal()``
    call, as is the largest absolute row sum (``abs_row_sum_bound()``) that
    only CG needs. Instances are therefore immutable and safe to share
    between concurrent readers (two first calls at once compute equal values).
    """

    __slots__ = ("cols", "vals", "row_nnz", "nnz", "shape", "_empty_rows", "_diagonal", "_abs_row_sum")

    def __init__(self, cols, vals, row_nnz, shape):
        for a in (cols, vals, row_nnz):
            a.flags.writeable = False
        self.cols, self.vals, self.row_nnz, self._diagonal, self._abs_row_sum = cols, vals, row_nnz, None, None
        self.nnz = int(row_nnz.sum())
        self.shape = shape
        empty = np.flatnonzero(row_nnz == 0)
        self._empty_rows = empty if cols.shape[0] and empty.size else None

    def diagonal(self):
        """Main diagonal as a read-only dense vector (zeros where structurally absent).

        Computed on the first call; every later call returns the same array.
        """
        if self._diagonal is None:
            k = min(self.shape)
            on_diagonal = self.cols[:, :k] == np.arange(k)
            diagonal = np.where(on_diagonal, self.vals[:, :k], 0.0).sum(axis=0)
            diagonal.flags.writeable = False
            self._diagonal = diagonal
        return self._diagonal

    def abs_row_sum_bound(self) -> float:
        """The largest sum of |stored entries| over a row, ||M||_inf, exactly.

        ``cg_solve`` bounds the rounding of ``spmv(M, p)`` by it: the terms a
        row of the product adds are its stored entries times entries of p.
        Computed on the first call; every later call returns the same float.
        """
        if self._abs_row_sum is None:
            self._abs_row_sum = float(np.abs(self.vals).sum(axis=0).max(initial=0.0))
        return self._abs_row_sum


def csr_from_candidates(blocks, n_cols) -> CsrMatrix:
    """Padded rows from each row's candidate columns.

    The rows come in consecutive blocks, each a pair (shape, candidates):
    the shape of the block's grid of rows, taken in C order, and one pair
    (columns, values) per candidate slot. ``columns`` is an integer array of
    that shape, the slot's column in every row of the block, -1 where the
    candidate is absent, and ``values`` an array of that shape, or a scalar.
    In each row the present candidates come in strictly increasing column
    order; a block with fewer candidates than the widest lacks its last
    ones. Each row's absent candidates move to its end, where the row is
    padded as ``CsrMatrix`` lays down, and slots that no row fills are cut.
    """
    k = max((len(candidates) for _, candidates in blocks), default=0)
    sizes = [math.prod(shape) for shape, _ in blocks]
    cols = np.empty((k, sum(sizes)), dtype=np.int64)
    vals = np.empty(cols.shape)
    start = 0
    for (shape, candidates), size in zip(blocks, sizes):
        block_cols, block_vals = (a[:, start : start + size].reshape((k, *shape)) for a in (cols, vals))
        for slot, (columns, values) in enumerate(candidates):
            block_cols[slot], block_vals[slot] = columns, values
        block_cols[len(candidates) :] = -1
        start += size
    present = cols >= 0
    row_nnz = present.sum(axis=0)
    # only a row with an absent candidate before a present one moves; on a
    # grid such rows lie along the boundary, so they are few
    moved = np.flatnonzero((present[1:] > present[:-1]).any(axis=0))
    if moved.size:
        order = np.argsort(~present[:, moved], axis=0, kind="stable")
        for a in (cols, vals, present):
            a[:, moved] = a[order, moved]
    width = int(row_nnz.max(initial=0))
    present = present[:width]
    cols = np.where(present, cols[:width], np.maximum(cols[:1], 0))  # an empty row pads with column 0
    vals = np.where(present, vals[:width], 0.0)
    return CsrMatrix(cols, vals, row_nnz, (cols.shape[1], int(n_cols)))


def _divergence(layout: EdgeClassification, V, H) -> np.ndarray:
    """(ny, nx) element rows of D applied to the free edge grids V, H."""
    out = np.empty((layout.ny, layout.nx))
    _difference(out, V, layout.left, layout.right)
    across = np.empty_like(out)
    _difference(across.T, H.T, layout.bottom, layout.top)
    out += across
    return out


def _add_divergence_transpose(layout: EdgeClassification, z, yV, yH):
    """yV, yH += D^T z, with z the (ny, nx) element values."""
    _add_difference_transpose(yV, z, layout.left, layout.right)
    _add_difference_transpose(yH.T, z.T, layout.bottom, layout.top)


def _divergence_transpose(layout: EdgeClassification, z, yV, yH):
    """yV, yH = D^T z, each entry written once and bit for bit the sum that
    ``_add_divergence_transpose`` makes onto zeros."""
    # adding to 0.0 turns a -0.0 difference into 0.0; adding 0.0 to z first
    # does the same, since a - b is -0.0 only for a = -0.0 and b = 0.0
    z = z + 0.0
    _difference_transpose(yV, z, layout.left, layout.right)
    _difference_transpose(yH.T, z.T, layout.bottom, layout.top)


def _difference(out, X, lo, hi):
    """out[..., i] = X at the far end of cell i minus X at its near end.

    X holds the free values on the n + 1 edges around the n cells of out's
    last axis; a pinned first (lo) or last (hi) edge is 0 and left out of X.
    """
    if X.shape[-1] == 0:
        out[...] = 0.0
        return
    n = out.shape[-1]
    np.subtract(X[..., 1:], X[..., :-1], out=out[..., lo : n - hi])
    if lo:
        out[..., 0] = X[..., 0]
    if hi:
        out[..., -1] = -X[..., -1]


def _add_difference_transpose(y, z, lo, hi):
    """y += the transpose of ``_difference`` applied to z: each free edge
    gains z of the cell before it and loses z of the cell after it."""
    n = z.shape[-1]
    y[..., 1 - lo : n - lo] += z[..., :-1] - z[..., 1:]
    if not lo:
        y[..., 0] -= z[..., 0]
    if not hi:
        y[..., -1] += z[..., -1]


def _difference_transpose(y, z, lo, hi):
    """y = the transpose of ``_difference`` applied to z, which holds no -0.0."""
    n = z.shape[-1]
    np.subtract(z[..., :-1], z[..., 1:], out=y[..., 1 - lo : n - lo])
    if not lo:
        np.subtract(0.0, z[..., 0], out=y[..., 0])  # not -z: 0.0 - 0.0 is 0.0, -(0.0) is -0.0
    if not hi:
        y[..., -1] = z[..., -1]


class GridStepMatrix:
    """A + D^T diag(w) D on a free-dof layout (``mesh.EdgeClassification``),
    applied by array slices.

    The mass matrix A couples the two x-normal edges of each element through
    the element's 2x2 block [[a, b], [b, a]], ``mass_x`` = (a, b) as two
    (ny, nx) arrays, and its two y-normal edges through ``mass_y``. The
    weight w (ny, nx) scales each element's divergence; None means A alone.
    ``nnz`` counts the entries the padded-row form of the same operator
    stores. A's diagonal, the a of the (up to two) elements an edge bounds,
    and the main diagonal, which adds their w, are summed onto the free
    edges by the layout (``EdgeClassification.edge_sum``) once, here; the
    main diagonal is read-only. The bound on the absolute row sums that only
    CG needs (``abs_row_sum_bound()``) is computed on its first request.

    A's couplings are applied as two bands of the flat free-dof vector, with
    zeros where a band crosses from one row of vertical edges to the next:
    contiguous slices are faster than row-by-row ones. So unlike padded
    rows, a non-finite x at the end of such a row also makes the product at
    the start of the next row non-finite (0 * inf).
    """

    __slots__ = ("layout", "shape", "nnz", "_n_vertical", "_mass", "_bands", "_weight", "_diagonal", "_abs_row_sum")

    def __init__(self, layout: EdgeClassification, mass_x, mass_y, weight=None):
        g = layout
        (ny, nv), (nh, nx) = g.shapes
        # A in flat free-dof order: its diagonal, and bands at offset 1 in the
        # vertical-edge grid (0 between rows) and nx in the horizontal one,
        # each entry the b of the element two neighbours share
        along_x = mass_x[1][:, g.left : g.nx - g.right]
        along_y = mass_y[1][g.bottom : g.ny - g.top]
        band_x = np.zeros((ny, nv))
        band_x[:, :-1] = along_x
        self._bands = (band_x.ravel()[:-1], along_y.ravel())
        self._mass = g.edge_sum(mass_x[0], mass_x[0], mass_y[0], mass_y[0])
        n = self._mass.size
        nnz = n + 2 * along_x.size + 2 * along_y.size
        diagonal = self._mass
        if weight is not None:
            diagonal = diagonal + g.edge_sum(weight, weight, weight, weight)
            # every element couples each free x-normal edge with each free y-normal one
            nnz += 2 * (2 * g.nx - g.left - g.right) * (2 * g.ny - g.bottom - g.top)
        diagonal.flags.writeable = False
        self.layout, self.shape, self.nnz, self._n_vertical = layout, (n, n), nnz, ny * nv
        self._weight, self._diagonal, self._abs_row_sum = weight, diagonal, None

    def diagonal(self):
        """Main diagonal as a read-only dense vector; every call returns the same array."""
        return self._diagonal

    def abs_row_sum_bound(self) -> float:
        """An upper bound on the largest row sum of |A| + |D^T| diag(|w|) |D|,
        the terms a row of ``spmv`` adds, so also on ||M||_inf.

        ``cg_solve`` bounds the rounding of ``spmv(M, p)`` by it. Row i of
        |D^T| diag(|w|) |D| sums, over the (up to two) elements the edge
        bounds, |w| of the element times its free edges; 4 stands in for
        that count. Computed on the first call; every later call returns the
        same float.
        """
        if self._abs_row_sum is None:
            m = self._n_vertical
            sums = np.abs(self._mass)
            for y, band, offset in ((sums[:m], self._bands[0], 1), (sums[m:], self._bands[1], self.layout.nx)):
                band = np.abs(band)  # the row sums of |B| for the B of _add_band
                y[offset:] += band
                y[: band.size] += band
            if self._weight is not None:
                w = 4.0 * np.abs(self._weight)
                sums += self.layout.edge_sum(w, w, w, w)
            self._abs_row_sum = float(sums.max(initial=0.0))
        return self._abs_row_sum

    def _apply(self, x):
        m = self._n_vertical
        y = self._mass * x
        _add_band(y[:m], x[:m], self._bands[0], 1)
        _add_band(y[m:], x[m:], self._bands[1], self.layout.nx)
        if self._weight is not None:
            z = _divergence(self.layout, *self.layout.split(x))
            z *= self._weight
            _add_divergence_transpose(self.layout, z, *self.layout.split(y))
        return y


def _add_band(y, x, band, offset):
    """y += B x for the symmetric B that holds ``band`` ``offset`` above and below its diagonal."""
    k = band.size
    y[offset:] += band * x[:k]
    y[:k] += band * x[offset:]


def ldl_factors(diagonal, off) -> np.ndarray:
    """LDL^T factors of a batch of symmetric positive definite tridiagonal matrices.

    ``diagonal`` is (n, m), one matrix's diagonal a column, and ``off``
    (n - 1, m) its entries next to the diagonal. Each matrix is factored
    T = L D L^T, L unit lower bidiagonal, all m at once. The result is
    (2, n, m): the entries of L below its diagonal, row k's in row k (row 0
    is 0), and D's diagonal; ``ldl_solve`` applies them.
    """
    n, m = diagonal.shape
    factors = np.zeros((2, n, m))
    factor, d = factors
    d[...] = diagonal
    for k in range(1, n):
        factor[k] = off[k - 1] / d[k - 1]
        d[k] -= factor[k] * off[k - 1]
    return factors


def ldl_solve(factors, x) -> np.ndarray:
    """Overwrite x with T^{-1} x for the matrices of ``ldl_factors``, and return it.

    x is (n, ...): the sweeps of L^{-1}, D^{-1} and L^{-T} run along its
    first axis, 2n - 2 row updates and one division, on every column at
    once; its other axes broadcast against the factors' m.
    """
    factor, d = factors
    # zip hands out the row views, faster than indexing x[k] each time
    for f, previous, row in zip(factor[1:], x, x[1:]):
        row -= f * previous
    x /= d
    for f, following, row in zip(factor[:0:-1], x[::-1], x[-2::-1]):
        row -= f * following
    return x


class LineSolve:
    """Exact solves with the mass matrix A on a free-dof layout
    (``mesh.EdgeClassification``), by the LDL^T factors of its lines.

    ``mass_x`` and ``mass_y`` are A's element couplings as in
    ``GridStepMatrix``. A couples only the two x-normal edges of an element
    and its two y-normal edges, so it is block diagonal: one tridiagonal SPD
    block per row of vertical edges and one per column of horizontal edges.
    Each edge family is factored once, here, by ``ldl_factors``, and a solve
    runs no iteration and has no tolerance. An edge family whose lines all
    have bitwise the same block, as every family on uniform material and
    the columns on material layered in y, holds one (L, L) inverse, the
    sweeps of its first line applied to the identity, if that takes no more
    memory than the factors would; a solve then applies it to all the
    family's lines as one matrix product, ``vertical`` or ``horizontal`` is
    2-D and its entry of ``shared`` True. Any other family holds the
    (2, L, lines) factors of its lines, and a solve is one forward and one
    backward sweep over all of them at once (``ldl_solve``). So ``nbytes``,
    what is held, is at most 16 bytes per free edge.
    """

    __slots__ = ("layout", "vertical", "horizontal")

    def __init__(self, layout: EdgeClassification, mass_x, mass_y):
        g = layout
        vertical, horizontal = g.split(g.edge_sum(mass_x[0], mass_x[0], mass_y[0], mass_y[0]))
        self.layout = layout
        # each family with one line a column, as ldl_factors takes it
        self.vertical = _line_solver(vertical.T, mass_x[1][:, g.left : g.nx - g.right].T)
        self.horizontal = _line_solver(horizontal, mass_y[1][g.bottom : g.ny - g.top])

    shared = property(lambda self: (self.vertical.ndim == 2, self.horizontal.ndim == 2))  # (vertical, horizontal)
    nbytes = property(lambda self: self.vertical.nbytes + self.horizontal.nbytes)

    def solve(self, b) -> np.ndarray:
        """A^{-1} b for a free-dof vector b."""
        x = np.empty(b.shape)
        (bV, bH), (xV, xH) = self.layout.split(b), self.layout.split(x)
        if self.vertical.ndim == 2:
            np.matmul(bV, self.vertical.T, out=xV)  # a line is a row of V
        else:
            xV[...] = bV
            ldl_solve(self.vertical, xV.T)
        if self.horizontal.ndim == 2:
            np.matmul(self.horizontal, bH, out=xH)  # a line is a column of H
        else:
            xH[...] = bH
            ldl_solve(self.horizontal, xH)
        return x


def _line_solver(diagonal, off) -> np.ndarray:
    """``ldl_factors`` of one edge family's lines, or the (L, L) inverse of
    its first line alone when every line has the same block and the inverse
    takes no more memory than the factors, L^2 <= 2 L lines floats, as on
    every square grid."""
    n, lines = diagonal.shape
    if n <= 2 * lines and (diagonal == diagonal[:, :1]).all() and (off == off[:, :1]).all():
        return ldl_solve(ldl_factors(diagonal[:, :1], off[:, :1]), np.eye(n))
    return ldl_factors(diagonal, off)


class GridDivergence:
    """D (one row per element, one column per free dof) on a free-dof
    layout, or D^T when ``transposed``; entries +-1, applied by array slices.
    ``nnz`` counts the entries the padded-row form stores."""

    __slots__ = ("layout", "transposed", "shape", "nnz")

    def __init__(self, layout: EdgeClassification, transposed=False):
        g = layout
        n_el = g.nx * g.ny
        self.layout, self.transposed = layout, transposed
        self.shape = (g.n_free, n_el) if transposed else (n_el, g.n_free)
        self.nnz = g.ny * (2 * g.nx - g.left - g.right) + g.nx * (2 * g.ny - g.bottom - g.top)

    def _apply(self, x):
        g = self.layout
        if self.transposed:
            y = np.empty(self.shape[0])
            _divergence_transpose(g, x.reshape(g.ny, g.nx), *g.split(y))
            return y
        return _divergence(g, *g.split(x)).ravel()


def spmv(M, x) -> np.ndarray:
    """Matrix-vector product M @ x, for either operator format."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (M.shape[1],):
        raise ValueError(f"dimension mismatch: matrix {M.shape}, vector {x.shape}")
    if not isinstance(M, CsrMatrix):
        return M._apply(x)
    y = np.einsum("ji,ji->i", M.vals, x[M.cols])
    if M._empty_rows is not None:
        # an empty row's padding reads column 0; a non-finite x[0] must not reach it
        y[M._empty_rows] = 0.0
    return y


@dataclass(frozen=True)
class SolverConfig:
    """CG controls. max_iterations <= 0 means the default cap of 10 * n."""

    rel_tolerance: float = 1e-12
    max_iterations: int = 0

    def __post_init__(self):
        if not 0 < self.rel_tolerance < math.inf:  # NaN fails both comparisons
            raise ValueError(f"rel_tolerance must be positive and finite, got {self.rel_tolerance}")
        if isinstance(self.max_iterations, bool) or not isinstance(self.max_iterations, (int, np.integer)):
            raise ValueError(f"max_iterations must be an integer, got {self.max_iterations!r}")

    def iteration_cap(self, n):
        return self.max_iterations if self.max_iterations > 0 else 10 * max(n, 1)


class CgResult(NamedTuple):
    x: np.ndarray
    iterations: int
    residual: float  # ||M x - b|| recomputed at the stop, or the recursive r_1 of a certified one-iteration stop
    rhs_norm: float  # ||b||, the scale of the stopping test


SMALLEST_RHS_NORM = 1e-100  # a smaller ||b|| is rescaled, so CG's dot products start far from underflow
SMALLEST_NORMAL = sys.float_info.min  # a curvature p . Mp below this is nonpositive or has underflowed
PRODUCT_ROUNDING = 16 * sys.float_info.epsilon  # gamma of the one-iteration stop, derived in ``cg_solve``


def _underflows(M, p) -> bool:
    """True when p is nonzero and p . Mp is positive once p is scaled to
    max|p| = 1: a tiny p . Mp then comes from the size of p, not from M."""
    scale = float(np.abs(p).max())
    if scale == 0.0:
        return False
    unit = p / scale
    return float(unit @ spmv(M, unit)) > 0.0


def _check_diagonal(diagonal):
    if np.any(diagonal <= 0):
        raise NonConvergence("nonpositive diagonal entry; matrix is not SPD")


class Jacobi:
    """Jacobi preconditioner of a square matrix M: ``precondition(r, out)``
    writes r / diag(M) into ``out``.

    The diagonal is checked and its reciprocal stored once, here, so a run
    that solves with one M many times builds one. Raises NonConvergence when
    a diagonal entry is nonpositive (M is not positive definite).
    ``cg_solve`` skips its own diagonal check for a Jacobi of the same M.
    """

    __slots__ = ("matrix", "_inverse")

    def __init__(self, M):
        diagonal = M.diagonal()
        _check_diagonal(diagonal)
        self.matrix, self._inverse = M, 1.0 / diagonal

    def __call__(self, r, out):
        np.multiply(r, self._inverse, out=out)


def cg_solve(M, b, cfg: SolverConfig | None = None, precondition=None, x0=None) -> CgResult:
    """Solve M x = b for symmetric positive definite M.

    Preconditioned conjugate gradients from ``x0``, or from zero when it is
    None; x0 is not modified, and the first residual b - M x0 is a true
    product. An x0 that already meets the tolerance is returned as a copy
    after 0 iterations. ``precondition``
    is a callable ``precondition(r, out)`` that writes B r into ``out`` for a
    fixed symmetric positive definite B; by default B is the inverse of M's
    main diagonal, built as ``Jacobi(M)`` on each call. Any preconditioner
    but a ``Jacobi`` built for this M has M's diagonal checked on each call
    as well: a nonpositive entry raises NonConvergence. Stops when
    ||M x - b|| <= tol = rel_tolerance * ||b||, with the true residual
    recomputed at the recursive stopping point so the guarantee is not a
    victim of residual-recurrence drift (CG restarts from it when it is
    still too large).

    One stop skips that second product with M: a solve from zero whose
    recursive residual r_1 = b - alpha M p meets the tolerance after
    iteration 1. Then x = alpha p, and r_1 has no drift to carry: it
    differs from b - M x only by the rounding of the product M p and of
    forming x and r_1. Each term of a row of ``spmv`` is rounded at most
    7 times (one product and up to 6 additions over the 7 slots of padded
    rows; the stencils of ``GridStepMatrix`` round a term at most 5
    times), so |fl(M p) - M p| <= gamma_7 |M| |p| with gamma_7 ~ 7u, u =
    eps / 2, and |M| bounded entrywise by the nonnegative symmetric matrix
    behind ``M.abs_row_sum_bound()``, whose 2-norm is at most its
    inf-norm. Forming x = alpha p and r_1 = b - alpha M p adds u each, so

        ||b - M x|| <= ||r_1|| + 9u ||M||_abs ||x||

    to first order, with ||M||_abs = ``M.abs_row_sum_bound()``.
    ``PRODUCT_ROUNDING`` = 16 eps = 32u takes 9u with more than 3x room for
    the rounding of the norms in the test. When ||r_1|| +
    ``PRODUCT_ROUNDING`` ||M||_abs ||x|| <= tol, the solve returns after
    one product with M and reports ||r_1||; every other stop recomputes.
    See Greenbaum, SIAM J. Matrix Anal. Appl. 18 (1997), and van der Vorst
    & Ye, SIAM J. Sci. Comput. 22 (2000). The result holds x, the
    iteration count, the residual of the stop and ||b||. A finite b whose
    squared norm overflows, or whose norm is below ``SMALLEST_RHS_NORM``, is
    solved as b / max|b| from x0 / max|b|, with x, the residual and ||b||
    scaled back. Every test stays relative to ||b||, whatever x0 is.
    Raises ValueError when b or x0 is not finite or x0 has the wrong shape,
    and NonConvergence when the
    iteration cap is reached, when a restart's true residual is not below
    the previous restart's or p . Mp of the search direction p underflows
    (either way the tolerance is below what rounding lets CG attain), or
    when a nonpositive curvature direction shows up (M was not positive
    definite).
    """
    if cfg is None:
        cfg = SolverConfig()
    b = np.asarray(b, dtype=np.float64)
    n = M.shape[0]
    if M.shape[0] != M.shape[1] or b.shape != (n,):
        raise ValueError("cg_solve needs a square matrix and a matching vector")
    if x0 is not None:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (n,):
            raise ValueError(f"cg_solve: the start x0 has shape {x0.shape}, not ({n},)")
        if not np.isfinite(x0).all():
            raise ValueError("cg_solve: the start x0 is not finite")
    # vdot is b @ b without numpy's floating-point checks, so an overflow
    # returns inf with no warning and the finite case below can rescale
    norm_b = math.sqrt(np.vdot(b, b))
    if not SMALLEST_RHS_NORM <= norm_b < math.inf:
        scale = float(np.abs(b).max(initial=0.0))  # 0 for an empty b: no free dof
        if not math.isfinite(scale):
            raise ValueError("cg_solve: the right-hand side is not finite (its norm is NaN or inf)")
        if scale == 0.0:
            return CgResult(np.zeros(n), 0, 0.0, 0.0)
        # finite entries whose squares overflow, or so small that CG's dot
        # products would underflow: solve for b / max|b| instead
        x, iterations, residual, rhs_norm = cg_solve(M, b / scale, cfg, precondition, None if x0 is None else x0 / scale)
        return CgResult(scale * x, iterations, scale * residual, scale * rhs_norm)
    tol = cfg.rel_tolerance * norm_b
    if precondition is None:
        precondition = Jacobi(M)
    elif not (isinstance(precondition, Jacobi) and precondition.matrix is M):
        _check_diagonal(M.diagonal())
    if x0 is None:
        x, r = np.zeros(n), b.copy()
    else:
        x = x0.copy()
        r = b - spmv(M, x)
        norm_r = math.sqrt(r @ r)
        if norm_r <= tol:
            return CgResult(x, 0, norm_r, norm_b)
    z = np.empty(n)
    precondition(r, z)
    p = z.copy()
    step = np.empty(n)
    rz = float(r @ z)
    cap = cfg.iteration_cap(n)
    restart_residual = math.inf
    for k in range(1, cap + 1):
        Mp = spmv(M, p)
        pMp = float(p @ Mp)
        if pMp < SMALLEST_NORMAL:
            if _underflows(M, p):
                # p shrank with the residual, long before the tolerance
                r = b - spmv(M, x)
                raise NonConvergence(
                    f"CG's search direction underflowed at relative residual {math.sqrt(r @ r) / norm_b:.3g} "
                    f"in iteration {k}, above the tolerance {cfg.rel_tolerance:g}: rounding keeps it from going lower"
                )
            raise NonConvergence(f"nonpositive curvature at iteration {k}; matrix is not SPD")
        alpha = rz / pMp
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, Mp, out=Mp)
        norm_r = math.sqrt(r @ r)
        if norm_r <= tol:
            if k == 1 and x0 is None and norm_r + PRODUCT_ROUNDING * M.abs_row_sum_bound() * math.sqrt(x @ x) <= tol:
                return CgResult(x, 1, norm_r, norm_b)
            r = b - spmv(M, x)
            norm_r = math.sqrt(r @ r)
            if norm_r <= tol:
                return CgResult(x, k, norm_r, norm_b)
            if norm_r >= restart_residual:
                raise NonConvergence(
                    f"CG stagnated at relative residual {norm_r / norm_b:.3g} in iteration {k}, "
                    f"above the tolerance {cfg.rel_tolerance:g}: rounding keeps it from going lower"
                )
            restart_residual = norm_r
            precondition(r, z)
            p[:] = z
            rz = float(r @ z)
            continue
        precondition(r, z)
        rz_next = float(r @ z)
        p *= rz_next / rz
        p += z
        rz = rz_next
    raise IterationCap(
        f"CG did not reach {cfg.rel_tolerance:g} relative residual in {cap} iteration{'s' if cap != 1 else ''}"
    )


class SolutionProjection:
    """CG for a sequence of right-hand sides with one SPD matrix M, each solve
    started from the projection of its solution onto the earlier ones.

    Fischer's projection (P. F. Fischer, Comput. Methods Appl. Mech. Engrg.
    163, 1998): keep an M-orthonormal basis q_1..q_m of the earlier
    solutions. The M-orthogonal projection of x = M^-1 b onto their span is
    x0 = sum_i (q_i . b) q_i, which needs b, not x, and CG from x0 spends
    its iterations only on what is new in x. After a solve, x - x0 is x
    with one classical Gram-Schmidt pass already made (its coefficients
    q_i . b equal q_i . M x up to the solve's residual); a second pass
    against a true product M (x - x0) restores M-orthogonality (CGS2), and
    the result is appended normalised. A full basis of ``capacity`` vectors
    restarts from the newest solution alone. Nothing is appended when CG
    made no iteration, or when the new part's M-norm is below ``DEPENDENT``
    times the solution's, so a rounding-level remainder never becomes a
    basis vector. Each vector is an array of its own, allocated when it
    joins: a preallocated (capacity, n) block would hold its full size from
    the first solve on.
    """

    DEPENDENT = 1e-8

    def __init__(self, M, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.M, self.capacity = M, capacity
        self.basis = []

    def solve(self, b, cfg: SolverConfig | None = None, precondition=None) -> CgResult:
        """``cg_solve(M, b, cfg, precondition, x0)`` with x0 the projection; the
        new solution then joins the basis. Returns cg_solve's result."""
        b = np.asarray(b, dtype=np.float64)
        coefficients = [float(q @ b) for q in self.basis]
        x0 = None
        if self.basis:
            x0 = coefficients[0] * self.basis[0]
            for c, q in zip(coefficients[1:], self.basis[1:]):
                x0 += c * q
        result = cg_solve(self.M, b, cfg, precondition, x0)
        if result.iterations:
            if len(self.basis) == self.capacity:
                self.basis.clear()
                x0, coefficients = None, []
            self._append(result.x if x0 is None else result.x - x0, coefficients)
        return result

    def _append(self, w, coefficients):
        """Orthogonalise the new part w of a solution once more and append it;
        ``coefficients`` are its first pass, the solution's parts along the basis."""
        Mw = spmv(self.M, w)
        w_norm2 = float(w @ Mw)
        second = [float(q @ Mw) for q in self.basis]
        for c, q in zip(second, self.basis):
            w -= c * q
        # ||w||_M^2 after the second pass, from the product before it
        new2 = w_norm2 - sum(c * c for c in second)
        if new2 > self.DEPENDENT**2 * (w_norm2 + sum(c * c for c in coefficients)):
            self.basis.append(w / math.sqrt(new2))
