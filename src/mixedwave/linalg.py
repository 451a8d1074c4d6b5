"""Minimal sparse kernel: two operator formats, mat-vec, preconditioned CG.

Everything at desk scale is float64 numpy. Operators come in two formats,
and ``spmv`` applies either:

- Padded rows (ELLPACK, ``CsrMatrix``), built from COO triplets by
  ``csr_from_coo``: every operator the package assembles (in ``spaces``) has
  at most 7 entries per row (the step matrix 7, A 3, D 4, D^T 2), so a
  mat-vec is one gather and one row sum over a few slots, with no scatter.
- Edge-grid stencils (``GridStepMatrix``, ``GridDivergence``): they take
  the free-dof layout of ``mesh`` (``EdgeClassification``), under which a
  free-dof vector is two 2-D arrays of edge values, and apply A,
  A + D^T diag(w) D, D and D^T as a few array-slice multiply-adds with
  per-element coefficients. They store no entries and gather nothing.

The gather costs more than the arithmetic on large grids and less than the
slicing overhead on small ones, so ``spaces`` picks the format by the number
of free dofs (``spaces.GRID_MIN_DOFS``, a measured crossover). Padded rows
and the stencil step matrices compute their main diagonal once, at
construction, and hand it out read-only, so the Jacobi preconditioner costs
nothing per solve. The solver
is conjugate gradients, Jacobi-preconditioned by default or with a caller's
symmetric positive definite preconditioner (the multigrid V-cycle of
``multigrid``); the step matrices are symmetric positive definite by
construction, so CG is the right tool. It starts from zero or from a
caller's x0; ``SolutionProjection`` chooses x0 for a sequence of solves
with one matrix.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .mesh import EdgeClassification


class NonConvergence(RuntimeError):
    """CG stopped short of its tolerance: the iteration cap, a true residual
    that stopped decreasing, or a matrix that is not positive definite."""


class CsrMatrix:
    """Sparse matrix stored as padded rows (ELLPACK); the name is historical.

    Build one with ``csr_from_coo``. Every operator this package builds has
    at most 7 entries per row, so the rows are stored padded to the widest
    one: ``cols`` and ``vals`` are (width, n_rows) arrays in which slot k of
    row i holds column ``cols[k, i]`` and value ``vals[k, i]``. Slot-major
    order keeps each slot contiguous, which is the fastest order for the
    numpy product in ``spmv``. Row i stores ``row_nnz[i]`` entries in its
    first slots, columns strictly increasing. A shorter row is padded with
    its first stored column and value 0, so padding neither reads outside
    the row's own columns nor changes a sum; an empty row is padded with
    column 0. The arrays and the main diagonal, computed once here, are
    read-only, so instances are immutable and safe to share between
    concurrent readers.
    """

    __slots__ = ("cols", "vals", "row_nnz", "nnz", "shape", "_empty_rows", "_diagonal")

    def __init__(self, cols, vals, row_nnz, shape):
        k = min(shape)
        on_diagonal = cols[:, :k] == np.arange(k)
        diagonal = np.where(on_diagonal, vals[:, :k], 0.0).sum(axis=0)
        for a in (cols, vals, row_nnz, diagonal):
            a.flags.writeable = False
        self.cols, self.vals, self.row_nnz, self._diagonal = cols, vals, row_nnz, diagonal
        self.nnz = int(row_nnz.sum())
        self.shape = shape
        empty = np.flatnonzero(row_nnz == 0)
        self._empty_rows = empty if cols.shape[0] and empty.size else None

    def diagonal(self):
        """Main diagonal as a read-only dense vector (zeros where structurally absent).

        Computed once at construction; every call returns the same array.
        """
        return self._diagonal

    def todense(self):
        """The dense matrix; the padded slots add their value 0."""
        out = np.zeros(self.shape)
        np.add.at(out, (np.broadcast_to(np.arange(self.shape[0]), self.cols.shape), self.cols), self.vals)
        return out


def csr_from_coo(rows, cols, vals, shape) -> CsrMatrix:
    """Coalesce COO triplets (duplicates summed) into padded rows.

    Raises ValueError when the three arrays differ in length or an index
    lies outside ``shape``.
    """
    n_rows, n_cols = int(shape[0]), int(shape[1])
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    if not rows.shape == cols.shape == vals.shape == (rows.size,):
        raise ValueError("rows, cols and vals must be 1-D arrays of equal length")
    if rows.size:
        if rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols:
            raise ValueError(f"COO index outside the {n_rows}x{n_cols} matrix")
        # one int64 key per entry, row-major; a stable sort keeps duplicates
        # in input order, so their sum does not depend on the sort
        key = rows * n_cols + cols
        order = np.argsort(key, kind="stable")
        key, vals = key[order], vals[order]
        new_group = np.ones(key.size, dtype=bool)
        new_group[1:] = key[1:] != key[:-1]
        group = np.cumsum(new_group) - 1
        vals = np.bincount(group, weights=vals)
        rows, cols = rows[order][new_group], cols[order][new_group]
    # sorted and coalesced: each row's columns increase strictly, and an
    # entry's slot is its index minus the index of its row's first entry
    row_nnz = np.bincount(rows, minlength=n_rows)
    first = np.cumsum(row_nnz) - row_nnz
    width = int(row_nnz.max()) if n_rows else 0
    nonempty = row_nnz > 0
    pad = np.zeros(n_rows, dtype=np.int64)
    pad[nonempty] = cols[first[nonempty]]
    padded_cols = np.repeat(pad[None, :], width, axis=0)
    padded_vals = np.zeros((width, n_rows))
    slot = np.arange(rows.size, dtype=np.int64) - first[rows]
    padded_cols[slot, rows] = cols
    padded_vals[slot, rows] = vals
    return CsrMatrix(padded_cols, padded_vals, row_nnz, (n_rows, n_cols))


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


def _edge_sum(cells, lo, hi):
    """Per free edge, the sum of ``cells`` over the (up to two) cells it
    bounds, along the last axis and in the memory order of ``cells``."""
    n = cells.shape[-1]
    out = np.zeros(cells.shape[:-1] + (n + 1,), order="C" if cells.flags.c_contiguous else "F")
    out[..., :-1] += cells
    out[..., 1:] += cells
    return out[..., lo : n + 1 - hi]


class GridStepMatrix:
    """A + D^T diag(w) D on a free-dof layout (``mesh.EdgeClassification``),
    applied by array slices.

    The mass matrix A couples the two x-normal edges of each element through
    the element's 2x2 block [[a, b], [b, a]], ``mass_x`` = (a, b) as two
    (ny, nx) arrays, and its two y-normal edges through ``mass_y``. The
    weight w (ny, nx) scales each element's divergence; None means A alone.
    ``nnz`` counts the entries the padded-row form of the same operator
    stores. The main diagonal is computed once, here, and is read-only.

    A's couplings are applied as two bands of the flat free-dof vector, with
    zeros where a band crosses from one row of vertical edges to the next:
    contiguous slices are faster than row-by-row ones. So unlike padded
    rows, a non-finite x at the end of such a row also makes the product at
    the start of the next row non-finite (0 * inf).
    """

    __slots__ = ("layout", "shape", "nnz", "_n_vertical", "_mass", "_bands", "_weight", "_diagonal")

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
        self._mass = np.concatenate([
            _edge_sum(mass_x[0], g.left, g.right).ravel(),
            _edge_sum(mass_y[0].T, g.bottom, g.top).T.ravel(),
        ])
        n = self._mass.size
        nnz = n + 2 * along_x.size + 2 * along_y.size
        diagonal = self._mass
        if weight is not None:
            diagonal = diagonal + np.concatenate([
                _edge_sum(weight, g.left, g.right).ravel(),
                _edge_sum(weight.T, g.bottom, g.top).T.ravel(),
            ])
            # every element couples each free x-normal edge with each free y-normal one
            nnz += 2 * (2 * g.nx - g.left - g.right) * (2 * g.ny - g.bottom - g.top)
        diagonal.flags.writeable = False
        self.layout, self.shape, self.nnz, self._n_vertical = layout, (n, n), nnz, ny * nv
        self._weight, self._diagonal = weight, diagonal

    def diagonal(self):
        """Main diagonal as a read-only dense vector; every call returns the same array."""
        return self._diagonal

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
            y = np.zeros(self.shape[0])
            _add_divergence_transpose(g, x.reshape(g.ny, g.nx), *g.split(y))
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
        if self.rel_tolerance <= 0:
            raise ValueError("rel_tolerance must be positive")

    def iteration_cap(self, n):
        return self.max_iterations if self.max_iterations > 0 else 10 * max(n, 1)


class CgResult(NamedTuple):
    x: np.ndarray
    iterations: int
    residual: float  # the final true residual ||M x - b||
    rhs_norm: float  # ||b||, the scale of the stopping test


SMALLEST_RHS_NORM = 1e-100  # a smaller ||b|| is rescaled, so CG's dot products start far from underflow
SMALLEST_NORMAL = sys.float_info.min  # a curvature p . Mp below this is nonpositive or has underflowed


def _underflows(M, p) -> bool:
    """True when p is nonzero and p . Mp is positive once p is scaled to
    max|p| = 1: a tiny p . Mp then comes from the size of p, not from M."""
    scale = float(np.abs(p).max())
    if scale == 0.0:
        return False
    unit = p / scale
    return float(unit @ spmv(M, unit)) > 0.0


def cg_solve(M, b, cfg: SolverConfig | None = None, precondition=None, x0=None) -> CgResult:
    """Solve M x = b for symmetric positive definite M.

    Preconditioned conjugate gradients from ``x0``, or from zero when it is
    None; x0 is not modified, and the first residual b - M x0 is a true
    product. An x0 that already meets the tolerance is returned as a copy
    after 0 iterations. ``precondition``
    is a callable ``precondition(r, out)`` that writes B r into ``out`` for a
    fixed symmetric positive definite B; by default B is the inverse of M's
    main diagonal (Jacobi). Stops when ||M x - b|| <= rel_tolerance * ||b||,
    with the true residual recomputed at the recursive stopping point so the
    guarantee is not a victim of residual-recurrence drift (CG restarts from
    it when it is still too large). The result holds
    x, the iteration count, that true residual and ||b||. A finite b whose
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
    diag = M.diagonal()
    if np.any(diag <= 0):
        raise NonConvergence("nonpositive diagonal entry; matrix is not SPD")
    if precondition is None:
        inv_diag = 1.0 / diag

        def precondition(r, out):
            np.multiply(r, inv_diag, out=out)

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
        if math.sqrt(r @ r) <= tol:
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
    raise NonConvergence(
        f"CG did not reach {cfg.rel_tolerance:g} relative residual in {cap} iterations"
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
