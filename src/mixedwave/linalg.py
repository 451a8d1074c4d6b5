"""Minimal sparse kernel: padded-row storage, mat-vec, preconditioned CG.

Everything at desk scale is float64 numpy. Matrices have one format,
padded rows (ELLPACK), built from COO triplets by ``csr_from_coo``: every
operator the package assembles (in ``spaces``) has at most 7 entries per row
(the step matrix 7, A 3, D 4, D^T 2), so a mat-vec is one gather and one row
sum over a few slots, with no scatter. Each matrix computes its main diagonal
once, at construction, and hands it out read-only, so the Jacobi
preconditioner costs nothing per solve. The solver is conjugate gradients,
Jacobi-preconditioned by default or with a caller's symmetric positive
definite preconditioner (the multigrid V-cycle of ``multigrid``); the step
matrices are symmetric positive definite by construction, so CG is the
right tool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class NonConvergence(RuntimeError):
    """CG hit its iteration cap; the system is indefinite or ill-conditioned."""


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

    def entries(self):
        """(rows, cols, vals) of the stored entries, in row order."""
        stored = np.arange(self.cols.shape[0]) < self.row_nnz[:, None]
        rows = np.repeat(np.arange(self.shape[0], dtype=np.int64), self.row_nnz)
        return rows, self.cols.T[stored], self.vals.T[stored]

    def todense(self):
        out = np.zeros(self.shape)
        rows, cols, vals = self.entries()
        out[rows, cols] = vals
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


def csr_transpose(M: CsrMatrix) -> CsrMatrix:
    rows, cols, vals = M.entries()
    return csr_from_coo(cols, rows, vals, (M.shape[1], M.shape[0]))


def spmv(M: CsrMatrix, x) -> np.ndarray:
    """Sparse matrix-vector product M @ x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (M.shape[1],):
        raise ValueError(f"dimension mismatch: matrix {M.shape}, vector {x.shape}")
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
    residual: float


def cg_solve(M: CsrMatrix, b, cfg: SolverConfig | None = None, precondition=None) -> CgResult:
    """Solve M x = b for symmetric positive definite M.

    Preconditioned conjugate gradients from a zero start. ``precondition``
    is a callable ``precondition(r, out)`` that writes B r into ``out`` for a
    fixed symmetric positive definite B; by default B is the inverse of M's
    main diagonal (Jacobi). Stops when ||M x - b|| <= rel_tolerance * ||b||,
    with the true residual recomputed at the recursive stopping point so the
    guarantee is not a victim of residual-recurrence drift. Raises
    ValueError when b is not finite, and NonConvergence when the iteration
    cap is reached or a nonpositive curvature direction shows up (which
    means M was not positive definite).
    """
    if cfg is None:
        cfg = SolverConfig()
    b = np.asarray(b, dtype=np.float64)
    n = M.shape[0]
    if M.shape[0] != M.shape[1] or b.shape != (n,):
        raise ValueError("cg_solve needs a square matrix and a matching vector")
    norm_b = math.sqrt(b @ b)
    if not math.isfinite(norm_b):
        raise ValueError("cg_solve: the right-hand side is not finite (its norm is NaN or inf)")
    x = np.zeros(n)
    if norm_b == 0.0:
        return CgResult(x, 0, 0.0)
    tol = cfg.rel_tolerance * norm_b
    diag = M.diagonal()
    if np.any(diag <= 0):
        raise NonConvergence("nonpositive diagonal entry; matrix is not SPD")
    if precondition is None:
        inv_diag = 1.0 / diag

        def precondition(r, out):
            np.multiply(r, inv_diag, out=out)

    r = b.copy()
    z = np.empty(n)
    precondition(r, z)
    p = z.copy()
    step = np.empty(n)
    rz = float(r @ z)
    cap = cfg.iteration_cap(n)
    for k in range(1, cap + 1):
        Mp = spmv(M, p)
        pMp = float(p @ Mp)
        if pMp <= 0.0:
            raise NonConvergence(f"nonpositive curvature at iteration {k}; matrix is not SPD")
        alpha = rz / pMp
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, Mp, out=Mp)
        if math.sqrt(r @ r) <= tol:
            r = b - spmv(M, x)
            norm_r = math.sqrt(r @ r)
            if norm_r <= tol:
                return CgResult(x, k, norm_r)
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

