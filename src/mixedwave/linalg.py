"""Minimal sparse kernel: padded-row storage, mat-vec, preconditioned CG.

Everything at desk scale is float64 numpy. Matrices are built from CSR or
COO arrays and stored as padded rows (ELLPACK): every operator this package
assembles has at most 7 entries per row (the step matrix 7, A 3, D 4, D^T
2), so a mat-vec is one gather and one row sum over a few slots, with no
scatter. Each matrix computes its main diagonal once, at construction, and
hands it out read-only, so the Jacobi preconditioner costs nothing per
solve. The solver is conjugate gradients, Jacobi-preconditioned by default
or with a caller's symmetric positive definite preconditioner (the
multigrid V-cycle of ``multigrid``); the step matrices this package
produces are symmetric positive definite by construction, so CG is the
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
    """Sparse matrix built from CSR arrays, stored as padded rows (ELLPACK).

    Every operator this package builds has at most 7 entries per row, so
    the rows are stored padded to the widest one: ``cols`` and ``vals`` are
    (width, n_rows) arrays in which slot k of row i holds column
    ``cols[k, i]`` and value ``vals[k, i]``. Slot-major order keeps each
    slot contiguous, which is the fastest order for the numpy product in
    ``spmv``. A row shorter than the width is padded with a column it
    already stores and value 0, so padding neither reads outside the row's
    own columns nor changes a sum; an empty row is padded with column 0.

    The CSR view (``indptr``, ``indices``, ``data``, ``nnz``) stays
    available; ``indices`` and ``data`` are rebuilt from the padded arrays
    on each access. Invariants enforced at construction: row offsets are
    monotone with ``indptr[-1] == nnz``, and column indices are strictly
    increasing inside each row (no duplicates). The arrays and the main
    diagonal, computed once here, are read-only, so instances are immutable
    and safe to share between concurrent readers.
    """

    __slots__ = ("indptr", "cols", "vals", "shape", "_empty_rows", "_diagonal")

    def __init__(self, indptr, indices, data, shape):
        indptr = np.array(indptr, dtype=np.int64)  # a copy: it is frozen below
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        data = np.ascontiguousarray(data, dtype=np.float64)
        self.shape = (int(shape[0]), int(shape[1]))
        _validate_csr(indptr, indices, data, self.shape)
        n_rows = self.shape[0]
        counts = np.diff(indptr)
        width = int(counts.max()) if n_rows else 0
        nonempty = counts > 0
        pad = np.zeros(n_rows, dtype=np.int64)
        pad[nonempty] = indices[indptr[:-1][nonempty]]
        row = np.repeat(np.arange(n_rows, dtype=np.int64), counts)
        slot = np.arange(indices.size, dtype=np.int64) - indptr[row]
        cols = np.repeat(pad[None, :], width, axis=0)
        vals = np.zeros((width, n_rows))
        cols[slot, row] = indices
        vals[slot, row] = data

        k = min(self.shape)
        on_diagonal = cols[:, :k] == np.arange(k)
        diagonal = np.where(on_diagonal, vals[:, :k], 0.0).sum(axis=0)

        for a in (indptr, cols, vals, diagonal):
            a.flags.writeable = False
        self.indptr, self.cols, self.vals, self._diagonal = indptr, cols, vals, diagonal
        empty = np.flatnonzero(~nonempty)
        self._empty_rows = empty if width and empty.size else None

    @property
    def nnz(self):
        return int(self.indptr[-1])

    @property
    def indices(self):
        return self.cols.T[self._stored()]

    @property
    def data(self):
        return self.vals.T[self._stored()]

    def _stored(self):
        """(n_rows, width) mask of the slots that hold a stored entry."""
        return np.arange(self.cols.shape[0]) < self.row_nnz()[:, None]

    def _rows(self):
        """Row index of every stored entry, in CSR order."""
        return np.repeat(np.arange(self.shape[0], dtype=np.int64), self.row_nnz())

    def diagonal(self):
        """Main diagonal as a read-only dense vector (zeros where structurally absent).

        Computed once at construction; every call returns the same array.
        """
        return self._diagonal

    def row_nnz(self):
        return np.diff(self.indptr)

    def todense(self):
        out = np.zeros(self.shape)
        out[self._rows(), self.indices] = self.data
        return out


def _validate_csr(indptr, indices, data, shape):
    n_rows, n_cols = shape
    if indptr.shape != (n_rows + 1,):
        raise ValueError("indptr length must be n_rows + 1")
    if indptr[0] != 0 or indptr[-1] != indices.size:
        raise ValueError("indptr must start at 0 and end at nnz")
    if np.any(np.diff(indptr) < 0):
        raise ValueError("row offsets must be monotone")
    if indices.size != data.size:
        raise ValueError("indices and data must have equal length")
    if indices.size:
        if indices.min() < 0 or indices.max() >= n_cols:
            raise ValueError("column index out of range")
        same_row = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(indptr))
        adjacent = same_row[1:] == same_row[:-1]
        if np.any(indices[1:][adjacent] <= indices[:-1][adjacent]):
            raise ValueError("column indices must increase strictly within rows")


def csr_from_coo(rows, cols, vals, shape):
    """Coalesce COO triplets (duplicates summed) into a CsrMatrix."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    if rows.size:
        # one int64 key per entry, row-major; a stable sort keeps duplicates
        # in input order, so their sum does not depend on the sort
        key = rows * shape[1] + cols
        order = np.argsort(key, kind="stable")
        key, vals = key[order], vals[order]
        new_group = np.ones(key.size, dtype=bool)
        new_group[1:] = key[1:] != key[:-1]
        group = np.cumsum(new_group) - 1
        vals = np.bincount(group, weights=vals)
        rows, cols = rows[order][new_group], cols[order][new_group]
    counts = np.bincount(rows, minlength=shape[0]) if rows.size else np.zeros(shape[0], dtype=np.int64)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return CsrMatrix(indptr, cols, vals, shape)


def csr_transpose(M: CsrMatrix) -> CsrMatrix:
    return csr_from_coo(M.indices, M._rows(), M.data, (M.shape[1], M.shape[0]))


def max_asymmetry(M: CsrMatrix) -> float:
    """max |M - M^T| entrywise; requires a structurally symmetric pattern."""
    T = csr_transpose(M)
    if not (np.array_equal(M.indptr, T.indptr) and np.array_equal(M.indices, T.indices)):
        raise ValueError("sparsity pattern is not symmetric")
    if M.nnz == 0:
        return 0.0
    return float(np.abs(M.data - T.data).max())


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


def schur_matrix(A: CsrMatrix, D: CsrMatrix, Cdiag, coeff: float) -> CsrMatrix:
    """Assemble A + coeff * D^T diag(Cdiag)^{-1} D as a sparse matrix.

    Cdiag must be strictly positive. The result is the implicit step
    operator; it is SPD whenever A is and coeff >= 0.
    """
    Cdiag = np.asarray(Cdiag, dtype=np.float64)
    if Cdiag.shape != (D.shape[0],):
        raise ValueError("Cdiag length must match the row count of D")
    if np.any(Cdiag <= 0):
        raise ValueError("Cdiag entries must be strictly positive")
    if A.shape != (D.shape[1], D.shape[1]):
        raise ValueError("A must be square over the column space of D")
    if coeff == 0.0:
        return CsrMatrix(A.indptr, A.indices, A.data, A.shape)
    # Row q of D couples the columns it stores: its padded slots give one
    # width x width outer product, pairs in row-major order as in a loop over
    # the rows. A padding slot repeats a stored column with value 0, so it
    # only adds zeros at positions the row's real pairs already hold. Empty
    # rows of D add nothing and are dropped, so they leave no entry behind.
    full = D.row_nnz() > 0
    cols, vals = D.cols[:, full].T, D.vals[:, full].T
    width = cols.shape[1]
    outer = (coeff / Cdiag[full])[:, None, None] * (vals[:, :, None] * vals[:, None, :])
    return csr_from_coo(
        np.concatenate([A._rows(), np.repeat(cols, width, axis=1).ravel()]),
        np.concatenate([A.indices, np.tile(cols, (1, width)).ravel()]),
        np.concatenate([A.data, outer.ravel()]),
        A.shape,
    )
