"""Time one apply of A, D, D^T and the step matrix S in both operator formats.

For each grid size and three kinds of boundary sides, builds A, D, D^T and
S = A + theta dt^2 D^T C^{-1} D (theta = 1/4, dt = h/(4 sqrt 2), random rho
and lambda) once as padded rows and once as edge-grid stencils, and prints
the median time of one ``spmv`` of each operator in each format and the
median of their ratio as a markdown table. The two formats are timed in
turn within each round, so that a drift in the host's speed between rounds
leaves the ratio alone. ``spaces.GRID_MIN_DOFS`` is the crossover this
table locates.

Run from the root of a source checkout:

    PYTHONPATH=src python3 tools/operator_sweep.py [nx ...]
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

from mixedwave import spaces
from mixedwave.linalg import spmv
from mixedwave.mesh import BoundaryKind, BoundaryPartition, build_rect_mesh
from mixedwave.spaces import element_blocks, material_field

SIZES = (32, 40, 48, 56, 64, 80, 96, 128, 192, 256)
DIR, NEU = BoundaryKind.DIRICHLET_P, BoundaryKind.NEUMANN_U
SIDES = {
    "all NEUMANN_U": BoundaryPartition(NEU, NEU, NEU, NEU),
    "mixed": BoundaryPartition(DIR, DIR, NEU, NEU),
    "all DIRICHLET_P": BoundaryPartition(DIR, DIR, DIR, DIR),
}
ROUNDS = 7


def mean_time(M, x, calls):
    """Mean time of one spmv over ``calls`` calls, in microseconds."""
    start = time.perf_counter()
    for _ in range(calls):
        spmv(M, x)
    return 1e6 * (time.perf_counter() - start) / calls


def apply_times(ell, grid, x):
    """Medians over ROUNDS of the time of one spmv of each format and of
    their ratio within a round."""
    calls = max(1, int(2e5 // max(ell.shape)))
    rounds = []
    for _ in range(ROUNDS):
        ell_us, grid_us = mean_time(ell, x, calls), mean_time(grid, x, calls)
        rounds.append((ell_us, grid_us, grid_us / ell_us))
    return [statistics.median(column) for column in zip(*rounds)]


def operators_in(fmt, mesh, bc, material, blocks):
    """A, D, D^T and S as padded rows ("ell") or as stencils ("grid"), whatever their size."""
    saved = spaces.GRID_MIN_DOFS
    spaces.GRID_MIN_DOFS = 0 if fmt == "grid" else sys.maxsize
    try:
        ops = spaces.assemble_operators(mesh, bc, material)
        return {"A": ops.A, "D": ops.D, "D^T": ops.DT, "S": spaces.schur_matrix(mesh, ops.classification, blocks)}
    finally:
        spaces.GRID_MIN_DOFS = saved


def main(sizes):
    rng = np.random.default_rng(0)
    print("| nx | sides | free dofs | operator | ELL us | grid us | grid / ELL |")
    print("|---:|---|---:|---|---:|---:|---:|")
    for nx in sizes:
        mesh = build_rect_mesh(nx, nx)
        rho, lam = rng.uniform(0.25, 4.0, (2, mesh.n_elements))
        material = material_field(mesh, lambda x, y: rho, lambda x, y: lam)
        dt = mesh.h / (4.0 * np.sqrt(2.0))
        blocks = element_blocks(mesh, material, 0.25 * dt * dt)
        for name, bc in SIDES.items():
            ell, grid = (operators_in(f, mesh, bc, material, blocks) for f in ("ell", "grid"))
            for op in ell:
                x = rng.standard_normal(ell[op].shape[1])
                ell_us, grid_us, ratio = apply_times(ell[op], grid[op], x)
                n_free = ell["A"].shape[0]
                print(f"| {nx} | {name} | {n_free} | {op} | {ell_us:.1f} | {grid_us:.1f} | {ratio:.2f} |")


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or SIZES)
