"""Time one apply of the step matrix S in both operator formats.

For each grid size and three kinds of boundary sides, builds S = A +
theta dt^2 D^T C^{-1} D (theta = 1/4, dt = h/(4 sqrt 2), random rho and
lambda) once as padded rows and once as an edge-grid stencil, and prints the
median time of one ``spmv`` in each format and their ratio as a markdown
table. ``spaces.GRID_MIN_DOFS`` is the crossover this table locates.

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
from mixedwave.mesh import BoundaryKind, BoundaryPartition, build_rect_mesh, edge_classify
from mixedwave.spaces import element_blocks, material_field

SIZES = (32, 48, 64, 80, 96, 128, 192, 256)
DIR, NEU = BoundaryKind.DIRICHLET_P, BoundaryKind.NEUMANN_U
SIDES = {
    "all NEUMANN_U": BoundaryPartition(NEU, NEU, NEU, NEU),
    "mixed": BoundaryPartition(DIR, DIR, NEU, NEU),
    "all DIRICHLET_P": BoundaryPartition(DIR, DIR, DIR, DIR),
}
ROUNDS = 7


def apply_time(M, x):
    """Median over ROUNDS of the mean time of one spmv, in microseconds."""
    calls = max(1, int(2e5 // M.shape[0]))
    times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(calls):
            spmv(M, x)
        times.append((time.perf_counter() - start) / calls)
    return 1e6 * statistics.median(times)


def step_matrix_in(fmt, mesh, cls, blocks):
    """S as padded rows ("ell") or as a stencil ("grid"), whatever its size."""
    saved = spaces.GRID_MIN_DOFS
    spaces.GRID_MIN_DOFS = 0 if fmt == "grid" else sys.maxsize
    try:
        return spaces.schur_matrix(mesh, cls, blocks)
    finally:
        spaces.GRID_MIN_DOFS = saved


def main(sizes):
    rng = np.random.default_rng(0)
    print("| nx | sides | free dofs | ELL us | grid us | grid / ELL |")
    print("|---:|---|---:|---:|---:|---:|")
    for nx in sizes:
        mesh = build_rect_mesh(nx, nx)
        rho, lam = rng.uniform(0.25, 4.0, (2, mesh.n_elements))
        material = material_field(mesh, lambda x, y: rho, lambda x, y: lam)
        dt = mesh.h / (4.0 * np.sqrt(2.0))
        blocks = element_blocks(mesh, material, 0.25 * dt * dt)
        for name, bc in SIDES.items():
            cls = edge_classify(mesh, bc)
            x = rng.standard_normal(cls.n_free)
            ell, grid = (apply_time(step_matrix_in(f, mesh, cls, blocks), x) for f in ("ell", "grid"))
            print(f"| {nx} | {name} | {cls.n_free} | {ell:.1f} | {grid:.1f} | {grid / ell:.2f} |")


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or SIZES)
