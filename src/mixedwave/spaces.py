"""Lowest-order Raviart-Thomas / piecewise-constant pair on rectangles.

Velocity dofs are *integrated* normal fluxes through edges, taken along the
global normal (+x for vertical edges, +y for horizontal ones). With that
normalization every divergence-coupling entry is exactly +-1 and the pressure
mass matrix is diagonal, which the time stepper exploits.

Assembly uses closed-form element integrals (exact for constant-per-element
coefficients): the velocity mass A and the step matrix A + coeff D^T C^{-1} D
are one sum of 4x4 element blocks (``element_blocks``, summed by
``schur_matrix``). The 3x3 Gauss rule Q appears only where genuinely smooth
data must be integrated (loads, error norms); a run builds it once, as
``MixedOperators.quadrature``.

The free velocity dofs are those of the run's layout,
``mesh.EdgeClassification``, the only edge numbering: padded-row assembly
lays each row out from strided slices of its ``padded_index_grids``, the
loads sum their element integrals onto the edges with its ``edge_sum``, the
flux interpolant takes its free edges with ``gather``, and the stencils take
the layout itself. The operators come in one of the two formats of
``linalg``, picked by the number of free velocity dofs: padded rows below
``GRID_MIN_DOFS`` (6 000), where the fancy-index gather is cheap, and
edge-grid stencils from there on, where it costs more than the arithmetic.
Every 32 x 32 grid (at most 2 112 free dofs) is on padded rows, and so are
the coarse levels of a 64 x 64 grid's V-cycle; every 64 x 64 grid (at least
8 064) and every larger one is on stencils. A stencil step matrix keeps its
coefficients, taken from the element blocks, per element and per edge; no
padded rows are built for it.

Q integrates every RT0 x RT0 product exactly, so A is Q's Gram matrix and
the error norms follow from discrete Pythagoras. A run projects the exact
solution's spatial profiles once (``velocity_best_approximation``,
``pressure_best_approximation``); the error of a level is then the
projection's own error, scaled by g(t)^2, plus one product with A or with
the diagonal C (``velocity_l2_error``, ``pressure_l2_error``).

The interpolation operators use a 7-point edge rule / 7x7 element rule so
that smooth non-polynomial fields are projected to machine precision.

Every rule here is a tensor product on the uniform grid, so every data
callable receives sparse coordinates, as ``np.ogrid`` makes them: x and y
broadcast against each other (x (1, nx, n, 1) and y (ny, 1, 1, n) on the
elements, ``ElementQuadrature``), and the callable returns values
broadcastable to their common shape. No full per-point coordinate array is
built, and a callable made of ufuncs computes each factor of x or y once per
distinct coordinate; its values are the same as on full point arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .linalg import (
    CsrMatrix,
    GridDivergence,
    GridStepMatrix,
    LineSolve,
    SolverConfig,
    cg_solve,
    csr_from_candidates,
    spmv,
)
from .mesh import (
    LEFT,
    RIGHT,
    BOTTOM,
    TOP,
    BoundaryPartition,
    EdgeClassification,
    RectMesh,
    edge_classify,
    padded,
)

# Exact for all RT0/P0 products with constant coefficients. The error norms
# rely on it: A must be the Gram matrix of the run's quadrature, which needs
# a rule of at least 2 points per axis.
ASSEMBLY_RULE = 3
PROJECTION_RULE = 7    # effectively exact for smooth data at desk scale
# Elements per call of p0 in project_pressure_p_h, in whole element rows (at
# least one): bounds the full-size arrays p0 builds when it broadcasts its
# sparse x and y.
PROJECTION_BLOCK = 1024
BEST_APPROXIMATION_RTOL = 1e-14  # CG tolerance of A Pi = b_u: its residual enters the error norms
DIVERGENCE_ROW = np.array([-1.0, 1.0, -1.0, 1.0])  # an element's row of D over (LEFT, RIGHT, BOTTOM, TOP)
# From this many free velocity dofs on, A, S, D and D^T are edge-grid
# stencils instead of padded rows. Over three runs of
# ``tools/operator_sweep.py`` and three boundary kinds, one stencil apply of
# S took 1.47-1.71 of the padded-row time at nx 32 (2.0k-2.1k free dofs),
# 0.94-1.11 at nx 48 (4.5k-4.7k), 0.78-0.95 at nx 56 (6.2k-6.4k) and
# 0.64-0.86 at nx 64 (8.1k-8.3k). At nx 56 A took 0.63-0.78 and D
# 0.61-0.86; D^T, applied once a step against S once per CG iteration, took
# 0.71-1.15 there and 0.66-1.05 at nx 64. The switch sits below nx 56, the
# smallest size where the stencil S won every run, so every 64 x 64 grid
# is on stencils, and every 32 x 32 grid, with the V-cycle's coarse levels
# under a 64 x 64 grid, on padded rows.
GRID_MIN_DOFS = 6_000


@lru_cache(maxsize=None)
def gauss_rule_1d(n: int):
    """Gauss-Legendre nodes/weights on [0, 1]; weights sum to 1."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass(frozen=True)
class MaterialField:
    """Element-wise constant density and stiffness: two finite 1-D arrays of one length, in finite bounds."""

    rho_per_element: np.ndarray
    lambda_per_element: np.ndarray
    rho0: float
    rho1: float
    lambda0: float
    lambda1: float

    def __post_init__(self):
        if np.ndim(self.rho_per_element) != 1 or np.shape(self.lambda_per_element) != np.shape(self.rho_per_element):
            raise ValueError("rho and lambda must be two 1-D arrays of one length")
        for lo, hi, field, name in (
            (self.rho0, self.rho1, self.rho_per_element, "rho"),
            (self.lambda0, self.lambda1, self.lambda_per_element, "lambda"),
        ):
            if not (0 < lo <= hi < math.inf):  # NaN fails every comparison
                raise ValueError(f"{name} bounds must be finite and satisfy 0 < lower <= upper, got [{lo}, {hi}]")
            if not np.isfinite(field).all():
                raise ValueError(f"{name} has a non-finite entry")
            if field.size and (field.min() < lo or field.max() > hi):
                raise ValueError(f"material bound violation: {name} leaves [{lo}, {hi}]")


def material_field(mesh: RectMesh, rho, lam) -> MaterialField:
    """Sample rho and lambda per element (callbacks at centroids, scalars
    broadcast); the bounds are the sampled extremes."""
    cx, cy = mesh.centroids()

    def per_element(value):
        if callable(value):
            return np.broadcast_to(np.asarray(value(cx, cy), dtype=np.float64), cx.shape).copy()
        return np.full(mesh.n_elements, float(value))

    rho_e = per_element(rho)
    lam_e = per_element(lam)
    return MaterialField(rho_e, lam_e, float(rho_e.min()), float(rho_e.max()), float(lam_e.min()), float(lam_e.max()))


@dataclass(frozen=True)
class MixedOperators:
    """Assembled bilinear forms over the free velocity dofs.

    A : rho-weighted velocity mass matrix (SPD)
    Cdiag : diagonal of the lambda^{-1}-weighted pressure mass, one entry per element
    D : divergence coupling, rows = elements, columns = free velocity dofs
    DT : D transposed, kept around because every step multiplies by it

    A, D and DT are padded rows or edge-grid stencils (``assemble_operators``);
    ``spmv`` applies either.
    """

    A: CsrMatrix | GridStepMatrix
    Cdiag: np.ndarray
    D: CsrMatrix | GridDivergence
    DT: CsrMatrix | GridDivergence
    mesh: RectMesh
    bc: BoundaryPartition
    classification: EdgeClassification
    material: MaterialField

    n_velocity = property(lambda self: self.classification.n_free)  # free velocity dofs
    n_pressure = property(lambda self: self.mesh.n_elements)  # pressure dofs, one per element

    @cached_property
    def quadrature(self) -> ElementQuadrature:
        """The 3x3 Gauss rule on every element, built at first use; a run's
        loads and error norms share it."""
        return element_quadrature(self.mesh)

    @cached_property
    def line_solve(self) -> LineSolve:
        """Exact solves with A by the LDL^T factors of its lines, or one
        shared inverse per edge family whose short lines have the same block
        (``linalg.LineSolve``), built from the element blocks at first use.
        They do not depend on dt, so every run that shares the operators
        shares them."""
        blocks = element_blocks(self.mesh, self.material, 0.0)
        entry = lambda i, j: blocks[i, j].reshape(self.mesh.ny, self.mesh.nx)
        return LineSolve(
            self.classification,
            (entry(LEFT, LEFT), entry(LEFT, RIGHT)),
            (entry(BOTTOM, BOTTOM), entry(BOTTOM, TOP)),
        )


def element_blocks(mesh: RectMesh, material: MaterialField, coeff: float) -> np.ndarray:
    """(4, 4, n_elements) element blocks of A + coeff * D^T C^{-1} D.

    Local edges are ordered (LEFT, RIGHT, BOTTOM, TOP). Each block is the
    element's closed-form rho-mass block plus coeff * lambda_e / (hx hy) * s s^T,
    where s is the element's row of D, ``DIVERGENCE_ROW``.
    """
    if material.rho_per_element.shape != (mesh.n_elements,):
        raise ValueError("material arrays must have one entry per element")
    rho = material.rho_per_element
    block = np.zeros((4, 4, mesh.n_elements))
    block[LEFT, LEFT] = block[RIGHT, RIGHT] = rho * mesh.hx / (3.0 * mesh.hy)
    block[LEFT, RIGHT] = block[RIGHT, LEFT] = rho * mesh.hx / (6.0 * mesh.hy)
    block[BOTTOM, BOTTOM] = block[TOP, TOP] = rho * mesh.hy / (3.0 * mesh.hx)
    block[BOTTOM, TOP] = block[TOP, BOTTOM] = rho * mesh.hy / (6.0 * mesh.hx)
    if coeff:
        Cdiag = mesh.hx * mesh.hy / material.lambda_per_element
        block += np.outer(DIVERGENCE_ROW, DIVERGENCE_ROW)[:, :, None] * (coeff / Cdiag)
    return block


# The candidate columns of a free edge's row of the step matrix, in
# increasing order: (side, slot) is edge ``slot`` of the element on that
# side of the row's edge (0 before it, 1 after it along the edge's normal),
# and None the edge itself, where both elements add. Vertical edges, then
# horizontal ones.
ROW_CANDIDATES = (
    ((0, LEFT), None, (1, RIGHT), (0, BOTTOM), (1, BOTTOM), (0, TOP), (1, TOP)),
    ((0, LEFT), (0, RIGHT), (1, LEFT), (1, RIGHT), (0, BOTTOM), None, (1, TOP)),
)


def _edge_elements(cls: EdgeClassification):
    """Per family of free edges, vertical then horizontal: the slices of a
    grid of elements padded by one ring (``mesh.padded``) that hold the
    element before each edge of the family (left of a vertical edge, below a
    horizontal one) and the element after it, as (rows, columns), in the
    free-dof order; and the slot the edge fills in each of the two."""
    nx, ny, every_row, every_column = cls.nx, cls.ny, slice(1, cls.ny + 1), slice(1, cls.nx + 1)
    return (
        (
            ((every_row, slice(cls.left, nx + 1 - cls.right)), (every_row, slice(cls.left + 1, nx + 2 - cls.right))),
            (RIGHT, LEFT),
        ),
        (
            ((slice(cls.bottom, ny + 1 - cls.top), every_column), (slice(cls.bottom + 1, ny + 2 - cls.top), every_column)),
            (TOP, BOTTOM),
        ),
    )


def schur_matrix(mesh: RectMesh, cls: EdgeClassification, blocks: np.ndarray) -> CsrMatrix | GridStepMatrix:
    """Sum of the (4, 4, n_elements) element blocks over the free velocity dofs.

    With ``blocks = element_blocks(mesh, material, coeff)`` this is the step
    operator A + coeff * D^T C^{-1} D: the mass matrix A at coeff = 0, SPD
    whenever coeff >= 0. Entries on NEUMANN_U edges are dropped, and so are
    local pairs that are zero in every block: x- and y-oriented shapes never
    overlap, so the mass alone couples only L-R and B-T and has 3 entries a row.

    From ``GRID_MIN_DOFS`` free dofs on the sum is a ``GridStepMatrix``, which
    keeps per element the weight w = block[L, B] of its divergence and its
    mass entries block[L, L] - w, block[L, R] + w (and B, T alike); below, it
    is padded rows, laid out from the index grids (``ROW_CANDIDATES``): each
    entry is one block entry, or two on the diagonal, and a sum of two
    floats does not depend on their order.
    """
    if cls.n_free >= GRID_MIN_DOFS:
        entry = lambda i, j: blocks[i, j].reshape(mesh.ny, mesh.nx)
        w = entry(LEFT, BOTTOM)
        return GridStepMatrix(
            cls,
            (entry(LEFT, LEFT) - w, entry(LEFT, RIGHT) + w),
            (entry(BOTTOM, BOTTOM) - w, entry(BOTTOM, TOP) + w),
            w.copy() if w.any() else None,  # a copy, so that S does not keep the blocks alive
        )
    V, H = cls.padded_index_grids
    ring = padded(blocks.reshape(4, 4, cls.ny, cls.nx), 0.0)
    stored = blocks.any(axis=2).tolist()
    row_blocks = []
    for shape, (sides, own), candidates in zip(cls.shapes, _edge_elements(cls), ROW_CANDIDATES):
        edges = [(V[r, c], V[r, c.start + 1 : c.stop + 1], H[r, c], H[r.start + 1 : r.stop + 1, c]) for r, c in sides]
        values = [ring[slot, :, r, c] for slot, (r, c) in zip(own, sides)]
        kept = []
        for candidate in candidates:
            if candidate is None:  # the edge itself
                if stored[own[0]][own[0]] or stored[own[1]][own[1]]:
                    kept.append((edges[0][own[0]], values[0][own[0]] + values[1][own[1]]))
                continue
            side, slot = candidate
            if stored[own[side]][slot]:
                kept.append((edges[side][slot], values[side][slot]))
        row_blocks.append((shape, kept))
    return csr_from_candidates(row_blocks, cls.n_free)


def assemble_operators(
    mesh: RectMesh,
    bc: BoundaryPartition,
    material: MaterialField,
) -> MixedOperators:
    """Assemble A, C, D with NEUMANN_U edge dofs eliminated.

    A, D and D^T are padded rows below ``GRID_MIN_DOFS`` free dofs, laid out
    from the index grids, and edge-grid stencils from there on.
    """
    cls = edge_classify(mesh, bc)
    A = schur_matrix(mesh, cls, element_blocks(mesh, material, 0.0))

    # divergence theorem with integrated-flux dofs: entries exactly +-1
    n_el = mesh.n_elements
    if cls.n_free >= GRID_MIN_DOFS:
        D, DT = GridDivergence(cls), GridDivergence(cls, transposed=True)
    else:
        # an element's row: its LEFT, RIGHT, BOTTOM and TOP edges, in increasing order
        V, H = cls.index_grids
        D = csr_from_candidates([((mesh.ny, mesh.nx), list(zip([V[:, :-1], V[:, 1:], H[:-1], H[1:]], DIVERGENCE_ROW)))], cls.n_free)
        # an edge's row: the element before it and the element after it
        elements = padded(np.arange(n_el).reshape(mesh.ny, mesh.nx), -1)
        DT = csr_from_candidates(
            [
                (shape, [(elements[side], DIVERGENCE_ROW[slot]) for side, slot in zip(sides, own)])
                for shape, (sides, own) in zip(cls.shapes, _edge_elements(cls))
            ],
            n_el,
        )

    return MixedOperators(
        A=A,
        Cdiag=mesh.hx * mesh.hy / material.lambda_per_element,
        D=D,
        DT=DT,
        mesh=mesh,
        bc=bc,
        classification=cls,
        material=material,
    )


def _axis_angle(n: int, pinned_ends: int) -> float:
    """Angle t of the top mode of (v', w') = mu (v, w) along one axis.

    v, w range over the 1-D RT0 space, continuous piecewise-linear functions
    on n cells, that vanish at the pinned (NEUMANN_U) ends; pinned_ends is
    0, 1 or 2. The mode's nodal values are cos(k t), k = 0..n, or sin(k t)
    when the first end is pinned (``_axis_mode``).
    """
    return (math.pi, (n - 0.5) * math.pi / n, (n - 1) * math.pi / n)[pinned_ends]


def _axis_eigenvalue(n: int, s: float, pinned_ends: int) -> float:
    """Largest eigenvalue mu of (v', w') = mu (v, w) along one axis, for cells of size s."""
    c = math.cos(_axis_angle(n, pinned_ends))
    return 6.0 / s**2 * (1.0 - c) / (2.0 + c)


def _axis_nodes(n: int, first_pinned: int, pinned_ends: int) -> np.ndarray:
    """The n + 1 nodal values v[k] of the top mode v of ``_axis_angle``."""
    k = np.arange(n + 1) * _axis_angle(n, pinned_ends)
    return np.sin(k) if first_pinned else np.cos(k)


def _axis_mode(n: int, first_pinned: int, pinned_ends: int) -> np.ndarray:
    """The n cell differences v[k + 1] - v[k] of the top mode v of
    ``_axis_angle``; all ones when both ends of a one-cell axis are pinned,
    where the axis has no free dof and any value is a mode."""
    if n == 1 and pinned_ends == 2:
        return np.ones(1)
    return np.diff(_axis_nodes(n, first_pinned, pinned_ends))


def max_divergence_eigenvalue(mesh: RectMesh, bc: BoundaryPartition) -> float:
    """Largest mu of (D^T M_p^{-1} D) v = mu M_u v over the free dofs, unit material.

    On a uniform grid the generalized eigenproblem separates by axis, so
    mu_max = mu_1(nx, hx) + mu_1(ny, hy) with the 1-D closed form of
    ``_axis_eigenvalue``; exact up to rounding. It is 0 exactly when no
    velocity dof is free.
    """
    cls = EdgeClassification.of(mesh.nx, mesh.ny, bc)
    mu = _axis_eigenvalue(mesh.nx, mesh.hx, cls.left + cls.right)
    return mu + _axis_eigenvalue(mesh.ny, mesh.hy, cls.bottom + cls.top)


def max_divergence_mode(ops: MixedOperators) -> np.ndarray:
    """A velocity eigenvector at mu_max of (D^T C^{-1} D) v = mu A v, for constant material.

    The eigenproblem separates by axis (``max_divergence_eigenvalue``): with
    w_x, w_y the cell differences of the top 1-D modes (``_axis_mode``), the
    pressure P = w_y (x) w_x, element (j, i) holding w_y[j] w_x[i], solves
    D A^{-1} D^T P = mu_max C P, and v = A^{-1} D^T P in closed form, with no
    solve. With n_x, n_y the modes' nodal values (``_axis_nodes``) and mu_x,
    mu_y their eigenvalues (``_axis_eigenvalue``), v is

        (hx hy / rho) mu_x (w_y (x) n_x) on the vertical edges,
        (hx hy / rho) mu_y (n_y (x) w_x) on the horizontal edges,

    taken on the free edges. This holds for constant material, with rho read
    from ``rho0``; for element-wise material v is no eigenvector.
    """
    cls, mesh = ops.classification, ops.mesh
    x_ends, y_ends = cls.left + cls.right, cls.bottom + cls.top
    n_x, w_x = _axis_nodes(cls.nx, cls.left, x_ends), _axis_mode(cls.nx, cls.left, x_ends)
    n_y, w_y = _axis_nodes(cls.ny, cls.bottom, y_ends), _axis_mode(cls.ny, cls.bottom, y_ends)
    scale = mesh.hx * mesh.hy / ops.material.rho0
    return cls.gather(
        (scale * _axis_eigenvalue(cls.nx, mesh.hx, x_ends)) * np.outer(w_y, n_x),
        (scale * _axis_eigenvalue(cls.ny, mesh.hy, y_ends)) * np.outer(n_y, w_x),
    )


def stiffness_bound(mesh: RectMesh, bc: BoundaryPartition, material: MaterialField) -> float:
    """Upper bound on mu_max, the largest mu of (D^T C^{-1} D) v = mu A v over the free dofs.

    (lambda1 / rho0) times the unit-material ``max_divergence_eigenvalue``:
    the Rayleigh quotient of D^T C^{-1} D grows at most by lambda1 and that
    of A shrinks at most by rho0. Equal to mu_max for uniform material, and
    0 exactly when no velocity dof is free. The step's stability bound
    (``verify.cfl_max_dt``) and the multigrid switch
    (``scheme.grad_div_weight``) both read it.
    """
    return (material.lambda1 / material.rho0) * max_divergence_eigenvalue(mesh, bc)


def _points(value, x, y, n_points: int) -> np.ndarray:
    """A callable's value on the points that x and y broadcast to, as a float64
    array with one row of ``n_points`` values per element or edge.

    A value already in the full layout, or a constant, is reshaped without a
    copy; one that varies along some axes only is copied into the full layout.
    """
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    return np.broadcast_to(np.asarray(value, dtype=np.float64), shape).reshape(-1, n_points)


@dataclass(frozen=True)
class ElementQuadrature:
    """Tensor Gauss rule with n points per axis on every element of a mesh.

    Point k of an element sits at reference coordinates (xi[k], eta[k]) with
    xi running slowest, so values at the points reshape to
    (n_elements, n, n) with xi along axis 1 and eta along axis 2.

    The physical coordinates are kept sparse, as ``np.ogrid`` makes them: x
    is (1, nx, n, 1) and y is (ny, 1, 1, n), and together they broadcast to
    the (ny, nx, n, n) = (n_elements, n*n) layout of the points. A callable
    built from ufuncs thus computes each factor of x or y once per distinct
    coordinate. ``sample`` evaluates a callable on them.
    """

    mesh: RectMesh
    x: np.ndarray        # (1, nx, n, 1) physical coordinates
    y: np.ndarray        # (ny, 1, 1, n)
    weights: np.ndarray  # (n*n,), sums to 1
    xi: np.ndarray       # (n*n,) reference coordinates in [0, 1]
    eta: np.ndarray

    def sample(self, fn, *args):
        """fn(x, y, *args) at every point as an (n_elements, n*n) float64 array,
        or a tuple of them when fn returns the components of a vector field."""
        value = fn(self.x, self.y, *args)
        if isinstance(value, (tuple, list)):
            return tuple(_points(v, self.x, self.y, self.weights.size) for v in value)
        return _points(value, self.x, self.y, self.weights.size)


def element_quadrature(mesh: RectMesh, n: int = ASSEMBLY_RULE) -> ElementQuadrature:
    """Gauss points and weights of the n-by-n rule on every element."""
    s, w = gauss_rule_1d(n)
    return ElementQuadrature(
        mesh=mesh,
        x=(mesh.x0 + np.arange(mesh.nx) * mesh.hx)[None, :, None, None] + (mesh.hx * s)[:, None],
        y=(mesh.y0 + np.arange(mesh.ny) * mesh.hy)[:, None, None, None] + mesh.hy * s,
        weights=np.repeat(w, n) * np.tile(w, n),
        xi=np.repeat(s, n),
        eta=np.tile(s, n),
    )


def integrate_load(quad: ElementQuadrature, cls: EdgeClassification, fx, fy) -> np.ndarray:
    """Load vector (f, phi_i) over free velocity dofs, integrated by ``quad``
    from the values fx, fy of f at its points ((n_elements, n*n) arrays).

    Each element integrates f . phi for each of its 4 edge slots, and each
    free edge sums its (up to two) elements' values (``cls.edge_sum``).
    """
    mesh, w, xi, eta = quad.mesh, quad.weights, quad.xi, quad.eta
    per_element = lambda values, weights, h: (h * (values @ weights)).reshape(mesh.ny, mesh.nx)
    return cls.edge_sum(
        per_element(fx, w * (1.0 - xi), mesh.hx),
        per_element(fx, w * xi, mesh.hx),
        per_element(fy, w * (1.0 - eta), mesh.hy),
        per_element(fy, w * eta, mesh.hy),
    )


def assemble_load(quad: ElementQuadrature, cls: EdgeClassification, f, *args) -> np.ndarray:
    """Load vector (f(., ., *args), phi_i) over free velocity dofs.

    ``quad`` and ``cls`` belong to the run (``MixedOperators.quadrature`` and
    ``.classification``), so a call costs one evaluation of f, on the
    sparse coordinates of ``quad``. A body force takes f(x, y, t), a
    spatial profile f(x, y).
    """
    return integrate_load(quad, cls, *quad.sample(f, *args))


def edge_fluxes(mesh: RectMesh, z) -> tuple[np.ndarray, np.ndarray]:
    """Integrated normal flux of a vector field through every edge: the
    (ny, nx + 1) grid of vertical edges and the (ny + 1, nx) grid of
    horizontal ones, pinned edges included.

    The flux is taken along the global normal (+x vertical, +y horizontal),
    integrated with the 7-point Gauss rule per edge. z is evaluated on
    sparse coordinates: x (1, nx + 1, 7) and y (ny, 1, 7) for the vertical
    edges, x (1, nx, 7) and y (ny + 1, 1, 7) for the horizontal ones.
    """
    s, w = gauss_rule_1d(PROJECTION_RULE)
    on_edge = np.zeros_like(s)

    x = (mesh.x0 + np.arange(mesh.nx + 1) * mesh.hx)[None, :, None] + on_edge
    y = (mesh.y0 + np.arange(mesh.ny) * mesh.hy)[:, None, None] + mesh.hy * s
    zx, _ = z(x, y)
    vertical = mesh.hy * (_points(zx, x, y, s.size) @ w)

    x = (mesh.x0 + np.arange(mesh.nx) * mesh.hx)[None, :, None] + mesh.hx * s
    y = (mesh.y0 + np.arange(mesh.ny + 1) * mesh.hy)[:, None, None] + on_edge
    _, zy = z(x, y)
    horizontal = mesh.hx * (_points(zy, x, y, s.size) @ w)
    return vertical.reshape(mesh.ny, mesh.nx + 1), horizontal.reshape(mesh.ny + 1, mesh.nx)


def project_velocity_pi_h(mesh: RectMesh, cls: EdgeClassification, z) -> np.ndarray:
    """Flux interpolant of z onto the velocity space: the fluxes of
    ``edge_fluxes`` on the free edges, gathered by ``cls.gather``.

    ``cls`` is the run's edge classification (``MixedOperators.classification``).
    The interpolant's defining property is that its element-wise divergence
    averages match those of z, which keeps the initial pressure-velocity
    compatibility defect at zero.
    """
    return cls.gather(*edge_fluxes(mesh, z))


def project_pressure_p_h(mesh: RectMesh, phi) -> np.ndarray:
    """L2 projection onto piecewise constants: element averages of phi.

    phi is evaluated on the sparse coordinates of the 7x7 rule
    (``ElementQuadrature``), one band of whole element rows per call: at
    most ``PROJECTION_BLOCK`` elements, and at least one row.
    """
    quad = element_quadrature(mesh, PROJECTION_RULE)
    rows = max(1, PROJECTION_BLOCK // mesh.nx)
    out = np.empty(mesh.n_elements)
    for j in range(0, mesh.ny, rows):
        y = quad.y[j : j + rows]
        values = _points(phi(quad.x, y), quad.x, y, quad.weights.size)
        out[j * mesh.nx : (j + rows) * mesh.nx] = values @ quad.weights
    return out


def velocity_best_approximation(ops: MixedOperators, profile) -> tuple[np.ndarray, float]:
    """Pi s_u over the free dofs and beta_u = || rho^{1/2} (s_u - Pi s_u) ||^2 on Q.

    Q is the run's quadrature (``ops.quadrature``) and Pi s_u the rho-weighted
    Q-projection of the profile (x, y) -> (sx, sy) onto the free RT0 space:
    A Pi = (rho s_u, phi_i)_Q. The profile is evaluated once, and beta_u is
    summed from the pointwise defect, not taken as a difference of norms.
    """
    quad, mesh = ops.quadrature, ops.mesh
    rho = ops.material.rho_per_element
    sx, sy = quad.sample(profile)
    load = integrate_load(quad, ops.classification, rho[:, None] * sx, rho[:, None] * sy)
    # CG, not ops.line_solve: on the standing wave and the forced case, the
    # profiles of every benchmark and CLI run, CG stops after 1 iteration,
    # 0.28 ms at nx 128 against 1.5 ms to build the line solve. Routed through
    # the line solve, the benchmark's setup_s rose 9.8 % on standing-wave-128
    # (0.02297 -> 0.02523 s) and 15.6 % on cli-studies (0.01611 -> 0.01862 s),
    # higher in all 6 alternated pairs of each.
    coeffs = cg_solve(ops.A, load, SolverConfig(BEST_APPROXIMATION_RTOL)).x
    c = np.append(coeffs, 0.0)[ops.classification.element_dofs]  # pinned slots read the 0
    vx = c[:, [LEFT, RIGHT]] @ (np.array([1.0 - quad.xi, quad.xi]) / mesh.hy)
    vy = c[:, [BOTTOM, TOP]] @ (np.array([1.0 - quad.eta, quad.eta]) / mesh.hx)
    per_el = ((sx - vx) ** 2 + (sy - vy) ** 2) @ quad.weights
    return coeffs, float(mesh.hx * mesh.hy * np.sum(rho * per_el))


def pressure_best_approximation(ops: MixedOperators, profile) -> tuple[np.ndarray, float]:
    """Element averages of s_p on Q and beta_p = || lambda^{-1/2} (s_p - averages) ||^2 on Q."""
    quad, mesh = ops.quadrature, ops.mesh
    values = quad.sample(profile)
    averages = values @ quad.weights
    per_el = (values - averages[:, None]) ** 2 @ quad.weights
    return averages, float(mesh.hx * mesh.hy * np.sum(per_el / ops.material.lambda_per_element))


def velocity_l2_error(A: CsrMatrix | GridStepMatrix, projection, beta: float, g: float, free_coeffs) -> float:
    """|| rho^{1/2} (g s_u - U_h) || on Q by discrete Pythagoras: g^2 beta_u + d^T A d,
    d = g Pi s_u - U_h (``velocity_best_approximation``)."""
    d = g * projection - free_coeffs
    return math.sqrt(g * g * beta + float(d @ spmv(A, d)))


def pressure_l2_error(Cdiag, averages, beta: float, g: float, pressure_coeffs) -> float:
    """|| lambda^{-1/2} (g s_p - P_h) || on Q: g^2 beta_p + sum_e C_e (g average_e - P_e)^2."""
    d = g * averages - pressure_coeffs
    return math.sqrt(g * g * beta + float((Cdiag * d) @ d))
