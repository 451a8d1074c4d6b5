"""Lowest-order Raviart-Thomas / piecewise-constant pair on rectangles.

Velocity dofs are *integrated* normal fluxes through edges, taken along the
global normal (+x for vertical edges, +y for horizontal ones). With that
normalization every divergence-coupling entry is exactly +-1 and the pressure
mass matrix is diagonal, which the time stepper exploits.

Assembly uses closed-form element integrals (exact for constant-per-element
coefficients): the velocity mass A and the step matrix A + coeff D^T C^{-1} D
are one sum of 4x4 element blocks (``element_blocks``, summed by
``schur_matrix``). The 3x3 Gauss rule appears only where genuinely smooth
data must be integrated (loads, error norms); a run builds it once, as
``MixedOperators.quadrature``, and evaluates the exact solution's spatial
profiles there once (``sample_exact``). The interpolation operators use a
7-point edge rule / 7x7 element rule so that smooth non-polynomial fields
are projected to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .linalg import CsrMatrix, csr_from_coo, csr_transpose
from .mesh import (
    LEFT,
    RIGHT,
    BOTTOM,
    TOP,
    BoundaryKind,
    BoundaryPartition,
    EdgeClassification,
    RectMesh,
    edge_classify,
)

ASSEMBLY_RULE = 3      # exact for all RT0/P0 products with constant coefficients
PROJECTION_RULE = 7    # effectively exact for smooth data at desk scale
PROJECTION_BLOCK = 1024  # elements per call of phi: bounds phi's scratch memory
DIVERGENCE_ROW = np.array([-1.0, 1.0, -1.0, 1.0])  # an element's row of D over (LEFT, RIGHT, BOTTOM, TOP)


@lru_cache(maxsize=None)
def gauss_rule_1d(n: int):
    """Gauss-Legendre nodes/weights on [0, 1]; weights sum to 1."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass(frozen=True)
class MaterialField:
    """Element-wise constant density and stiffness with global bounds."""

    rho_per_element: np.ndarray
    lambda_per_element: np.ndarray
    rho0: float
    rho1: float
    lambda0: float
    lambda1: float

    def __post_init__(self):
        for lo, hi, field, name in (
            (self.rho0, self.rho1, self.rho_per_element, "rho"),
            (self.lambda0, self.lambda1, self.lambda_per_element, "lambda"),
        ):
            if not (0 < lo <= hi):
                raise ValueError(f"{name} bounds must satisfy 0 < lower <= upper")
            if field.size and (field.min() < lo or field.max() > hi):
                raise ValueError(f"material bound violation: {name} leaves [{lo}, {hi}]")


def material_field(mesh: RectMesh, rho, lam, rho_bounds=None, lambda_bounds=None) -> MaterialField:
    """Sample rho and lambda per element (callbacks at centroids, scalars broadcast)."""
    cx, cy = mesh.centroids()

    def per_element(value):
        if callable(value):
            return np.broadcast_to(np.asarray(value(cx, cy), dtype=np.float64), cx.shape).copy()
        return np.full(mesh.n_elements, float(value))

    rho_e = per_element(rho)
    lam_e = per_element(lam)
    rb = rho_bounds if rho_bounds is not None else (rho_e.min(), rho_e.max())
    lb = lambda_bounds if lambda_bounds is not None else (lam_e.min(), lam_e.max())
    return MaterialField(rho_e, lam_e, float(rb[0]), float(rb[1]), float(lb[0]), float(lb[1]))


@dataclass(frozen=True)
class MixedOperators:
    """Assembled bilinear forms over the free velocity dofs.

    A : rho-weighted velocity mass matrix (SPD)
    Cdiag : diagonal of the lambda^{-1}-weighted pressure mass, one entry per element
    D : divergence coupling, rows = elements, columns = free velocity dofs
    DT : D transposed, kept around because every step multiplies by it
    """

    A: CsrMatrix
    Cdiag: np.ndarray
    D: CsrMatrix
    DT: CsrMatrix
    n_velocity: int
    n_pressure: int
    mesh: RectMesh
    bc: BoundaryPartition
    classification: EdgeClassification
    material: MaterialField

    @cached_property
    def quadrature(self) -> ElementQuadrature:
        """The 3x3 Gauss rule on every element, built at first use; a run's
        loads and error norms share it."""
        return element_quadrature(self.mesh)


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


def schur_matrix(mesh: RectMesh, cls: EdgeClassification, material: MaterialField, coeff: float) -> CsrMatrix:
    """Step operator A + coeff * D^T C^{-1} D over the free velocity dofs.

    On a uniform grid it is a sum of one 4x4 block per element
    (``element_blocks``). Entries on NEUMANN_U edges are dropped. coeff = 0
    gives the mass matrix A; the result is SPD whenever coeff >= 0.
    """
    block = element_blocks(mesh, material, coeff)
    pairs = np.ones((4, 4), dtype=bool)
    if not coeff:
        # x- and y-oriented shapes never overlap: the mass couples only L-R and B-T
        pairs[:2, 2:] = pairs[2:, :2] = False
    local_i, local_j = np.nonzero(pairs)
    free = cls.free_index[mesh.element_edges.T]  # (4, n_elements)
    fi, fj = free[local_i], free[local_j]
    keep = (fi >= 0) & (fj >= 0)
    rows, cols, vals = fi[keep], fj[keep], block[local_i, local_j][keep]
    del block, free, fi, fj, keep  # freed before csr_from_coo sorts copies: a lower peak
    return csr_from_coo(rows, cols, vals, (cls.n_free, cls.n_free))


def assemble_operators(
    mesh: RectMesh,
    bc: BoundaryPartition,
    material: MaterialField,
) -> MixedOperators:
    """Assemble A, C, D with NEUMANN_U edge dofs eliminated."""
    cls = edge_classify(mesh, bc)
    A = schur_matrix(mesh, cls, material, 0.0)

    # divergence theorem with integrated-flux dofs: entries exactly +-1
    n_el = mesh.n_elements
    el = np.repeat(np.arange(n_el), 4)
    div_cols = cls.free_index[mesh.element_edges.ravel()]
    div_vals = np.tile(DIVERGENCE_ROW, n_el)
    keep = div_cols >= 0
    D = csr_from_coo(el[keep], div_cols[keep], div_vals[keep], (n_el, cls.n_free))

    return MixedOperators(
        A=A,
        Cdiag=mesh.hx * mesh.hy / material.lambda_per_element,
        D=D,
        DT=csr_transpose(D),
        n_velocity=cls.n_free,
        n_pressure=n_el,
        mesh=mesh,
        bc=bc,
        classification=cls,
        material=material,
    )


def _axis_eigenvalue(n: int, s: float, pinned_ends: int) -> float:
    """Largest eigenvalue mu of (v', w') = mu (v, w) along one axis.

    v, w range over the 1-D RT0 space, continuous piecewise-linear functions
    on n cells of size s, that vanish at the pinned (NEUMANN_U) ends;
    pinned_ends is 0, 1 or 2.
    """
    c = (-1.0, math.cos((n - 0.5) * math.pi / n), math.cos((n - 1) * math.pi / n))[pinned_ends]
    return 6.0 / s**2 * (1.0 - c) / (2.0 + c)


def max_divergence_eigenvalue(mesh: RectMesh, bc: BoundaryPartition) -> float:
    """Largest mu of (D^T M_p^{-1} D) v = mu M_u v over the free dofs, unit material.

    On a uniform grid the generalized eigenproblem separates by axis, so
    mu_max = mu_1(nx, hx) + mu_1(ny, hy) with the 1-D closed form of
    ``_axis_eigenvalue``; exact up to rounding. It is 0 exactly when no
    velocity dof is free.
    """
    pinned = BoundaryKind.NEUMANN_U
    mu = _axis_eigenvalue(mesh.nx, mesh.hx, (bc.left is pinned) + (bc.right is pinned))
    mu += _axis_eigenvalue(mesh.ny, mesh.hy, (bc.bottom is pinned) + (bc.top is pinned))
    return mu


@dataclass(frozen=True)
class ElementQuadrature:
    """Tensor Gauss rule with n points per axis on every element of a mesh.

    Point k of an element sits at reference coordinates (xi[k], eta[k]) with
    xi running slowest, so values at the points reshape to
    (n_elements, n, n) with xi along axis 1 and eta along axis 2.
    """

    mesh: RectMesh
    n: int
    x: np.ndarray        # (n_elements, n*n) physical coordinates
    y: np.ndarray
    weights: np.ndarray  # (n*n,), sums to 1
    xi: np.ndarray       # (n*n,) reference coordinates in [0, 1]
    eta: np.ndarray


def element_quadrature(mesh: RectMesh, n: int = ASSEMBLY_RULE) -> ElementQuadrature:
    """Gauss points and weights of the n-by-n rule on every element."""
    s, w = gauss_rule_1d(n)
    xi, eta = np.repeat(s, n), np.tile(s, n)
    return ElementQuadrature(
        mesh=mesh,
        n=n,
        x=mesh.element_x0[:, None] + mesh.hx * xi[None, :],
        y=mesh.element_y0[:, None] + mesh.hy * eta[None, :],
        weights=np.repeat(w, n) * np.tile(w, n),
        xi=xi,
        eta=eta,
    )


def assemble_load(quad: ElementQuadrature, cls: EdgeClassification, f, t: float) -> np.ndarray:
    """Load vector (f(.,t), phi_i) over free velocity dofs.

    ``quad`` and ``cls`` belong to the run (``MixedOperators.quadrature`` and
    ``.classification``), so a call costs one evaluation of f.
    """
    mesh, w, xi, eta = quad.mesh, quad.weights, quad.xi, quad.eta
    fx, fy = f(quad.x, quad.y, t)
    fx = np.broadcast_to(np.asarray(fx, dtype=np.float64), quad.x.shape)
    fy = np.broadcast_to(np.asarray(fy, dtype=np.float64), quad.x.shape)
    # integral of f . phi over the element, one value per local slot
    contrib = np.empty((mesh.n_elements, 4))
    contrib[:, LEFT] = mesh.hx * (fx @ (w * (1.0 - xi)))
    contrib[:, RIGHT] = mesh.hx * (fx @ (w * xi))
    contrib[:, BOTTOM] = mesh.hy * (fy @ (w * (1.0 - eta)))
    contrib[:, TOP] = mesh.hy * (fy @ (w * eta))
    full = np.bincount(mesh.element_edges.ravel(), contrib.ravel(), minlength=mesh.n_edges)
    return full[cls.free_edges]


def edge_fluxes(mesh: RectMesh, z) -> np.ndarray:
    """Integrated normal flux of a vector field through every edge.

    The flux is taken along the global normal (+x vertical, +y horizontal),
    integrated with the 7-point Gauss rule per edge.
    """
    xi, w = gauss_rule_1d(PROJECTION_RULE)
    out = np.empty(mesh.n_edges)

    iv, jv = np.meshgrid(np.arange(mesh.nx + 1), np.arange(mesh.ny), indexing="xy")
    xv = (mesh.x0 + iv.ravel() * mesh.hx)[:, None] + np.zeros_like(xi)[None, :]
    yv = (mesh.y0 + jv.ravel() * mesh.hy)[:, None] + mesh.hy * xi[None, :]
    zx, _ = z(xv, yv)
    out[: mesh.n_vedges] = mesh.hy * (np.broadcast_to(zx, xv.shape) @ w)

    ih, jh = np.meshgrid(np.arange(mesh.nx), np.arange(mesh.ny + 1), indexing="xy")
    xh = (mesh.x0 + ih.ravel() * mesh.hx)[:, None] + mesh.hx * xi[None, :]
    yh = (mesh.y0 + jh.ravel() * mesh.hy)[:, None] + np.zeros_like(xi)[None, :]
    _, zy = z(xh, yh)
    out[mesh.n_vedges :] = mesh.hx * (np.broadcast_to(zy, xh.shape) @ w)
    return out


def project_velocity_pi_h(mesh: RectMesh, cls: EdgeClassification, z) -> np.ndarray:
    """Flux interpolant of z onto the velocity space, restricted to free dofs.

    ``cls`` is the run's edge classification (``MixedOperators.classification``).
    The interpolant's defining property is that its element-wise divergence
    averages match those of z, which keeps the initial pressure-velocity
    compatibility defect at zero.
    """
    return edge_fluxes(mesh, z)[cls.free_edges]


def project_pressure_p_h(mesh: RectMesh, phi) -> np.ndarray:
    """L2 projection onto piecewise constants: element averages of phi.

    phi is evaluated on blocks of ``PROJECTION_BLOCK`` elements, 49 points
    each, so the arrays it builds stay small on fine meshes.
    """
    quad = element_quadrature(mesh, PROJECTION_RULE)
    out = np.empty(mesh.n_elements)
    for start in range(0, mesh.n_elements, PROJECTION_BLOCK):
        block = slice(start, start + PROJECTION_BLOCK)
        gx, gy = quad.x[block], quad.y[block]
        vals = np.broadcast_to(np.asarray(phi(gx, gy), dtype=np.float64), gx.shape)
        out[block] = vals @ quad.weights
    return out


@dataclass(frozen=True)
class ExactSamples:
    """Spatial profiles of a separable exact solution at the points of a quadrature.

    Built once per run; every level's error is then g(t) times these values
    minus the discrete field, at the same points. Arrays are point-major
    (the element index last), so per-element values broadcast over points
    along the long axis.
    """

    quad: ElementQuadrature
    slots: np.ndarray  # (4, n_elements) free-dof index per local edge, -1 if constrained
    ux: np.ndarray     # (n, n, n_elements): xi along axis 0, eta along axis 1
    uy: np.ndarray
    p: np.ndarray      # (n*n, n_elements)


def sample_exact(quad: ElementQuadrature, cls: EdgeClassification, velocity, pressure) -> ExactSamples:
    """Evaluate the profiles velocity(x, y) -> (sx, sy) and pressure(x, y) once."""
    n, shape = quad.n, quad.x.shape

    def point_major(values):
        return np.ascontiguousarray(np.broadcast_to(np.asarray(values, dtype=np.float64), shape).T)

    ux, uy = velocity(quad.x, quad.y)
    return ExactSamples(
        quad=quad,
        slots=np.ascontiguousarray(cls.free_index[quad.mesh.element_edges].T),
        ux=point_major(ux).reshape(n, n, -1),
        uy=point_major(uy).reshape(n, n, -1),
        p=point_major(pressure(quad.x, quad.y)),
    )


def velocity_l2_error(samples: ExactSamples, rho_per_element, g: float, free_coeffs) -> float:
    """Weighted L2 distance || rho^{1/2} (g s_u - U_h) || by element quadrature.

    The x-component of the RT0 field varies only with xi and the
    y-component only with eta, so each is evaluated at n points per element
    and broadcast over the other axis.
    """
    quad = samples.quad
    mesh = quad.mesh
    s, _ = gauss_rule_1d(quad.n)
    c = np.append(free_coeffs, 0.0)[samples.slots]  # slot -1 reads the appended 0
    vx = (c[LEFT] * (1.0 - s)[:, None] + c[RIGHT] * s[:, None]) / mesh.hy
    vy = (c[BOTTOM] * (1.0 - s)[:, None] + c[TOP] * s[:, None]) / mesh.hx
    # in place: fresh arrays of this size cost more than the arithmetic
    dx = g * samples.ux
    dx -= vx[:, None, :]
    dy = g * samples.uy
    dy -= vy[None, :, :]
    dx *= dx
    dy *= dy
    dx += dy
    per_el = quad.weights @ dx.reshape(quad.weights.size, -1)
    area = mesh.hx * mesh.hy
    return float(np.sqrt(area * np.sum(np.asarray(rho_per_element) * per_el)))


def pressure_l2_error(samples: ExactSamples, lambda_per_element, g: float, pressure_coeffs) -> float:
    """Weighted L2 distance || lambda^{-1/2} (g s_p - P_h) ||."""
    mesh = samples.quad.mesh
    d = g * samples.p
    d -= np.asarray(pressure_coeffs)[None, :]
    d *= d
    per_el = samples.quad.weights @ d
    area = mesh.hx * mesh.hy
    return float(np.sqrt(area * np.sum(per_el / np.asarray(lambda_per_element))))
