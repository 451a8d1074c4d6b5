"""Independent brute-force references used by the unit and acceptance tests.

Everything here is assembled dense, by pointwise quadrature over shape
function values, never by the closed-form element integrals the production
code uses. The time step oracle solves the coupled two-field block system
directly instead of eliminating the pressure.

The oracles number the edges of a mesh on their own, by global ids the
package does not have: vertical edge (i, j), at x = x0 + i hx spanning row
j, is j (nx + 1) + i, and horizontal edge (i, j), at y = y0 + j hy spanning
column i, follows all vertical ones at (nx + 1) ny + j nx + i. They reach
the package's free dofs only through ``reference_edge_classify``.
"""

import numpy as np
import scipy.linalg

from mixedwave.linalg import CsrMatrix, spmv
from mixedwave.mesh import LEFT, RIGHT, BOTTOM, TOP, BoundaryKind
from mixedwave.multigrid import spd_inverse
from mixedwave.spaces import DIVERGENCE_ROW, gauss_rule_1d, material_field

# outward normal per local edge slot
_OUTWARD = {LEFT: (-1.0, 0.0), RIGHT: (1.0, 0.0), BOTTOM: (0.0, -1.0), TOP: (0.0, 1.0)}


def n_edges(mesh):
    return (mesh.nx + 1) * mesh.ny + mesh.nx * (mesh.ny + 1)


def vedge_id(mesh, i, j):
    """Vertical edge at x = x0 + i*hx spanning row j. Normal +x."""
    return j * (mesh.nx + 1) + i


def hedge_id(mesh, i, j):
    """Horizontal edge at y = y0 + j*hy spanning column i. Normal +y."""
    return (mesh.nx + 1) * mesh.ny + j * mesh.nx + i


def _element_grid(mesh):
    """Column i and row j of every element, elements row-major."""
    i, j = np.meshgrid(np.arange(mesh.nx), np.arange(mesh.ny), indexing="xy")
    return i.ravel(), j.ravel()


def element_edges(mesh):
    """(n_elements, 4) global ids of each element's edges in LEFT, RIGHT, BOTTOM, TOP order."""
    i, j = _element_grid(mesh)
    return np.column_stack([vedge_id(mesh, i, j), vedge_id(mesh, i + 1, j), hedge_id(mesh, i, j), hedge_id(mesh, i, j + 1)])


def element_corners(mesh):
    """Lower-left corner (x0 + i*hx, y0 + j*hy) of every element, two (n_elements,) arrays."""
    i, j = _element_grid(mesh)
    return mesh.x0 + i * mesh.hx, mesh.y0 + j * mesh.hy


def rt0_basis_eval(mesh, element, local_edge, x, y):
    """RT0 shape function of one element edge, evaluated at points inside it.

    Normalized so the integrated flux through its own edge (along the global
    normal) is 1 and through the other three edges is 0. Returns (vx, vy).
    """
    if local_edge not in (LEFT, RIGHT, BOTTOM, TOP):
        raise ValueError(f"invalid local edge index {local_edge}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    corner_x, corner_y = element_corners(mesh)
    xl, yb = corner_x[element], corner_y[element]
    area = mesh.hx * mesh.hy
    zero = np.zeros(np.broadcast(x, y).shape)
    if local_edge == LEFT:
        return (xl + mesh.hx - x) / area, zero
    if local_edge == RIGHT:
        return (x - xl) / area, zero
    if local_edge == BOTTOM:
        return zero, (yb + mesh.hy - y) / area
    return zero, (y - yb) / area


def todense(M):
    """The dense form of a padded-row matrix (``linalg.CsrMatrix``); the
    padded slots add their value 0."""
    out = np.zeros(M.shape)
    np.add.at(out, (np.broadcast_to(np.arange(M.shape[0]), M.cols.shape), M.cols), M.vals)
    return out


def dense_solve(M, b):
    """Dense factorization of a sparse package matrix; O(n^3)."""
    return np.linalg.solve(todense(M), np.asarray(b, dtype=np.float64))


def reference_tridiagonal_inverse(diagonal, off):
    """Dense inverse of one symmetric positive definite tridiagonal matrix,
    ``diagonal`` (n,) and ``off`` (n - 1,), by the sweeps of its LDL^T
    factors applied to the identity, in the order of operations the shared
    inverses of ``linalg.LineSolve`` must keep bit for bit."""
    n = len(diagonal)
    d = np.array(diagonal, dtype=np.float64)
    factor = np.zeros(n)  # factor[k], the entry of L below its diagonal in row k
    for k in range(1, n):
        factor[k] = off[k - 1] / d[k - 1]
        d[k] -= factor[k] * off[k - 1]
    inverse = np.eye(n)
    for k in range(1, n):
        inverse[k] -= factor[k] * inverse[k - 1]
    inverse /= d[:, None]
    for k in range(n - 2, -1, -1):
        inverse[k] -= factor[k + 1] * inverse[k + 1]
    return inverse


def max_asymmetry(M):
    """max |M - M^T| entrywise on the dense form; requires a symmetric nonzero pattern."""
    full = todense(M)
    if not np.array_equal(full != 0, full.T != 0):
        raise ValueError("sparsity pattern is not symmetric")
    return float(np.abs(full - full.T).max(initial=0.0))


def reference_edge_classify(mesh, bc):
    """(free_index, free_edges) from global edge ids: pin every edge of a
    NEUMANN_U side, then number the remaining edges in id order."""
    pinned = np.zeros(n_edges(mesh), dtype=bool)
    neumann = BoundaryKind.NEUMANN_U
    jv = np.arange(mesh.ny)
    pinned[vedge_id(mesh, 0, jv)] = bc.left is neumann
    pinned[vedge_id(mesh, mesh.nx, jv)] = bc.right is neumann
    ih = np.arange(mesh.nx)
    pinned[hedge_id(mesh, ih, 0)] = bc.bottom is neumann
    pinned[hedge_id(mesh, ih, mesh.ny)] = bc.top is neumann

    free_index = np.full(n_edges(mesh), -1, dtype=np.int64)
    free_edges = np.flatnonzero(~pinned)
    free_index[free_edges] = np.arange(free_edges.size)
    return free_index, free_edges


def reference_vertex_patches(mesh, bc):
    """The free dofs of the up to 4 edges meeting at each mesh vertex (i, j),
    one list of patches per colour (i mod 2) + 2 (j mod 2); a vertex with no
    free edge has no patch."""
    free_index, _ = reference_edge_classify(mesh, bc)
    colours = [[], [], [], []]
    for j in range(mesh.ny + 1):
        for i in range(mesh.nx + 1):
            edges = [vedge_id(mesh, i, row) for row in (j - 1, j) if 0 <= row < mesh.ny]
            edges += [hedge_id(mesh, column, j) for column in (i - 1, i) if 0 <= column < mesh.nx]
            dofs = free_index[edges]
            if (dofs >= 0).any():
                colours[i % 2 + 2 * (j % 2)].append(dofs[dofs >= 0])
    return colours


def reference_patch_sweep(S, colours, b, x):
    """One multiplicative vertex-patch Schwarz sweep on the dense matrix S:
    for each colour in the given order and each patch p of it, one at a time,
    x[p] += inv(S[p, p]) (b - S x)[p]. Returns the new x; ``x`` is not changed."""
    x = np.array(x, dtype=np.float64)
    for colour in colours:
        for p in colour:
            x[p] += np.linalg.inv(S[np.ix_(p, p)]) @ (b - S @ x)[p]
    return x


def dense_operators(mesh, bc, material, rule=3):
    """Assemble A, Cdiag, D over free dofs by dense per-element quadrature.

    A entries integrate products of pointwise basis values on a rule x rule
    Gauss grid; D entries use the divergence theorem, integrating basis
    normal traces along each element side with a Gauss edge rule.
    """
    _, free = reference_edge_classify(mesh, bc)
    xi, w = gauss_rule_1d(rule)
    A_full = np.zeros((n_edges(mesh), n_edges(mesh)))
    D_full = np.zeros((mesh.n_elements, n_edges(mesh)))
    area = mesh.hx * mesh.hy
    corner_x, corner_y = element_corners(mesh)
    all_edges = element_edges(mesh)

    for el in range(mesh.n_elements):
        xg = corner_x[el] + mesh.hx * np.repeat(xi, rule)
        yg = corner_y[el] + mesh.hy * np.tile(xi, rule)
        wg = np.repeat(w, rule) * np.tile(w, rule)
        basis = [rt0_basis_eval(mesh, el, a, xg, yg) for a in range(4)]
        edges = all_edges[el]
        rho = material.rho_per_element[el]
        for a in range(4):
            for b in range(4):
                val = area * rho * np.sum(wg * (basis[a][0] * basis[b][0] + basis[a][1] * basis[b][1]))
                A_full[edges[a], edges[b]] += val
        # divergence average via boundary flux of each shape function
        for a in range(4):
            total = 0.0
            for side in range(4):
                if side in (LEFT, RIGHT):
                    xs = np.full(rule, corner_x[el] + (mesh.hx if side == RIGHT else 0.0))
                    ys = corner_y[el] + mesh.hy * xi
                    ds = mesh.hy
                else:
                    xs = corner_x[el] + mesh.hx * xi
                    ys = np.full(rule, corner_y[el] + (mesh.hy if side == TOP else 0.0))
                    ds = mesh.hx
                vx, vy = rt0_basis_eval(mesh, el, a, xs, ys)
                nx_, ny_ = _OUTWARD[side]
                total += ds * np.sum(w * (vx * nx_ + vy * ny_))
            D_full[el, edges[a]] += total

    A = A_full[np.ix_(free, free)]
    D = D_full[:, free]
    # (lambda^{-1} w_T, w_T) by quadrature of the constant indicator
    Cdiag = np.array(
        [area * np.sum(np.repeat(w, rule) * np.tile(w, rule)) / material.lambda_per_element[el]
         for el in range(mesh.n_elements)]
    )
    return A, Cdiag, D


def _gauss_points(mesh, rule):
    """Physical Gauss points (n_elements, rule^2) and their weights, summing to 1."""
    xi, w = gauss_rule_1d(rule)
    corner_x, corner_y = element_corners(mesh)
    gx = corner_x[:, None] + mesh.hx * np.repeat(xi, rule)[None, :]
    gy = corner_y[:, None] + mesh.hy * np.tile(xi, rule)[None, :]
    return gx, gy, np.repeat(w, rule) * np.tile(w, rule)


def velocity_l2_error(mesh, bc, rho_per_element, free_coeffs, exact, rule=3):
    """|| rho^{1/2} (exact - U_h) ||, evaluating exact(x, y) and U_h at every point.

    U_h is evaluated in physical coordinates, as the flux-weighted sum of the
    four shape functions of ``rt0_basis_eval``.
    """
    full = np.zeros(n_edges(mesh))
    full[reference_edge_classify(mesh, bc)[1]] = free_coeffs
    c = full[element_edges(mesh)]
    gx, gy, w = _gauss_points(mesh, rule)
    xl, yb = (corner[:, None] for corner in element_corners(mesh))
    area = mesh.hx * mesh.hy
    vx = (c[:, [LEFT]] * (xl + mesh.hx - gx) + c[:, [RIGHT]] * (gx - xl)) / area
    vy = (c[:, [BOTTOM]] * (yb + mesh.hy - gy) + c[:, [TOP]] * (gy - yb)) / area
    ux, uy = (np.broadcast_to(v, gx.shape) for v in exact(gx, gy))
    per_el = ((ux - vx) ** 2 + (uy - vy) ** 2) @ w
    return float(np.sqrt(area * np.sum(rho_per_element * per_el)))


def global_edge_fluxes(mesh, z, rule):
    """Integrated flux of z along the global normal through every edge, in
    global id order, by the rule-point Gauss rule on full per-edge coordinates."""
    s, w = gauss_rule_1d(rule)
    i, j = np.meshgrid(np.arange(mesh.nx + 1), np.arange(mesh.ny))
    x = (mesh.x0 + i.ravel() * mesh.hx)[:, None] + np.zeros_like(s)
    y = (mesh.y0 + j.ravel() * mesh.hy)[:, None] + mesh.hy * s
    vertical = mesh.hy * (np.broadcast_to(z(x, y)[0], x.shape) @ w)
    i, j = np.meshgrid(np.arange(mesh.nx), np.arange(mesh.ny + 1))
    x = (mesh.x0 + i.ravel() * mesh.hx)[:, None] + mesh.hx * s
    y = (mesh.y0 + j.ravel() * mesh.hy)[:, None] + np.zeros_like(s)
    horizontal = mesh.hx * (np.broadcast_to(z(x, y)[1], x.shape) @ w)
    return np.concatenate([vertical, horizontal])


# The free-dof layout sums at most two terms onto an edge, so each sum below,
# by global ids, must match it bit for bit.

def reference_integrate_load(quad, bc, fx, fy):
    """``spaces.integrate_load`` by global ids: each element's integral of
    f . phi per edge slot, summed onto every edge by np.bincount, and then
    the free edges taken out."""
    mesh, w, xi, eta = quad.mesh, quad.weights, quad.xi, quad.eta
    contrib = np.empty((mesh.n_elements, 4))
    contrib[:, LEFT] = mesh.hx * (fx @ (w * (1.0 - xi)))
    contrib[:, RIGHT] = mesh.hx * (fx @ (w * xi))
    contrib[:, BOTTOM] = mesh.hy * (fy @ (w * (1.0 - eta)))
    contrib[:, TOP] = mesh.hy * (fy @ (w * eta))
    full = np.bincount(element_edges(mesh).ravel(), contrib.ravel(), minlength=n_edges(mesh))
    return full[reference_edge_classify(mesh, bc)[1]]


def reference_divergence_transpose(mesh, bc, z):
    """D^T z by global ids: each element adds its ``DIVERGENCE_ROW`` entries
    times its z onto its edges by np.bincount, which sums onto 0.0, and then
    the free edges are taken out."""
    weights = (np.asarray(z)[:, None] * DIVERGENCE_ROW).ravel()
    full = np.bincount(element_edges(mesh).ravel(), weights, minlength=n_edges(mesh))
    return full[reference_edge_classify(mesh, bc)[1]]


def _cell_edge_sum(cells, lo, hi):
    """Per free edge, the sum of ``cells`` over the (up to two) cells it
    bounds, along the last axis and in the memory order of ``cells``."""
    n = cells.shape[-1]
    out = np.zeros(cells.shape[:-1] + (n + 1,), order="C" if cells.flags.c_contiguous else "F")
    out[..., :-1] += cells
    out[..., 1:] += cells
    return out[..., lo : n + 1 - hi]


def reference_stencil_diagonal(cls, blocks):
    """Main diagonal of the stencil step matrix that ``spaces.schur_matrix``
    makes of the (4, 4, n_elements) element blocks: per element the mass
    entries block[L, L] - w and block[B, B] - w with w = block[L, B], and
    w again where it is nonzero, each summed along its axis onto the edges."""
    entry = lambda i, j: blocks[i, j].reshape(cls.ny, cls.nx)
    w = entry(LEFT, BOTTOM)

    def on_edges(along_x, along_y):
        return np.concatenate([
            _cell_edge_sum(along_x, cls.left, cls.right).ravel(),
            _cell_edge_sum(along_y.T, cls.bottom, cls.top).T.ravel(),
        ])

    diagonal = on_edges(entry(LEFT, LEFT) - w, entry(BOTTOM, BOTTOM) - w)
    return diagonal + on_edges(w, w) if w.any() else diagonal


def pressure_l2_error(mesh, lambda_per_element, pressure_coeffs, exact, rule=3):
    """|| lambda^{-1/2} (exact - P_h) ||, evaluating exact(x, y) at every point."""
    gx, gy, w = _gauss_points(mesh, rule)
    per_el = (np.broadcast_to(exact(gx, gy), gx.shape) - np.asarray(pressure_coeffs)[:, None]) ** 2 @ w
    return float(np.sqrt(mesh.hx * mesh.hy * np.sum(per_el / lambda_per_element)))


def dense_step_matrix(A, D, Cdiag, coeff):
    return A + coeff * D.T @ np.diag(1.0 / Cdiag) @ D


def dense_theta_step(A, Cdiag, D, U_prev, U_curr, P_prev, P_curr, theta, dt, F_theta):
    """One level of the three-level scheme as a coupled block solve.

    Unknowns (U_next, P_next) satisfy the second-difference momentum update
    with the theta-averaged pressure, plus the half-sum divergence
    constraint; no Schur elimination is performed.
    """
    n_u = A.shape[0]
    n_p = Cdiag.size
    C = np.diag(Cdiag)
    block = np.zeros((n_u + n_p, n_u + n_p))
    block[:n_u, :n_u] = A
    block[:n_u, n_u:] = theta * dt**2 * D.T
    block[n_u:, :n_u] = -D
    block[n_u:, n_u:] = C
    rhs = np.concatenate(
        [
            A @ (2.0 * U_curr - U_prev)
            - dt**2 * D.T @ ((1.0 - 2.0 * theta) * P_curr + theta * P_prev)
            + dt**2 * F_theta,
            D @ U_curr - C @ P_curr,
        ]
    )
    sol = np.linalg.solve(block, rhs)
    return sol[:n_u], sol[n_u:]


def reference_discrete_energy(state, A, Cdiag, theta, dt):
    """The scheme's energy between the state's two levels from the difference
    quotients, as first written: 11 array passes and a product with the dense A.

    E = 1/2 [ udot' A udot + dt^2 (theta - 1/4) pdot' C pdot + pbar' C pbar ]
    """
    udot = (state.U_curr - state.U_prev) / dt
    pdot = (state.P_curr - state.P_prev) / dt
    pbar = 0.5 * (state.P_curr + state.P_prev)
    return 0.5 * (udot @ (A @ udot) + dt**2 * (theta - 0.25) * (pdot * Cdiag) @ pdot + (pbar * Cdiag) @ pbar)


def dense_max_eigenvalue(mesh, bc, material):
    """Largest mu of (D^T C^{-1} D) v = mu A v over the free dofs, by a dense generalized eigensolve."""
    A, Cdiag, D = dense_operators(mesh, bc, material)
    K = D.T @ np.diag(1.0 / Cdiag) @ D
    return scipy.linalg.eigh(K, A, eigvals_only=True).max()


def dense_inverse_constant(mesh, bc):
    """C0 from a dense generalized eigensolve over the free dofs, unit material."""
    return mesh.h * float(np.sqrt(dense_max_eigenvalue(mesh, bc, material_field(mesh, 1.0, 1.0))))


def random_consistent_state(ops, rng):
    """Two consecutive levels whose pressures satisfy the divergence constraint."""
    U_prev = rng.standard_normal(ops.n_velocity)
    U_curr = rng.standard_normal(ops.n_velocity)
    D = todense(ops.D)
    return U_prev, U_curr, (D @ U_prev) / ops.Cdiag, (D @ U_curr) / ops.Cdiag


def reference_step_defect(A, D, S, U_prev, U_curr, P_prev, P_curr, theta, dt, F_theta):
    """Defect rhs - S G of one step from the full right-hand side, G = 2 U_curr - U_prev.

    The right-hand side A G - dt^2 D^T ((1-2theta) P_curr + theta P_prev) + dt^2 F
    holds A G, which S G cancels again; returns the defect with ||A G||, the
    size of the cancelling products and so the scale of its rounding error.
    """
    guess = 2.0 * U_curr - U_prev
    rhs = (
        A @ guess
        - dt**2 * D.T @ ((1.0 - 2.0 * theta) * P_curr + theta * P_prev)
        + dt**2 * F_theta
    )
    return rhs - S @ guess, np.linalg.norm(A @ guess)


def reference_initial_defect(A, D, S, U0, V0, P0, F0, F1, theta, dt):
    """Defect rhs - S G of the Taylor first step, G = U0 + dt V0, and ||A G||.

    rhs = A U0 + dt A V0 + (theta - 1/2) dt^2 D^T P0 + dt^2/2 F0 + theta dt^2 (F1 - F0).
    """
    guess = U0 + dt * V0
    rhs = (
        A @ U0
        + dt * A @ V0
        + (theta - 0.5) * dt**2 * D.T @ P0
        + 0.5 * dt**2 * F0
        + theta * dt**2 * (F1 - F0)
    )
    return rhs - S @ guess, np.linalg.norm(A @ guess)


# The 2x2 elements around vertex (i, j) by the offset of their lower-left
# corner, and the slot of each one's edges (L, R, B, T) among the 12 edges
# of those elements: vertical edge (i + a, j + b) is slot 3b + a + 4,
# horizontal (i + a, j + b) slot 2b + a + 9.
_CORNERS = ((-1, -1), (0, -1), (-1, 0), (0, 0))
_CORNER_SLOTS = np.array([[0, 1, 6, 8], [1, 2, 7, 9], [3, 4, 8, 10], [4, 5, 9, 11]])
_PATCH_SLOTS = np.array([1, 4, 8, 9])
_OTHER_SLOTS = np.array([0, 2, 3, 5, 6, 7, 10, 11])


def reference_patch_colours(cls, blocks):
    """The vertex-patch colours of ``multigrid._patch_colours`` as
    (rows, cols, weights, inverse) tuples, built vertex by vertex: a
    meshgrid of every vertex, the gather of its 4 corner elements (one
    outside the mesh has a zero block) and of their edges, the minimum
    over the corners that share an edge, and a fancy-indexed sum of the
    corner blocks into the patch rows S_pc. The patch inverses are the
    library's ``spd_inverse`` of the gathered S_pp, which
    ``tests/test_multigrid.py`` checks on its own."""
    n, nx, ny = cls.n_free, cls.nx, cls.ny
    I, J = (g.ravel() for g in np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), indexing="xy"))
    elements = np.column_stack([
        np.where((0 <= i) & (i < nx) & (0 <= j) & (j < ny), j * nx + i, nx * ny)
        for i, j in ((I + di, J + dj) for di, dj in _CORNERS)
    ])
    edges = np.vstack([np.where(cls.element_dofs >= 0, cls.element_dofs, n), np.full(4, n)])
    around = np.full((I.size, 12), n)
    for corner, slots in zip(elements.T, _CORNER_SLOTS):
        around[:, slots] = np.minimum(around[:, slots], edges[corner])
    patch = around[:, _PATCH_SLOTS]
    colour = np.where((patch < n).any(axis=1), I % 2 + 2 * (J % 2), -1)
    blocks = np.concatenate([blocks, np.zeros((4, 4, 1))], axis=2)
    colours = []
    for sel in (colour == k for k in range(4)):
        if not sel.any():
            continue
        corners, patch_k, around_k = elements[sel], patch[sel], around[sel]
        S_pc = np.zeros((patch_k.shape[0], 4, 12))
        for corner, slots in zip(corners.T, _CORNER_SLOTS):
            at_vertex = np.isin(slots, _PATCH_SLOTS)
            rows = np.searchsorted(_PATCH_SLOTS, slots[at_vertex])
            S_pc[:, rows[:, None], slots] += blocks[at_vertex][:, :, corner].transpose(2, 0, 1)
        S_pc[patch_k == n] = 0.0
        S_pc.transpose(0, 2, 1)[around_k == n] = 0.0
        local = S_pc[:, :, _PATCH_SLOTS]
        local = 0.5 * (local + local.transpose(0, 2, 1))
        p, s = np.nonzero(patch_k == n)
        local[p, s, s] = 1.0
        inverse = spd_inverse(local.transpose(1, 2, 0)).transpose(2, 0, 1)
        inverse = 0.5 * (inverse + inverse.transpose(0, 2, 1))
        inverse[p, s, :] = 0.0
        inverse[p, :, s] = 0.0
        # W = -S_pp^{-1} S_pr, each entry summed over k = 0..3 in order, and 0
        # in the rows and columns of dummy slots
        terms = inverse[:, :, :, None] * S_pc[:, None, :, _OTHER_SLOTS]
        weights = -(terms[:, :, 0] + terms[:, :, 1] + terms[:, :, 2] + terms[:, :, 3])
        weights[p, s, :] = 0.0
        weights.transpose(0, 2, 1)[around_k[:, _OTHER_SLOTS] == n] = 0.0
        colours.append((
            np.ascontiguousarray(patch_k.T).ravel(),
            np.ascontiguousarray(around_k[:, _OTHER_SLOTS].T),
            np.ascontiguousarray(weights.transpose(2, 1, 0)),
            np.ascontiguousarray(inverse.transpose(2, 1, 0)),
        ))
    return colours


# The padded-row operators by COO triplets: each free row's entries summed by
# ``csr_from_coo``, with the free dofs of ``reference_edge_classify``.

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


def nonzero_entries(M):
    """The dense form of padded rows without its zeros and at the cost of
    the rows: the flat indices row * n_cols + column of its nonzero
    entries, increasing, and their values, each slot's value summed onto
    its entry as ``todense`` sums them."""
    rows = np.broadcast_to(np.arange(M.shape[0]), M.cols.shape)
    keys, entry = np.unique((rows * M.shape[1] + M.cols).ravel(), return_inverse=True)
    values = np.bincount(entry, weights=M.vals.ravel(), minlength=keys.size)
    nonzero = values != 0.0
    return keys[nonzero], values[nonzero]


def assert_same_rows(got, want):
    """Two padded-row matrices store the same rows, whatever slot each entry
    takes: their shape, ``row_nnz`` (dtype and bytes) and ``nnz``, and bit
    for bit their dense forms (``nonzero_entries``), main diagonals,
    ``abs_row_sum_bound()`` and products with three seeded random vectors."""
    assert got.shape == want.shape
    assert (got.row_nnz.dtype, got.row_nnz.tobytes()) == (want.row_nnz.dtype, want.row_nnz.tobytes())
    assert got.nnz == want.nnz
    for a, b in zip(nonzero_entries(got), nonzero_entries(want)):
        assert a.tobytes() == b.tobytes()
    assert got.diagonal().tobytes() == want.diagonal().tobytes()
    assert got.abs_row_sum_bound() == want.abs_row_sum_bound()
    for x in np.random.default_rng(got.shape[1]).standard_normal((3, got.shape[1])):
        assert spmv(got, x).tobytes() == spmv(want, x).tobytes()


def reference_element_dofs(mesh, bc):
    """(n_elements, 4) free dofs of each element's edges in LEFT, RIGHT,
    BOTTOM, TOP order, -1 where pinned."""
    return reference_edge_classify(mesh, bc)[0][element_edges(mesh)]


def reference_schur_matrix(mesh, bc, blocks):
    """The padded rows of ``spaces.schur_matrix``: every local pair (i, j)
    that is nonzero in some block adds block[i, j] of each element at its
    free dofs, and csr_from_coo sums the triplets."""
    local_i, local_j = np.nonzero(blocks.any(axis=2))
    free = reference_element_dofs(mesh, bc).T
    fi, fj = free[local_i], free[local_j]
    keep = (fi >= 0) & (fj >= 0)
    n = reference_edge_classify(mesh, bc)[1].size
    return csr_from_coo(fi[keep], fj[keep], blocks[local_i, local_j][keep], (n, n))


def reference_divergence(mesh, bc):
    """D and D^T of ``spaces.assemble_operators`` as padded rows, from the
    triplets (element, free dof of its edge, ``DIVERGENCE_ROW`` entry)."""
    free = reference_element_dofs(mesh, bc).ravel()
    n = reference_edge_classify(mesh, bc)[1].size
    elements = np.repeat(np.arange(mesh.n_elements), 4)
    keep = free >= 0
    rows, cols, vals = elements[keep], free[keep], np.tile(DIVERGENCE_ROW, mesh.n_elements)[keep]
    return csr_from_coo(rows, cols, vals, (mesh.n_elements, n)), csr_from_coo(cols, rows, vals, (n, mesh.n_elements))


def reference_transfers(fine, coarse, bc):
    """P and R = P^T of ``multigrid.transfers`` between two meshes, fine edge
    by fine edge: a vertical edge (i, j) at even i is half of coarse edge
    (i / 2, j // 2), weight 1/2, and at odd i lies inside a coarse element,
    a quarter of each of its edges (i // 2, j // 2) and (i // 2 + 1, j // 2);
    horizontal edges alike with the roles of i and j swapped."""
    rows, cols, vals = [], [], []
    for j in range(fine.ny):
        for i in range(fine.nx + 1):
            coarse_edges = [(i // 2, j // 2)] if i % 2 == 0 else [(i // 2, j // 2), (i // 2 + 1, j // 2)]
            for ci, cj in coarse_edges:
                rows.append(vedge_id(fine, i, j))
                cols.append(vedge_id(coarse, ci, cj))
                vals.append(0.5 if i % 2 == 0 else 0.25)
    for j in range(fine.ny + 1):
        for i in range(fine.nx):
            coarse_edges = [(i // 2, j // 2)] if j % 2 == 0 else [(i // 2, j // 2), (i // 2, j // 2 + 1)]
            for ci, cj in coarse_edges:
                rows.append(hedge_id(fine, i, j))
                cols.append(hedge_id(coarse, ci, cj))
                vals.append(0.5 if j % 2 == 0 else 0.25)
    (fine_index, fine_free), (coarse_index, coarse_free) = (reference_edge_classify(m, bc) for m in (fine, coarse))
    rows, cols, vals = fine_index[rows], coarse_index[cols], np.array(vals)
    keep = (rows >= 0) & (cols >= 0)
    shape = (fine_free.size, coarse_free.size)
    return (
        csr_from_coo(rows[keep], cols[keep], vals[keep], shape),
        csr_from_coo(cols[keep], rows[keep], vals[keep], shape[::-1]),
    )
