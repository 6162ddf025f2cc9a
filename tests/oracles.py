"""Verification helpers that no solver path calls: the stored index arrays
of a uniform mesh, mapped quadrature on squares and segments with local L2
projections, the weak operators on one element, the stabilizer and
reference-norm matrices, a source solve, field error norms, cluster
diagnostics, and the earlier forms of the assembly scatter and of the
nested-dissection factor on global dof ids.

They check the package from outside, so they live with the tests.  The square
and segment rules place points in absolute coordinates, independently of the
offset rules (element_quad, edge_quad) that build the local kit of wg_core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dgetrf, dgetrs

from wgeig import linalg
from wgeig.errors import WgeigError
from wgeig.analysis import ExactEigen, _span_distance
from wgeig.eigsolve import EigenPair
from wgeig.polyspace import DEFAULT_FIELD_QUAD, ElementBasis, gauss_rule
from wgeig.wg_core import (_ELEMENT_CHUNK, BIHARMONIC, LAPLACIAN, WgFunction, WgSpace,
                           _element_points, _interior_moments, _scatter_symmetric,
                           qh_project)


class SolverFailureError(WgeigError):
    """Sparse linear solve failed to reach the required residual."""


class MultiplicityMismatchError(WgeigError):
    """Cluster size does not match the exact multiplicity."""


# -- the index arrays of a uniform mesh, built as one stored set ------------------------


def reference_mesh(level: int) -> dict:
    """The index arrays of MeshLevel, and its three edge counts, by the
    construction that once stored them all at build time."""
    n = 1 << level

    idx = np.arange(n * n)
    elem_ix = idx % n
    elem_iy = idx // n

    # Vertical edges: x = i*h, y in [j*h, (j+1)*h]; id = j*(n+1) + i.
    nv = n * (n + 1)
    vid = np.arange(nv)
    vi = vid % (n + 1)
    vj = vid // (n + 1)
    # Horizontal edges: y = j*h, x in [i*h, (i+1)*h]; id = nv + j*n + i.
    hid = np.arange(nv)
    hi = hid % n
    hj = hid // n

    edge_orient = np.concatenate([np.zeros(nv, dtype=np.int8), np.ones(nv, dtype=np.int8)])
    edge_i = np.concatenate([vi, hi])
    edge_j = np.concatenate([vj, hj])
    boundary = np.concatenate([(vi == 0) | (vi == n), (hj == 0) | (hj == n)])

    left = elem_iy * (n + 1) + elem_ix
    right = left + 1
    bottom = nv + elem_iy * n + elem_ix
    top = nv + (elem_iy + 1) * n + elem_ix
    elem_edges = np.column_stack([left, right, bottom, top])

    interior_index = np.full(edge_orient.size, -1, dtype=np.int64)
    interior_edges = np.nonzero(~boundary)[0]
    interior_index[interior_edges] = np.arange(interior_edges.size)

    return {
        "elem_ix": elem_ix,
        "elem_iy": elem_iy,
        "edge_orient": edge_orient,
        "edge_i": edge_i,
        "edge_j": edge_j,
        "boundary_flags": boundary,
        "elem_edges": elem_edges,
        "interior_index": interior_index,
        "interior_edges": interior_edges,
        "num_edges": edge_orient.size,
        "num_boundary_edges": int(boundary.sum()),
        "num_interior_edges": interior_edges.size,
    }


# -- mapped quadrature on squares and segments ------------------------------------------


@dataclass(frozen=True)
class Square:
    """Axis-aligned square element with lower-left corner (x0, y0)."""

    x0: float
    y0: float
    side: float

    @property
    def center(self) -> tuple[float, float]:
        return self.x0 + 0.5 * self.side, self.y0 + 0.5 * self.side


@dataclass(frozen=True)
class Segment:
    """Straight edge from (x0, y0) to (x1, y1)."""

    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def length(self) -> float:
        return float(np.hypot(self.x1 - self.x0, self.y1 - self.y0))

    @property
    def midpoint(self) -> tuple[float, float]:
        return 0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1)

    def points(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map t in [0, 1] to physical points."""
        return self.x0 + t * (self.x1 - self.x0), self.y0 + t * (self.y1 - self.y0)


@dataclass(frozen=True)
class QuadratureRule:
    """Points, weights, and declared polynomial exactness of a mapped rule."""

    points: np.ndarray
    weights: np.ndarray
    exactness: int

    @staticmethod
    def tensor_gauss(square: Square, npts: int) -> "QuadratureRule":
        x, w = gauss_rule(npts)
        half = 0.5 * square.side
        gx = square.x0 + half * (x + 1.0)
        gy = square.y0 + half * (x + 1.0)
        X, Y = np.meshgrid(gx, gy, indexing="ij")
        W = np.outer(w, w).ravel() * half * half
        pts = np.column_stack([X.ravel(), Y.ravel()])
        return QuadratureRule(points=pts, weights=W, exactness=2 * npts - 1)

    @staticmethod
    def interval_gauss(segment: Segment, npts: int) -> "QuadratureRule":
        x, w = gauss_rule(npts)
        t = 0.5 * (x + 1.0)
        px, py = segment.points(t)
        W = w * 0.5 * segment.length
        return QuadratureRule(
            points=np.column_stack([px, py]), weights=W, exactness=2 * npts - 1
        )


@dataclass(frozen=True)
class EdgeBasis:
    """Scaled 1D monomial basis in the arclength parameter of an edge."""

    degree: int
    segment: Segment

    @property
    def dim(self) -> int:
        return self.degree + 1

    def eval(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        seg = self.segment
        mx, my = seg.midpoint
        tx = (seg.x1 - seg.x0) / seg.length
        ty = (seg.y1 - seg.y0) / seg.length
        s = ((np.asarray(x, float).ravel() - mx) * tx
             + (np.asarray(y, float).ravel() - my) * ty) / seg.length
        return np.column_stack([s**i for i in range(self.degree + 1)])


def element_basis(square: Square, degree: int) -> ElementBasis:
    """The scaled monomial basis of P_degree centered on a square."""
    return ElementBasis(degree=degree, center=square.center, scale=square.side)


# -- local L2 projections ----------------------------------------------------------


def element_mass_matrix(square: Square, k: int, npts: int | None = None) -> np.ndarray:
    """Gram matrix of the P_k element basis; symmetric positive definite."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    rule = QuadratureRule.tensor_gauss(square, npts or (k + 1))
    basis = element_basis(square, k)
    vals = basis.eval(rule.points[:, 0], rule.points[:, 1])
    G = vals.T @ (vals * rule.weights[:, None])
    return 0.5 * (G + G.T)


def edge_mass_matrix(segment: Segment, degree: int, npts: int | None = None) -> np.ndarray:
    rule = QuadratureRule.interval_gauss(segment, npts or (degree + 1))
    basis = EdgeBasis(degree=degree, segment=segment)
    vals = basis.eval(rule.points[:, 0], rule.points[:, 1])
    G = vals.T @ (vals * rule.weights[:, None])
    return 0.5 * (G + G.T)


def l2_project_element(f, square: Square, k: int, npts: int = DEFAULT_FIELD_QUAD) -> np.ndarray:
    """Coefficients of the L2 projection of f onto P_k on the element.

    f is called as f(x, y) with numpy arrays.  The default rule is exact for
    polynomial f up to degree 19 - k and near machine precision for smooth f.
    """
    rule = QuadratureRule.tensor_gauss(square, max(npts, k + 1))
    basis = element_basis(square, k)
    vals = basis.eval(rule.points[:, 0], rule.points[:, 1])
    rhs = vals.T @ (rule.weights * np.asarray(f(rule.points[:, 0], rule.points[:, 1]), float).ravel())
    G = element_mass_matrix(square, k)
    return cho_solve(cho_factor(G), rhs)


def l2_project_edge(f, segment: Segment, degree: int, npts: int = DEFAULT_FIELD_QUAD) -> np.ndarray:
    """1D analogue of l2_project_element on an edge."""
    rule = QuadratureRule.interval_gauss(segment, max(npts, degree + 1))
    basis = EdgeBasis(degree=degree, segment=segment)
    vals = basis.eval(rule.points[:, 0], rule.points[:, 1])
    rhs = vals.T @ (rule.weights * np.asarray(f(rule.points[:, 0], rule.points[:, 1]), float).ravel())
    G = edge_mass_matrix(segment, degree)
    return cho_solve(cho_factor(G), rhs)


# -- weak functions and local weak operators -----------------------------------------


def local_vector(u: WgFunction, element: int) -> np.ndarray:
    """Local coefficients of one element; boundary edge blocks read as 0."""
    return np.append(u.coeffs, 0.0)[u.space.local_dof_map()[element]]


def weak_gradient_local(space: WgSpace, local_coeffs: np.ndarray) -> np.ndarray:
    """Coefficients (2, dim P_{k-1}) of the discrete weak gradient on an element.

    The input follows the local ordering documented on WgSpace.  The result
    rows are the x and y components in the scaled P_{k-1} element basis.
    """
    if space.kind != LAPLACIAN:
        raise ValueError("weak gradient is defined for the second-order space")
    kit = space.kit()
    v = np.asarray(local_coeffs, dtype=float)
    if v.shape != (space.n_local,):
        raise ValueError(f"expected {space.n_local} local coefficients")
    return np.vstack([kit.Wx @ v, kit.Wy @ v])


def weak_laplacian_local(space: WgSpace, local_coeffs: np.ndarray) -> np.ndarray:
    """Coefficients in P_{k-2} of the discrete weak Laplacian on an element."""
    if space.kind != BIHARMONIC:
        raise ValueError("weak Laplacian is defined for the fourth-order space")
    kit = space.kit()
    v = np.asarray(local_coeffs, dtype=float)
    if v.shape != (space.n_local,):
        raise ValueError(f"expected {space.n_local} local coefficients")
    return kit.W @ v


# -- global matrices and the source problem -------------------------------------------


def stabilizer_matrix(space: WgSpace):
    """Global stabilizer matrix with the space's weakened exponent; s(v, w) = v^T S w."""
    return _scatter_symmetric(space, space.kit().stabilizer_local(space.epsilon))


def norm1_matrix(space: WgSpace):
    """Matrix of the unweakened mesh-dependent norm (stiffness + epsilon-free penalty)."""
    kit = space.kit()
    local = kit.stiff_local + kit.stabilizer_local(0.0)
    return _scatter_symmetric(space, 0.5 * (local + local.T))


def solve_source(space: WgSpace, f, tol: float = 1e-10) -> WgFunction:
    """Solve the discrete source problem a_w(u_h, v) = (f, v_0)."""
    rhs = np.zeros(space.ndof)
    rhs[: space.n_interior_dofs] = _interior_moments(space, f, DEFAULT_FIELD_QUAD).ravel()
    lu = linalg.factor_spd(space)
    x, rel = linalg.refined_solve(lu, space.A, rhs, tol)
    if rel > tol:
        raise SolverFailureError(
            f"source solve stalled at relative residual {rel:.3e} (tol {tol:.1e})"
        )
    return WgFunction(space, x)


# -- field error norms -----------------------------------------------------------------


def l2_error(u_h: WgFunction, f, npts: int = DEFAULT_FIELD_QUAD) -> float:
    """L2 distance between a smooth field and the interior component of u_h."""
    space = u_h.space
    kit = space.kit()
    ox, oy, w, phi_ref = kit.element_quad(npts)
    C = u_h.interior_matrix()
    total = 0.0
    for sl, X, Y in _element_points(space, ox, oy):
        diff = np.asarray(f(X, Y), dtype=float) - C[sl] @ phi_ref.T
        total += float(((diff**2) * w[None, :]).sum())
    return float(np.sqrt(total))


def vnorm_error(u_h: WgFunction, u, grad_u, lap_u,
                npts: int = DEFAULT_FIELD_QUAD) -> float:
    """Mesh-dependent energy-type error of a fourth-order source solution.

    Combines the broken-Laplacian L2 error with h^-3 and h^-1 weighted edge
    penalties of the trace and normal-derivative mismatches, summed per
    element side exactly as the norm is defined.
    """
    space = u_h.space
    if space.kind != BIHARMONIC:
        raise ValueError("the V-norm error is defined for the fourth-order space")
    mesh = space.mesh
    kit = space.kit()
    h = mesh.h
    C = u_h.interior_matrix()

    ox, oy, w2, _ = kit.element_quad(npts)
    lap_ref = kit.phi.eval(ox, oy, dx=2) + kit.phi.eval(ox, oy, dy=2)
    total = 0.0
    for sl, X, Y in _element_points(space, ox, oy):
        diff = np.asarray(lap_u(X, Y), dtype=float) - C[sl] @ lap_ref.T
        total += float(((diff**2) * w2[None, :]).sum())

    off, w1, psi_ref = kit.edge_quad(npts)
    nq = off.size
    mx, my = mesh.edge_midpoints()
    vertical = mesh.edge_orient == 0
    EX = np.where(vertical[:, None], mx[:, None], mx[:, None] - 0.5 * h + off[None, :])
    EY = np.where(vertical[:, None], my[:, None] - 0.5 * h + off[None, :], my[:, None])
    u_vals = np.asarray(u(EX, EY), dtype=float)
    qbu = cho_solve(kit.Ge_cho, ((u_vals * w1[None, :]) @ psi_ref).T).T

    k = space.dim_trace
    layout = np.empty_like(u_h.coeffs)  # the edge-major layout: interiors, traces, normals
    layout[space.quadtree.order] = u_h.coeffs
    trace_c = np.zeros((mesh.num_edges, k))
    normal_c = np.zeros((mesh.num_edges, k))
    ii = mesh.interior_index
    inter = ii >= 0
    base = space.n_interior_dofs
    trace_c[inter] = layout[base : base + mesh.num_interior_edges * k].reshape(-1, k)[ii[inter]]
    nbase = base + mesh.num_interior_edges * k
    normal_c[inter] = layout[nbase : nbase + mesh.num_interior_edges * k].reshape(-1, k)[ii[inter]]

    side_pts = (
        (np.zeros(nq), off),   # left
        (np.full(nq, h), off),
        (off, np.zeros(nq)),
        (off, np.full(nq, h)),
    )
    for p in range(4):
        eid = mesh.elem_edges[:, p]
        lx, ly = side_pts[p]
        dn_side = kit.phi.eval(lx, ly, dx=1) if p < 2 else kit.phi.eval(lx, ly, dy=1)
        qbu0 = cho_solve(kit.Ge_cho, (kit.Me[p] @ C.T)).T      # (Ne, k)
        t1 = ((qbu[eid] - qbu0) + trace_c[eid]) @ psi_ref.T - u_vals[eid]
        t2 = normal_c[eid] @ psi_ref.T - C @ dn_side.T
        total += h ** (-3.0) * float(((t1**2) * w1[None, :]).sum())
        total += h ** (-1.0) * float(((t2**2) * w1[None, :]).sum())
    return float(np.sqrt(total))


# -- cluster diagnostics and verdicts --------------------------------------------------


class Diagnostics(NamedTuple):
    delta: float
    sigma: float
    eta: float
    gamma: float


def eigen_diagnostics(pairs: list[EigenPair], exact: ExactEigen,
                      space: WgSpace) -> Diagnostics:
    """Cluster diagnostics: value spread and best-approximation distances.

    delta/sigma are the largest/smallest absolute eigenvalue errors over the
    cluster; eta and gamma are the worst mass-seminorm and energy-norm
    distances from the computed vectors to the interpolated exact eigenspace.
    """
    if len(pairs) != exact.multiplicity:
        raise MultiplicityMismatchError(
            f"cluster size {len(pairs)} != exact multiplicity {exact.multiplicity}"
        )
    errs = [abs(exact.value - p.value) for p in pairs]
    cols = np.column_stack([qh_project(space, g).coeffs for g in exact.generators])
    eta = max(_span_distance(cols, p.vector, space.B) for p in pairs)
    gamma = max(_span_distance(cols, p.vector, space.A) for p in pairs)
    return Diagnostics(delta=max(errs), sigma=min(errs), eta=eta, gamma=gamma)


def lower_bound_check(errors) -> list[bool]:
    """Flag per eigenvalue: True iff the signed error lambda - lambda_h is >= 0."""
    return [bool(e >= 0.0) for e in errors]


# -- the assembly scatter and the nested-dissection factor on layout ids ---------------


def masked_scatter(space: WgSpace, local: np.ndarray) -> sp.csr_matrix:
    """The scatter of wg_core._scatter_symmetric by a (chunk, n_loc, n_loc)
    mask of free local pairs with a nonzero entry: the same triplets in the
    same order (element, local row, local column)."""
    gdofs = space.local_dof_map()
    n_loc = space.n_local
    nonzero = local != 0.0
    ids = np.int32 if space.ndof < 2**31 else np.int64
    rows, cols, vals = [], [], []
    for start in range(0, gdofs.shape[0], _ELEMENT_CHUNK):
        G = gdofs[start : start + _ELEMENT_CHUNK].astype(ids)
        R = np.broadcast_to(G[:, :, None], (G.shape[0], n_loc, n_loc))
        C = np.broadcast_to(G[:, None, :], R.shape)
        mask = (R < space.ndof) & (C < space.ndof) & nonzero
        rows.append(R[mask])
        cols.append(C[mask])
        vals.append(np.broadcast_to(local, R.shape)[mask])
    M = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(space.ndof, space.ndof))
    M.eliminate_zeros()
    return M


class IdBoxLevel(NamedTuple):
    """A quadtree level as layout ids: every box's cross and perimeter
    (``ndof`` for a Dirichlet dof), the merge map of each child's perimeter
    into the box-local positions, the sorted ``touched`` ids off the boundary
    and ``pairs``, their two flat perimeter positions."""

    cross: np.ndarray
    perimeter: np.ndarray
    merge: np.ndarray | None
    pairs: np.ndarray
    touched: np.ndarray


def id_edge_dofs(space: WgSpace, edges: np.ndarray):
    """Global ids (``ndof`` on the boundary) and boundary-blind ids of every
    row of edges' dofs, component, then edge, then basis function."""
    mesh, k = space.mesh, space.dim_trace
    comp = np.arange(space.num_edge_components)[:, None, None]
    e = edges[:, None, :, None]
    ii = mesh.interior_index[e]
    ids = np.where(ii >= 0, space.n_interior_dofs
                   + (comp * mesh.num_interior_edges + ii) * k + np.arange(k), space.ndof)
    blind = (comp * mesh.num_edges + e) * k + np.arange(k)
    return ids.reshape(len(edges), -1), blind.reshape(len(edges), -1)


def id_dof_map(space: WgSpace) -> np.ndarray:
    """The dof map in the edge-major layout of qh_project, Quadtree.order's
    ids: the interiors, then each element's edge ids."""
    edges = id_edge_dofs(space, space.mesh.elem_edges)[0]
    return np.hstack([np.arange(space.n_interior_dofs).reshape(-1, space.dim_interior), edges])


def id_box_levels(space: WgSpace) -> list[IdBoxLevel]:
    """George's nested dissection of the uniform mesh on the ids of the
    edge-major layout (id_dof_map), built from the mesh's edge numbering
    independently of WgSpace.quadtree.  A top level above 0 has no
    perimeter; level 0 keeps its own, all Dirichlet on one element."""
    n = space.mesh.n

    def edge(horizontal, i, j):
        return horizontal * n * (n + 1) + j * (n + 1 - horizontal) + i

    levels, below = [], None
    for level in range(space.mesh.level + 1):
        m = 1 << level
        y0, x0 = np.divmod(np.arange((n // m) ** 2), n // m)
        y0, x0, t = m * y0[:, None], m * x0[:, None], np.arange(m)
        sides = np.hstack([edge(0, x0, y0 + t), edge(0, x0 + m, y0 + t),
                           edge(1, x0 + t, y0), edge(1, x0 + t, y0 + m)])
        perimeter, own = id_edge_dofs(space, sides)
        if level == 0:
            cross, merge = np.arange(space.n_interior_dofs).reshape(len(sides), -1), None
        else:
            cross, own_cross = id_edge_dofs(space, np.hstack(
                [edge(0, x0 + m // 2, y0 + t), edge(1, x0 + t, y0 + m // 2)]))
            own = np.concatenate([own_cross[0], own[0]])
            children = id_edge_dofs(space, below[[0, 1, n // m * 2, n // m * 2 + 1]])[1]
            order = np.argsort(own)
            merge = order[np.searchsorted(own, children, sorter=order)]
        below = sides
        perimeter = perimeter[:, :0] if 0 < level == space.mesh.level else perimeter
        flat = perimeter.ravel()
        pairs = np.argsort(flat, kind="stable")
        pairs = pairs[flat[pairs] < space.ndof].reshape(-1, 2).T
        levels.append(IdBoxLevel(cross, perimeter, merge, pairs, flat[pairs[0]]))
    return levels


class IdNestedLU:
    """The nested-dissection factor of M = A - shift B on layout ids: four
    children merged by np.ix_ scatters, every cross gathered and scattered
    by id.  Same arithmetic as linalg.NestedLU, so the same bits, its
    vectors permuted by Quadtree.order."""

    def __init__(self, space: WgSpace, shift: float):
        kit, nb = space.kit(), space.dim_interior
        self.levels = id_box_levels(space)
        self.ndof = space.ndof
        self.factors, self.inverses = [], []
        K = kit.a_local.copy()
        K[:nb, :nb] -= shift * kit.Gk
        for level in self.levels:
            n_c, size = level.cross.shape[1], level.cross.shape[1] + level.perimeter.shape[1]
            if level.merge is None:
                K = K[:size, :size]
            else:
                K = np.zeros((size, size))
                for child in level.merge:
                    keep = child < size
                    K[np.ix_(child[keep], child[keep])] += S[np.ix_(keep, keep)]
            *lu, info = dgetrf(K[:n_c, :n_c])
            assert info == 0
            X = dgetrs(*lu, K[:n_c, n_c:])[0]
            S = K[n_c:, n_c:] - K[n_c:, :n_c] @ X
            S = 0.5 * (S + S.T)
            self.factors.append((K[:n_c, :n_c].copy(), lu, X))
            gemm = level.merge is None or len(level.cross) >= n_c
            self.inverses.append(dgetrs(*lu, np.eye(n_c), trans=1)[0] if gemm else None)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x = M⁻¹ rhs for a right-hand side of length n_int or ndof."""
        first, (_, _, X0), inv0 = self.levels[0], self.factors[0], self.inverses[0]
        x = np.zeros(self.ndof + 1)  # the last entry is every Dirichlet dof
        x[:len(rhs)] = rhs
        interiors = x[:first.cross.size].reshape(first.cross.shape)
        U = (interiors @ X0).ravel()
        x[first.touched] -= U[first.pairs[0]] + U[first.pairs[1]]
        interiors[...] = interiors @ inv0
        crosses = []
        for level, (_, lu, X), inv in zip(self.levels[1:], self.factors[1:], self.inverses[1:]):
            R = x[level.cross]
            U = (R @ X).ravel()
            x[level.touched] -= U[level.pairs[0]] + U[level.pairs[1]]
            crosses.append(R @ inv if inv is not None else dgetrs(*lu, R.T)[0].T)
        for level, (_, _, X), Y in zip(self.levels[:0:-1], self.factors[:0:-1], crosses[::-1]):
            x[level.cross] = Y - x[level.perimeter] @ X.T
        interiors -= x[first.perimeter] @ X0.T
        return x[:-1]
