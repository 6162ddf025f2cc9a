"""Weak Galerkin spaces, weak differential operators, and form assembly.

A weak function carries an interior polynomial of degree k per element, a
trace polynomial of degree k-1 per interior edge, and (for the fourth-order
problem) an edge normal-derivative polynomial of degree k-1.  Boundary edge
unknowns are eliminated, never penalized, so the stiffness form stays
symmetric positive definite and the mass form positive semidefinite.

On a uniform square mesh with centered, h-scaled bases, every element shares
one set of local matrices, and assembly reduces to a deterministic vectorized
scatter of that single pattern.  The same holds for every box of the uniform
quadtree that the factorizations (linalg) eliminate level by level: edge dofs
are numbered by component, then edge, then basis function, and one map per
level merges four boxes into their parent (WgSpace.quadtree).

One scatter builds both forms: A from the local stiffness matrix, B from the
interior Gram block Gk zero-padded to the local size.  Each global entry sums
at most two element terms, and two floating-point terms sum to the same bits
in either order, so the result does not depend on the order of the elements;
the local matrices are exactly symmetric, so A and B are too.  Zero local
entries are not emitted and entries whose terms cancel to 0.0 are dropped, so
A and B store no zeros.

The interior Gram block Gk, which is the local mass matrix, is built from the
exact moments of the centered monomials rather than by quadrature: moments of
odd degree in x or y vanish exactly, so Gk stores no rounding noise as
structure and the pattern of B lies inside the pattern of A.  Every shifted
system A - sigma B has exactly the pattern of A.

qh_project evaluates a field at the tensor Gauss points of every element,
unless it names factors fx, fy with f = fx(x) * fy(y), as the exact Laplacian
eigenfunctions do: the same rule then runs through 1D moments per grid line.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve

from .errors import DegreeTooLowError
from .mesh import EDGE_SIGNS, MeshLevel
from .polyspace import (
    DEFAULT_FIELD_QUAD,
    EdgeBasis,
    ElementBasis,
    QuadratureRule,
    Segment,
    Square,
    dim_pk,
    gauss_rule,
    pk_exponents,
)

LAPLACIAN = "laplacian"
BIHARMONIC = "biharmonic"
KINDS = (LAPLACIAN, BIHARMONIC)

# Outward normals of the (left, right, bottom, top) edges of any element.
EDGE_NORMALS = ((-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0))

_ELEMENT_CHUNK = 1 << 15


@dataclass
class WgSpace:
    """A weak Galerkin space on a uniform mesh.

    Local degree-of-freedom order on each element: the interior block of
    dimension (k+1)(k+2)/2, then trace blocks of dimension k per edge in
    (left, right, bottom, top) order, then normal-derivative blocks in the
    same order for the fourth-order problem.  Globally, interior blocks come
    first (element-major), then trace blocks (interior-edge-major), then
    normal blocks.
    """

    mesh: MeshLevel
    degree: int
    kind: str = LAPLACIAN
    epsilon: float = 0.1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        min_degree = 1 if self.kind == LAPLACIAN else 2
        if self.degree < min_degree:
            raise DegreeTooLowError(
                f"{self.kind} requires degree >= {min_degree}, got {self.degree}"
            )
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        self._kit = None
        self._dof_map = None

    @property
    def dim_interior(self) -> int:
        return dim_pk(self.degree)

    @property
    def dim_trace(self) -> int:
        return self.degree

    @property
    def num_edge_components(self) -> int:
        return 1 if self.kind == LAPLACIAN else 2

    @property
    def n_interior_dofs(self) -> int:
        return self.mesh.num_elements * self.dim_interior

    @property
    def ndof(self) -> int:
        return (
            self.n_interior_dofs
            + self.mesh.num_interior_edges * self.dim_trace * self.num_edge_components
        )

    @property
    def n_local(self) -> int:
        return self.dim_interior + 4 * self.dim_trace * self.num_edge_components

    def local_dof_map(self) -> np.ndarray:
        """(Ne, n_local) global indices in local order; -1 marks boundary blocks."""
        if self._dof_map is None:
            edges = _edge_dofs(self, self.mesh.elem_edges)[0]
            self._dof_map = np.hstack([np.arange(self.n_interior_dofs).reshape(
                -1, self.dim_interior), np.where(edges < self.ndof, edges, -1)])
        return self._dof_map

    @cached_property
    def quadtree(self) -> list["BoxLevel"]:
        """The box levels of the nested-dissection factor (linalg), built once per space."""
        return _box_levels(self)

    def kit(self) -> "_LocalKit":
        if self._kit is None:
            self._kit = _LocalKit(self)
        return self._kit

    def function(self, coeffs: np.ndarray | None = None) -> "WgFunction":
        if coeffs is None:
            coeffs = np.zeros(self.ndof)
        return WgFunction(self, np.asarray(coeffs, dtype=float))


@dataclass(frozen=True)
class BoxLevel:
    """The 2^l x 2^l boxes of quadtree level l, one row each, as global dof ids.

    A box's cross is what level l eliminates: the element interior at level
    0, above it the edge dofs on the box's two midlines.  Its perimeter holds
    the edge dofs on its sides, with ``ndof`` for a Dirichlet dof; the top box
    has none.  Box-local positions run over the cross, then the perimeter,
    and ``merge[q]`` places the perimeter of child q (level l - 1) among
    them, one map for every box.  Each perimeter dof off the boundary belongs
    to two boxes: ``touched`` lists them, ``pairs`` their two flat positions.
    """

    cross: np.ndarray
    perimeter: np.ndarray
    merge: np.ndarray | None
    pairs: np.ndarray
    touched: np.ndarray


def _edge_dofs(space: WgSpace, edges: np.ndarray):
    """Global ids (``ndof`` on the boundary) and boundary-blind ids of edges' dofs."""
    mesh, k = space.mesh, space.dim_trace
    comp = np.arange(space.num_edge_components)[:, None, None]
    e = edges[:, None, :, None]
    ii = mesh.interior_index[e]
    ids = np.where(ii >= 0, space.n_interior_dofs
                   + (comp * mesh.num_interior_edges + ii) * k + np.arange(k), space.ndof)
    blind = (comp * mesh.num_edges + e) * k + np.arange(k)
    return ids.reshape(len(edges), -1), blind.reshape(len(edges), -1)


def _box_levels(space: WgSpace) -> list[BoxLevel]:
    """George's nested dissection of the uniform mesh (SIAM J. Numer. Anal.
    1973).  Perimeter edges run left, right, bottom, top, each side by
    increasing coordinate (at level 0 the local order of WgSpace); a cross
    runs along its vertical midline, then its horizontal one."""
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
        perimeter, own = _edge_dofs(space, sides)
        if level == 0:
            cross, merge = np.arange(space.n_interior_dofs).reshape(len(sides), -1), None
        else:
            cross, own_cross = _edge_dofs(space, np.hstack(
                [edge(0, x0 + m // 2, y0 + t), edge(1, x0 + t, y0 + m // 2)]))
            own = np.concatenate([own_cross[0], own[0]])
            children = _edge_dofs(space, below[[0, 1, n // m * 2, n // m * 2 + 1]])[1]
            order = np.argsort(own)
            merge = order[np.searchsorted(own, children, sorter=order)]
        below = sides
        perimeter = perimeter[:, :0] if level == space.mesh.level else perimeter
        flat = perimeter.ravel()
        pairs = np.argsort(flat, kind="stable")
        pairs = pairs[flat[pairs] < space.ndof].reshape(-1, 2).T
        levels.append(BoxLevel(cross, perimeter, merge, pairs, flat[pairs[0]]))
    return levels


@dataclass
class WgFunction:
    """Coefficient vector over the degree-of-freedom layout of a WgSpace."""

    space: WgSpace
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != (self.space.ndof,):
            raise ValueError(
                f"coefficient length {self.coeffs.shape} does not match "
                f"space dimension {self.space.ndof}"
            )

    def interior_matrix(self) -> np.ndarray:
        """Interior coefficients reshaped to (num_elements, dim_interior)."""
        nd0 = self.space.dim_interior
        return self.coeffs[: self.space.n_interior_dofs].reshape(-1, nd0)


@dataclass
class AssembledForms:
    """Stiffness and mass pair of the pencil."""

    space: WgSpace
    A: sp.csr_matrix
    B: sp.csr_matrix
    n_interior: int


def _centred_moment(p: np.ndarray) -> np.ndarray:
    """Integral of t**p over [-1/2, 1/2]: (1/2)**p / (p+1), zero for odd p."""
    return np.where(p % 2 == 0, 0.5 ** p / (p + 1.0), 0.0)


class _LocalKit:
    """Shared per-element matrices for a space (uniform mesh, one pattern)."""

    def __init__(self, space: WgSpace):
        k = space.degree
        h = space.mesh.h
        self.space = space
        self.h = h
        nd0 = dim_pk(k)
        self.square = Square(0.0, 0.0, h)
        self.phi = ElementBasis.for_square(self.square, k)
        self.segments = (
            Segment(0.0, 0.0, 0.0, h),   # left, parametrized by increasing y
            Segment(h, 0.0, h, h),       # right
            Segment(0.0, 0.0, h, 0.0),   # bottom, parametrized by increasing x
            Segment(0.0, h, h, h),       # top
        )
        self.edge_bases = tuple(EdgeBasis(k - 1, seg) for seg in self.segments)

        nq = k + 2
        elem_rule = QuadratureRule.tensor_gauss(self.square, nq)
        ex, ey, ew = elem_rule.points[:, 0], elem_rule.points[:, 1], elem_rule.weights
        a, b = np.array(pk_exponents(k)).T
        self.Gk = h * h * (_centred_moment(a[:, None] + a[None, :])
                           * _centred_moment(b[:, None] + b[None, :]))
        self.Gk_cho = cho_factor(self.Gk)

        edge_rules = [QuadratureRule.interval_gauss(seg, nq) for seg in self.segments]
        psi_at = []
        for p, rule in enumerate(edge_rules):
            px, py = rule.points[:, 0], rule.points[:, 1]
            psi_at.append(self.edge_bases[p].eval(px, py))
        Ge = psi_at[0].T @ (psi_at[0] * edge_rules[0].weights[:, None])
        self.Ge = 0.5 * (Ge + Ge.T)
        self.Ge_cho = cho_factor(self.Ge)

        # Trace moments of the interior basis on each edge.
        self.Me = []
        for p, rule in enumerate(edge_rules):
            px, py, w = rule.points[:, 0], rule.points[:, 1], rule.weights
            self.Me.append(psi_at[p].T @ (self.phi.eval(px, py) * w[:, None]))

        if space.kind == LAPLACIAN:
            self._build_gradient_operator(k, ex, ey, ew, edge_rules, psi_at)
        else:
            self._build_laplacian_operator(k, ex, ey, ew, edge_rules, psi_at)
            # Normal-derivative moments with the fixed edge normal: d/dx on the
            # vertical edges, d/dy on the horizontal ones.
            self.Mn = []
            for p, rule in enumerate(edge_rules):
                px, py, w = rule.points[:, 0], rule.points[:, 1], rule.weights
                dphi = self.phi.eval(px, py, dx=1) if p < 2 else self.phi.eval(px, py, dy=1)
                self.Mn.append(psi_at[p].T @ (dphi * w[:, None]))

        self._build_stabilizer_blocks()
        self.a_local = self.stiff_local + self.stabilizer_local(space.epsilon)
        self.a_local = 0.5 * (self.a_local + self.a_local.T)
        self.b_local = self.Gk

    # -- weak operators ----------------------------------------------------

    def _build_gradient_operator(self, k, ex, ey, ew, edge_rules, psi_at):
        space = self.space
        chi = ElementBasis.for_square(self.square, k - 1)
        m = chi.dim
        nd0 = dim_pk(k)
        n_loc = space.n_local
        chi_vals = chi.eval(ex, ey)
        Gm = chi_vals.T @ (chi_vals * ew[:, None])
        self.Gm = 0.5 * (Gm + Gm.T)
        self.Gm_cho = cho_factor(self.Gm)

        phi_vals = self.phi.eval(ex, ey)
        Cx = chi.eval(ex, ey, dx=1).T @ (phi_vals * ew[:, None])
        Cy = chi.eval(ex, ey, dy=1).T @ (phi_vals * ew[:, None])

        Rx = np.zeros((m, n_loc))
        Ry = np.zeros((m, n_loc))
        Rx[:, :nd0] = -Cx
        Ry[:, :nd0] = -Cy
        kt = space.dim_trace
        for p, rule in enumerate(edge_rules):
            px, py, w = rule.points[:, 0], rule.points[:, 1], rule.weights
            Te = psi_at[p].T @ (chi.eval(px, py) * w[:, None])  # (kt, m)
            cols = slice(nd0 + p * kt, nd0 + (p + 1) * kt)
            nx, ny = EDGE_NORMALS[p]
            Rx[:, cols] = nx * Te.T
            Ry[:, cols] = ny * Te.T
        self.Wx = cho_solve(self.Gm_cho, Rx)
        self.Wy = cho_solve(self.Gm_cho, Ry)
        stiff = Rx.T @ self.Wx + Ry.T @ self.Wy
        self.stiff_local = 0.5 * (stiff + stiff.T)
        self.grad_dim = m

    def _build_laplacian_operator(self, k, ex, ey, ew, edge_rules, psi_at):
        space = self.space
        chi = ElementBasis.for_square(self.square, k - 2)
        mq = chi.dim
        nd0 = dim_pk(k)
        n_loc = space.n_local
        chi_vals = chi.eval(ex, ey)
        Gq = chi_vals.T @ (chi_vals * ew[:, None])
        self.Gq = 0.5 * (Gq + Gq.T)
        self.Gq_cho = cho_factor(self.Gq)

        phi_vals = self.phi.eval(ex, ey)
        lap_chi = chi.eval(ex, ey, dx=2) + chi.eval(ex, ey, dy=2)
        D = lap_chi.T @ (phi_vals * ew[:, None])  # (mq, nd0)

        R = np.zeros((mq, n_loc))
        R[:, :nd0] = D
        kt = space.dim_trace
        for p, rule in enumerate(edge_rules):
            px, py, w = rule.points[:, 0], rule.points[:, 1], rule.weights
            nx, ny = EDGE_NORMALS[p]
            dn_chi = nx * chi.eval(px, py, dx=1) + ny * chi.eval(px, py, dy=1)
            Nc = psi_at[p].T @ (dn_chi * w[:, None])          # (kt, mq)
            Te = psi_at[p].T @ (chi.eval(px, py) * w[:, None])  # (kt, mq)
            vb_cols = slice(nd0 + p * kt, nd0 + (p + 1) * kt)
            vn_cols = slice(nd0 + (4 + p) * kt, nd0 + (5 + p) * kt)
            R[:, vb_cols] = -Nc.T
            R[:, vn_cols] = EDGE_SIGNS[p] * Te.T
        self.W = cho_solve(self.Gq_cho, R)
        stiff = R.T @ self.W
        self.stiff_local = 0.5 * (stiff + stiff.T)
        self.lap_dim = mq

    # -- stabilizer ---------------------------------------------------------

    def _unit_penalty_block(self, M: np.ndarray, edge_block: slice) -> np.ndarray:
        """<P v0 - w, P u0 - w> on (v0, w) blocks, where P = Ge^{-1} M."""
        space = self.space
        nd0 = space.dim_interior
        S = np.zeros((space.n_local, space.n_local))
        GeinvM = cho_solve(self.Ge_cho, M)
        S[:nd0, :nd0] = M.T @ GeinvM
        S[:nd0, edge_block] = -M.T
        S[edge_block, :nd0] = -M
        S[edge_block, edge_block] = self.Ge
        return S

    def _build_stabilizer_blocks(self):
        space = self.space
        nd0 = space.dim_interior
        kt = space.dim_trace
        self.stab_trace_unit = np.zeros((space.n_local, space.n_local))
        for p in range(4):
            blk = slice(nd0 + p * kt, nd0 + (p + 1) * kt)
            self.stab_trace_unit += self._unit_penalty_block(self.Me[p], blk)
        if space.kind == BIHARMONIC:
            self.stab_normal_unit = np.zeros((space.n_local, space.n_local))
            for p in range(4):
                blk = slice(nd0 + (4 + p) * kt, nd0 + (5 + p) * kt)
                self.stab_normal_unit += self._unit_penalty_block(self.Mn[p], blk)

    def stabilizer_local(self, epsilon: float) -> np.ndarray:
        """Local stabilizer with weights h^(-1+epsilon) (and h^(-3+epsilon))."""
        h = self.h
        if self.space.kind == LAPLACIAN:
            S = h ** (-1.0 + epsilon) * self.stab_trace_unit
        else:
            S = (h ** (-3.0 + epsilon) * self.stab_trace_unit
                 + h ** (-1.0 + epsilon) * self.stab_normal_unit)
        return 0.5 * (S + S.T)

    # -- quadrature references for field integrals --------------------------

    def element_quad(self, npts: int):
        """Offsets within an element, weights, and basis values at the points."""
        g, w = gauss_rule(npts)
        off = 0.5 * self.h * (g + 1.0)
        OX, OY = np.meshgrid(off, off, indexing="ij")
        W = np.outer(w, w).ravel() * (0.5 * self.h) ** 2
        ox, oy = OX.ravel(), OY.ravel()
        return ox, oy, W, self.phi.eval(ox, oy)

    def edge_quad(self, npts: int):
        """1D offsets within an edge, weights, and edge-basis values."""
        g, w = gauss_rule(npts)
        off = 0.5 * self.h * (g + 1.0)
        W = w * 0.5 * self.h
        s = off / self.h - 0.5
        psi = np.column_stack([s**i for i in range(self.space.dim_trace)])
        return off, W, psi


# -- assembly ----------------------------------------------------------------


def _scatter_symmetric(space: WgSpace, local: np.ndarray) -> sp.csr_matrix:
    """Assemble one shared symmetric local matrix over all elements: every pair
    of free local dofs with a nonzero local entry, duplicates summed by the CSR
    conversion, cancelled entries dropped (see the module docstring)."""
    gdofs = space.local_dof_map()
    n_loc = space.n_local
    nonzero = local != 0.0
    # 32-bit ids where they fit, as in the CSR result: int64 triplets cost
    # 40 MB more transient memory at h=1/256, where the assembly set the peak.
    ids = np.int32 if space.ndof < 2**31 else np.int64
    rows, cols, vals = [], [], []
    for start in range(0, gdofs.shape[0], _ELEMENT_CHUNK):
        G = gdofs[start : start + _ELEMENT_CHUNK].astype(ids)
        R = np.broadcast_to(G[:, :, None], (G.shape[0], n_loc, n_loc))
        C = np.broadcast_to(G[:, None, :], R.shape)
        mask = (R >= 0) & (C >= 0) & nonzero
        rows.append(R[mask])
        cols.append(C[mask])
        vals.append(np.broadcast_to(local, R.shape)[mask])
    M = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(space.ndof, space.ndof))
    M.eliminate_zeros()
    return M


def assemble(space: WgSpace) -> AssembledForms:
    """Assemble the stiffness form A and the mass form B of the pencil.

    B is the same scatter of the interior Gram block Gk, zero-padded to the
    local size: it lives on the interior unknowns only."""
    kit = space.kit()
    nd0 = space.dim_interior
    b_local = np.zeros((space.n_local, space.n_local))
    b_local[:nd0, :nd0] = kit.Gk
    return AssembledForms(space=space, A=_scatter_symmetric(space, kit.a_local),
                          B=_scatter_symmetric(space, b_local),
                          n_interior=space.n_interior_dofs)


# -- interpolation and field integrals ----------------------------------------


def _element_points(space: WgSpace, ox: np.ndarray, oy: np.ndarray):
    """Yield (slice, X, Y) over chunks of elements: the quadrature points of
    the sliced elements, X and Y of shape (chunk, npts), from the offsets
    (ox, oy) of an element rule such as kit.element_quad."""
    x0, y0 = space.mesh.element_origins()
    for start in range(0, x0.size, _ELEMENT_CHUNK):
        sl = slice(start, start + _ELEMENT_CHUNK)
        yield sl, x0[sl][:, None] + ox[None, :], y0[sl][:, None] + oy[None, :]


def _interior_moments(space: WgSpace, f, npts: int) -> np.ndarray:
    """Per-element moments (f, phi_beta)_T, shape (Ne, dim_interior)."""
    ox, oy, w, phi_ref = space.kit().element_quad(npts)
    out = np.empty((space.mesh.num_elements, space.dim_interior))
    for sl, X, Y in _element_points(space, ox, oy):
        out[sl] = (np.asarray(f(X, Y), dtype=float) * w[None, :]) @ phi_ref
    return out


def _edge_projections(space: WgSpace, values_fn, npts: int) -> np.ndarray:
    """Project a field onto the trace basis of every interior edge.

    values_fn(x, y, vertical_mask) returns the integrand values; vertical
    edges are parametrized by y, horizontal ones by x.  Returns coefficients
    of shape (num_interior_edges, dim_trace) in interior-edge order.
    """
    mesh = space.mesh
    kit = space.kit()
    off, w, psi_ref = kit.edge_quad(npts)
    ids = mesh.interior_edges
    mx, my = mesh.edge_midpoints()
    vertical = mesh.edge_orient[ids] == 0
    X = np.where(
        vertical[:, None], mx[ids][:, None], mx[ids][:, None] - 0.5 * space.mesh.h + off[None, :]
    )
    Y = np.where(
        vertical[:, None], my[ids][:, None] - 0.5 * space.mesh.h + off[None, :], my[ids][:, None]
    )
    vals = values_fn(X, Y, vertical)
    rhs = (np.asarray(vals, dtype=float) * w[None, :]) @ psi_ref
    return cho_solve(kit.Ge_cho, rhs.T).T


def _separable_projection(space: WgSpace, fx, fy, npts: int):
    """Interior moments and trace coefficients of f(x, y) = fx(x) * fy(y).

    On the tensor rule of _interior_moments, the moment against t^a s^b on
    element (i, j) is Mx[i, a] * My[j, b]; an edge moment is a factor's value
    on the edge line times a 1D moment.  N * npts evaluations, not (N * npts)^2.
    """
    n, h, kt = space.mesh.n, space.mesh.h, space.dim_trace
    off, w, _ = space.kit().edge_quad(npts)
    P = ((off / h - 0.5)[:, None] ** np.arange(space.degree + 1)) * w[:, None]
    nodes = np.arange(n + 1) * h
    cells = nodes[:n, None] + off[None, :]
    Mx = np.asarray(fx(cells), dtype=float) @ P
    My = np.asarray(fy(cells), dtype=float) @ P
    a, b = np.array(pk_exponents(space.degree)).T
    # Elements are ordered by (iy, ix); interior vertical edges by (j, i) at
    # x = i*h, then horizontal ones by (j, i) at y = j*h.
    moments = (My[:, None, b] * Mx[None, :, a]).reshape(-1, a.size)
    vertical = np.asarray(fx(nodes[1:n]), dtype=float)[None, :, None] * My[:, None, :kt]
    horizontal = np.asarray(fy(nodes[1:n]), dtype=float)[:, None, None] * Mx[None, :, :kt]
    rhs = np.concatenate([vertical.reshape(-1, kt), horizontal.reshape(-1, kt)])
    return moments, cho_solve(space.kit().Ge_cho, rhs.T).T


def qh_project(space: WgSpace, f, grad=None, npts: int = DEFAULT_FIELD_QUAD) -> WgFunction:
    """Componentwise projection of a smooth field into the WG space.

    f(x, y) must accept arrays; grad(x, y) -> (fx, fy) is required for the
    fourth-order space, whose edge normal component interpolates the normal
    derivative along the fixed edge normal.

    If f carries `factors = (fx, fy)` with f(x, y) = fx(x) * fy(y), its interior
    and trace moments come from 1D moments on the same Gauss rule, which agree
    with the 2D evaluation to rounding.
    """
    if space.kind == BIHARMONIC and grad is None:
        raise ValueError("the fourth-order projection needs the gradient of f")
    kit = space.kit()
    coeffs = np.zeros(space.ndof)

    factors = getattr(f, "factors", None)
    if factors is None:
        moments = _interior_moments(space, f, npts)
        trace = _edge_projections(space, lambda X, Y, vert: f(X, Y), npts)
    else:
        moments, trace = _separable_projection(space, *factors, npts)
    coeffs[: space.n_interior_dofs] = cho_solve(kit.Gk_cho, moments.T).T.ravel()

    k = space.dim_trace
    base = space.n_interior_dofs
    coeffs[base : base + trace.size] = trace.ravel()

    if space.kind == BIHARMONIC:
        def normal_derivative(X, Y, vertical):
            fx, fy = grad(X, Y)
            return np.where(vertical[:, None], fx, fy)

        normal = _edge_projections(space, normal_derivative, npts)
        off = base + space.mesh.num_interior_edges * k
        coeffs[off : off + normal.size] = normal.ravel()
    return WgFunction(space, coeffs)
