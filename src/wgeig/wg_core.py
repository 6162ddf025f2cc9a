"""Weak Galerkin spaces, their weak differential operators and forms.

A weak function carries an interior polynomial of degree k per element, a
trace polynomial of degree k-1 per interior edge, and (for the fourth-order
problem) an edge normal-derivative polynomial of degree k-1.  Boundary edge
unknowns are eliminated, never penalized, so the stiffness form stays
symmetric positive definite and the mass form positive semidefinite.

On a uniform square mesh with centered, h-scaled bases, every element shares
one set of local matrices, and assembly reduces to a deterministic vectorized
scatter of that single pattern.  The same holds for every box of the uniform
quadtree that the factorizations (linalg) eliminate level by level, and one
set of runs per level merges four boxes into their parent (WgSpace.quadtree).
The quadtree's level-major order numbers the dofs: the interiors in element
order, then level 1's crosses box by box, and so on up to the top cross.
Every level then holds its crosses as one contiguous range of dofs, the dofs
its boxes touch as the tail after it, and its perimeters as 32-bit offsets
into that tail; the dof map is level 0, each element's interior and then its
perimeter.  Only qh_project builds coefficients in the edge-major layout (the
interiors, then edge dofs by component, interior edge and basis function),
and it permutes them by ``order``, which maps each dof to its layout id.

A space holds the stiffness form A and the mass form B of its pencil, applied
and never assembled on the solve path (WgSpace.operator, WgSpace.mass).
A x is one gather of x through the space's dof map, whose Dirichlet
entries name a sink slot ndof, one GEMM with the local stiffness matrix and
one bincount scatter; B x is one GEMM with the interior Gram block Gk on the
element-major interiors, and zero on the edges.  Both agree with the
assembled products to rounding, not bit for bit: a CSR row sums each entry's
two element terms first.  The largest |entry| of A - sigma B comes exactly
from the rows of one element whose four edges are interior.

One scatter builds the CSR matrices A and B, on demand only (--dump-matrices
and the tests): A from the local stiffness matrix, B from Gk zero-padded to
the local size.  It gathers the global ids of the local pairs with a nonzero
entry, in row-major local order, into a matrix of order ndof + 1 and drops
the last row and column, the Dirichlet sink of the products.  Each global
entry sums at most two element terms, and two floating-point terms sum to the
same bits in either order, so the result does not depend on the order of the
elements; the local matrices are exactly symmetric, so A and B are too.  Zero
local entries are not emitted and entries whose terms cancel to 0.0 are
dropped, so A and B store no zeros.

The interior Gram block Gk, which is the local mass matrix, is built from the
exact moments of the centered monomials rather than by quadrature: moments of
odd degree in x or y vanish exactly, so Gk stores no rounding noise as
structure and the pattern of B lies inside the pattern of A.  Every shifted
system A - sigma B has exactly the pattern of A.  Every other local matrix,
and every field integral, uses the element rule and the edge rule of the kit.

qh_project evaluates a field at the tensor Gauss points of every element,
unless it names factors fx, fy with f = fx(x) * fy(y), as the exact Laplacian
eigenfunctions do: the same rule then runs through 1D moments per grid line.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import LinearOperator

from .errors import DegreeTooLowError
from .mesh import EDGE_SIGNS, MeshLevel
from .polyspace import DEFAULT_FIELD_QUAD, ElementBasis, dim_pk, gauss_rule, pk_exponents

LAPLACIAN = "laplacian"
BIHARMONIC = "biharmonic"
KINDS = (LAPLACIAN, BIHARMONIC)

# Outward normals of the (left, right, bottom, top) edges of any element.
EDGE_NORMALS = ((-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0))
# Derivative orders (dx, dy) of d/dx and d/dy.
_DERIVATIVE = ((1, 0), (0, 1))

_ELEMENT_CHUNK = 1 << 15


@dataclass
class WgSpace:
    """A weak Galerkin space on a uniform mesh.

    Local degree-of-freedom order on each element: the interior block of
    dimension (k+1)(k+2)/2, then trace blocks of dimension k per edge in
    (left, right, bottom, top) order, then normal-derivative blocks in the
    same order for the fourth-order problem.  Globally, the dofs follow the
    level-major order of the quadtree: the interior blocks first
    (element-major), then the crosses of level 1's 2 x 2 boxes, box by box,
    and so on up to the two midlines of the square.  A cross runs over its
    vertical midline, then its horizontal one, by component, then edge, then
    basis function.

    The space also holds the two forms of the pencil, applied matrix-free
    (``operator``, ``mass``; see the module docstring).  ``A`` and ``B`` are
    the CSR matrices, scattered on first access and kept.
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
        """(Ne, n_local) global indices in local order, built once: level 0 of
        the quadtree, each element's interior and then its perimeter.  The
        sink ``ndof`` marks boundary blocks, so a gather from a vector padded
        by one zero reads them as 0, and a bincount scatter drops them in one
        extra bin."""
        if self._dof_map is None:
            first = self.quadtree.levels[0]
            self._dof_map = np.hstack([np.arange(first.stop).reshape(-1, first.n_cross),
                                       first.perimeter.astype(np.intp) + first.stop])
        return self._dof_map

    @cached_property
    def quadtree(self) -> "Quadtree":
        """The box levels of the nested-dissection factor (linalg) and their
        level-major order, built once per space."""
        return _box_levels(self)

    def kit(self) -> "_LocalKit":
        if self._kit is None:
            self._kit = _LocalKit(self)
        return self._kit

    def local(self, shift: float = 0.0) -> np.ndarray:
        """The shared local matrix of A - shift B."""
        kit, nb = self.kit(), self.dim_interior
        K = kit.a_local.copy()
        K[:nb, :nb] -= shift * kit.Gk
        return K

    def operator(self, shift: float = 0.0) -> LinearOperator:
        """A - shift B: a gather by the dof map, one GEMM with the local
        matrix and a bincount scatter, dropping the Dirichlet sink."""
        gather, K, n = self.local_dof_map(), self.local(shift), self.ndof

        def matvec(x):
            Y = np.append(x, 0.0)[gather] @ K  # K is symmetric
            return np.bincount(gather.ravel(), Y.ravel(), minlength=n + 1)[:-1]

        return LinearOperator((n, n), matvec=matvec, rmatvec=matvec, dtype=float)

    @cached_property
    def mass(self) -> LinearOperator:
        """B: one GEMM with Gk on the element-major interiors, zero on the edges."""
        Gk, n, ni = self.kit().Gk, self.ndof, self.n_interior_dofs

        def matvec(x):
            y = np.zeros(n)
            y[:ni] = (np.ravel(x)[:ni].reshape(-1, len(Gk)) @ Gk).ravel()  # Gk is symmetric
            return y

        return LinearOperator((n, n), matvec=matvec, rmatvec=matvec, dtype=float)

    def max_abs(self, shift: float = 0.0) -> float:
        """max |A - shift B| over the stored entries, exactly, without A or B.

        Each entry is one element's term of the shared local matrix, or on an
        edge's own block the sum of two, so the rows of element (1, 1), whose
        four edges are interior, hold every value.  A dense scatter over the
        lower-left 3 x 3 block of elements sums those rows as the CSR does.
        A mesh of one or two elements a side has no such element: there the
        block is the whole mesh, and all its rows count."""
        n, corner = self.mesh.n, np.arange(min(self.mesh.n, 3))
        near = (corner[:, None] * n + corner).ravel()  # elements are ordered by (iy, ix)
        ids, slots = np.unique(self.local_dof_map()[near], return_inverse=True)
        slots, K = slots.reshape(len(near), -1), self.local(shift)
        M = np.zeros((len(ids), len(ids)))
        for row in slots:  # the sink takes every Dirichlet term and is dropped
            M[np.ix_(row, row)] += K
        free = ids < self.ndof
        rows = slots[np.searchsorted(near, n + 1)] if n >= 3 else free
        return float(np.abs(M[rows][:, free]).max())

    @cached_property
    def A(self) -> sp.csr_matrix:
        return _scatter_symmetric(self, self.kit().a_local)

    @cached_property
    def B(self) -> sp.csr_matrix:
        b_local = np.zeros((self.n_local, self.n_local))
        b_local[:self.dim_interior, :self.dim_interior] = self.kit().Gk
        return _scatter_symmetric(self, b_local)


@dataclass(frozen=True)
class BoxLevel:
    """The 2^l x 2^l boxes of quadtree level l, in the level-major dof
    numbering (Quadtree): level 0's crosses, then level 1's box by box, and
    so on up to the top cross.

    A box's cross is what level l eliminates: the element interior at level
    0, above it the edge dofs on the box's two midlines.  The level's crosses
    are the dofs start .. stop - 1, ``n_cross`` per box.  A box's perimeter
    holds the edge dofs on its sides as offsets into the tail stop .. ndof of
    the dofs, with the sink offset ``ndof - stop`` for a Dirichlet dof; a top
    box above level 0 has none.  Each perimeter dof off the boundary belongs
    to two boxes, and these are exactly the tail offsets 0 .. ndof - stop - 1,
    the dofs of the higher levels.  Box-local positions run over the cross,
    then the perimeter, and ``merge[q]`` places the perimeter of child q
    (level l - 1) among them as runs (source, target, length), one set for
    every box.
    """

    start: int
    boxes: int
    n_cross: int
    perimeter: np.ndarray
    merge: tuple | None

    @property
    def stop(self) -> int:
        return self.start + self.boxes * self.n_cross


class Quadtree(NamedTuple):
    """The box levels of the nested-dissection factor and ``order``, which
    maps each dof to its id in the edge-major layout of qh_project."""

    levels: list[BoxLevel]
    order: np.ndarray


def _edge_dofs(space: WgSpace, edges: np.ndarray, interior_index: np.ndarray) -> np.ndarray:
    """Layout ids of each row of edges' dofs (Quadtree), ``ndof`` on the
    boundary, from the mesh's interior_index."""
    k = space.dim_trace
    comp = np.arange(space.num_edge_components)[:, None, None]
    ii = interior_index[edges[:, None, :, None]]
    ids = np.where(ii >= 0, space.n_interior_dofs
                   + (comp * space.mesh.num_interior_edges + ii) * k + np.arange(k), space.ndof)
    return ids.reshape(len(edges), -1)


def _blind_ids(space: WgSpace, edges: np.ndarray) -> np.ndarray:
    """The ids of _edge_dofs as if no edge were on the boundary: distinct
    for every dof, so a lookup table can place them."""
    comp = np.arange(space.num_edge_components)[:, None, None]
    k = space.dim_trace
    blind = (comp * space.mesh.num_edges + edges[:, None, :, None]) * k + np.arange(k)
    return blind.reshape(len(edges), -1)


def _runs(child: np.ndarray, size: int) -> tuple:
    """The maximal runs (source, target, length) of a child's merge map,
    child[source + i] = target + i, over the targets below ``size``."""
    source = np.flatnonzero(child < size)
    target = child[source]
    breaks = (np.diff(source, prepend=-2) != 1) | (np.diff(target, prepend=-2) != 1)
    starts = np.flatnonzero(breaks)
    lengths = np.diff(starts, append=len(source))
    return tuple(zip(source[starts].tolist(), target[starts].tolist(), lengths.tolist()))


def _box_levels(space: WgSpace) -> Quadtree:
    """George's nested dissection of the uniform mesh (SIAM J. Numer. Anal.
    1973).  Perimeter edges run left, right, bottom, top, each side by
    increasing coordinate (at level 0 the local order of WgSpace); a cross
    runs along its vertical midline, then its horizontal one."""
    n, ndof = space.mesh.n, space.ndof
    interior_index = space.mesh.interior_index  # rebuilt on every read, so read once

    def edge(horizontal, i, j):
        return horizontal * n * (n + 1) + j * (n + 1 - horizontal) + i

    crosses, perimeters, merges, below = [], [], [], None
    for level in range(space.mesh.level + 1):
        m = 1 << level
        y0, x0 = np.divmod(np.arange((n // m) ** 2), n // m)
        y0, x0, t = m * y0[:, None], m * x0[:, None], np.arange(m)
        sides = np.hstack([edge(0, x0, y0 + t), edge(0, x0 + m, y0 + t),
                           edge(1, x0 + t, y0), edge(1, x0 + t, y0 + m)])
        perimeter = _edge_dofs(space, sides[:, :0] if 0 < level == space.mesh.level else sides,
                               interior_index)
        if level == 0:
            cross, merge = np.arange(space.n_interior_dofs).reshape(len(sides), -1), None
        else:
            # Box 0's cross and sides, and its four children's sides, by blind id.
            middle = np.hstack([edge(0, x0 + m // 2, y0 + t), edge(1, x0 + t, y0 + m // 2)])
            cross = _edge_dofs(space, middle, interior_index)
            own = np.concatenate([_blind_ids(space, middle[:1])[0],
                                  _blind_ids(space, sides[:1])[0]])
            children = _blind_ids(space, below[[0, 1, n // m * 2, n // m * 2 + 1]])
            local = np.empty(own.max() + 1, dtype=np.intp)  # box 0's position by id
            local[own] = np.arange(own.size)
            size = cross.shape[1] + perimeter.shape[1]
            merge = tuple(_runs(child, size) for child in local[children])
        below = sides
        crosses.append(cross)
        perimeters.append(perimeter)
        merges.append(merge)
    # 32-bit dofs and layout ids where they fit, as in _scatter_symmetric;
    # position maps each layout id to its dof.
    ids = np.int32 if ndof < 2**31 else np.int64
    order = np.concatenate([cross.ravel() for cross in crosses]).astype(ids)
    position = np.empty(ndof + 1, dtype=ids)
    position[order] = np.arange(ndof, dtype=ids)
    position[ndof] = ndof
    levels, start = [], 0
    for cross, perimeter, merge in zip(crosses, perimeters, merges):
        stop = start + cross.size
        levels.append(BoxLevel(start, *cross.shape, position[perimeter] - stop, merge))
        start = stop
    return Quadtree(levels, order)


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


def _centred_moment(p: np.ndarray) -> np.ndarray:
    """Integral of t**p over [-1/2, 1/2]: (1/2)**p / (p+1), zero for odd p."""
    return np.where(p % 2 == 0, 0.5 ** p / (p + 1.0), 0.0)


class _LocalKit:
    """Shared per-element matrices for a space (uniform mesh, one pattern).

    Every matrix integrates over the element [0, h]^2 with one element rule,
    element_quad(k + 2), and one edge rule, edge_quad(k + 2), placed on the
    left (x = 0), right (x = h), bottom (y = 0) and top (y = h) sides, each
    run by increasing coordinate.  Both rules are exact for the local forms.
    """

    def __init__(self, space: WgSpace):
        k, h = space.degree, space.mesh.h
        self.space, self.h = space, h
        nd0 = space.dim_interior
        self.phi = ElementBasis(k, (0.5 * h, 0.5 * h), h)
        a, b = np.array(pk_exponents(k)).T
        self.Gk = h * h * (_centred_moment(a[:, None] + a[None, :])
                           * _centred_moment(b[:, None] + b[None, :]))
        self.Gk_cho = cho_factor(self.Gk)

        ex, ey, ew, phi_vals = self.element_quad(k + 2)
        off, w, psi = self.edge_quad(k + 2)
        zero, full = np.zeros_like(off), np.full_like(off, h)
        sides = ((zero, off), (full, off), (off, zero), (off, full))

        def edge_moments(vals):
            return psi.T @ (vals * w[:, None])

        Ge = edge_moments(psi)
        self.Ge = 0.5 * (Ge + Ge.T)
        self.Ge_cho = cho_factor(self.Ge)
        # Edge moments of the interior basis on each side, and for the fourth
        # order of its derivative along the fixed edge normal (d/dx on the
        # vertical sides, d/dy on the horizontal ones); each set weights one
        # unit stabilizer.
        self.Me = [edge_moments(self.phi.eval(x, y)) for x, y in sides]
        self.stab_trace_unit = self._unit_penalty(self.Me, 0)
        if space.kind == BIHARMONIC:
            self.Mn = [edge_moments(self.phi.eval(x, y, *_DERIVATIVE[p // 2]))
                       for p, (x, y) in enumerate(sides)]
            self.stab_normal_unit = self._unit_penalty(self.Mn, 4)

        # The weak gradient (second order) or weak Laplacian (fourth order) in
        # the element basis chi of P_{k-1} or P_{k-2}: one row block R per
        # component from integration by parts, and W = G_chi^{-1} R.
        grad = space.kind == LAPLACIAN
        chi = ElementBasis(k - 1 if grad else k - 2, self.phi.center, h)
        chi_vals = chi.eval(ex, ey)
        G = chi_vals.T @ (chi_vals * ew[:, None])
        G_cho = cho_factor(0.5 * (G + G.T))
        Te = [edge_moments(chi.eval(x, y)).T for x, y in sides]
        if grad:
            rows = [np.zeros((chi.dim, space.n_local)) for _ in _DERIVATIVE]
            for axis, R in enumerate(rows):
                R[:, :nd0] = -(chi.eval(ex, ey, *_DERIVATIVE[axis]).T @ (phi_vals * ew[:, None]))
                for p in range(4):
                    R[:, self._block(p)] = EDGE_NORMALS[p][axis] * Te[p]
        else:
            R = np.zeros((chi.dim, space.n_local))
            lap_chi = chi.eval(ex, ey, dx=2) + chi.eval(ex, ey, dy=2)
            R[:, :nd0] = lap_chi.T @ (phi_vals * ew[:, None])
            for p, (x, y) in enumerate(sides):
                nx, ny = EDGE_NORMALS[p]
                dn_chi = nx * chi.eval(x, y, dx=1) + ny * chi.eval(x, y, dy=1)
                R[:, self._block(p)] = -edge_moments(dn_chi).T
                R[:, self._block(4 + p)] = EDGE_SIGNS[p] * Te[p]
            rows = [R]
        weak = [cho_solve(G_cho, R) for R in rows]
        stiff = rows[0].T @ weak[0]
        if grad:
            self.Wx, self.Wy = weak
            stiff = stiff + rows[1].T @ weak[1]
        else:
            (self.W,) = weak
        self.stiff_local = 0.5 * (stiff + stiff.T)

        self.a_local = self.stiff_local + self.stabilizer_local(space.epsilon)

    def _block(self, j: int) -> slice:
        """Local columns of edge block j: traces 0..3, then normal blocks 4..7."""
        nd0, kt = self.space.dim_interior, self.space.dim_trace
        return slice(nd0 + j * kt, nd0 + (j + 1) * kt)

    # -- stabilizer ---------------------------------------------------------

    def _unit_penalty(self, moments: list[np.ndarray], first: int) -> np.ndarray:
        """Sum over the sides p of <P v0 - w, P u0 - w> on the (v0, w) blocks,
        where P = Ge^{-1} M_p and w is edge block first + p."""
        nd0, n_loc = self.space.dim_interior, self.space.n_local
        total = np.zeros((n_loc, n_loc))
        for p, M in enumerate(moments):
            S, blk = np.zeros((n_loc, n_loc)), self._block(first + p)
            S[:nd0, :nd0] = M.T @ cho_solve(self.Ge_cho, M)
            S[:nd0, blk] = -M.T
            S[blk, :nd0] = -M
            S[blk, blk] = self.Ge
            total += S
        return total

    def stabilizer_local(self, epsilon: float) -> np.ndarray:
        """Local stabilizer with weights h^(-1+epsilon) (and h^(-3+epsilon))."""
        h = self.h
        if self.space.kind == LAPLACIAN:
            S = h ** (-1.0 + epsilon) * self.stab_trace_unit
        else:
            S = (h ** (-3.0 + epsilon) * self.stab_trace_unit
                 + h ** (-1.0 + epsilon) * self.stab_normal_unit)
        return 0.5 * (S + S.T)

    # -- the element and edge rules, also used by every field integral ------

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
    of local dofs with a nonzero local entry, duplicates summed by the CSR
    conversion, the sink row and column and cancelled entries dropped (see
    the module docstring)."""
    ndof = space.ndof
    I, J = np.nonzero(local)  # the local pairs, row by row
    # 32-bit ids where they fit, as in the CSR result.
    G = space.local_dof_map().astype(np.int32 if ndof < 2**31 else np.int64)
    vals = np.broadcast_to(local[I, J], (len(G), len(I))).ravel()
    M = sp.csr_matrix((vals, (G[:, I].ravel(), G[:, J].ravel())), shape=(ndof + 1, ndof + 1))
    M = M[:-1, :-1]
    M.eliminate_zeros()
    return M


def assemble(space: WgSpace) -> WgSpace:
    """Build what the products of the forms read, the local kit and the dof
    map (with the quadtree, whose level 0 it is), and return the space; no
    global matrix is built."""
    space.kit()
    space.local_dof_map()
    return space


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
    coeffs = np.zeros(space.ndof)  # in the edge-major layout of Quadtree.order

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
    return WgFunction(space, coeffs[space.quadtree.order])
