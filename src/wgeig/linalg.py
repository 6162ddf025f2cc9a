"""Nested-dissection factorizations of the WG systems, with residual certification.

Every system here is M = A − σB on a WG space (σ = 0 for the stiffness form).
All elements share one local matrix, so level 0 eliminates every interior with
one block d(σ) = a_II − σ Gk (static condensation: Cockburn, Gopalakrishnan and
Lazarov, SIAM J. Numer. Anal. 2009), and all 2^l x 2^l boxes of George's nested
dissection (SIAM J. Numer. Anal. 1973; WgSpace.quadtree) share one matrix too:
four copies of the perimeter Schur complement below.  Each level factors its
cross block (the edge dofs on a box's midlines) by one dense LU; a cross never
touches the boundary, and a Dirichlet dof only drops a row and a column.  The
children's Schur complements merge into the box matrix by block additions over
precomputed runs, child by child.  The dofs are numbered level-major by the
quadtree (wg_core), so a solve permutes nothing: each level's crosses are one
reshaped slice, the dofs its boxes touch the tail slice after it, which takes
the pair sums of the perimeter updates by one bincount over the perimeters'
tail offsets, and the way down gathers the perimeters from that tail and
writes each slice in place.  It treats a level's boxes at once, by one GEMM
with a stored K_CC⁻ᵀ where the boxes are no fewer than the cross dofs (level
0 always), else by getrs.  Per level a factor keeps only what a solve reads:
the LU of the cross block K_CC with its pivots, X = K_CC⁻¹ K_CP and, where a
GEMM solves, K_CC⁻ᵀ; the cross block itself dies with its level.  A factor
also keeps the solution vector and the level buffers of its solves, so a
solve allocates only its result.  Pivoting stays inside each cross block;
an exactly singular one raises NearSingularError.  ν(M), the number of
negative eigenvalues of M, is the sum of boxes · ν(cross block) over the
levels (Haynsworth); a factor asked for it counts each block by a
Bunch–Kaufman dsytrf (Sylvester's law on D) while the block is live, and the
solves keep the bits of their dgetrf.  A nonsingular symmetric A is SPD iff
ν(A) = 0, which factor_spd checks; Bunch–Kaufman's 2 × 2 pivots all have a
negative determinant, so it takes none on an SPD block.  For σ > 0,
ν(A − σB) is the number of pencil eigenvalues below σ (spectrum slicing:
Ericsson and Ruhe, Math. Comp. 1980), which certifies the eigensolver's
pairs (eigsolve).

No global matrix is read: the factor is built from the space's local
matrices, and the refinement multiplies by M matrix-free (WgSpace.operator).
The pivot ratio, the least pivot over max|M|, takes max|M| exactly from one
element's rows.  It only flags a collapse outright: a shift exactly on an
eigenvalue leaves it above the floor (2.4e-12 for the level 5 Laplacian at
σ = λ₁,h); the residual after refinement shows it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs, dsytrf

from .errors import FactorizationFailureError, NearSingularError

PIVOT_RATIO_FLOOR = 1e-14
MAX_REFINE = 40
_Entries = namedtuple("_Entries", "nnz")


class NestedLU:
    """Factor of M = A − σB that solves with M itself.  Per level it keeps
    the LU of the cross block K_CC of the one box matrix K, with its pivots,
    and X = K_CC⁻¹ K_CP; ``L`` and ``U`` count the entries of the LUs and of
    X, each once.  An exactly singular cross block raises
    NearSingularError(shift, pivot_ratio=0.0).  With ``count_inertia``,
    ``inertia`` is ν(M), else None."""

    def __init__(self, space, shift: float, count_inertia: bool = False):
        self.levels = space.quadtree.levels
        self.ndof = space.ndof
        self.factors = []  # per level: the LU with its pivots, and X
        self.inverses = []  # per level: K_CC⁻ᵀ, or None where getrs solves
        self.inertia = 0 if count_inertia else None
        K = space.local(shift)
        for level in self.levels:
            n_c, size = level.n_cross, level.n_cross + level.perimeter.shape[1]
            if level.merge is None:
                K = K[:size, :size]
            else:
                K = np.zeros((size, size))
                for runs in level.merge:  # child by child, one block per pair of runs
                    for a, p, m in runs:
                        for b, q, n in runs:
                            K[p:p + m, q:q + n] += S[a:a + m, b:b + n]
            *lu, info = dgetrf(K[:n_c, :n_c])
            if info > 0:
                raise NearSingularError(shift, pivot_ratio=0.0)
            if count_inertia:
                self.inertia += int(level.boxes) * _negatives(K[:n_c, :n_c])
            X = dgetrs(*lu, K[:n_c, n_c:])[0]
            S = K[n_c:, n_c:] - K[n_c:, :n_c] @ X
            S = 0.5 * (S + S.T)
            self.factors.append((lu, X))
            # Inverting the large crosses too: +25 ms per factor at h=1/256, -0.3 ms
            # per solve, a first residual 5-70x larger near an eigenvalue (ROADMAP).
            gemm = level.merge is None or level.boxes >= n_c
            self.inverses.append(dgetrs(*lu, np.eye(n_c), trans=1)[0] if gemm else None)

    @property
    def L(self) -> _Entries:
        return _Entries(sum((factor.size - len(factor)) // 2
                            for (factor, _), _ in self.factors))

    @property
    def U(self) -> _Entries:
        return _Entries(sum((factor.size + len(factor)) // 2 + X.size
                            for (factor, _), X in self.factors))

    @cached_property
    def _workspace(self):
        """What every solve reuses: the solution, whose last entry is every
        Dirichlet dof, one buffer for a level's perimeter gather and for
        R @ X, and one for a level's GEMM output.  Fresh temporaries of this
        size on every solve each fault in new pages."""
        return (np.empty(self.ndof + 1),
                np.empty(max(level.perimeter.size for level in self.levels)),
                np.empty(max(level.stop - level.start for level in self.levels)))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x = M⁻¹ rhs for one vector rhs; one of length n_int is zero on the edges."""
        rhs = np.ascontiguousarray(rhs, dtype=float)
        n_int, ndof = self.levels[0].stop, self.ndof
        if len(rhs) not in (n_int, ndof):
            raise ValueError(f"right-hand side of length {len(rhs)}, not {n_int} or {ndof}")
        x, gathered, product = self._workspace
        x[:len(rhs)] = rhs
        x[len(rhs):] = 0.0
        for level, (lu, X), inv in zip(self.levels, self.factors, self.inverses):
            R = x[level.start:level.stop].reshape(level.boxes, level.n_cross)
            x[level.stop:ndof] -= _pair_sums(level, np.matmul(R, X, out=_view(gathered, level)),
                                             ndof)
            if inv is not None:
                R[...] = np.matmul(R, inv, out=product[:R.size].reshape(R.shape))
            else:
                R[...] = dgetrs(*lu, R.T)[0].T
        for level, (_, X) in zip(self.levels[::-1], self.factors[::-1]):
            R = x[level.start:level.stop].reshape(level.boxes, level.n_cross)
            P = np.take(x[level.stop:], level.perimeter, out=_view(gathered, level), mode="clip")
            R -= np.matmul(P, X.T, out=product[:R.size].reshape(R.shape))
        return x[:ndof].copy()


def _negatives(block: np.ndarray) -> int:
    """ν(block), from the D of its Bunch–Kaufman factor: a 1 × 1 block of D
    by its sign, and a 2 × 2 block, whose determinant Bunch–Kaufman keeps
    negative, as one.  lwork = 64 n runs the blocked code (dsytrf_lwork's
    optimum); the unblocked one took 40 times as long on a 510 × 510 block."""
    ldl, ipiv, _ = dsytrf(block, lower=1, lwork=64 * len(block))
    one = ipiv > 0
    return int(np.count_nonzero(np.diagonal(ldl)[one] < 0.0) + np.count_nonzero(~one) // 2)


def _view(buffer: np.ndarray, level) -> np.ndarray:
    """The head of buffer as one (boxes, perimeter) array of the level."""
    return buffer[:level.perimeter.size].reshape(level.perimeter.shape)


def _pair_sums(level, U: np.ndarray, ndof: int) -> np.ndarray:
    """Per tail position, the sum (0 + first) + second of the two entries of U
    whose perimeter offsets name it; the Dirichlet sink's bin is dropped."""
    return np.bincount(level.perimeter.ravel(), U.ravel(), minlength=ndof + 1 - level.stop)[:-1]


def factor_spd(space) -> NestedLU:
    """Factor the stiffness matrix A of ``space``; raise if ν(A) ≠ 0, that
    is if A is not SPD."""
    lu = NestedLU(space, 0.0, count_inertia=True)
    if lu.inertia:
        raise FactorizationFailureError(
            "matrix is not positive definite (nonpositive pivot encountered)")
    return lu


def factor_indefinite(space, shift: float):
    """Factor of the symmetric, maybe indefinite M = A − shift·B, pivoting
    only inside each level's cross block.

    Returns (lu, pivot_ratio), the least pivot over max|M|, which
    space.max_abs gives exactly without assembling M; raises
    NearSingularError only when a cross block is exactly singular.  Callers
    decide what a collapsed pivot ratio means for them.
    """
    scale = space.max_abs(shift)
    lu = NestedLU(space, shift)
    pivot = min(np.min(np.abs(np.diag(factor))) for (factor, _), _ in lu.factors)
    pivot_ratio = float(pivot / scale) if scale > 0 else 1.0
    return lu, pivot_ratio


def refined_solve(lu, M, rhs: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
    """Solve M x = rhs with iterative refinement on a fixed factorization;
    M is anything that multiplies by ``@``, such as WgSpace.operator.

    Returns (x, relative residual).  Refinement makes the 2-norm residual
    criterion reachable even for strongly amplifying (near singular) shifts,
    as long as the matrix is not numerically singular.
    """
    rhs = np.asarray(rhs, dtype=float)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0.0
    x = lu.solve(rhs)
    best_x, best_r = x, rhs - M @ x  # the residual of the last accepted iterate
    best_res = float(np.linalg.norm(best_r)) / rhs_norm
    for _ in range(MAX_REFINE):
        if best_res <= 0.5 * tol:
            break
        x = best_x + lu.solve(best_r)
        r = rhs - M @ x
        res = float(np.linalg.norm(r)) / rhs_norm
        if not np.isfinite(res) or res >= best_res:
            break
        best_x, best_r, best_res = x, r, res
    return best_x, best_res
