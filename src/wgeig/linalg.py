"""Sparse factorizations by static condensation, with residual certification.

Every system here is M = A − σB on a WG space (σ = 0 for the stiffness form).
An interior unknown couples only within its element and every element shares
one local matrix, so each has the interior block d(σ) = a_II − σ Gk, and the
Schur complement on the edge skeleton is the scatter S(σ) of one small
s(σ) = a_EE − a_EI d(σ)⁻¹ a_IE (Cockburn, Gopalakrishnan and Lazarov, SIAM J.
Numer. Anal. 2009).  d(σ) gets one dense LU, and SuperLU factors S(σ) in
symmetric mode in the edge dofs' own nested-dissection order.  SPD systems
take no row pivoting, so U's diagonal holds S's pivots; A is SPD iff d(0) and
S(0) are (Haynsworth).  Shifted systems keep a small diagonal pivot
threshold, which swaps a row only where a diagonal entry collapses.  The pivot
ratio, the least local or skeleton pivot over max|M|, only flags a collapse
outright: a shift exactly on an eigenvalue leaves it above the floor (1.4e-11
for the level 5 Laplacian at σ = λ₁,h); the residual after refinement shows it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lu_solve
from scipy.linalg.lapack import dgetrf
from scipy.sparse.linalg import splu

from .errors import FactorizationFailureError, NearSingularError

PIVOT_RATIO_FLOOR = 1e-14
MAX_REFINE = 40


class CondensedLU:
    """Factor of M = A − σB that solves with M itself: the LU of the shared
    interior block d(σ), d(σ)⁻¹ a_IE, and the SuperLU factor of the skeleton
    S(σ), whose L, U, perm_r and perm_c this object exposes."""

    def __init__(self, forms, shift: float, diag_pivot_thresh: float, on_failure):
        kit, nb = forms.space.kit(), forms.space.dim_interior
        self.skeleton = forms.space.skeleton
        self.interior = kit.a_local[:nb, :nb] - shift * kit.b_local
        *self.local, info = dgetrf(self.interior)
        if info > 0:
            raise on_failure("the interior block is exactly singular")
        self.a_ei = kit.a_local[nb:, :nb]
        self.coupling = lu_solve(self.local, kit.a_local[:nb, nb:])
        s = kit.a_local[nb:, nb:] - self.a_ei @ self.coupling
        try:
            self._lu = splu(self.skeleton.assemble(0.5 * (s + s.T)), "NATURAL",
                            diag_pivot_thresh=diag_pivot_thresh, options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise on_failure(exc) from exc

    def __getattr__(self, name):
        return getattr(self._lu, name)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        sk, nb = self.skeleton, self.coupling.shape[0]
        n_int = nb * sk.edge_map.shape[1]
        F = np.asarray(rhs, dtype=float).reshape(len(rhs), -1)
        c = F.shape[1]
        # Local columns side by side, (nb, elements x c): one BLAS/LAPACK call each.
        fi = F[:n_int].reshape(-1, nb, c).transpose(1, 0, 2).reshape(nb, -1)
        y = lu_solve(self.local, fi, check_finite=False)
        g = F[n_int:][sk.edge_order] - sk.scatter @ (self.a_ei @ y).reshape(-1, c)
        xe = np.vstack([self._lu.solve(g), np.zeros((1, c))])
        x = np.empty_like(F)
        x[n_int:][sk.edge_order] = xe[:-1]
        xi = y - self.coupling @ xe[sk.edge_map].reshape(len(sk.edge_map), -1)
        x[:n_int] = xi.reshape(nb, -1, c).transpose(1, 0, 2).reshape(n_int, c)
        return x.reshape(np.shape(rhs))


def factor_spd(forms) -> CondensedLU:
    """Factor the stiffness matrix A of ``forms``; raise if it is not SPD."""
    lu = CondensedLU(forms, 0.0, 0.0, lambda exc: FactorizationFailureError(
        f"sparse factorization failed: {exc}"))
    signs = np.concatenate([np.linalg.eigvalsh(lu.interior), lu.U.diagonal()])
    if np.min(signs) <= 0.0 or not np.all(np.isfinite(signs)):
        raise FactorizationFailureError(
            "matrix is not positive definite (nonpositive pivot encountered)")
    return lu


def factor_indefinite(forms, shift: float, M: sp.spmatrix):
    """Threshold-pivoting factor of the symmetric, maybe indefinite M = A − shift·B.

    Returns (lu, pivot_ratio); raises NearSingularError only when the matrix
    is so singular the factorization itself fails.  Callers decide what a
    collapsed pivot ratio means for them.
    """
    scale = np.max(np.abs(M.data)) if M.nnz else 0.0
    # A threshold of 0.01 keeps a diagonal pivot unless it is below 1/100 of
    # the largest entry in its column.
    lu = CondensedLU(forms, shift, 0.01, lambda exc: NearSingularError(shift, pivot_ratio=0.0))
    pivots = np.abs(np.concatenate([np.diag(lu.local[0]), lu.U.diagonal()]))
    pivot_ratio = float(np.min(pivots) / scale) if scale > 0 else 1.0
    return lu, pivot_ratio


def refined_solve(lu, M: sp.spmatrix, rhs: np.ndarray,
                  tol: float) -> tuple[np.ndarray, float]:
    """Solve M x = rhs with iterative refinement on a fixed factorization.

    Returns (x, relative residual).  Refinement makes the 2-norm residual
    criterion reachable even for strongly amplifying (near singular) shifts,
    as long as the matrix is not numerically singular.
    """
    rhs = np.asarray(rhs, dtype=float)
    rhs_norm = float(np.linalg.norm(rhs))
    x = lu.solve(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0.0
    M = M.tocsr()
    best_x = x
    best_res = float(np.linalg.norm(rhs - M @ x)) / rhs_norm
    for _ in range(MAX_REFINE):
        if best_res <= 0.5 * tol:
            break
        r = rhs - M @ best_x
        x = best_x + lu.solve(r)
        res = float(np.linalg.norm(rhs - M @ x)) / rhs_norm
        if not np.isfinite(res) or res >= best_res:
            break
        best_x, best_res = x, res
    return best_x, best_res
