"""Sparse factorization helpers with residual certification.

Every system here is symmetric.  Each is permuted symmetrically, once, by
the geometric nested-dissection order of its space, then factored by SuperLU
in that order in symmetric mode.  SPD systems take no row pivoting, so the U
diagonal exposes the pivots and a nonpositive pivot flags an indefinite
matrix.  Indefinite shifted systems keep a small diagonal pivot threshold:
diagonal pivots are preferred, preserving the ordering's low fill, but a row
is still swapped in when a diagonal entry collapses.  The pivot ratio only
flags a factorization that collapsed outright: a shift placed exactly on an
eigenvalue leaves it above the floor (2.0e-13 for the level 5 Laplacian at
σ = λ₁,h), and such a collision shows only in the residual after refinement.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import FactorizationFailureError, NearSingularError

PIVOT_RATIO_FLOOR = 1e-14
MAX_REFINE = 40


class PermutedLU:
    """SuperLU factor of M[order][:, order] that solves with M itself; L, U,
    perm_r and perm_c are those of the permuted factor."""

    def __init__(self, lu, order: np.ndarray):
        self._lu, self.order = lu, order

    def __getattr__(self, name):
        return getattr(self._lu, name)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = np.empty(rhs.shape)
        x[self.order] = self._lu.solve(rhs[self.order])
        return x


def _symmetric_splu(M: sp.spmatrix, order: np.ndarray, diag_pivot_thresh: float, on_failure):
    """SuperLU of M in the given order; ``on_failure`` builds the error."""
    try:
        lu = splu(M.tocsc()[order][:, order], permc_spec="NATURAL",
                  diag_pivot_thresh=diag_pivot_thresh, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise on_failure(exc) from exc
    return PermutedLU(lu, order)


def factor_spd(A: sp.spmatrix, order: np.ndarray) -> PermutedLU:
    """Factor a symmetric positive definite matrix; raise if it is not SPD."""
    lu = _symmetric_splu(A, order, 0.0, lambda exc: FactorizationFailureError(
        f"sparse factorization failed: {exc}"))
    diag = lu.U.diagonal()
    if diag.size and (np.min(diag) <= 0.0 or not np.all(np.isfinite(diag))):
        raise FactorizationFailureError(
            "matrix is not positive definite (nonpositive pivot encountered)"
        )
    return lu


def factor_indefinite(M: sp.spmatrix, order: np.ndarray, shift: float = 0.0):
    """Threshold-pivoting LU of a symmetric, possibly indefinite, matrix.

    Returns (lu, pivot_ratio); raises NearSingularError only when the matrix
    is so singular the factorization itself fails.  Callers decide what a
    collapsed pivot ratio means for them.
    """
    scale = np.max(np.abs(M.data)) if M.nnz else 0.0
    # A threshold of 0.01 keeps a diagonal pivot unless it is below 1/100 of
    # the largest entry in its column.
    lu = _symmetric_splu(M, order, 0.01, lambda exc: NearSingularError(shift, pivot_ratio=0.0))
    diag = np.abs(lu.U.diagonal())
    pivot_ratio = float(np.min(diag) / scale) if diag.size and scale > 0 else 1.0
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
