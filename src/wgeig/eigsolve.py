"""Sparse symmetric generalized eigensolver for the pencil (A, B).

B is positive definite on the interior unknowns, where it is blockdiag(G)
for the one shared local Gram block G = L Lᵀ, and zero on the edge unknowns.
Eliminating the edges turns the pencil into the standard symmetric problem
C z = θ z on the interior unknowns, with C = Lᵀ (A⁻¹)_II L and λ = 1/θ, so
the largest θ give the smallest λ.  ARPACK (implicitly restarted Lanczos,
``scipy.sparse.linalg.eigsh``) finds them from a seeded random start vector,
which, unlike a symmetric one, is orthogonal to no eigenspace of the
symmetric mesh; the second copy of a double eigenvalue enters through
rounding and the restarts.  Each application of C is one solve with the
stiffness factor (see linalg) on the interior-only right-hand side L z, which
is zero on the edges, between two small GEMMs with the nb×nb blocks L and Lᵀ
into one work vector that every application reuses.  While ARPACK runs, the
quadtree, the stiffness factor with its solve workspace and that vector are
all the eigensolve keeps: A is first multiplied after eigsh returns, so the
space's dof map is built then.  The eigenvectors come back from the same
solve, one per pair, x = A⁻¹ (L z), and every pair is certified by its
residual; a failed gate asks ARPACK once more, for m + 1 pairs.  The
residuals, the b-form normalization and the Rayleigh quotients multiply by A
and B matrix-free (WgSpace.operator and WgSpace.mass), so no global matrix is
built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from . import linalg
from .errors import (
    FactorizationFailureError,
    NearSingularError,
    NoConvergenceError,
    ZeroMassError,
)
from .wg_core import WgSpace

_START_SEED = 20240901


@dataclass
class EigenPair:
    """One computed pencil eigenpair, b-form normalized."""

    value: float
    vector: np.ndarray
    residual: float


def _b_normalized(space: WgSpace, x: np.ndarray) -> np.ndarray:
    """x scaled to unit b-norm, its largest interior entry made positive."""
    x = x / np.sqrt(x @ (space.mass @ x))
    lead = int(np.argmax(np.abs(x[:space.n_interior_dofs])))
    return -x if x[lead] < 0.0 else x


def smallest_eigs(space: WgSpace, m: int, tol: float = 1e-10) -> list[EigenPair]:
    """The m smallest pencil eigenvalues with b-form-orthonormal vectors."""
    n_int = space.n_interior_dofs
    if m < 1:
        raise ValueError("at least one eigenpair must be requested")
    if m > n_int:
        raise ValueError(f"requested {m} eigenpairs but the mass rank is {n_int}")

    lu, L = linalg.factor_spd(space), np.linalg.cholesky(space.kit().Gk)
    nb, applied = L.shape[0], 0
    # The one work vector: L z, then Lᵀ y, and before ARPACK starts its
    # seeded start vector, which eigsh copies into its own residual.
    work = np.empty(n_int)

    def blockwise(T, z):
        """blockdiag(T, ..., T) z into work as one GEMM on the (elements, nb) view."""
        np.matmul(z.reshape(-1, nb), T.T, out=work.reshape(-1, nb))
        return work

    def apply_c(z):
        """C z = Lᵀ (A⁻¹)_II L z (L z is zero on the edges), counted; the result
        is overwritten by the next application."""
        nonlocal applied
        applied += 1
        return blockwise(L.T, lu.solve(blockwise(L, z))[:n_int])

    # A failed residual gate widens the request once: when m cuts a multiple
    # eigenvalue, ARPACK's Ritz vector in the cut cluster may not have converged.
    for k in (m, m + 1) if m < n_int - 1 else (m,):
        if k >= n_int - 1:
            # ARPACK needs k < n_int - 1; C is small enough to form here.
            C = np.column_stack([apply_c(e).copy() for e in np.eye(n_int)])
            theta, Z = np.linalg.eigh(C)
        else:
            op = LinearOperator((n_int, n_int), matvec=apply_c, dtype=float)
            v0 = np.random.default_rng(_START_SEED).standard_normal(out=work)
            try:
                theta, Z = eigsh(op, k=k, which="LA", tol=0, v0=v0)
            except ArpackNoConvergence:
                raise NoConvergenceError(applied, np.inf) from None
        order = np.argsort(theta)[::-1][:m]
        theta, Z = theta[order], Z[:, order]
        if np.any(theta <= 0.0):
            raise FactorizationFailureError(
                "nonpositive pencil eigenvalue encountered; stiffness form is not SPD")
        lam = 1.0 / theta  # theta descending, so lam is ascending
        A, B, pairs = space.operator(), space.mass, []
        for i in range(m):
            # One solve per pair keeps the work arrays at one vector of length n.
            x = _b_normalized(space, lu.solve(blockwise(L, Z[:, i])))
            ax = A @ x
            resid = float(np.linalg.norm(ax - lam[i] * (B @ x)) / np.linalg.norm(ax))
            pairs.append(EigenPair(value=float(lam[i]), vector=x, residual=resid))
        worst = max(p.residual for p in pairs)
        if worst <= tol:
            return pairs
    raise NoConvergenceError(applied, worst)


def solve_shifted(space: WgSpace, shift: float, rhs: np.ndarray,
                  tol: float = 1e-10) -> np.ndarray:
    """Solve (A - shift B) x = rhs with the nested-dissection factor (linalg).

    M = A - shift B is symmetric indefinite, and each level's cross block is
    factored by a dense LU with row pivoting; iterative refinement on M
    itself certifies the residual even when the shift sits very close to the
    fine spectrum (the intended amplification regime).  A shift that hit the
    spectrum is caught by that residual gate, not by the pivot ratio, which
    stays above its floor there (2.4e-12 for the level 5 Laplacian with the
    shift on λ₁,h); the floor catches a factorization that collapsed outright,
    as on an eigenvalue of a box's pencil, such as the local (a_II, Gk).
    Either way NearSingularError is raised instead of garbage.
    """
    lu, pivot_ratio = linalg.factor_indefinite(space, shift)
    x, rel = linalg.refined_solve(lu, space.operator(shift), np.asarray(rhs, dtype=float), tol)
    if pivot_ratio < linalg.PIVOT_RATIO_FLOOR or rel > tol:
        sol = x if np.all(np.isfinite(x)) else None
        raise NearSingularError(
            shift,
            pivot_ratio=pivot_ratio if pivot_ratio < linalg.PIVOT_RATIO_FLOOR else None,
            residual=rel, solution=sol,
        )
    return x


def rayleigh_quotient(space: WgSpace, x: np.ndarray) -> float:
    """a-form over b-form quotient; equals the eigenvalue on eigenvectors."""
    x = np.asarray(x, dtype=float)
    den = float(x @ (space.mass @ x))
    if den <= 1e-300:
        raise ZeroMassError("vector has no interior mass component")
    num = float(x @ (space.operator() @ x))
    return num / den
