"""Sparse symmetric generalized eigensolver for the pencil (A, B).

B is only positive semidefinite (edge unknowns carry no mass), so the solver
iterates with the operator A^{-1}B in the B-semi-inner-product: every basis
vector is kept inside the operator range, where the seminorm is definite, the
largest Ritz values are the reciprocals of the smallest pencil eigenvalues,
and no dense condensation is ever formed.  The Krylov sequence starts from
the purified all-ones interior seed and is fully reorthogonalized; Ritz pairs
come from the dense projection onto the whole accumulated basis, which stays
exact across restarts.  Because that seed is symmetric on a symmetric mesh,
entire eigenspaces can be invisible to it, so convergence is only accepted
after deterministic seeded injections stop changing the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    FactorizationFailureError,
    NearSingularError,
    NoConvergenceError,
    ZeroMassError,
)
from .wg_core import AssembledForms

_INJECT_SEED = 20240901


@dataclass
class EigenPair:
    """One computed pencil eigenpair, b-form normalized."""

    value: float
    vector: np.ndarray
    residual: float


@dataclass
class EigenCluster:
    """Ascending eigenpairs with grouping of numerically multiple values."""

    pairs: list[EigenPair]
    cluster_tol: float = 1e-6

    @property
    def values(self) -> np.ndarray:
        return np.array([p.value for p in self.pairs])

    def groups(self) -> list[list[int]]:
        """Indices grouped by relative gap below the cluster tolerance."""
        groups: list[list[int]] = []
        for i, pair in enumerate(self.pairs):
            if groups and abs(pair.value - self.pairs[groups[-1][-1]].value) <= (
                self.cluster_tol * max(1.0, abs(pair.value))
            ):
                groups[-1].append(i)
            else:
                groups.append([i])
        return groups


def _fix_sign(x: np.ndarray, n_interior: int) -> np.ndarray:
    lead = int(np.argmax(np.abs(x[:n_interior])))
    return -x if x[lead] < 0.0 else x


def smallest_eigs(forms: AssembledForms, m: int, tol: float = 1e-10,
                  maxiter: int | None = None) -> list[EigenPair]:
    """The m smallest pencil eigenvalues with b-form-orthonormal vectors."""
    A, B = forms.A, forms.B
    n = A.shape[0]
    n_int = forms.n_interior
    if m < 1:
        raise ValueError("at least one eigenpair must be requested")
    if m > n_int:
        raise ValueError(f"requested {m} eigenpairs but the mass rank is {n_int}")

    lu = linalg.factor_spd(A)

    jmax = maxiter if maxiter is not None else min(n_int, max(200, 20 * m))
    jmax = min(jmax, n_int)
    Q = np.empty((n, jmax))    # B-orthonormal basis
    BQ = np.empty((n, jmax))
    H = np.zeros((jmax, jmax))  # projected operator <T q_j, q_i>_B

    # Purified start: one operator application maps the all-ones interior seed
    # into range(A^{-1}B), where the mass seminorm is definite.  Every basis
    # vector then stays in that range and carries no invisible null components.
    v = np.zeros(n)
    v[:n_int] = 1.0
    v = lu.solve(B @ v)
    bv = B @ v
    nrm = np.sqrt(v @ bv)
    Q[:, 0] = v / nrm
    BQ[:, 0] = bv / nrm

    inject_count = 0

    def extract(size):
        """Rayleigh-Ritz on the current basis; the m best candidate pairs."""
        Hs = H[:size, :size]
        theta, Y = np.linalg.eigh(0.5 * (Hs + Hs.T))
        order = np.argsort(theta)[::-1]
        theta = theta[order][:m]
        if theta.size < m or theta[-1] <= 0.0:
            return None
        X = Q[:, :size] @ Y[:, order[:m]]
        # Purify: one extra application strips accumulated null-space drift
        # from the Ritz vectors (theta scales out of the eig<->vector pairing).
        X = lu.solve(B @ X)
        X /= np.sqrt(np.einsum("ij,ij->j", X, B @ X))[None, :]
        lam = 1.0 / theta  # theta descending, so lam is ascending
        AX = A @ X
        BX = B @ X
        res = np.linalg.norm(AX - BX * lam[None, :], axis=0)
        res /= np.maximum(np.linalg.norm(AX, axis=0), 1e-300)
        return lam, X, res

    def append(size, z, bz) -> bool:
        """B-orthogonalize z against the basis and append if independent."""
        before = np.sqrt(max(z @ bz, 0.0))
        for _ in range(2):
            z = z - Q[:, :size] @ (BQ[:, :size].T @ z)
        bz = B @ z
        after = np.sqrt(max(z @ bz, 0.0))
        if before <= 0.0 or after <= 1e-8 * before:
            return False
        Q[:, size] = z / after
        BQ[:, size] = bz / after
        return True

    def inject(size) -> bool:
        """Deterministic fresh direction purged of the mass null space.

        Returns False once the basis already spans the operator range, i.e.
        there is nothing left to discover.
        """
        nonlocal inject_count
        while inject_count < 64:
            rng = np.random.default_rng(_INJECT_SEED + inject_count)
            inject_count += 1
            z = lu.solve(B @ rng.standard_normal(n))
            if append(size, z, B @ z):
                return True
        return False

    # Residual convergence alone cannot rule out eigenvalues living in
    # invariant subspaces the basis has never touched (the symmetric start
    # vector has exactly zero weight in antisymmetric modes, and a
    # single-vector Krylov sequence carries one direction per eigenspace).
    # After apparent convergence, fresh deterministic directions are injected
    # and the iteration continues; the result is accepted only once two
    # consecutive injections change nothing.
    quarantine = max(8, m)
    cadence = 3
    next_check = m
    verified = 0
    ref_vals = None
    last = None
    complete = False
    size = 1
    while size <= jmax:
        w = lu.solve(BQ[:, size - 1])
        H[:size, size - 1] = BQ[:, :size].T @ w
        H[size - 1, :size] = H[:size, size - 1]

        converged_now = False
        if size >= next_check:
            got = extract(size)
            next_check = size + cadence
            if got is not None:
                last = got
                converged_now = float(got[2].max()) <= tol

        if converged_now:
            vals = last[0]
            if ref_vals is not None:
                drift = np.max(np.abs(vals - ref_vals) / np.maximum(np.abs(ref_vals), 1.0))
                if drift > max(10.0 * tol, 1e-9):
                    verified = 0  # the previous injection uncovered a new mode
            if verified >= 2:
                complete = True
                break
            if size >= n_int:
                complete = True  # the basis spans the whole operator range
                break
            if size < jmax and inject(size):
                ref_vals = vals.copy()
                verified += 1
                next_check = size + quarantine
                size += 1
                continue
            if size >= jmax:
                break  # iteration budget hit before verification finished
            complete = True  # fresh injections found nothing: range exhausted
            break

        if size == jmax:
            last = extract(size) or last
            complete = size >= n_int
            break
        if append(size, w, B @ w):
            size += 1
        elif inject(size):
            verified = 0
            next_check = size + quarantine
            size += 1
        else:
            last = extract(size) or last
            complete = True  # full operator range explored
            break

    if last is None:
        raise NoConvergenceError(size, np.inf)
    lam, X, res = last
    worst = float(res.max())
    if worst > tol or not complete:
        raise NoConvergenceError(size, worst)
    if np.any(lam <= 0.0):
        raise FactorizationFailureError(
            "nonpositive pencil eigenvalue encountered; stiffness form is not SPD"
        )

    pairs = []
    for i in range(m):
        x = X[:, i]
        x = x / np.sqrt(x @ (B @ x))
        x = _fix_sign(x, n_int)
        ax = A @ x
        resid = float(np.linalg.norm(ax - lam[i] * (B @ x)) / np.linalg.norm(ax))
        pairs.append(EigenPair(value=float(lam[i]), vector=x, residual=resid))
    return pairs


def solve_shifted(forms: AssembledForms, shift: float, rhs: np.ndarray,
                  tol: float = 1e-10) -> np.ndarray:
    """Solve (A - shift B) x = rhs by a symmetric-ordered threshold-pivoting LU.

    The shifted matrix is symmetric indefinite.  It is factored with the same
    symmetric ordering as the SPD systems, preferring diagonal pivots and
    swapping rows only where a diagonal entry collapses; iterative refinement
    certifies the residual even when the shift sits very close to the fine
    spectrum (the intended amplification regime).  A numerically singular
    shift raises NearSingularError instead of returning garbage.
    """
    M = (forms.A - shift * forms.B).tocsc()
    lu, pivot_ratio = linalg.factor_indefinite(M, shift=shift)
    x, rel = linalg.refined_solve(lu, M, np.asarray(rhs, dtype=float), tol)
    if pivot_ratio < linalg.PIVOT_RATIO_FLOOR or rel > tol:
        sol = x if np.all(np.isfinite(x)) else None
        raise NearSingularError(
            shift,
            pivot_ratio=pivot_ratio if pivot_ratio < linalg.PIVOT_RATIO_FLOOR else None,
            residual=rel, solution=sol,
        )
    return x


def rayleigh_quotient(forms: AssembledForms, x: np.ndarray) -> float:
    """a-form over b-form quotient; equals the eigenvalue on eigenvectors."""
    x = np.asarray(x, dtype=float)
    den = float(x @ (forms.B @ x))
    if den <= 1e-300:
        raise ZeroMassError("vector has no interior mass component")
    num = float(x @ (forms.A @ x))
    return num / den
