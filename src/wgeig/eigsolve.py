"""Sparse symmetric generalized eigensolver for the pencil (A, B), by two routes.

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
solve, one per pair, x = A⁻¹ (L z), and a set that fails the gate below asks
ARPACK once more, for m + 1 pairs.  One gate, _certified, serves both routes:
it b-normalizes each vector in place, takes its residual ‖Ax − λBx‖/‖Ax‖ from
one matrix-free product with A and one with B, and passes the set only if the
worst residual, by np.max, is at most tol, so a NaN fails it.

A Laplacian space of level L ≥ _ROUTE_LEVEL takes the multilevel correction
route first (Lin and Xie, Math. Comp. 2015): the n pairs of level L − 3 (by
either route) start Rayleigh-quotient steps on level L, with n = m, or m + 1
where the coarse pairs m and m + 1 share a cluster: m then cuts a multiple
eigenvalue, whose rest is carried along.  A step groups the shifts into
clusters, factors A − σB once per cluster (linalg) and solves once per pair,
the first step on the nested-mesh transfer of the coarse vectors
(twogrid.cross_mass_rhs), later ones on B y of the last Ritz vectors; then
one Rayleigh–Ritz over all n solutions gives the Ritz pairs, each value an
upper bound of its λ_i,h (Poincaré separation).  The pairs must pass the gate
within _MAX_STEPS steps, and are then certified as the n smallest by spectrum
slicing (Ericsson and Ruhe, Math. Comp. 1980): exactly n pencil eigenvalues
lie below σ⁺ = θ_n (1 + √tol), counted as the inertia ν(A − σ⁺B) of one more
factor.  The first m are returned.  The route works in one (n, ndof) array X:
the coarse space and pairs go once their transfers fill it, each solution
overwrites its right-hand side, and the Ritz vectors overwrite the solutions
in column chunks; each row then passes the gate, and its next right-hand side
B y is formed just before its solve.  So beside the quadtree and the dof map
the route holds that block, one factor with its workspace at a time and one
product's temporaries, and the returned vectors are rows of X.  Any failure
(a step budget spent, ν ≠ n, a solve that is not finite, a singular factor, a
failed coarse solve, a B-singular Ritz basis) runs ARPACK instead, so no
uncertified pair is returned; one INFO line on the wgeig logger
(``wgeig -v``) gives the level, m and the reason.  Below _ROUTE_LEVEL, and
for the biharmonic problem, whose coarse pairs start too far off (from
H = 1/8 to h = 1/64 three steps and 15 factors, 0.37 s against 0.10 s of
ARPACK), ARPACK alone runs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from . import linalg
from .errors import (
    FactorizationFailureError,
    NearSingularError,
    NoConvergenceError,
    ZeroMassError,
)
from .mesh import build_uniform
from .wg_core import LAPLACIAN, WgSpace, assemble

_LOG = logging.getLogger(__name__)
_START_SEED = 20240901
# The lowest level whose Laplacian eigensolve starts from the pairs of
# _LEVELS_DOWN levels below; see the README for the measured crossover.
_ROUTE_LEVEL = 6
_LEVELS_DOWN = 3
_MAX_STEPS = 3
# Shifts closer than this, relative, share one factor, and coarse values
# closer than this are one multiple eigenvalue: the two copies of a double
# eigenvalue differ by 4e-16 to 2e-15.
_CLUSTER_TOL = 1e-6
# The columns of X that one GEMM of the Rayleigh–Ritz update rewrites.
_RITZ_COLUMNS = 4096


@dataclass
class EigenPair:
    """One computed pencil eigenpair, b-form normalized."""

    value: float
    vector: np.ndarray
    residual: float


class _Refused(Exception):
    """The correction route cannot certify its pairs; the message says why."""


def _b_normalize(space: WgSpace, x: np.ndarray) -> np.ndarray:
    """x scaled in place to unit b-norm, its largest interior entry made
    positive; returns x."""
    x /= np.sqrt(x @ (space.mass @ x))
    if x[np.argmax(np.abs(x[:space.n_interior_dofs]))] < 0.0:
        np.negative(x, out=x)
    return x


def _certified(space: WgSpace, A, values, vectors, tol: float):
    """(pairs, worst): EigenPairs of the candidates, vectors b-normalized in
    place, and their worst residual; pairs is None unless worst ≤ tol."""
    pairs = []
    for value, x in zip(values, vectors):
        ax = A @ _b_normalize(space, x)
        pairs.append(EigenPair(value=float(value), vector=x, residual=float(
            np.linalg.norm(ax - value * (space.mass @ x)) / np.linalg.norm(ax))))
        del ax  # not held through the next candidate's solve
    worst = float(np.max([p.residual for p in pairs]))
    return (pairs if worst <= tol else None), worst


def smallest_eigs(space: WgSpace, m: int, tol: float = 1e-10) -> list[EigenPair]:
    """The m smallest pencil eigenvalues with b-form-orthonormal vectors."""
    n_int = space.n_interior_dofs
    if m < 1:
        raise ValueError("at least one eigenpair must be requested")
    if m > n_int:
        raise ValueError(f"requested {m} eigenpairs but the mass rank is {n_int}")
    if space.kind == LAPLACIAN and space.mesh.level >= _ROUTE_LEVEL:
        try:
            return _corrected(space, m, tol)
        except _Refused as refusal:
            reason = str(refusal)
        except NoConvergenceError as exc:
            reason = f"the coarse solve failed: {exc}"
        except NearSingularError as exc:
            reason = f"a factor was singular: {exc}"
        except np.linalg.LinAlgError:
            reason = "the Ritz basis was B-singular"
        _LOG.info("eigensolve level %d, m = %d: correction route refused, %s; ARPACK runs",
                  space.mesh.level, m, reason)
    return _arpack(space, m, tol)


def _corrected(space: WgSpace, m: int, tol: float) -> list[EigenPair]:
    """The m smallest pairs by Rayleigh-quotient steps from the pairs of level
    L − _LEVELS_DOWN, once certified; raises _Refused where they are not, or
    where the coarse level has no m + 1 pairs.  One (n, ndof) array X holds the
    first step's right-hand sides, then each step's solutions and Ritz
    vectors, and the returned vectors are its rows."""
    from .twogrid import cross_mass_rhs  # twogrid imports this module

    coarse = assemble(WgSpace(build_uniform(space.mesh.level - _LEVELS_DOWN), space.degree,
                              kind=space.kind, epsilon=space.epsilon))
    if m >= coarse.n_interior_dofs:
        raise _Refused(f"level {coarse.mesh.level} has {coarse.n_interior_dofs} pairs only")
    start = smallest_eigs(coarse, m + 1, tol)
    # A double eigenvalue that m cuts is carried whole (n = m + 1), since its
    # rest lies below σ⁺ too; otherwise the extra coarse pair only tells.
    cut = start[m].value - start[m - 1].value <= _CLUSTER_TOL * start[m - 1].value
    n = m + 1 if cut else m
    shifts = [p.value for p in start[:n]]
    X = np.empty((n, space.ndof))
    for i in range(n):
        X[i] = cross_mass_rhs(coarse, start[i].vector, space)
    del coarse, start  # transferred
    A, B = space.operator(), space.mass
    mass = None  # the first step solves on X's rows as they are
    for _ in range(_MAX_STEPS):
        _clustered_solves(space, shifts, X, mass)
        theta = _rayleigh_ritz(A, B, X)
        pairs, worst = _certified(space, A, theta, X, tol)
        if pairs:
            sigma = theta[-1] * (1.0 + np.sqrt(tol))
            count = linalg.NestedLU(space, sigma, count_inertia=True).inertia
            if count != n:
                raise _Refused(f"nu = {count} pencil eigenvalues lie below sigma+ = "
                               f"{sigma:.10g}, not n = {n}")
            return pairs[:m]
        shifts, mass = theta, B
    raise _Refused(f"the step budget ran out: after {_MAX_STEPS} steps the worst residual "
                   f"is {worst:.3e}")


def _clustered_solves(space: WgSpace, shifts, X: np.ndarray, B) -> None:
    """X[j] ← (A − σB)⁻¹ X[j] in place, or (A − σB)⁻¹ B X[j] with a mass B,
    whose product is formed just before the row's solve; one factor per
    cluster of the ascending shifts, at the cluster's first shift.  No
    refinement: from the second step a shift lies within rounding of λ_h,
    where refinement cannot meet tol; the pair's residual gate judges the
    result instead.  A solve that is not finite refuses the route."""
    first = 0
    for i in range(1, len(shifts) + 1):
        if i == len(shifts) or shifts[i] - shifts[first] > _CLUSTER_TOL * shifts[first]:
            lu, _ = linalg.factor_indefinite(space, shifts[first])
            for j in range(first, i):
                X[j] = lu.solve(X[j] if B is None else B @ X[j])
                if not np.all(np.isfinite(X[j])):
                    raise _Refused(f"the solve of pair {j + 1} at shift "
                                   f"{shifts[first]:.10g} was not finite")
            del lu  # before the next cluster's factor is built
            first = i


def _rayleigh_ritz(A, B, X: np.ndarray) -> np.ndarray:
    """Ascending Ritz values of (A, B) on the span of X's rows, whose Ritz
    vectors Sᵀ X replace the rows in place, _RITZ_COLUMNS columns at a time;
    one A and one B product per row.  The rows are scaled to unit length
    first."""
    # norm's square is one more (n, ndof) block, but a transient one, taken
    # while no factor is live, so the route's peak stays at its solves.
    # Freeing it lifts glibc's dynamic mmap and trim thresholds above the
    # products' temporaries, which are then reused instead of trimmed and
    # faulted in again: row by row norms cost 120,000 more page faults and
    # 0.15 s at h = 1/256 (glibc, one thread of a 2-vCPU Xeon).
    X /= np.linalg.norm(X, axis=1)[:, None]
    m = len(X)
    XAX, XBX = np.empty((m, m)), np.empty((m, m))
    for i, x in enumerate(X):
        XAX[:, i], XBX[:, i] = X @ (A @ x), X @ (B @ x)
    theta, S = scipy.linalg.eigh(XAX, XBX)
    # ndof is even, so no chunk is one column wide, which numpy would hand
    # to gemv with other rounding than the whole product's gemm.
    for c in range(0, X.shape[1], _RITZ_COLUMNS):
        X[:, c:c + _RITZ_COLUMNS] = S.T @ X[:, c:c + _RITZ_COLUMNS]
    return theta


def _arpack(space: WgSpace, m: int, tol: float) -> list[EigenPair]:
    """The m smallest pairs by ARPACK on C, certified by their residuals."""
    n_int = space.n_interior_dofs
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
        # One solve per pair keeps the work arrays at one vector of length n.
        pairs, worst = _certified(space, space.operator(), lam,
                                  (lu.solve(blockwise(L, z)) for z in Z.T), tol)
        if pairs:
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
