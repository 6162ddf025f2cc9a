"""Two-grid shifted-inverse-power driver.

Step 1 solves the eigenproblem on the coarse mesh, step 2 solves one shifted
linear system per target index on the fine mesh with the coarse eigenvalue as
the shift and the coarse eigenvector as mass-form right-hand side, and step 3
evaluates the Rayleigh quotient of the amplified solution.  The scheme is
one-shot: steps 2 and 3 are never iterated.  A target needs only its own
coarse pair, so run_sipg streams the targets: it keeps none of target j's
fine vectors once target j is handed over, and a caller that drops each
target before asking for the next one works in one target's memory.

The fine mesh refines the coarse one, so the right-hand side needs no
quadrature: on each fine element the coarse interior polynomial is a P_k
polynomial of that element, fixed by the element's position among the
children of its coarse element (cross_mass_rhs).
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass
from math import comb

import numpy as np

from ._stages import _stage
from .eigsolve import (EigenPair, _b_normalize, rayleigh_quotient, smallest_eigs,
                       solve_shifted)
from .errors import LevelOrderError, NearSingularError
from .mesh import build_uniform
from .polyspace import pk_exponents
from .wg_core import WgSpace, assemble


@dataclass
class SipgTarget:
    """Per-index outcome of the two-grid scheme, as run_sipg yields it.

    It holds the one fine-length vector of its target (``normalized``); the
    caller drops it before asking for the next target."""

    index: int
    coarse_value: float
    rayleigh: float
    normalized: np.ndarray | None
    seconds: float
    warning: str | None = None


def cross_mass_rhs(coarse_space: WgSpace, u_coarse: np.ndarray,
                   fine_space: WgSpace) -> np.ndarray:
    """Mass-form pairing of a coarse interior field against the fine basis.

    The fine mesh refines the coarse one by d levels, so a fine element is
    child p = (py, px) of the 2^d x 2^d children of its coarse element, and
    the coarse interior polynomial restricted to it is a P_k polynomial of
    the child.  With r = 2^-d, the coarse scaled coordinate is o_p + r s,
    where o_p = (p + 1/2) r - 1/2 and s is the child's scaled coordinate, so
    the binomial expansion T_p maps coarse monomial coefficients to the
    child's, and the pairing is c T_p Gk, exact up to rounding.  Fine edge
    entries are zero because the mass form sees interior components only.
    """
    if coarse_space.degree != fine_space.degree or coarse_space.kind != fine_space.kind:
        raise ValueError("coarse and fine spaces must share degree and kind")
    d = fine_space.mesh.level - coarse_space.mesh.level
    if d < 0:
        raise LevelOrderError(f"fine level {fine_space.mesh.level} is coarser than "
                              f"coarse level {coarse_space.mesh.level}")
    u_coarse = np.asarray(u_coarse, dtype=float)
    if u_coarse.shape != (coarse_space.ndof,):
        raise ValueError(f"coefficient length {u_coarse.shape} does not match "
                         f"space dimension {coarse_space.ndof}")

    k, m, r = fine_space.degree, 1 << d, 2.0 ** -d
    a, b = np.array(pk_exponents(k)).T
    o = (np.arange(m) + 0.5) * r - 0.5
    # Tx[p, i, j] is the coefficient of s^j in (o_p + r s)^i, for i, j <= k.
    i, j = np.arange(k + 1)[:, None], np.arange(k + 1)
    Tx = np.vectorize(comb)(i, j) * o[:, None, None] ** np.maximum(i - j, 0) * r ** j
    T = Tx[:, None, b[:, None], b] * Tx[None, :, a[:, None], a]  # (py, px, alpha, gamma)
    M = T @ fine_space.kit().Gk
    N, nb = coarse_space.mesh.n, coarse_space.dim_interior
    C = u_coarse[: coarse_space.n_interior_dofs].reshape(N, N, nb)
    fine = np.einsum("yxa,pqab->ypxqb", C, M, optimize=True)  # element-major
    rhs = np.zeros(fine_space.ndof)
    rhs[: fine_space.n_interior_dofs] = fine.ravel()
    return rhs


def run_sipg(fine_space: WgSpace, coarse_level: int, num_eigs: int,
             tol: float = 1e-10) -> Iterator[SipgTarget]:
    """Run the two-grid scheme on the assembled fine space, one target at a time.

    The fine space fixes the kind, degree, epsilon and fine level; the coarse
    space repeats all but the level.  The level order and num_eigs are checked
    and the coarse eigenproblem is solved when run_sipg is called; the targets
    stream: each is computed when the caller asks for it, and nothing of an
    earlier target is kept, so the working set is one target's whatever
    num_eigs is.  A caller that reads the targets twice takes the list.
    Near-singular shifted solves are recorded as warnings on their target and
    never silently ignored.
    """
    if fine_space.mesh.level <= coarse_level:
        raise LevelOrderError(f"fine level ({fine_space.mesh.level}) must exceed coarse level "
                              f"({coarse_level})")
    coarse_space = WgSpace(build_uniform(coarse_level), fine_space.degree,
                           kind=fine_space.kind, epsilon=fine_space.epsilon)
    with _stage(f"coarse solve level {coarse_level}"):
        coarse_pairs = smallest_eigs(assemble(coarse_space), num_eigs, tol=tol)
    return (_target(coarse_space, fine_space, j, pair, tol)
            for j, pair in enumerate(coarse_pairs, start=1))


def _target(coarse_space: WgSpace, fine_space: WgSpace, j: int, pair: EigenPair,
            tol: float) -> SipgTarget:
    """Target j from its coarse pair; its stage closes before the caller sees
    it, and its right-hand side and solution die with this call."""
    with _stage(f"target {j} level {coarse_space.mesh.level}->{fine_space.mesh.level}"):
        t0 = time.perf_counter()
        rhs = cross_mass_rhs(coarse_space, pair.vector, fine_space)
        warning, lam, xbar = None, float("nan"), None
        try:
            x = solve_shifted(fine_space, pair.value, rhs, tol=tol)
        except NearSingularError as exc:
            warning = (f"index {j}: shift {pair.value!r} collided with the fine "
                       f"spectrum ({exc})")
            # The amplified best-effort solve, if any, is still the inverse-
            # iteration direction; report its Rayleigh value alongside the warning.
            x = exc.solution
        if x is not None:
            lam = float(rayleigh_quotient(fine_space, x))
            xbar = _b_normalize(fine_space, x)
        return SipgTarget(index=j, coarse_value=pair.value, rayleigh=lam, normalized=xbar,
                          seconds=time.perf_counter() - t0, warning=warning)
