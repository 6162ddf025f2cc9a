"""Two-grid shifted-inverse-power driver.

Step 1 solves the eigenproblem on the coarse mesh, step 2 solves one shifted
linear system per target index on the fine mesh with the coarse eigenvalue as
the shift and the coarse eigenvector as mass-form right-hand side, and step 3
evaluates the Rayleigh quotient of the amplified solution.  The scheme is
one-shot: steps 2 and 3 are never iterated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .eigsolve import _fix_sign, rayleigh_quotient, smallest_eigs, solve_shifted
from .errors import ConfigError, NearSingularError
from .mesh import build_uniform, containment_map
from .polyspace import pk_exponents
from .wg_core import AssembledForms, WgFunction, WgSpace, _element_points, assemble


@dataclass
class SipgTarget:
    """Per-index outcome of the two-grid scheme."""

    index: int
    coarse_value: float
    rayleigh: float
    normalized: np.ndarray | None
    seconds: float
    warning: str | None = None


def cross_mass_rhs(u_coarse: WgFunction, fine_space: WgSpace) -> np.ndarray:
    """Mass-form pairing of a coarse interior field against the fine basis.

    Exact Gauss quadrature per fine element: the coarse interior polynomial
    restricted to a nested fine element is again a degree-k polynomial.  Fine
    edge entries are zero because the mass form sees interior components only.
    """
    coarse_space = u_coarse.space
    if coarse_space.degree != fine_space.degree or coarse_space.kind != fine_space.kind:
        raise ValueError("coarse and fine spaces must share degree and kind")
    cmap = containment_map(coarse_space.mesh, fine_space.mesh)

    kit = fine_space.kit()
    k = fine_space.degree
    ox, oy, w, phi_ref = kit.element_quad(k + 1)
    ccx, ccy = coarse_space.mesh.element_centers()
    H = coarse_space.mesh.h
    cc = u_coarse.interior_matrix()
    exponents = pk_exponents(k)
    out = np.empty((fine_space.mesh.num_elements, fine_space.dim_interior))
    for sl, X, Y in _element_points(fine_space, ox, oy):
        cm = cmap[sl]
        X = (X - ccx[cm][:, None]) / H
        Y = (Y - ccy[cm][:, None]) / H
        vals = np.zeros_like(X)
        for col, (a, b) in enumerate(exponents):
            vals += cc[cm, col][:, None] * (X**a) * (Y**b)
        out[sl] = (vals * w[None, :]) @ phi_ref
    rhs = np.zeros(fine_space.ndof)
    rhs[: fine_space.n_interior_dofs] = out.ravel()
    return rhs


def run_sipg(fine_forms: AssembledForms, coarse_level: int, num_eigs: int,
             tol: float = 1e-10) -> list[SipgTarget]:
    """Run the two-grid scheme on the assembled fine forms.

    The fine space fixes the kind, degree, epsilon and fine level; the coarse
    space repeats all but the level.  Near-singular shifted solves are
    recorded as warnings on their target and never silently ignored.
    """
    fine_space = fine_forms.space
    if fine_space.mesh.level <= coarse_level:
        raise ConfigError(f"fine level ({fine_space.mesh.level}) must exceed coarse level "
                          f"({coarse_level})")
    coarse_space = WgSpace(build_uniform(coarse_level), fine_space.degree,
                           kind=fine_space.kind, epsilon=fine_space.epsilon)
    coarse_pairs = smallest_eigs(assemble(coarse_space), num_eigs, tol=tol)

    targets: list[SipgTarget] = []
    B = fine_forms.B
    for j, pair in enumerate(coarse_pairs, start=1):
        t0 = time.perf_counter()
        rhs = cross_mass_rhs(WgFunction(coarse_space, pair.vector), fine_space)
        warning = None
        try:
            x = solve_shifted(fine_forms, pair.value, rhs, tol=tol)
        except NearSingularError as exc:
            warning = (f"index {j}: shift {pair.value!r} collided with the fine "
                       f"spectrum ({exc})")
            if exc.solution is None:
                targets.append(SipgTarget(
                    index=j, coarse_value=pair.value, rayleigh=float("nan"), normalized=None,
                    seconds=time.perf_counter() - t0, warning=warning,
                ))
                continue
            # The amplified best-effort solve is still the inverse-iteration
            # direction; report its Rayleigh value alongside the warning.
            x = exc.solution
        lam = rayleigh_quotient(fine_forms, x)
        xbar = _fix_sign(x / np.sqrt(x @ (B @ x)), fine_forms.n_interior)
        targets.append(SipgTarget(
            index=j, coarse_value=pair.value, rayleigh=float(lam), normalized=xbar,
            seconds=time.perf_counter() - t0, warning=warning,
        ))
    return targets
