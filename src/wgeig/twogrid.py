"""Two-grid shifted-inverse-power driver.

Step 1 solves the eigenproblem on the coarse mesh, step 2 solves one shifted
linear system per target index on the fine mesh with the coarse eigenvalue as
the shift and the coarse eigenvector as mass-form right-hand side, and step 3
evaluates the Rayleigh quotient of the amplified solution.  The scheme is
one-shot: steps 2 and 3 are never iterated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .eigsolve import (EigenCluster, _fix_sign, rayleigh_quotient, smallest_eigs,
                       solve_shifted)
from .errors import ConfigError, NearSingularError
from .mesh import build_uniform, containment_map
from .polyspace import pk_exponents
from .wg_core import AssembledForms, WgFunction, WgSpace, assemble

_CHUNK = 1 << 15


@dataclass
class SipgConfig:
    """Configuration of one two-grid run (coarse level strictly below fine)."""

    kind: str
    degree: int
    epsilon: float = 0.1
    coarse_level: int = 2
    fine_level: int = 4
    num_eigs: int = 1
    tol: float = 1e-10
    cluster_tol: float = 1e-6

    def validate(self) -> None:
        if self.fine_level <= self.coarse_level:
            raise ConfigError(
                f"fine level ({self.fine_level}) must exceed coarse level "
                f"({self.coarse_level})"
            )
        if self.num_eigs < 1:
            raise ConfigError("num_eigs must be at least 1")


@dataclass
class SipgTarget:
    """Per-index outcome of the two-grid scheme."""

    index: int
    coarse_value: float
    coarse_vector: np.ndarray
    raw_fine: np.ndarray | None
    rayleigh: float
    normalized: np.ndarray | None
    seconds: float
    warning: str | None = None


@dataclass
class SipgResult:
    config: SipgConfig
    coarse_space: WgSpace
    coarse_forms: AssembledForms
    fine_space: WgSpace
    fine_forms: AssembledForms
    targets: list[SipgTarget]
    seconds: dict[str, float] = field(default_factory=dict)

    @property
    def warnings(self) -> list[str]:
        return [t.warning for t in self.targets if t.warning]


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
    fx0, fy0 = fine_space.mesh.element_origins()
    ccx, ccy = coarse_space.mesh.element_centers()
    H = coarse_space.mesh.h
    cc = u_coarse.interior_matrix()
    exponents = pk_exponents(k)
    out = np.empty((fine_space.mesh.num_elements, fine_space.dim_interior))
    for start in range(0, fx0.size, _CHUNK):
        sl = slice(start, min(start + _CHUNK, fx0.size))
        cm = cmap[sl]
        X = (fx0[sl][:, None] + ox[None, :] - ccx[cm][:, None]) / H
        Y = (fy0[sl][:, None] + oy[None, :] - ccy[cm][:, None]) / H
        vals = np.zeros_like(X)
        for col, (a, b) in enumerate(exponents):
            vals += cc[cm, col][:, None] * (X**a) * (Y**b)
        out[sl] = (vals * w[None, :]) @ phi_ref
    rhs = np.zeros(fine_space.ndof)
    rhs[: fine_space.n_interior_dofs] = out.ravel()
    return rhs


def run_direct(kind: str, degree: int, epsilon: float, level: int, num_eigs: int,
               tol: float = 1e-10, cluster_tol: float = 1e-6) -> EigenCluster:
    """Assemble and solve the eigenproblem directly on one mesh level."""
    space = WgSpace(build_uniform(level), degree, kind=kind, epsilon=epsilon)
    forms = assemble(space)
    pairs = smallest_eigs(forms, num_eigs, tol=tol)
    return EigenCluster(pairs=pairs, cluster_tol=cluster_tol)


def run_sipg(config: SipgConfig,
             fine: tuple[WgSpace, AssembledForms] | None = None) -> SipgResult:
    """Run the two-grid scheme end to end.

    A prebuilt fine (space, forms) pair may be passed to share the fine
    assembly across several coarse levels.  Near-singular shifted solves are
    recorded as warnings on their target and never silently ignored.
    """
    config.validate()
    seconds: dict[str, float] = {}

    t0 = time.perf_counter()
    coarse_space = WgSpace(
        build_uniform(config.coarse_level), config.degree,
        kind=config.kind, epsilon=config.epsilon,
    )
    coarse_forms = assemble(coarse_space)
    coarse_pairs = smallest_eigs(coarse_forms, config.num_eigs, tol=config.tol)
    seconds["coarse_eigensolve"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if fine is None:
        fine_space = WgSpace(
            build_uniform(config.fine_level), config.degree,
            kind=config.kind, epsilon=config.epsilon,
        )
        fine_forms = assemble(fine_space)
    else:
        fine_space, fine_forms = fine
        if fine_space.mesh.level != config.fine_level:
            raise ConfigError("provided fine space does not match the configured level")
    seconds["fine_assembly"] = time.perf_counter() - t0

    targets: list[SipgTarget] = []
    B = fine_forms.B
    for j, pair in enumerate(coarse_pairs, start=1):
        t0 = time.perf_counter()
        rhs = cross_mass_rhs(WgFunction(coarse_space, pair.vector), fine_space)
        warning = None
        try:
            x = solve_shifted(fine_forms, pair.value, rhs, tol=config.tol)
        except NearSingularError as exc:
            warning = (f"index {j}: shift {pair.value!r} collided with the fine "
                       f"spectrum ({exc})")
            if exc.solution is None:
                targets.append(SipgTarget(
                    index=j, coarse_value=pair.value, coarse_vector=pair.vector,
                    raw_fine=None, rayleigh=float("nan"), normalized=None,
                    seconds=time.perf_counter() - t0, warning=warning,
                ))
                continue
            # The amplified best-effort solve is still the inverse-iteration
            # direction; report its Rayleigh value alongside the warning.
            x = exc.solution
        lam = rayleigh_quotient(fine_forms, x)
        xbar = _fix_sign(x / np.sqrt(x @ (B @ x)), fine_forms.n_interior)
        targets.append(SipgTarget(
            index=j, coarse_value=pair.value, coarse_vector=pair.vector,
            raw_fine=x, rayleigh=float(lam), normalized=xbar,
            seconds=time.perf_counter() - t0, warning=warning,
        ))
    seconds["fine_solves"] = sum(t.seconds for t in targets)

    return SipgResult(
        config=config,
        coarse_space=coarse_space,
        coarse_forms=coarse_forms,
        fine_space=fine_space,
        fine_forms=fine_forms,
        targets=targets,
        seconds=seconds,
    )
