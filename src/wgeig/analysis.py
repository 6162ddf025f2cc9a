"""Exact spectra, energy errors, rate fits, and study orchestration.

Eigenfunction errors are measured against L2-normalized generators, with a
free overall scale fitted by least squares, so reported energy errors are
insensitive to normalization conventions of the reference functions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .eigsolve import smallest_eigs
from .errors import EmptyClusterError, NonPositiveError
from .mesh import build_uniform
from .twogrid import run_sipg
from .wg_core import LAPLACIAN, AssembledForms, WgSpace, assemble, qh_project
from scipy.linalg import cho_factor, cho_solve

# First clamped-plate eigenvalue on the unit square (literature reference).
BIHARMONIC_LAMBDA1 = 1294.9339598


# -- exact spectra -------------------------------------------------------------


def _sine_mode(m: int, n: int) -> Callable:
    def u(x, y):
        return 2.0 * np.sin(m * np.pi * x) * np.sin(n * np.pi * y)

    # u(x, y) = fx(x) * fy(y); qh_project projects through these 1D factors.
    u.factors = (lambda x: 2.0 * np.sin(m * np.pi * x), lambda y: np.sin(n * np.pi * y))
    return u


@dataclass(frozen=True)
class ExactEigen:
    """One exact eigenvalue with its multiplicity and L2-normalized generators."""

    value: float
    multiplicity: int
    modes: tuple[tuple[int, int], ...] = ()

    @property
    def generators(self) -> tuple[Callable, ...]:
        return tuple(_sine_mode(m, n) for m, n in self.modes)


def exact_laplacian_spectrum(count: int) -> list[ExactEigen]:
    """First `count` distinct Dirichlet eigenvalues (m^2 + n^2) pi^2, merged."""
    if count < 1:
        raise ValueError("count must be at least 1")
    reach = 8
    while True:
        sums: dict[int, list[tuple[int, int]]] = {}
        for m in range(1, reach + 1):
            for n in range(1, reach + 1):
                sums.setdefault(m * m + n * n, []).append((m, n))
        complete = sorted(s for s in sums if s <= reach * reach + 1)
        if len(complete) >= count:
            break
        reach *= 2
    out = []
    for s in complete[:count]:
        modes = tuple(sorted(sums[s]))
        out.append(ExactEigen(value=s * np.pi**2, multiplicity=len(modes), modes=modes))
    return out


def laplacian_eigenvalues(num: int) -> list[tuple[float, ExactEigen]]:
    """First `num` eigenvalues counted with multiplicity, with their clusters."""
    clusters = exact_laplacian_spectrum(num)  # enough: multiplicities only grow
    flat: list[tuple[float, ExactEigen]] = []
    for cl in clusters:
        flat.extend((cl.value, cl) for _ in range(cl.multiplicity))
        if len(flat) >= num:
            break
    return flat[:num]


# -- eigenfunction distances ---------------------------------------------------


def _span_distance(basis: np.ndarray, w: np.ndarray, M) -> float:
    """min over the span of the basis columns of the M-norm distance to w."""
    MB = M @ basis
    gram = basis.T @ MB
    r = MB.T @ w
    try:
        sol = cho_solve(cho_factor(gram), r)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(gram, r, rcond=None)[0]
    # The residual's own norm, not ww - r.sol: that difference cancels about
    # log10(ww / distance^2) digits when w lies close to the span.
    d = w - basis @ sol
    return float(np.sqrt(max(d @ (M @ d), 0.0)))


def energy_error(space: WgSpace, forms: AssembledForms, u_bar: np.ndarray,
                 generators) -> float:
    """Energy distance from u_bar to the span of the interpolated generators.

    Minimizes over all linear combinations (direction and scale) of the
    componentwise interpolants of the generators; for a single generator this
    reduces to a sign and scale alignment.
    """
    gens = list(generators)
    if not gens:
        raise EmptyClusterError("no generators supplied")
    cols = np.column_stack([qh_project(space, g).coeffs for g in gens])
    return _span_distance(cols, np.asarray(u_bar, dtype=float), forms.A)


# -- convergence utilities -------------------------------------------------------


def rate_fit(h_list, e_list) -> float:
    """Least-squares slope of log(e) against log(h)."""
    h = np.asarray(h_list, dtype=float)
    e = np.asarray(e_list, dtype=float)
    if h.size < 2 or h.size != e.size:
        raise ValueError("need at least two (h, e) pairs of equal length")
    if np.unique(h).size != h.size:
        raise ValueError(f"mesh sizes must be distinct, got {h.tolist()}")
    if np.any(e <= 0.0):
        raise NonPositiveError("error values must be strictly positive; take abs first")
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])


# -- study orchestration ----------------------------------------------------------


@dataclass
class StudyRow:
    """One emitted row; the field order is the stable serialization schema."""

    problem: str
    k: int
    epsilon: float
    H_level: int
    h_level: int
    index: int
    lambda_exact: float | None
    lambda_h: float | None
    lambda_tilde: float | None
    err_direct: float | None
    err_sipg: float | None
    energy_err: float | None
    lower_bound: bool | None
    seconds: float | None


ROW_FIELDS = tuple(StudyRow.__dataclass_fields__)


@dataclass
class StudyResult:
    rows: list[StudyRow]
    orders: dict[str, float] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


def _study_row(kind: str, degree: int, epsilon: float, H_level: int, h_level: int,
               index: int, lam_ex: float | None, lam_h: float | None,
               lam_tilde: float | None, energy: float | None, seconds: float) -> StudyRow:
    """One row with its signed errors lambda_exact - lambda.

    The lower-bound verdict judges the two-grid value on a two-grid row
    (H_level < h_level) and the direct value on a direct row.
    """
    def signed(lam):
        return None if lam_ex is None or lam is None else lam_ex - lam

    err_direct, err_sipg = signed(lam_h), signed(lam_tilde)
    judged = err_sipg if H_level < h_level else err_direct
    return StudyRow(
        problem=kind, k=degree, epsilon=epsilon, H_level=H_level, h_level=h_level,
        index=index, lambda_exact=lam_ex, lambda_h=lam_h, lambda_tilde=lam_tilde,
        err_direct=err_direct, err_sipg=err_sipg, energy_err=energy,
        lower_bound=None if judged is None else bool(judged >= 0.0), seconds=seconds,
    )


def _exact_values(kind: str, num_eigs: int):
    """(value, cluster) per index; checked before any assembly."""
    if num_eigs < 1:
        raise ValueError(f"num_eigs must be at least 1, got {num_eigs}")
    if kind == LAPLACIAN:
        return laplacian_eigenvalues(num_eigs)
    vals: list[tuple[float | None, None]] = [(None, None)] * num_eigs
    vals[0] = (BIHARMONIC_LAMBDA1, None)
    return vals


def direct_study(kind: str, degree: int, epsilon: float, levels, num_eigs: int,
                 tol: float = 1e-10) -> StudyResult:
    """Direct eigensolves over a sweep of levels, with fitted convergence orders."""
    levels = list(levels)
    exact = _exact_values(kind, num_eigs)
    rows: list[StudyRow] = []
    errs: dict[int, list[float]] = {j: [] for j in range(1, num_eigs + 1)}
    energies: dict[int, list[float]] = {j: [] for j in range(1, num_eigs + 1)}
    hs: list[float] = []
    for level in levels:
        t0 = time.perf_counter()
        space = WgSpace(build_uniform(level), degree, kind=kind, epsilon=epsilon)
        forms = assemble(space)
        pairs = smallest_eigs(forms, num_eigs, tol=tol)
        dt = time.perf_counter() - t0
        hs.append(space.mesh.h)
        for j, pair in enumerate(pairs, start=1):
            lam_ex, cluster = exact[j - 1]
            energy = None
            if kind == LAPLACIAN and cluster is not None:
                energy = energy_error(space, forms, pair.vector, cluster.generators)
                energies[j].append(energy)
            row = _study_row(kind, degree, epsilon, level, level, j, lam_ex, pair.value,
                             None, energy, dt)
            if row.err_direct is not None:
                errs[j].append(row.err_direct)
            rows.append(row)
    orders: dict[str, float] = {}
    if len(levels) >= 2:
        for j in range(1, num_eigs + 1):
            if len(errs[j]) == len(levels) and all(e != 0 for e in errs[j]):
                orders[f"eig_{j}"] = rate_fit(hs, [abs(e) for e in errs[j]])
            if len(energies[j]) == len(levels) and all(e > 0 for e in energies[j]):
                orders[f"energy_{j}"] = rate_fit(hs, energies[j])
    return StudyResult(rows=rows, orders=orders)


def sipg_study(kind: str, degree: int, epsilon: float, coarse_levels, fine_level: int,
               num_eigs: int, include_direct: bool = False, tol: float = 1e-10) -> StudyResult:
    """Two-grid sweep over coarse levels at a fixed fine level.

    The fine assembly is shared across the sweep.  With include_direct, the
    direct fine solve is run once and reported alongside for comparison.
    """
    exact = _exact_values(kind, num_eigs)
    fine_space = WgSpace(build_uniform(fine_level), degree, kind=kind, epsilon=epsilon)
    fine_forms = assemble(fine_space)
    direct_pairs = None
    if include_direct:
        direct_pairs = smallest_eigs(fine_forms, num_eigs, tol=tol)

    rows: list[StudyRow] = []
    warnings: list[str] = []
    for coarse_level in coarse_levels:
        for t in run_sipg(fine_forms, coarse_level, num_eigs, tol=tol):
            j = t.index
            if t.warning:
                warnings.append(t.warning)
            lam_ex, cluster = exact[j - 1]
            lam_h = None if direct_pairs is None else direct_pairs[j - 1].value
            energy = None
            if kind == LAPLACIAN and cluster is not None and t.normalized is not None:
                energy = energy_error(fine_space, fine_forms, t.normalized,
                                      cluster.generators)
            lam_tilde = t.rayleigh if np.isfinite(t.rayleigh) else None
            rows.append(_study_row(kind, degree, epsilon, coarse_level, fine_level, j,
                                   lam_ex, lam_h, lam_tilde, energy, t.seconds))
    return StudyResult(rows=rows, orders={}, warnings=warnings)
