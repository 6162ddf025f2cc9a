"""Exact spectra, energy errors, rate fits, and study orchestration.

Eigenfunction errors are measured against L2-normalized generators, with a
free overall scale fitted by least squares, so reported energy errors are
insensitive to normalization conventions of the reference functions.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._stages import _stage
from .eigsolve import smallest_eigs
from .errors import EmptyClusterError, LevelOrderError, NonPositiveError
from .mesh import MeshLevel, build_uniform
from .twogrid import run_sipg
from .wg_core import LAPLACIAN, WgSpace, assemble, qh_project
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
    """min over the span of the basis columns of the M-norm distance to w.

    M b_j is formed one basis column at a time, and each product leaves only
    its Gram column and its entry of r, so no block of products is held."""
    k = basis.shape[1]
    gram, r = np.empty((k, k)), np.empty(k)
    for j in range(k):
        column = M @ basis[:, j]
        gram[:, j], r[j] = basis.T @ column, column @ w
        del column  # before the next product
    try:
        sol = cho_solve(cho_factor(gram), r)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(gram, r, rcond=None)[0]
    # The residual's own norm, not ww - r.sol: that difference cancels about
    # log10(ww / distance^2) digits when w lies close to the span.
    d = w - basis @ sol
    return float(np.sqrt(max(d @ (M @ d), 0.0)))


def energy_error(space: WgSpace, u_bar: np.ndarray, generators) -> float:
    """Energy distance from u_bar to the span of the interpolated generators.

    Minimizes over all linear combinations (direction and scale) of the
    componentwise interpolants of the generators into the space; for a
    single generator this reduces to a sign and scale alignment.  Each
    generator carries the 1D ``factors`` that qh_project projects through.
    """
    gens = list(generators)
    if not gens:
        raise EmptyClusterError("no generators supplied")
    cols = np.column_stack([qh_project(space, g) for g in gens])
    return _span_distance(cols, np.asarray(u_bar, dtype=float), space.operator())


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
    """One emitted row; the field order is the stable serialization schema.
    The signed errors lambda_exact - lambda and the lower-bound verdict are
    derived; the verdict judges the two-grid value on a two-grid row
    (H_level < h_level) and the direct value on a direct row."""

    problem: str
    k: int
    epsilon: float
    H_level: int
    h_level: int
    index: int
    lambda_exact: float | None
    lambda_h: float | None
    lambda_tilde: float | None
    err_direct: float | None = field(init=False)
    err_sipg: float | None = field(init=False)
    energy_err: float | None
    lower_bound: bool | None = field(init=False)
    seconds: float | None

    def __post_init__(self):
        exact = self.lambda_exact
        self.err_direct, self.err_sipg = (None if exact is None or lam is None else exact - lam
                                          for lam in (self.lambda_h, self.lambda_tilde))
        judged = self.err_sipg if self.H_level < self.h_level else self.err_direct
        self.lower_bound = None if judged is None else bool(judged >= 0.0)


ROW_FIELDS = tuple(StudyRow.__dataclass_fields__)


@dataclass
class StudyResult:
    rows: list[StudyRow]
    orders: dict[str, float] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


def _check_study(kind: str, degree: int, epsilon: float, num_eigs: int, levels,
                 fine_levels=(), *, tol: float) -> None:
    """Refuse, before any mesh is assembled, a study that cannot run, in this
    order: no level, a repeated coarse or fine level, a coarse or fine level
    outside [0, MAX_LEVEL], a fine level not above every coarse level, a
    kind, degree or epsilon that the coarsest space refuses, num_eigs below
    1 or above that space's mass rank (its interior dof count), or a
    residual tolerance outside (0, 1), NaN included."""
    if not levels:
        raise ValueError("a study needs at least one level")
    for sweep in (levels, fine_levels):
        for i, level in enumerate(sweep):
            if level in sweep[:i]:
                raise ValueError(f"level {level} is repeated in {list(sweep)}")
            MeshLevel(level)
    for fl in fine_levels:
        if fl <= max(levels):
            raise LevelOrderError(f"fine level {fl} must exceed every coarse level {levels}")
    # The coarsest space refuses a bad kind, degree or epsilon, and builds
    # nothing: a bare MeshLevel, not build_uniform, and no kit or quadtree.
    rank = WgSpace(MeshLevel(min(levels)), degree, kind=kind, epsilon=epsilon).n_interior_dofs
    if num_eigs < 1:
        raise ValueError(f"num_eigs must be at least 1, got {num_eigs}")
    if num_eigs > rank:
        raise ValueError(f"requested {num_eigs} eigenpairs but the mass rank is {rank}")
    if not 0.0 < tol < 1.0:  # NaN fails both comparisons
        raise ValueError(f"tol must lie in (0, 1), got {tol}")


def _exact_values(kind: str, num_eigs: int):
    """(value, cluster) per index, once _check_study has passed."""
    if kind == LAPLACIAN:
        return laplacian_eigenvalues(num_eigs)
    vals: list[tuple[float | None, None]] = [(None, None)] * num_eigs
    vals[0] = (BIHARMONIC_LAMBDA1, None)
    return vals


def _energy_stage(kind: str, where: str):
    """The energy errors' stage; the biharmonic rows compute none."""
    return _stage(f"energy errors {where}") if kind == LAPLACIAN else contextlib.nullcontext()


def direct_study(kind: str, degree: int, epsilon: float, levels, num_eigs: int,
                 tol: float = 1e-10) -> StudyResult:
    """Direct eigensolves over a sweep of levels, with fitted convergence orders."""
    levels = list(levels)
    _check_study(kind, degree, epsilon, num_eigs, levels, tol=tol)
    exact = _exact_values(kind, num_eigs)
    rows: list[StudyRow] = []
    for level in levels:
        t0 = time.perf_counter()
        with _stage(f"assembly level {level}"):
            space = assemble(WgSpace(build_uniform(level), degree, kind=kind, epsilon=epsilon))
        with _stage(f"eigensolve level {level}"):
            pairs = smallest_eigs(space, num_eigs, tol=tol)
        dt = time.perf_counter() - t0
        with _energy_stage(kind, f"level {level}"):
            for j, pair in enumerate(pairs, start=1):
                lam_ex, cluster = exact[j - 1]
                energy = None
                if cluster is not None:
                    energy = energy_error(space, pair.vector, cluster.generators)
                rows.append(StudyRow(kind, degree, epsilon, level, level, j, lam_ex,
                                     pair.value, None, energy, dt))
    orders: dict[str, float] = {}
    if len(levels) >= 2:
        hs = [2.0 ** -level for level in levels]
        for j in range(1, num_eigs + 1):
            errs = [row.err_direct for row in rows[j - 1::num_eigs]]
            energies = [row.energy_err for row in rows[j - 1::num_eigs]]
            if all(e is not None and e != 0 for e in errs):
                orders[f"eig_{j}"] = rate_fit(hs, [abs(e) for e in errs])
            if all(e is not None and e > 0 for e in energies):
                orders[f"energy_{j}"] = rate_fit(hs, energies)
    return StudyResult(rows=rows, orders=orders)


def sipg_study(kind: str, degree: int, epsilon: float, coarse_levels, fine_level: int,
               num_eigs: int, include_direct: bool = False, tol: float = 1e-10) -> StudyResult:
    """Two-grid sweep over coarse levels at a fixed fine level.

    The fine assembly is shared across the sweep.  With include_direct, the
    direct fine solve is run once and its eigenvalues are reported alongside
    for comparison; its vectors are dropped.  The two-grid targets stream
    from run_sipg: each target's energy error is taken as it arrives, and the
    target is dropped before the next one is computed.
    """
    coarse_levels = list(coarse_levels)
    _check_study(kind, degree, epsilon, num_eigs, coarse_levels, [fine_level], tol=tol)
    exact = _exact_values(kind, num_eigs)
    with _stage(f"assembly level {fine_level}"):
        fine_space = assemble(WgSpace(build_uniform(fine_level), degree, kind=kind,
                                      epsilon=epsilon))
    lam_h: list[float | None] = [None] * num_eigs
    if include_direct:
        with _stage(f"eigensolve level {fine_level}"):
            lam_h = [p.value for p in smallest_eigs(fine_space, num_eigs, tol=tol)]

    rows: list[StudyRow] = []
    warnings: list[str] = []
    for coarse_level in coarse_levels:
        levels = f"{coarse_level}->{fine_level}"
        for t in run_sipg(fine_space, coarse_level, num_eigs, tol=tol):
            j = t.index
            if t.warning:
                warnings.append(t.warning)
            lam_ex, cluster = exact[j - 1]
            energy = None
            if cluster is not None and t.normalized is not None:
                with _stage(f"energy error {j} level {levels}"):
                    energy = energy_error(fine_space, t.normalized, cluster.generators)
            lam_tilde = t.rayleigh if np.isfinite(t.rayleigh) else None
            rows.append(StudyRow(kind, degree, epsilon, coarse_level, fine_level, j,
                                 lam_ex, lam_h[j - 1], lam_tilde, energy, t.seconds))
            # The loop variable would keep this target's vector live while the
            # next one is computed.
            del t
    return StudyResult(rows=rows, orders={}, warnings=warnings)
