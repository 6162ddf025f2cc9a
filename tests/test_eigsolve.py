import logging
import re
from functools import cache

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator

import wgeig as wg
from wgeig.eigsolve import rayleigh_quotient, smallest_eigs, solve_shifted
from wgeig.errors import (
    FactorizationFailureError,
    NearSingularError,
    NoConvergenceError,
    ZeroMassError,
)
import wgeig.eigsolve as eigsolve
from wgeig.mesh import build_uniform
from wgeig import linalg

from conftest import CountingLU, dense_pencil_eigs, local_interior_eigs
from oracles import EigenCluster, quadrature_qh_project

EXACT6 = np.array([2, 5, 5, 8, 10, 10]) * np.pi**2


def _forms_with_local(local_of):
    """Forms of a level 2 Laplacian k=1 space assembled from the shared local
    stiffness matrix local_of(kit) instead of the space's own."""
    space = wg.WgSpace(build_uniform(2), 1, kind="laplacian", epsilon=0.1)
    kit = space.kit()
    kit.a_local = local_of(kit)
    return wg.assemble(space)


def test_matches_dense_oracle_laplacian(lap_L2_k1):
    _, forms = lap_L2_k1
    pairs = smallest_eigs(forms, 6)
    got = np.array([p.value for p in pairs])
    want = dense_pencil_eigs(forms, 6)
    assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()
    # frozen regression values (computed once via the dense oracle)
    frozen = np.array([14.67640233, 24.93164556, 24.93164556,
                       31.55524549, 31.55524549, 33.90153095])
    assert np.allclose(got, frozen, rtol=1e-8, atol=0)


def test_matches_dense_oracle_biharmonic(bih_L1_k2):
    _, forms = bih_L1_k2
    pairs = smallest_eigs(forms, 2)
    got = np.array([p.value for p in pairs])
    want = dense_pencil_eigs(forms, 2)
    assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()
    assert np.allclose(got, [26.10743256, 41.75637895], rtol=1e-8, atol=0)


def test_nested_requests_consistent(lap_L2_k1):
    _, forms = lap_L2_k1
    six = [p.value for p in smallest_eigs(forms, 6)]
    for m in (1, 2, 3, 4, 5):
        vals = [p.value for p in smallest_eigs(forms, m)]
        assert np.allclose(vals, six[:m], rtol=1e-9, atol=0)


@pytest.mark.parametrize("level", [2, 3, 4])
def test_symmetry_pair_is_double(level):
    space = wg.WgSpace(build_uniform(level), 1, kind="laplacian", epsilon=0.1)
    pairs = smallest_eigs(wg.assemble(space), 3)
    assert abs(pairs[1].value - pairs[2].value) <= 1e-9 * pairs[1].value


def test_lower_bound_at_L4():
    space = wg.WgSpace(build_uniform(4), 1, kind="laplacian", epsilon=0.1)
    pairs = smallest_eigs(wg.assemble(space), 1)
    assert pairs[0].value < 2 * np.pi**2


def test_monotone_from_below():
    values = []
    for level in (2, 3, 4, 5):
        space = wg.WgSpace(build_uniform(level), 1, kind="laplacian", epsilon=0.1)
        values.append(smallest_eigs(wg.assemble(space), 1)[0].value)
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] < 2 * np.pi**2


def test_orthonormality_and_residuals(lap_L3_k1):
    _, forms = lap_L3_k1
    pairs = smallest_eigs(forms, 6)
    X = np.column_stack([p.vector for p in pairs])
    lam = np.array([p.value for p in pairs])
    gram_b = X.T @ (forms.B @ X)
    assert np.abs(gram_b - np.eye(6)).max() < 1e-10
    gram_a = X.T @ (forms.A @ X)
    assert np.abs(gram_a - np.diag(lam)).max() < 1e-8 * lam.max()
    assert all(p.residual <= 1e-10 for p in pairs)
    assert np.all(np.diff(lam) > -1e-12 * lam.max())


@pytest.mark.parametrize("level", [3, 4])
def test_laplacian_k3_splits_double_pair(level):
    # m = 2 takes one vector of the double eigenvalue lambda_2 = lambda_3.
    space = wg.WgSpace(build_uniform(level), 3, kind="laplacian", epsilon=0.1)
    forms = wg.assemble(space)
    pairs = smallest_eigs(forms, 2)
    assert all(p.residual <= 1e-10 for p in pairs)
    got = np.array([p.value for p in pairs])
    want = dense_pencil_eigs(forms, 2)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@cache
def _small_forms(kind, degree, level):
    return wg.assemble(wg.WgSpace(build_uniform(level), degree, kind=kind, epsilon=0.1))


@st.composite
def _small_requests(draw):
    kind, degree = draw(st.sampled_from(
        [("laplacian", 1), ("laplacian", 2), ("laplacian", 3),
         ("biharmonic", 2), ("biharmonic", 3)]))
    level = draw(st.integers(1, 2))
    forms = _small_forms(kind, degree, level)
    m = draw(st.integers(1, min(6, forms.n_interior_dofs - 2)))
    return forms, m


@given(_small_requests())
def test_sweep_matches_dense_oracle(case):
    # The first six Laplacian values hold the double pairs lambda_2 = lambda_3
    # and lambda_5 = lambda_6: a start vector that missed an eigenspace would
    # return the next value in place of the second copy.
    forms, m = case
    got = np.array([p.value for p in smallest_eigs(forms, m)])
    want = dense_pencil_eigs(forms, m)
    assert np.all(np.abs(got - want) <= 1e-10 * want)


@pytest.mark.parametrize("extra", [1, 0])
def test_dense_path_near_full_rank(extra):
    # m >= n_interior - 1 is beyond ARPACK; the reduced operator is formed.
    forms = _small_forms("laplacian", 1, 1)
    m = forms.n_interior_dofs - extra
    pairs = smallest_eigs(forms, m)
    got = np.array([p.value for p in pairs])
    want = dense_pencil_eigs(forms, m)
    assert np.abs(got - want).max() <= 1e-10 * want.max()
    assert all(p.residual <= 1e-10 for p in pairs)


def test_deterministic_bitwise(lap_L2_k1):
    _, forms = lap_L2_k1
    a = smallest_eigs(forms, 6)
    b = smallest_eigs(forms, 6)
    for pa, pb in zip(a, b):
        assert pa.value == pb.value
        assert np.array_equal(pa.vector, pb.vector)


def test_request_validation(lap_L2_k1):
    _, forms = lap_L2_k1
    with pytest.raises(ValueError):
        smallest_eigs(forms, 0)
    with pytest.raises(ValueError):
        smallest_eigs(forms, forms.n_interior_dofs + 1)


def test_no_convergence_error(lap_L3_k1, monkeypatch):
    _, forms = lap_L3_k1

    def stalled_eigsh(op, k, **kwargs):
        for _ in range(4):
            op.matvec(np.ones(op.shape[0]))
        raise ArpackNoConvergence("stalled", np.empty(0), np.empty((op.shape[0], 0)))

    monkeypatch.setattr(eigsolve, "eigsh", stalled_eigsh)
    with pytest.raises(NoConvergenceError) as info:
        smallest_eigs(forms, 6)
    assert info.value.iterations == 4
    assert info.value.worst_residual == np.inf


def test_factorization_failure_on_indefinite():
    forms = _forms_with_local(lambda kit: -kit.a_local)
    with pytest.raises(FactorizationFailureError):
        smallest_eigs(forms, 2)


CUT_CLUSTER_CASES = [(kind, degree, level, m)
                     for kind, degree in [("laplacian", 1), ("laplacian", 2), ("laplacian", 3),
                                          ("biharmonic", 2), ("biharmonic", 3)]
                     for level in (3, 4) for m in (2, 5)]


@pytest.mark.parametrize("kind,degree,level,m", CUT_CLUSTER_CASES)
def test_cut_clusters_pass_the_residual_gate(kind, degree, level, m):
    # m = 2 cuts the double pair lambda_2 = lambda_3 of both problems, and
    # m = 5 the Laplacian's lambda_5 = lambda_6 (the biharmonic lambda_5 is
    # simple).
    forms = _small_forms(kind, degree, level)
    pairs = smallest_eigs(forms, m)
    assert len(pairs) == m
    assert all(p.residual <= 1e-10 for p in pairs)
    values = [p.value for p in pairs]
    assert values == sorted(values)


def test_failed_residual_gate_widens_the_request_once(monkeypatch):
    # A first ARPACK answer with an unconverged Ritz vector fails the residual
    # gate; the solver asks once more, for one more pair.
    requests = []

    def unconverged_first(op, k, **kwargs):
        requests.append(k)
        theta, Z = arpack(op, k=k, **kwargs)
        if len(requests) == 1:
            Z[:, 0] += 1e-6 * np.random.default_rng(0).standard_normal(Z.shape[0])
        return theta, Z

    arpack = eigsolve.eigsh
    monkeypatch.setattr(eigsolve, "eigsh", unconverged_first)
    forms = _small_forms("biharmonic", 3, 3)
    pairs = smallest_eigs(forms, 2)
    assert requests == [2, 3]
    assert all(p.residual <= 1e-10 for p in pairs)
    want = dense_pencil_eigs(forms, 2)
    assert np.allclose([p.value for p in pairs], want, rtol=1e-10, atol=0)


def test_a_nan_residual_is_never_certified(lap_L3_k1, monkeypatch):
    # Level 3 runs ARPACK alone.  Each answer's second product with A, the
    # residual product of pair 2, reads NaN: the gate must refuse both the
    # first answer and the widened one, and report the NaN as the worst.
    _, forms = lap_L3_k1
    requests = []

    def counted_eigsh(op, k, **kwargs):
        requests.append(k)
        return arpack(op, k=k, **kwargs)

    def nan_on_second_product(space, shift=0.0):
        A, products = plain_operator(space, shift), []

        def matvec(x):
            products.append(1)
            return np.full(len(x), np.nan) if len(products) == 2 else A @ x

        return LinearOperator(A.shape, matvec=matvec, dtype=float)

    arpack, plain_operator = eigsolve.eigsh, wg.WgSpace.operator
    monkeypatch.setattr(eigsolve, "eigsh", counted_eigsh)
    monkeypatch.setattr(wg.WgSpace, "operator", nan_on_second_product)
    with pytest.raises(NoConvergenceError) as info:
        smallest_eigs(forms, 6)
    assert requests == [6, 7]
    assert np.isnan(info.value.worst_residual)


def test_every_operator_application_is_one_counted_solve(monkeypatch):
    # Each ARPACK application of C and each recovered pair is one 1-D solve
    # with an interior-only right-hand side, visible to a proxy on the
    # factor; the benchmark's operator count reads these calls.
    factors, applications = [], []

    def counted_factor(forms):
        factors.append(CountingLU(factor_spd(forms)))
        return factors[-1]

    def counted_eigsh(op, **kwargs):
        def matvec(z):
            applications.append(z.shape)
            return op.matvec(z)
        return arpack(LinearOperator(op.shape, matvec=matvec, dtype=float), **kwargs)

    factor_spd, arpack = linalg.factor_spd, eigsolve.eigsh
    monkeypatch.setattr(linalg, "factor_spd", counted_factor)
    monkeypatch.setattr(eigsolve, "eigsh", counted_eigsh)
    forms = _small_forms("laplacian", 1, 3)
    pairs = smallest_eigs(forms, 6)
    assert len(factors) == 1 and len(applications) > 6
    assert factors[0].shapes == [(forms.n_interior_dofs,)] * (len(applications) + len(pairs))


# -- the multilevel correction route ----------------------------------------------


def _arpack_pairs(degree, level, m=6):
    """A Laplacian space and the ARPACK route's pairs on it."""
    forms = wg.assemble(wg.WgSpace(build_uniform(level), degree, kind="laplacian"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eigsolve, "_ROUTE_LEVEL", level + 1)
        return forms, eigsolve.smallest_eigs(forms, m)


def _watch_route(monkeypatch):
    """The levels ARPACK runs on and the inertia of every certificate."""
    seen = {"arpack": [], "inertia": []}

    def arpack(space, m, tol):
        seen["arpack"].append(space.mesh.level)
        return plain_arpack(space, m, tol)

    def counted(self, space, shift, *args, **kwargs):
        plain_init(self, space, shift, *args, **kwargs)
        if self.inertia is not None and shift != 0.0:  # not factor_spd's count
            seen["inertia"].append(self.inertia)

    plain_arpack, plain_init = eigsolve._arpack, linalg.NestedLU.__init__
    monkeypatch.setattr(eigsolve, "_arpack", arpack)
    monkeypatch.setattr(linalg.NestedLU, "__init__", counted)
    return seen


def _refusal(caplog, level, m):
    """The reason of the one refusal logged, for the route at level and m."""
    lines = [r.getMessage() for r in caplog.records if r.name.startswith("wgeig")]
    head, tail = f"eigensolve level {level}, m = {m}: correction route refused, ", "; ARPACK runs"
    assert len(lines) == 1 and lines[0].startswith(head) and lines[0].endswith(tail), lines
    return lines[0][len(head):-len(tail)]


def _worst_residual(reason, steps):
    match = re.fullmatch(rf"the step budget ran out: after {steps} steps the worst "
                         r"residual is (\S+)", reason)
    assert match, reason
    return float(match[1])


@pytest.mark.parametrize("steps,counted", [(3, []), (4, [10])])
def test_a_refused_route_returns_the_arpack_pairs(monkeypatch, caplog, steps, counted):
    # From level 2 the Rayleigh-quotient steps on level 5 lose λ₄ (76.87)
    # and converge, by the fourth step, to a wrong set with tiny residuals.
    # Three steps end on the step budget; four end on the certificate, which
    # counts ten eigenvalues below σ⁺ in place of the seven pairs carried (m
    # = 6 cuts the level 2 double λ₆ = λ₇).  Either way ARPACK runs, and one
    # INFO line says why.
    forms, want = _arpack_pairs(1, 5)
    seen = _watch_route(monkeypatch)
    monkeypatch.setattr(eigsolve, "_ROUTE_LEVEL", 5)
    monkeypatch.setattr(eigsolve, "_MAX_STEPS", steps)
    with caplog.at_level(logging.INFO, logger="wgeig"):
        got = smallest_eigs(forms, 6)
    assert seen["arpack"] == [2, 5]
    assert seen["inertia"] == counted
    for p, q in zip(got, want):
        assert p.value == q.value and np.array_equal(p.vector, q.vector)
    reason = _refusal(caplog, 5, 6)
    if counted:
        assert reason.startswith("nu = 10 pencil eigenvalues lie below sigma+ = ")
        assert reason.endswith(", not n = 7")
    else:
        assert _worst_residual(reason, 3) > 1e-10


def test_a_route_that_runs_out_of_steps_says_so(monkeypatch, caplog):
    # At ε = 0.9 the level 3 pairs start the level 6 steps too far off: the
    # third step still leaves a residual above tol, and ARPACK runs.
    forms = wg.assemble(wg.WgSpace(build_uniform(6), 1, kind="laplacian", epsilon=0.9))
    seen = _watch_route(monkeypatch)
    with caplog.at_level(logging.INFO, logger="wgeig"):
        got = smallest_eigs(forms, 6)
    assert seen["arpack"] == [3, 6] and seen["inertia"] == []
    assert all(p.residual <= 1e-10 for p in got)
    assert _worst_residual(_refusal(caplog, 6, 6), eigsolve._MAX_STEPS) > 1e-10


@pytest.mark.parametrize("failure,error,reason", [
    ("coarse", NoConvergenceError(4, 1.0), "the coarse solve failed: {}"),
    ("factor", NearSingularError(1.0, pivot_ratio=0.0), "a factor was singular: {}"),
    ("ritz", np.linalg.LinAlgError("injected"), "the Ritz basis was B-singular"),
])
def test_a_route_that_fails_inside_returns_the_arpack_pairs(monkeypatch, caplog, failure, error,
                                                            reason):
    # A failure of the coarse solve, of a shifted factor or of the Ritz step
    # refuses the route as _Refused does: ARPACK runs on the fine level, and
    # one INFO line says why.
    forms, want = _arpack_pairs(1, 6)
    plain_arpack = eigsolve._arpack

    def fail(*args, **kwargs):
        raise error

    def coarse_fails(space, m, tol):
        return (plain_arpack if space.mesh.level == 6 else fail)(space, m, tol)

    if failure == "coarse":
        monkeypatch.setattr(eigsolve, "_arpack", coarse_fails)
    elif failure == "factor":
        monkeypatch.setattr(linalg, "factor_indefinite", fail)
    else:
        monkeypatch.setattr(eigsolve, "_rayleigh_ritz", fail)
    with caplog.at_level(logging.INFO, logger="wgeig"):
        got = smallest_eigs(forms, 6)
    for p, q in zip(got, want, strict=True):
        assert p.value == q.value and np.array_equal(p.vector, q.vector)
    assert _refusal(caplog, 6, 6) == reason.format(error)


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("level", [eigsolve._ROUTE_LEVEL, 7])
def test_the_route_agrees_with_arpack(monkeypatch, degree, level):
    forms, want = _arpack_pairs(degree, level)
    seen = _watch_route(monkeypatch)
    got = smallest_eigs(forms, 6)
    # ARPACK ran on the coarse level alone, and the certificate counted six.
    assert seen["arpack"] == [level - eigsolve._LEVELS_DOWN] and seen["inertia"] == [6]
    lam, ref = np.array([p.value for p in got]), np.array([p.value for p in want])
    assert np.all(np.abs(lam - ref) <= 1e-11 * ref), (lam - ref) / ref
    assert all(p.residual <= 1e-10 for p in got)
    X = np.column_stack([p.vector for p in got])
    assert np.abs(X.T @ (forms.mass @ X) - np.eye(6)).max() < 1e-10


@pytest.mark.parametrize("m", [2, 5])
def test_the_route_carries_a_cut_multiple_eigenvalue_whole(monkeypatch, m):
    # m = 2 and m = 5 cut λ₂ = λ₃ and λ₅ = λ₆: the cut copy lies below σ⁺,
    # so the route solves m + 1 pairs, counts m + 1 and returns m.
    forms, want = _arpack_pairs(1, eigsolve._ROUTE_LEVEL, m)
    seen = _watch_route(monkeypatch)
    got = smallest_eigs(forms, m)
    assert seen["arpack"] == [eigsolve._ROUTE_LEVEL - eigsolve._LEVELS_DOWN]
    assert seen["inertia"] == [m + 1] and len(got) == m
    lam, ref = np.array([p.value for p in got]), np.array([p.value for p in want])
    assert np.all(np.abs(lam - ref) <= 1e-11 * ref), (lam - ref) / ref
    assert all(p.residual <= 1e-10 for p in got)


def test_the_route_is_bitwise_deterministic(monkeypatch):
    level = eigsolve._ROUTE_LEVEL
    forms = wg.assemble(wg.WgSpace(build_uniform(level), 1, kind="laplacian"))
    seen = _watch_route(monkeypatch)
    a, b = smallest_eigs(forms, 6), smallest_eigs(forms, 6)
    assert seen["arpack"] == [level - eigsolve._LEVELS_DOWN] * 2
    for pa, pb in zip(a, b):
        assert pa.value == pb.value and pa.residual == pb.residual
        assert np.array_equal(pa.vector, pb.vector)


def test_cluster_grouping():
    pairs = [
        wg.EigenPair(value=v, vector=np.zeros(1), residual=0.0)
        for v in (19.7, 49.3480, 49.3480 * (1 + 1e-9), 78.9)
    ]
    cluster = EigenCluster(pairs=pairs, cluster_tol=1e-6)
    assert cluster.groups() == [[0], [1, 2], [3]]


# -- shifted solver --------------------------------------------------------------


def test_shift_zero_matches_spd_path(lap_L3_k1):
    _, forms = lap_L3_k1
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal(forms.A.shape[0])
    x = solve_shifted(forms, 0.0, rhs)
    lu = linalg.factor_spd(forms)
    y, _ = linalg.refined_solve(lu, forms.A, rhs, 1e-12)
    assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)


def test_shift_zero_rhs(lap_L2_k1):
    _, forms = lap_L2_k1
    x = solve_shifted(forms, 10.0, np.zeros(forms.A.shape[0]))
    assert np.abs(x).max() == 0.0


def test_shift_from_coarse_amplifies(lap_L3_k1):
    _, forms = lap_L3_k1
    coarse = wg.WgSpace(build_uniform(2), 1, kind="laplacian", epsilon=0.1)
    lam_c = smallest_eigs(wg.assemble(coarse), 1)[0].value
    rng = np.random.default_rng(9)
    rhs = np.zeros(forms.A.shape[0])
    rhs[: forms.n_interior_dofs] = rng.standard_normal(forms.n_interior_dofs)
    x = solve_shifted(forms, lam_c, rhs)
    M = forms.A - lam_c * forms.B
    assert np.linalg.norm(M @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)
    assert np.linalg.norm(x) > np.linalg.norm(rhs)  # near-singular amplification


def test_near_singular_exactly_singular():
    # With the interior block of the local stiffness equal to the Gram block,
    # every interior block of A - 1*B is the zero matrix.
    def interior_is_gram(kit):
        local = kit.a_local.copy()
        local[:kit.Gk.shape[0], :kit.Gk.shape[0]] = kit.Gk
        return local

    forms = _forms_with_local(interior_is_gram)
    with pytest.raises(NearSingularError) as info:
        solve_shifted(forms, 1.0, np.ones(forms.A.shape[0]))
    assert info.value.pivot_ratio == 0.0


def test_near_singular_pivot_collapse(lap_L2_k1):
    # A shift on an eigenvalue of (a_II, Gk) collapses the interior pivots.
    space, forms = lap_L2_k1
    sigma = local_interior_eigs(space)[0]
    with pytest.raises(NearSingularError) as info:
        solve_shifted(forms, sigma, np.ones(forms.A.shape[0]))
    assert info.value.pivot_ratio is not None


# -- Rayleigh quotient --------------------------------------------------------------


def test_rayleigh_of_eigenvector(lap_L2_k1):
    _, forms = lap_L2_k1
    pair = smallest_eigs(forms, 1)[0]
    rq = rayleigh_quotient(forms, pair.vector)
    assert abs(rq - pair.value) <= 1e-10 * pair.value


def test_rayleigh_scale_invariance(lap_L2_k1):
    _, forms = lap_L2_k1
    rng = np.random.default_rng(2)
    x = rng.standard_normal(forms.A.shape[0])
    base = rayleigh_quotient(forms, x)
    for c in (1e8, 1e-8):
        assert abs(rayleigh_quotient(forms, c * x) - base) <= 1e-12 * abs(base)


def test_rayleigh_bounded_below_by_smallest():
    space = wg.WgSpace(build_uniform(4), 1, kind="laplacian", epsilon=0.1)
    forms = wg.assemble(space)
    lam1 = smallest_eigs(forms, 1)[0].value
    q = quadrature_qh_project(space, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    assert rayleigh_quotient(forms, q) >= lam1


def test_rayleigh_zero_mass(lap_L2_k1):
    _, forms = lap_L2_k1
    x = np.zeros(forms.A.shape[0])
    x[forms.n_interior_dofs :] = 1.0  # pure edge vector carries no mass
    with pytest.raises(ZeroMassError):
        rayleigh_quotient(forms, x)
