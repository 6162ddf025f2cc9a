import math

import numpy as np
import pytest

import wgeig as wg
from oracles import (MultiplicityMismatchError, eigen_diagnostics, l2_error, lower_bound_check,
                     quadrature_qh_project, vnorm_error)
from wgeig.analysis import (
    BIHARMONIC_LAMBDA1,
    direct_study,
    energy_error,
    exact_laplacian_spectrum,
    laplacian_eigenvalues,
    rate_fit,
    sipg_study,
)
from wgeig.errors import EmptyClusterError, LevelOrderError, NonPositiveError
from wgeig.eigsolve import smallest_eigs
from wgeig.mesh import build_uniform


# -- exact spectra ---------------------------------------------------------------


def test_spectrum_first_entries():
    spec = exact_laplacian_spectrum(5)
    assert abs(spec[0].value - 2 * np.pi**2) < 1e-12
    assert spec[0].multiplicity == 1
    assert abs(spec[1].value - 5 * np.pi**2) < 1e-12
    assert spec[1].multiplicity == 2
    assert spec[1].modes == ((1, 2), (2, 1))
    # the fourth eigenvalue counted with multiplicity is 8 pi^2, simple
    flat = laplacian_eigenvalues(6)
    assert abs(flat[3][0] - 8 * np.pi**2) < 1e-12
    assert flat[3][1].multiplicity == 1
    vals = [v for v, _ in flat]
    assert np.allclose(vals, np.array([2, 5, 5, 8, 10, 10]) * np.pi**2)


def test_spectrum_against_brute_force_enumeration():
    spec = exact_laplacian_spectrum(30)
    sums = sorted({m * m + n * n for m in range(1, 51) for n in range(1, 51)})
    mult = {}
    for m in range(1, 51):
        for n in range(1, 51):
            mult[m * m + n * n] = mult.get(m * m + n * n, 0) + 1
    for entry, s in zip(spec, sums[:30]):
        assert abs(entry.value - s * np.pi**2) < 1e-10
        assert entry.multiplicity == mult[s]


def test_generators_are_l2_normalized():
    gen = exact_laplacian_spectrum(2)[1].generators[0]
    x, w = np.polynomial.legendre.leggauss(40)
    gx = 0.5 * (x + 1.0)
    X, Y = np.meshgrid(gx, gx, indexing="ij")
    W = np.outer(w, w) * 0.25
    norm2 = float((W * gen(X, Y) ** 2).sum())
    assert abs(norm2 - 1.0) < 1e-12


def test_spectrum_validation():
    with pytest.raises(ValueError):
        exact_laplacian_spectrum(0)


# -- eigenfunction energy distance -------------------------------------------------


def test_energy_error_single_generator_alignment(lap_L3_k1):
    space, forms = lap_L3_k1
    gen = exact_laplacian_spectrum(1)[0].generators[0]
    q = wg.qh_project(space, gen)
    bnorm = np.sqrt(q @ (forms.B @ q))
    anorm = np.sqrt(q @ (forms.A @ q))
    u_bar = q / bnorm
    err = energy_error(forms, u_bar, [gen])
    assert err <= anorm * abs(1 - 1 / bnorm) + 1e-12


def test_energy_error_sign_and_permutation_invariance(lap_L3_k1):
    space, forms = lap_L3_k1
    pairs = smallest_eigs(forms, 3)
    gens = list(exact_laplacian_spectrum(2)[1].generators)
    u = pairs[1].vector
    base = energy_error(forms, u, gens)
    assert abs(energy_error(forms, -u, gens) - base) <= 1e-12 * max(base, 1)
    assert abs(energy_error(forms, u, gens[::-1]) - base) <= 1e-12 * max(base, 1)


def test_energy_error_matches_angle_sweep_oracle(lap_L3_k1):
    space, forms = lap_L3_k1
    pairs = smallest_eigs(forms, 3)
    cluster = exact_laplacian_spectrum(2)[1]
    cols = np.column_stack([wg.qh_project(space, g) for g in cluster.generators])
    A = forms.A
    def sweep(w, lo, hi, npts=721):
        wAw = w @ (A @ w)
        thetas = np.linspace(lo, hi, npts)
        best_val, best_theta = np.inf, lo
        for theta in thetas:
            g = cols @ np.array([np.cos(theta), np.sin(theta)])
            val = wAw - (g @ (A @ w)) ** 2 / (g @ (A @ g))
            if val < best_val:
                best_val, best_theta = val, theta
        return best_val, best_theta

    for pair in pairs[1:3]:
        w = pair.vector
        got = energy_error(forms, w, cluster.generators)
        # brute force over 721 directions on the coefficient circle with the
        # optimal scale fitted in closed form per direction, then one local
        # 721-point refinement around the best bracket
        _, theta0 = sweep(w, 0.0, np.pi)
        step = np.pi / 720
        best, _ = sweep(w, theta0 - step, theta0 + step)
        best = np.sqrt(max(best, 0.0))
        assert abs(got - best) < 1e-6


def test_energy_error_exact_for_small_a_orthogonal_offsets():
    """w = q + delta with delta A-orthogonal to the projected generator q: the
    distance is ||delta||_A, however small it is against ||q||_A.  Subtracting
    r.sol from ||w||_A^2 would lose about log10(||q||_A^2 / ||delta||_A^2)
    digits here."""
    space = wg.WgSpace(build_uniform(4), 3, kind="laplacian", epsilon=0.1)
    forms = wg.assemble(space)
    A = forms.A
    spec = exact_laplacian_spectrum(2)
    gen = spec[0].generators[0]
    q = wg.qh_project(space, gen)
    delta = wg.qh_project(space, spec[1].generators[0])
    delta -= (q @ (A @ delta)) / (q @ (A @ q)) * q
    for scale in (1e-3, 1e-4, 1e-5, 1e-6):
        w = q + scale * np.sqrt((q @ (A @ q)) / (delta @ (A @ delta))) * delta
        d = w - q
        want = np.sqrt(d @ (A @ d))
        assert abs(energy_error(forms, w, [gen]) - want) <= 1e-9 * want


def test_energy_error_empty_cluster(lap_L2_k1):
    space, forms = lap_L2_k1
    with pytest.raises(EmptyClusterError):
        energy_error(forms, np.zeros(space.ndof), [])


# -- cluster diagnostics -------------------------------------------------------------


def test_diagnostics_multiplicity_one(lap_L3_k1):
    space, forms = lap_L3_k1
    pairs = smallest_eigs(forms, 1)
    exact = exact_laplacian_spectrum(1)[0]
    d = eigen_diagnostics(pairs, exact, space)
    assert d.delta == d.sigma == abs(exact.value - pairs[0].value)
    assert d.sigma <= d.delta
    assert d.eta > 0 and d.gamma > 0


def test_diagnostics_synthetic_offsets(lap_L3_k1):
    space, forms = lap_L3_k1
    pairs = smallest_eigs(forms, 3)[1:3]
    exact = exact_laplacian_spectrum(2)[1]
    synthetic = [
        wg.EigenPair(value=exact.value + 1e-3, vector=pairs[0].vector, residual=0.0),
        wg.EigenPair(value=exact.value - 1e-3, vector=pairs[1].vector, residual=0.0),
    ]
    d = eigen_diagnostics(synthetic, exact, space)
    assert abs(d.delta - 1e-3) < 1e-12
    assert abs(d.sigma - 1e-3) < 1e-12


def test_diagnostics_multiplicity_mismatch(lap_L3_k1):
    space, forms = lap_L3_k1
    pairs = smallest_eigs(forms, 1)
    exact = exact_laplacian_spectrum(2)[1]  # multiplicity 2
    with pytest.raises(MultiplicityMismatchError):
        eigen_diagnostics(pairs, exact, space)


def test_diagnostics_delta_decay_second_cluster():
    deltas = []
    for level in (3, 4, 5):
        space = wg.WgSpace(build_uniform(level), 1, kind="laplacian", epsilon=0.1)
        forms = wg.assemble(space)
        pairs = smallest_eigs(forms, 3)
        exact = exact_laplacian_spectrum(2)[1]
        d = eigen_diagnostics(pairs[1:3], exact, space)
        assert d.sigma <= d.delta
        assert np.isfinite(d.eta) and np.isfinite(d.gamma)
        deltas.append(d.delta)
    # refinement contracts delta by about 2^(2 - 2 eps) = 3.48
    for a, b in zip(deltas, deltas[1:]):
        assert 2.8 < a / b < 4.4


# -- rate fitting and verdicts ---------------------------------------------------------


def test_rate_fit_exact_power_laws():
    h = np.array([0.5, 0.25, 0.125, 0.0625])
    assert abs(rate_fit(h, h**2) - 2.0) < 1e-12
    assert abs(rate_fit(h, 3.0 * h**1.8) - 1.8) < 1e-12


def test_rate_fit_validation():
    with pytest.raises(NonPositiveError):
        rate_fit([0.5, 0.25], [1.0, -1.0])
    with pytest.raises(ValueError):
        rate_fit([0.5], [1.0])
    with pytest.raises(ValueError, match="distinct"):
        rate_fit([0.125, 0.125], [0.1, 0.2])


def test_lower_bound_check_signs():
    assert lower_bound_check([5.9e-4, 3.8e-3]) == [True, True]
    assert lower_bound_check([5.9e-4, -9.6946e-3]) == [True, False]
    assert lower_bound_check([0.0, 0.0]) == [True, True]


# -- field error norms ------------------------------------------------------------------


def test_l2_error_of_exact_interior(lap_L2_k1):
    space, _ = lap_L2_k1
    f = lambda x, y: 1.0 + 0.5 * x - 0.25 * y
    q = quadrature_qh_project(space, f)
    assert l2_error(space, q, f) < 1e-13


def test_vnorm_error_reduces_to_boundary_terms_for_polynomial():
    # u = x^2 y interpolated exactly: the interior terms of the V-norm error
    # cancel and only the eliminated boundary unknowns contribute.  Those
    # integrals have closed forms:
    #   h^-3 [ int y^2 (x=1) + int x^4 (y=1) ]            = h^-3 * 8/15
    #   h^-1 [ int (2y)^2 (x=1) + 2 int x^4 (y=0, y=1) ]  = h^-1 * 26/15
    space = wg.WgSpace(build_uniform(2), 3, kind="biharmonic", epsilon=0.1)
    u = lambda x, y: x**2 * y
    grad = lambda x, y: (2 * x * y, x**2 * np.ones_like(y))
    lap = lambda x, y: 2 * y

    from conftest import local_interpolant

    coeffs = np.zeros(space.ndof)
    gmap = space.local_dof_map()
    for element in range(space.mesh.num_elements):
        vloc = local_interpolant(space, element, u, grad)
        keep = gmap[element] < space.ndof
        coeffs[gmap[element][keep]] = vloc[keep]
    assert l2_error(space, coeffs, u) < 1e-12

    h = space.mesh.h
    want = np.sqrt(h ** (-3.0) * (8 / 15) + h ** (-1.0) * (26 / 15))
    got = vnorm_error(space, coeffs, u, grad, lap)
    assert abs(got - want) < 1e-10 * want


def test_vnorm_error_requires_biharmonic(lap_L2_k1):
    space, _ = lap_L2_k1
    with pytest.raises(ValueError):
        vnorm_error(space, np.zeros(space.ndof), lambda x, y: x, lambda x, y: (x, x), lambda x, y: x)


# -- study orchestration -------------------------------------------------------------------


def test_direct_study_rows_and_orders():
    res = direct_study("laplacian", 1, 0.1, [2, 3], 2)
    assert len(res.rows) == 4
    first = res.rows[0]
    assert first.problem == "laplacian" and first.k == 1
    assert first.H_level == first.h_level == 2
    assert first.lambda_tilde is None and first.err_sipg is None
    assert first.lower_bound is True
    assert "eig_1" in res.orders and "energy_1" in res.orders


def test_direct_study_biharmonic_reference_only_first_index():
    res = direct_study("biharmonic", 2, 0.1, [2], 2)
    assert res.rows[0].lambda_exact == BIHARMONIC_LAMBDA1
    assert res.rows[1].lambda_exact is None
    assert res.rows[1].err_direct is None and res.rows[1].lower_bound is None


@pytest.mark.parametrize("kind,degree", [("laplacian", 1), ("biharmonic", 2)])
@pytest.mark.parametrize("study", ["direct", "sipg"])
@pytest.mark.parametrize("num_eigs", [0, -1])
def test_studies_reject_num_eigs_below_one_before_assembly(kind, degree, study, num_eigs,
                                                           monkeypatch):
    def no_assembly(space):
        raise AssertionError("assembled before validating num_eigs")

    monkeypatch.setattr("wgeig.analysis.assemble", no_assembly)
    with pytest.raises(ValueError):
        if study == "direct":
            direct_study(kind, degree, 0.1, [1], num_eigs)
        else:
            sipg_study(kind, degree, 0.1, [1], 2, num_eigs)


@pytest.mark.parametrize("kind,degree", [("laplacian", 1), ("biharmonic", 2)])
@pytest.mark.parametrize("study", ["direct", "sipg"])
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, 1.0, 5.0])
def test_studies_reject_a_tol_outside_zero_one_before_assembly(kind, degree, study, tol,
                                                               monkeypatch):
    # tol = 0, -1 and NaN once ran the whole eigensolve, with its m + 1
    # retry, and raised NoConvergenceError; tol = 5 let any residual pass.
    def no_assembly(space):
        raise AssertionError("assembled before validating tol")

    monkeypatch.setattr("wgeig.analysis.assemble", no_assembly)
    with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
        if study == "direct":
            direct_study(kind, degree, 0.1, [5], 6, tol=tol)
        else:
            sipg_study(kind, degree, 0.1, [1], 2, 2, tol=tol)


@pytest.mark.parametrize("study", ["direct", "sipg"])
@pytest.mark.parametrize("epsilon", [0.0, 1.0, 2.0, math.nan])
def test_studies_refuse_a_bad_epsilon_before_any_mesh(study, epsilon, monkeypatch):
    # Only the space checked epsilon once, so both studies built their mesh
    # (levels 3 and 4) before refusing it.
    def no_mesh(level):
        raise AssertionError("a mesh was built before refusing epsilon")

    monkeypatch.setattr("wgeig.analysis.build_uniform", no_mesh)
    with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
        if study == "direct":
            direct_study("laplacian", 1, epsilon, [3], 2)
        else:
            sipg_study("laplacian", 1, epsilon, [3], 4, 2)


@pytest.mark.parametrize("study", ["direct", "sipg"])
def test_studies_refuse_an_empty_sweep(study):
    # An empty sweep once returned no rows, the two-grid one after
    # assembling its fine space.
    with pytest.raises(ValueError, match="a study needs at least one level"):
        if study == "direct":
            direct_study("laplacian", 1, 0.1, [], 2)
        else:
            sipg_study("laplacian", 1, 0.1, [], 2, 2)


@pytest.mark.parametrize("study", ["direct", "sipg"])
def test_studies_refuse_a_repeated_level_before_assembly(study, monkeypatch):
    # The direct study once solved level 3 twice, and only rate_fit raised
    # then; the two-grid one returned each target twice and raised nothing.
    def no_assembly(space):
        raise AssertionError("assembled before refusing a repeated level")

    monkeypatch.setattr("wgeig.analysis.assemble", no_assembly)
    with pytest.raises(ValueError, match=r"level (\d) is repeated in \[\1, \1\]"):
        if study == "direct":
            direct_study("laplacian", 1, 0.1, [3, 3], 2)
        else:
            sipg_study("laplacian", 1, 0.1, [2, 2], 4, 2)


@pytest.mark.parametrize("fine_level", [2, 1])
def test_sipg_study_refuses_level_order_before_assembly(fine_level, monkeypatch):
    # The fine space was once assembled, and its direct eigensolve run,
    # before run_sipg refused the level pair.
    def no_assembly(space):
        raise AssertionError("assembled before validating the level order")

    monkeypatch.setattr("wgeig.analysis.assemble", no_assembly)
    with pytest.raises(LevelOrderError,
                       match=rf"fine level {fine_level} must exceed every coarse level \[2\]"):
        sipg_study("laplacian", 1, 0.1, [2], fine_level, 2, include_direct=True)


def test_sipg_study_rows():
    res = sipg_study("laplacian", 1, 0.1, [2, 3], 4, 2, include_direct=True)
    assert len(res.rows) == 4  # two coarse levels x two eigenpairs
    for row in res.rows:
        assert row.h_level == 4
        assert row.lambda_tilde is not None
        assert row.lambda_h is not None
        assert row.energy_err is not None
    assert {row.H_level for row in res.rows} == {2, 3}
