"""Factorizations of the shifted fine systems on a realistic mesh."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import wgeig as wg
from wgeig import linalg
from wgeig.eigsolve import smallest_eigs, solve_shifted
from wgeig.errors import NearSingularError
from wgeig.mesh import build_uniform

from conftest import local_interior_eigs


def _fill(lu):
    return lu.L.nnz + lu.U.nnz


def _minimum_degree_splu(M, diag_pivot_thresh):
    """Oracle: SuperLU's own minimum-degree ordering on the pattern of M + Mᵀ."""
    return splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=diag_pivot_thresh,
                options={"SymmetricMode": True})


def _skeleton_schur_complement(forms):
    """Oracle: A_EE - A_EI A_II⁻¹ A_IE from the assembled blocks of A, in dof order."""
    A, ni, nb = forms.A.tocsr(), forms.n_interior, forms.space.dim_interior
    AII = A[:ni, :ni].tocoo()
    blocks = np.zeros((ni // nb, nb, nb))
    blocks[AII.row // nb, AII.row % nb, AII.col % nb] = AII.data
    inv_II = sp.block_diag(list(np.linalg.inv(blocks)), format="csr")
    return (A[ni:, ni:] - A[ni:, :ni] @ inv_II @ A[:ni, ni:]).tocsc()


def _negative_pivots(lu, forms):
    """Inertia ν(M) = n_elements ν(d(σ)) + #{diag(U_S) < 0}, by Haynsworth."""
    local = int(np.sum(np.linalg.eigvalsh(lu.interior) < 0))
    return forms.space.mesh.num_elements * local + int(np.sum(lu.U.diagonal() < 0))


@pytest.fixture(scope="module")
def lap_L5_k1():
    space = wg.WgSpace(build_uniform(5), 1, kind="laplacian", epsilon=0.1)
    forms = wg.assemble(space)
    return forms, smallest_eigs(forms, 2)


def test_shifted_factorization_keeps_symmetric_fill(lap_L5_k1):
    forms, pairs = lap_L5_k1
    assert forms.A.shape[0] == 5056
    sigma = 1.01 * pairs[1].value
    M = forms.A - sigma * forms.B
    lu, pivot_ratio = linalg.factor_indefinite(forms, sigma, M)
    # An ordering that ignores the symmetry of A - σB fills in 3.65 times as
    # much as the SPD factorization of A on this pattern.
    assert _fill(lu) <= 1.5 * _fill(linalg.factor_spd(forms))
    assert pivot_ratio > linalg.PIVOT_RATIO_FLOOR
    rhs = forms.B @ np.ones(M.shape[0])
    _, residual = linalg.refined_solve(lu, M, rhs, tol=1e-10)
    assert residual <= 1e-10


def test_shift_on_an_eigenvalue_still_collides(lap_L5_k1):
    forms, pairs = lap_L5_k1
    rhs = forms.B @ pairs[0].vector
    with pytest.raises(NearSingularError) as info:
        solve_shifted(forms, pairs[0].value, rhs)
    assert info.value.residual > 1e-10


@pytest.mark.parametrize("kind,degree", [("laplacian", 1), ("laplacian", 2), ("laplacian", 3),
                                         ("biharmonic", 2), ("biharmonic", 3)])
def test_shifted_system_has_the_stiffness_pattern(kind, degree):
    # B has no entry outside the pattern of A, so A - σB is no denser than A
    # and gets the same fill-reducing ordering.  A quadrature-built Gram block
    # stores its rounding noise as structure: A - σB was then 28% denser for
    # Laplacian k=1 here.
    space = wg.WgSpace(build_uniform(3), degree, kind=kind, epsilon=0.1)
    forms = wg.assemble(space)
    sigma = 1.01 * smallest_eigs(forms, 2)[1].value
    assert (forms.A - sigma * forms.B).nnz == forms.A.nnz


def test_biharmonic_shifted_fill_matches_spd_fill():
    space = wg.WgSpace(build_uniform(4), 2, kind="biharmonic", epsilon=0.1)
    forms = wg.assemble(space)
    sigma = 1.01 * smallest_eigs(forms, 2)[1].value
    lu, _ = linalg.factor_indefinite(forms, sigma, forms.A - sigma * forms.B)
    # 0.998 for the skeleton factors; 0.999 for the full matrices under nested
    # dissection, 1.0001 under minimum degree, and 1.62 when B carried entries
    # outside the pattern of A.
    assert _fill(lu) <= 1.05 * _fill(linalg.factor_spd(forms))


def test_nested_dissection_fills_less_than_minimum_degree():
    space = wg.WgSpace(build_uniform(6), 1, kind="laplacian", epsilon=0.1)
    forms = wg.assemble(space)
    # The skeleton factor against minimum degree on the same skeleton matrix:
    # 0.665 on this mesh and 0.504 at level 8 (6,690,304 against 13,274,144);
    # 0.713 for the full matrix of A on this mesh.
    nd = _fill(linalg.factor_spd(forms))
    assert nd <= 0.8 * _fill(_minimum_degree_splu(_skeleton_schur_complement(forms), 0.0))


def test_shifted_solves_match_minimum_degree_oracle(lap_L5_k1):
    # The two-grid step H = 1/4 -> h = 1/32: every coarse eigenvalue as shift.
    forms, _ = lap_L5_k1
    coarse = wg.WgSpace(build_uniform(2), 1, kind="laplacian", epsilon=0.1)
    negative, oracle_negative = [], []
    for pair in smallest_eigs(wg.assemble(coarse), 6):
        rhs = wg.cross_mass_rhs(wg.WgFunction(coarse, pair.vector), forms.space)
        M = forms.A - pair.value * forms.B
        lu, _ = linalg.factor_indefinite(forms, pair.value, M)
        oracle = _minimum_degree_splu(M, 0.01)
        # No row swap, so the negative pivots count the eigenvalues below σ.
        assert np.array_equal(lu.perm_r, lu.perm_c)
        negative.append(_negative_pivots(lu, forms))
        oracle_negative.append(int(np.sum(oracle.U.diagonal() < 0)))
        x = solve_shifted(forms, pair.value, rhs)
        y, _ = linalg.refined_solve(oracle, M, rhs, tol=1e-10)
        assert np.linalg.norm(x - y) <= 1e-10 * np.linalg.norm(y)
    assert negative == oracle_negative
    assert max(negative) > 0


@pytest.mark.parametrize("kind,degree", [("laplacian", 1), ("laplacian", 2), ("laplacian", 3),
                                         ("biharmonic", 2), ("biharmonic", 3)])
def test_condensed_solves_match_full_oracle(kind, degree):
    # Shifts from 0 to past the whole local interior spectrum μ of (a_II, Gk):
    # above μ_min every interior block d(σ) is indefinite.
    space = wg.WgSpace(build_uniform(3), degree, kind=kind, epsilon=0.1)
    forms = wg.assemble(space)
    mu = local_interior_eigs(space)
    distinct = mu[np.flatnonzero(np.diff(mu) > 1e-6 * mu[-1])]
    gaps = np.diff(np.append(distinct, mu[-1]))
    shifts = np.concatenate([[0.0, 0.5 * mu[0]], distinct + 0.5 * gaps, [2.0 * mu[-1]]])
    assert np.sum(shifts > mu[0]) >= 2
    rhs = np.random.default_rng(7).standard_normal((forms.A.shape[0], 3))
    for sigma in shifts:
        M = forms.A - sigma * forms.B
        lu, _ = linalg.factor_indefinite(forms, sigma, M)
        want = splu(M.tocsc()).solve(rhs)
        got = lu.solve(rhs)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), sigma
        assert np.linalg.norm(lu.solve(rhs[:, 1]) - want[:, 1]) <= 1e-10 * np.linalg.norm(want[:, 1])
    spd = linalg.factor_spd(forms).solve(rhs)
    want = splu(forms.A.tocsc()).solve(rhs)
    assert np.linalg.norm(spd - want) <= 1e-10 * np.linalg.norm(want)


def test_two_grid_targets_match_full_oracle():
    # Laplacian k=3, H = 1/2 -> h = 1/4 with 14 targets, among them the double
    # coarse pairs 2-3, 7-8, 9-10 and 12-13.
    fine = wg.WgSpace(build_uniform(2), 3, kind="laplacian", epsilon=0.1)
    forms = wg.assemble(fine)
    coarse = wg.WgSpace(build_uniform(1), 3, kind="laplacian", epsilon=0.1)
    for pair in smallest_eigs(wg.assemble(coarse), 14):
        rhs = wg.cross_mass_rhs(wg.WgFunction(coarse, pair.vector), fine)
        M = forms.A - pair.value * forms.B
        x = solve_shifted(forms, pair.value, rhs)
        y, _ = linalg.refined_solve(splu(M.tocsc()), M, rhs, tol=1e-10)
        assert np.linalg.norm(x - y) <= 1e-10 * np.linalg.norm(y)


@pytest.mark.parametrize("kind,degree,level,sigma,local,skeleton", [
    ("laplacian", 3, 2, 150.0, 1, 19), ("biharmonic", 2, 3, 6e4, 1, 64)])
def test_condensed_inertia_matches_dense_count(kind, degree, level, sigma, local, skeleton):
    # Both shifts lie above μ_min, so each interior block d(σ) has a negative
    # eigenvalue; with no row swap in the skeleton factor, Haynsworth's
    # formula gives the inertia of M from the local and skeleton pivots.
    space = wg.WgSpace(build_uniform(level), degree, kind=kind, epsilon=0.1)
    forms = wg.assemble(space)
    M = forms.A - sigma * forms.B
    lu, _ = linalg.factor_indefinite(forms, sigma, M)
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert int(np.sum(np.linalg.eigvalsh(lu.interior) < 0)) == local
    assert int(np.sum(lu.U.diagonal() < 0)) == skeleton
    dense = int(np.sum(np.linalg.eigvalsh(M.toarray()) < 0))
    assert _negative_pivots(lu, forms) == dense == space.mesh.num_elements * local + skeleton
