"""Factorizations of the shifted fine systems on a realistic mesh."""

import numpy as np
import pytest
from scipy.sparse.linalg import splu

import wgeig as wg
from wgeig import linalg
from wgeig.eigsolve import smallest_eigs, solve_shifted
from wgeig.errors import NearSingularError
from wgeig.mesh import build_uniform


def _fill(lu):
    return lu.L.nnz + lu.U.nnz


def _minimum_degree_splu(M, diag_pivot_thresh):
    """Oracle: SuperLU's own minimum-degree ordering on the pattern of M + Mᵀ."""
    return splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=diag_pivot_thresh,
                options={"SymmetricMode": True})


@pytest.fixture(scope="module")
def lap_L5_k1():
    space = wg.WgSpace(build_uniform(5), 1, kind="laplacian", epsilon=0.1)
    forms = wg.assemble(space)
    return forms, smallest_eigs(forms, 2)


def test_shifted_factorization_keeps_symmetric_fill(lap_L5_k1):
    forms, pairs = lap_L5_k1
    assert forms.A.shape[0] == 5056
    M = (forms.A - 1.01 * pairs[1].value * forms.B).tocsc()
    lu, pivot_ratio = linalg.factor_indefinite(M, forms.order)
    # An ordering that ignores the symmetry of A - σB fills in 3.65 times as
    # much as the SPD factorization of A on this pattern.
    assert _fill(lu) <= 1.5 * _fill(linalg.factor_spd(forms.A, forms.order))
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
    lu, _ = linalg.factor_indefinite((forms.A - sigma * forms.B).tocsc(), forms.order)
    # 0.999; under minimum degree 1.0001, and 1.62 when B carried entries
    # outside the pattern of A.
    assert _fill(lu) <= 1.05 * _fill(linalg.factor_spd(forms.A, forms.order))


def test_nested_dissection_fills_less_than_minimum_degree():
    space = wg.WgSpace(build_uniform(6), 1, kind="laplacian", epsilon=0.1)
    forms = wg.assemble(space)
    # 0.713 on this mesh, 0.761 at level 8.
    nd = _fill(linalg.factor_spd(forms.A, forms.order))
    assert nd <= 0.8 * _fill(_minimum_degree_splu(forms.A, 0.0))


def test_shifted_solves_match_minimum_degree_oracle(lap_L5_k1):
    # The two-grid step H = 1/4 -> h = 1/32: every coarse eigenvalue as shift.
    forms, _ = lap_L5_k1
    coarse = wg.WgSpace(build_uniform(2), 1, kind="laplacian", epsilon=0.1)
    negative, oracle_negative = [], []
    for pair in smallest_eigs(wg.assemble(coarse), 6):
        rhs = wg.cross_mass_rhs(wg.WgFunction(coarse, pair.vector), forms.space)
        M = (forms.A - pair.value * forms.B).tocsc()
        lu, _ = linalg.factor_indefinite(M, forms.order)
        oracle = _minimum_degree_splu(M, 0.01)
        # No row swap, so the negative pivots count the eigenvalues below σ.
        assert np.array_equal(lu.perm_r, lu.perm_c)
        negative.append(int(np.sum(lu.U.diagonal() < 0)))
        oracle_negative.append(int(np.sum(oracle.U.diagonal() < 0)))
        x = solve_shifted(forms, pair.value, rhs)
        y, _ = linalg.refined_solve(oracle, M, rhs, tol=1e-10)
        assert np.linalg.norm(x - y) <= 1e-10 * np.linalg.norm(y)
    assert negative == oracle_negative
    assert max(negative) > 0
