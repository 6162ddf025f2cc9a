"""Factorizations of the shifted fine systems on a realistic mesh."""

import numpy as np
import pytest

import wgeig as wg
from wgeig import linalg
from wgeig.eigsolve import smallest_eigs, solve_shifted
from wgeig.errors import NearSingularError
from wgeig.mesh import build_uniform


def _fill(lu):
    return lu.L.nnz + lu.U.nnz


@pytest.fixture(scope="module")
def lap_L5_k1():
    space = wg.WgSpace(build_uniform(5), 1, kind="laplacian", epsilon=0.1)
    forms = wg.assemble(space)
    return forms, smallest_eigs(forms, 2)


def test_shifted_factorization_keeps_symmetric_fill(lap_L5_k1):
    forms, pairs = lap_L5_k1
    assert forms.A.shape[0] == 5056
    M = (forms.A - 1.01 * pairs[1].value * forms.B).tocsc()
    lu, pivot_ratio = linalg.factor_indefinite(M)
    # An ordering that ignores the symmetry of A - σB fills in 3.65 times as
    # much as the SPD factorization of A on this pattern.
    assert _fill(lu) <= 1.5 * _fill(linalg.factor_spd(forms.A))
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
    lu, _ = linalg.factor_indefinite((forms.A - sigma * forms.B).tocsc())
    # 1.0001; 1.62 when B carries entries outside the pattern of A.
    assert _fill(lu) <= 1.05 * _fill(linalg.factor_spd(forms.A))
