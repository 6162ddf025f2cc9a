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
