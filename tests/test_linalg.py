"""Factorizations of the shifted fine systems on a realistic mesh."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import dgetrf
from scipy.sparse.linalg import splu

import wgeig as wg
from wgeig import linalg
from wgeig.eigsolve import smallest_eigs, solve_shifted
from wgeig.errors import FactorizationFailureError, NearSingularError
from wgeig.mesh import build_uniform

from conftest import CountingLU, condensed_pencil_eigs, dense_pencil_eigs, local_interior_eigs
from oracles import IdNestedLU, layout_ids


def _fill(lu):
    return lu.L.nnz + lu.U.nnz


def _solve_columns(lu, rhs):
    """A block right-hand side solved column by column."""
    return np.column_stack([lu.solve(r) for r in rhs.T])


def _minimum_degree_splu(M, diag_pivot_thresh):
    """Oracle: SuperLU's own minimum-degree ordering on the pattern of M + Mᵀ."""
    return splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=diag_pivot_thresh,
                options={"SymmetricMode": True})


def _skeleton_schur_complement(space):
    """Oracle: A_EE - A_EI A_II⁻¹ A_IE from the assembled blocks of A, in dof order."""
    A, ni, nb = space.A.tocsr(), space.n_interior_dofs, space.dim_interior
    AII = A[:ni, :ni].tocoo()
    blocks = np.zeros((ni // nb, nb, nb))
    blocks[AII.row // nb, AII.row % nb, AII.col % nb] = AII.data
    inv_II = sp.block_diag(list(np.linalg.inv(blocks)), format="csr")
    return (A[ni:, ni:] - A[ni:, :ni] @ inv_II @ A[:ni, ni:]).tocsc()


def _clamped_box_eigs(space, level):
    """Eigenvalues of (A, B) on the dofs strictly inside box 0 of a quadtree
    level, its perimeter clamped: the edges condensed out densely."""
    m = 1 << level
    inside = (space.mesh.elem_ix < m) & (space.mesh.elem_iy < m)
    dof = space.local_dof_map()[inside]
    box = space.quadtree.levels[level]
    ids = np.setdiff1d(dof[dof < space.ndof], box.stop + box.perimeter[0])
    ni = int(np.sum(ids < space.n_interior_dofs))
    return condensed_pencil_eigs(space.A[ids][:, ids], space.B[ids][:, ids], ni, ni)


class _CountingCSR(sp.csr_matrix):
    """A CSR matrix that counts its products."""

    products = 0

    def __matmul__(self, other):
        self.products += 1
        return super().__matmul__(other)


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
    lu, pivot_ratio = linalg.factor_indefinite(forms, sigma)
    # An ordering that ignores the symmetry of A - σB fills in 3.65 times as
    # much as the SPD factorization of A on this pattern.
    assert _fill(lu) <= 1.5 * _fill(linalg.factor_spd(forms))
    assert pivot_ratio > linalg.PIVOT_RATIO_FLOOR
    rhs = forms.B @ np.ones(M.shape[0])
    _, residual = linalg.refined_solve(lu, M, rhs, tol=1e-10)
    assert residual <= 1e-10


def test_refinement_measures_each_residual_once(lap_L5_k1):
    # tol=1e-14 forces refinement at this shift.  Each residual is measured
    # once: one product for the first and one per step, over two steps, the
    # second one rejected.
    forms, pairs = lap_L5_k1
    sigma = 1.01 * pairs[1].value
    M = _CountingCSR(forms.A - sigma * forms.B)
    lu, _ = linalg.factor_indefinite(forms, sigma)
    counted = CountingLU(lu)
    rhs = forms.B @ np.ones(M.shape[0])
    x, residual = linalg.refined_solve(counted, M, rhs, tol=1e-14)
    assert M.products == len(counted.shapes) == 3
    assert residual == np.linalg.norm(rhs - M @ x) / np.linalg.norm(rhs) > 0.5e-14


def test_zero_right_hand_side_solves_nothing(lap_L5_k1):
    forms, _ = lap_L5_k1
    M = _CountingCSR(forms.A)
    counted = CountingLU(linalg.factor_spd(forms))
    x, residual = linalg.refined_solve(counted, M, np.zeros(forms.ndof), tol=1e-10)
    assert counted.shapes == [] and M.products == 0
    assert residual == 0.0 and x.shape == (forms.ndof,) and not x.any()


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
    lu, _ = linalg.factor_indefinite(forms, sigma)
    # 0.998 for the skeleton factors; 0.999 for the full matrices under nested
    # dissection, 1.0001 under minimum degree, and 1.62 when B carried entries
    # outside the pattern of A.
    assert _fill(lu) <= 1.05 * _fill(linalg.factor_spd(forms))


def test_nested_dissection_fills_less_than_minimum_degree():
    space = wg.WgSpace(build_uniform(6), 1, kind="laplacian", epsilon=0.1)
    forms = wg.assemble(space)
    # The entries the nested factor stores, each shared level block once,
    # against minimum degree on the skeleton Schur complement: 0.075 on this
    # mesh (32,773 against 439,310) and 0.039 at level 8 (524,293 against
    # 13,274,144).  A SuperLU factor of the skeleton in nested-dissection
    # order filled 0.665 here.
    nd = _fill(linalg.factor_spd(forms))
    assert nd <= 0.8 * _fill(_minimum_degree_splu(_skeleton_schur_complement(forms), 0.0))


def test_shifted_solves_match_minimum_degree_oracle(lap_L5_k1):
    # The two-grid step H = 1/4 -> h = 1/32: every coarse eigenvalue as shift.
    forms, _ = lap_L5_k1
    coarse = wg.WgSpace(build_uniform(2), 1, kind="laplacian", epsilon=0.1)
    negative, oracle_negative = [], []
    for pair in smallest_eigs(wg.assemble(coarse), 6):
        rhs = wg.cross_mass_rhs(coarse, pair.vector, forms)
        M = forms.A - pair.value * forms.B
        oracle = _minimum_degree_splu(M, 0.01)
        # The inertia counts the eigenvalues below σ.
        negative.append(IdNestedLU(forms, pair.value).inertia())
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
        lu, _ = linalg.factor_indefinite(forms, sigma)
        want = splu(M.tocsc()).solve(rhs)
        got = _solve_columns(lu, rhs)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), sigma
        assert np.linalg.norm(lu.solve(rhs[:, 1]) - want[:, 1]) <= 1e-10 * np.linalg.norm(want[:, 1])
    spd = _solve_columns(linalg.factor_spd(forms), rhs)
    want = splu(forms.A.tocsc()).solve(rhs)
    assert np.linalg.norm(spd - want) <= 1e-10 * np.linalg.norm(want)


def test_two_grid_targets_match_full_oracle():
    # Laplacian k=3, H = 1/2 -> h = 1/4 with 14 targets, among them the double
    # coarse pairs 2-3, 7-8, 9-10 and 12-13.
    fine = wg.WgSpace(build_uniform(2), 3, kind="laplacian", epsilon=0.1)
    forms = wg.assemble(fine)
    coarse = wg.WgSpace(build_uniform(1), 3, kind="laplacian", epsilon=0.1)
    for pair in smallest_eigs(wg.assemble(coarse), 14):
        rhs = wg.cross_mass_rhs(coarse, pair.vector, fine)
        M = forms.A - pair.value * forms.B
        x = solve_shifted(forms, pair.value, rhs)
        y, _ = linalg.refined_solve(splu(M.tocsc()), M, rhs, tol=1e-10)
        assert np.linalg.norm(x - y) <= 1e-10 * np.linalg.norm(y)


@pytest.mark.parametrize("kind,degree,level,sigma,local,skeleton", [
    ("laplacian", 3, 2, 150.0, 1, 19), ("biharmonic", 2, 3, 6e4, 1, 64)])
def test_condensed_inertia_matches_dense_count(kind, degree, level, sigma, local, skeleton):
    # Both shifts lie above μ_min, so each interior block d(σ) has a negative
    # eigenvalue; Haynsworth's formula, level by level, gives the inertia of M
    # from the cross blocks, with no condition on the pivoting.  The factor
    # keeps no cross block, so the count reads the oracle's, which are
    # bitwise the blocks the factor's LUs come from.
    space = wg.WgSpace(build_uniform(level), degree, kind=kind, epsilon=0.1)
    forms = wg.assemble(space)
    M = forms.A - sigma * forms.B
    oracle = IdNestedLU(forms, sigma)
    counts = oracle.negative_pivots()
    assert counts[0] == space.mesh.num_elements * local
    assert sum(counts[1:]) == skeleton
    dense = int(np.sum(np.linalg.eigvalsh(M.toarray()) < 0))
    assert oracle.inertia() == dense == sum(counts)


@pytest.mark.parametrize("kind,degree", [("laplacian", 1), ("laplacian", 3), ("biharmonic", 2)])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_nested_solves_match_full_oracle_on_every_level_count(kind, degree, level):
    # Mesh levels 0-2: the top box is one element with no edge dofs, sits
    # right on the elements, or sits on a level with cross and perimeter.
    space = wg.WgSpace(build_uniform(level), degree, kind=kind, epsilon=0.1)
    forms = wg.assemble(space)
    mu = local_interior_eigs(space)
    rhs = np.random.default_rng(3).standard_normal((forms.A.shape[0], 2))
    for sigma in (0.0, 0.5 * (mu[0] + mu[1]), 1.5 * mu[-1]):
        M = forms.A - sigma * forms.B
        lu, _ = linalg.factor_indefinite(forms, sigma)
        want = splu(M.tocsc()).solve(rhs)
        assert np.linalg.norm(_solve_columns(lu, rhs) - want) <= 1e-10 * np.linalg.norm(want), sigma
        one = lu.solve(rhs[:, 0])
        assert one.shape == (M.shape[0],)
        assert np.linalg.norm(one - want[:, 0]) <= 1e-10 * np.linalg.norm(want[:, 0]), sigma
        dense = int(np.sum(np.linalg.eigvalsh(M.toarray()) < 0))
        assert IdNestedLU(forms, sigma).inertia() == dense, sigma
        # An interior-only right-hand side r is [r; 0]: level 0 reads it as
        # a view, and a one-element mesh has more interior dofs than boxes.
        r = rhs[:forms.n_interior_dofs, 1]
        padded = np.append(r, np.zeros(M.shape[0] - len(r)))
        inner = lu.solve(r)
        assert np.array_equal(inner, lu.solve(padded)), sigma
        want = splu(M.tocsc()).solve(padded)
        assert np.linalg.norm(inner - want) <= 1e-10 * np.linalg.norm(want), sigma
        # Any other length is refused; ndof + 1 would write the Dirichlet slot.
        for bad in (len(r) - 1, len(r) + 1, M.shape[0] + 1):
            with pytest.raises(ValueError, match="right-hand side"):
                lu.solve(np.ones(bad))


def _bitwise(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _assert_bitwise_the_id_oracle(space, sigma, lu, rhs):
    # The factor (LUs with their pivots, X, the stored inverses) and solves
    # with full-length and interior-only right-hand sides, and of a block
    # column by column, equal the id-valued factor and solve bit for bit, the
    # oracle's vectors permuted from layout ids into dofs.  The factor keeps no cross block: its LU is
    # the one of the oracle's block.
    oracle = IdNestedLU(space, sigma)
    order = layout_ids(space)
    assert len(lu.factors) == len(oracle.factors)
    for ((factor, piv), X), (block, (want_factor, want_piv), want_X) in zip(
            lu.factors, oracle.factors):
        from_block = dgetrf(block)[:2]
        for got, want in ((factor, want_factor), (piv, want_piv), (X, want_X),
                          (factor, from_block[0]), (piv, from_block[1])):
            assert _bitwise(got, want), sigma
    for inv, want in zip(lu.inverses, oracle.inverses, strict=True):
        assert (inv is None and want is None) or _bitwise(inv, want), sigma
    inner = rhs[:space.n_interior_dofs, 1]  # the interiors keep their layout ids
    for r in (rhs[:, 0], inner, np.append(inner, np.zeros(space.ndof - len(inner)))):
        assert _bitwise(lu.solve(r[order[:len(r)]]), oracle.solve(r)[order]), sigma
    assert _bitwise(_solve_columns(lu, rhs[order]),
                    np.column_stack([oracle.solve(r)[order] for r in rhs.T])), sigma


@pytest.mark.parametrize("kind,degree", [("laplacian", 1), ("laplacian", 3), ("biharmonic", 2)])
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_level_major_factor_is_bitwise_the_id_oracle(kind, degree, level):
    # The shifts of test_nested_solves_match_full_oracle_on_every_level_count;
    # level 0 is the one-element mesh with no edge dofs.
    space = wg.WgSpace(build_uniform(level), degree, kind=kind, epsilon=0.1)
    forms = wg.assemble(space)
    mu = local_interior_eigs(space)
    rhs = np.random.default_rng(3).standard_normal((forms.A.shape[0], 2))
    for sigma in (0.0, 0.5 * (mu[0] + mu[1]), 1.5 * mu[-1]):
        lu, _ = linalg.factor_indefinite(forms, sigma)
        _assert_bitwise_the_id_oracle(forms, sigma, lu, rhs)


def test_level_major_factor_is_bitwise_the_id_oracle_at_h_1_128():
    space = wg.WgSpace(build_uniform(7), 1, kind="laplacian", epsilon=0.1)
    forms = wg.assemble(space)
    rhs = np.random.default_rng(4).standard_normal((forms.A.shape[0], 2))
    _assert_bitwise_the_id_oracle(forms, 0.0, linalg.factor_spd(forms), rhs)


def test_many_box_levels_solve_by_gemm():
    # At h=1/256, k=1 level l has 4^(8-l) boxes and 2^(l+1) cross dofs, so
    # levels 0-5 solve their crosses by one GEMM with a stored K_CC⁻ᵀ.  The
    # factor keeps no cross block; the oracle's are bitwise the same.
    space = wg.WgSpace(build_uniform(8), 1, kind="laplacian", epsilon=0.1)
    lu = linalg.factor_spd(wg.assemble(space))
    assert [i for i, inv in enumerate(lu.inverses) if inv is not None] == list(range(6))
    for (block, _, _), inv in zip(IdNestedLU(space, 0.0).factors[:6], lu.inverses):
        assert np.allclose(inv.T @ block, np.eye(len(block)), rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind,degree", [("laplacian", 1), ("biharmonic", 2)])
def test_spd_factor_checks_every_level(kind, degree):
    # A "stiffness" matrix A − σB with λ₁,h < σ < min(λ₂,h, μ_min): every
    # interior block is SPD, so only a cross block above level 0 shows the
    # one negative eigenvalue, and the SPD factor must still refuse it.
    space = wg.WgSpace(build_uniform(3), degree, kind=kind, epsilon=0.1)
    lam = dense_pencil_eigs(wg.assemble(space), 2)
    sigma = 0.5 * (lam[0] + min(lam[1], local_interior_eigs(space)[0]))
    kit, nb = space.kit(), space.dim_interior
    kit.a_local = kit.a_local.copy()
    kit.a_local[:nb, :nb] -= sigma * kit.Gk
    forms = wg.assemble(space)
    with pytest.raises(FactorizationFailureError, match="not positive definite"):
        linalg.factor_spd(forms)
    linalg.factor_indefinite(forms, 0.0)  # the indefinite factor takes it
    oracle = IdNestedLU(forms, 0.0)
    assert oracle.negative_pivots()[0] == 0 and oracle.inertia() == 1


@pytest.mark.parametrize("kind,degree", [("laplacian", 2), ("biharmonic", 3)])
def test_inertia_matches_dense_count_above_the_local_spectrum(kind, degree):
    space = wg.WgSpace(build_uniform(2), degree, kind=kind, epsilon=0.1)
    forms = wg.assemble(space)
    mu = local_interior_eigs(space)
    distinct = mu[np.flatnonzero(np.diff(mu) > 1e-6 * mu[-1])]
    for sigma in np.append(distinct + 0.5 * np.diff(np.append(distinct, mu[-1])), 1.5 * mu[-1]):
        M = forms.A - sigma * forms.B
        assert IdNestedLU(forms, sigma).inertia() == int(
            np.sum(np.linalg.eigvalsh(M.toarray()) < 0)), sigma


@pytest.mark.parametrize("kind,degree", [("laplacian", 1), ("laplacian", 2), ("biharmonic", 2)])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_factor_counts_the_oracle_inertia(kind, degree, level):
    # The factor counts ν(σ) by dsytrf on each cross block, the oracle by the
    # same blocks' dense eigenvalues; both must count the pencil eigenvalues
    # below σ: below λ₁, between λ₁ and the double λ₂ = λ₃, on both sides of
    # it, and between it and λ₄.
    forms = wg.assemble(wg.WgSpace(build_uniform(level), degree, kind=kind, epsilon=0.1))
    lam = dense_pencil_eigs(forms, 4)
    assert lam[2] - lam[1] <= 1e-9 * lam[1]
    shifts = [0.5 * lam[0], 0.5 * (lam[0] + lam[1]), lam[1] - 1e-3 * (lam[1] - lam[0]),
              lam[2] + 1e-3 * (lam[3] - lam[2]), 0.5 * (lam[2] + lam[3])]
    for sigma, below in zip(shifts, [0, 1, 1, 3, 3]):
        lu = linalg.NestedLU(forms, sigma, count_inertia=True)
        assert lu.inertia == IdNestedLU(forms, sigma).inertia() == below, sigma
    # Counted only when asked: the factors of the solves run no dsytrf.  The
    # stiffness factor counts, and certifies A as SPD by ν(A) = 0.
    assert linalg.factor_indefinite(forms, shifts[1])[0].inertia is None
    assert linalg.factor_spd(forms).inertia == 0


def test_biharmonic_box_eigenvalue_never_gives_a_silent_wrong_solution():
    # The clamped quadrant of the level 3 mesh has the eigenvalue 1501.80,
    # which (A, B) does not have (nearest 1347.18): the level 2 cross block is
    # near singular there while M is not.  Pivoting stays inside the block, so
    # the factor degrades; refinement then certifies the solve, or a collapsed
    # pivot raises, never a wrong x.
    space = wg.WgSpace(build_uniform(3), 2, kind="biharmonic", epsilon=0.1)
    forms = wg.assemble(space)
    sigma = _clamped_box_eigs(forms, 2)[0]
    assert abs(sigma - 1501.8029) < 1e-4
    assert np.min(np.abs(dense_pencil_eigs(forms, 40) - sigma)) > 100.0
    rhs = np.random.default_rng(5).standard_normal(forms.A.shape[0])
    for shift in (sigma, sigma * (1 + 1e-10)):
        M = forms.A - shift * forms.B
        want = splu(M.tocsc()).solve(rhs)
        try:
            x = solve_shifted(forms, shift, rhs)
        except NearSingularError:
            assert shift == sigma
            continue
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want), shift
    _, pivot_ratio = linalg.factor_indefinite(forms, sigma)
    assert pivot_ratio < 1e-12


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_laplacian_box_eigenvalues_are_eigenvalues_of_the_pencil(degree):
    # Odd reflection extends a clamped eigenfunction of a dyadic box to the
    # whole square, so a singular cross block is a real collision.
    space = wg.WgSpace(build_uniform(3), degree, kind="laplacian", epsilon=0.1)
    forms = wg.assemble(space)
    box = _clamped_box_eigs(forms, 2)[0]
    if degree == 1:
        assert abs(box - 57.6459) < 1e-4
    full = dense_pencil_eigs(forms, 60)
    assert np.min(np.abs(full - box)) <= 5e-14 * box
