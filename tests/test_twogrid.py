import numpy as np
import pytest

import wgeig as wg
from wgeig.errors import LevelOrderError, NearSingularError
from wgeig.mesh import build_uniform
from wgeig.polyspace import gauss_rule
from wgeig.twogrid import cross_mass_rhs, run_sipg
from wgeig import eigsolve
from wgeig.eigsolve import rayleigh_quotient, smallest_eigs, solve_shifted
from oracles import EigenCluster, containment_map, interior_matrix, quadrature_cross_mass_rhs

EXACT6 = np.array([2, 5, 5, 8, 10, 10]) * np.pi**2


def run_direct(kind, degree, epsilon, level, num_eigs):
    """Assemble and solve the eigenproblem directly on one mesh level."""
    space = wg.WgSpace(build_uniform(level), degree, kind=kind, epsilon=epsilon)
    return EigenCluster(pairs=smallest_eigs(wg.assemble(space), num_eigs))


def fine_lap_k1(level):
    """Assembled Laplacian k = 1, epsilon = 0.1 forms on one fine level."""
    return wg.assemble(wg.WgSpace(build_uniform(level), 1, kind="laplacian", epsilon=0.1))


def test_config_validation():
    forms = fine_lap_k1(3)
    for coarse_level in (3, 4):
        with pytest.raises(LevelOrderError, match="must exceed coarse level"):
            run_sipg(forms, coarse_level, 1)
    with pytest.raises(ValueError):
        run_sipg(forms, 2, 0)


def test_cross_mass_same_level_equals_mass_product(lap_L2_k1):
    space, forms = lap_L2_k1
    rng = np.random.default_rng(17)
    v = rng.standard_normal(space.ndof)
    got = cross_mass_rhs(space, v, space)
    want = forms.B @ v
    assert np.abs(got - want).max() < 1e-13 * max(1.0, np.abs(want).max())


def test_cross_mass_constant_field():
    coarse = wg.WgSpace(build_uniform(1), 1, kind="laplacian", epsilon=0.1)
    fine = wg.WgSpace(build_uniform(3), 1, kind="laplacian", epsilon=0.1)
    v = np.zeros(coarse.ndof)
    v[0 : coarse.n_interior_dofs : coarse.dim_interior] = 1.0  # interior field = 1
    rhs = cross_mass_rhs(coarse, v, fine)
    h = fine.mesh.h
    const_entries = rhs[0 : fine.n_interior_dofs : fine.dim_interior]
    assert np.abs(const_entries - h * h).max() < 1e-15
    assert np.abs(rhs[fine.n_interior_dofs :]).max() == 0.0


def test_cross_mass_against_overintegration_oracle():
    coarse = wg.WgSpace(build_uniform(1), 2, kind="laplacian", epsilon=0.1)
    fine = wg.WgSpace(build_uniform(3), 2, kind="laplacian", epsilon=0.1)
    rng = np.random.default_rng(29)
    v = rng.standard_normal(coarse.ndof)
    got = cross_mass_rhs(coarse, v, fine)

    # oracle: 20-point tensor Gauss per fine element, raw monomial evaluation
    from wgeig.polyspace import pk_exponents

    cc = interior_matrix(coarse, v)
    exps = pk_exponents(2)
    g, w = gauss_rule(20)
    h = fine.mesh.h
    H = coarse.mesh.h
    off = 0.5 * h * (g + 1.0)
    OX, OY = np.meshgrid(off, off, indexing="ij")
    W = np.outer(w, w).ravel() * (0.5 * h) ** 2
    kit = fine.kit()
    phi_ref = kit.phi.eval(OX.ravel(), OY.ravel())
    cmap = containment_map(coarse.mesh, fine.mesh)
    ccx, ccy = (coarse.mesh.elem_ix + 0.5) * H, (coarse.mesh.elem_iy + 0.5) * H
    fx0, fy0 = fine.mesh.elem_ix * h, fine.mesh.elem_iy * h
    want = np.zeros(fine.ndof)
    for e in range(fine.mesh.num_elements):
        X = fx0[e] + OX.ravel()
        Y = fy0[e] + OY.ravel()
        c = cmap[e]
        vals = np.zeros_like(X)
        for col, (a, b) in enumerate(exps):
            vals += cc[c, col] * ((X - ccx[c]) / H) ** a * ((Y - ccy[c]) / H) ** b
        want[e * fine.dim_interior : (e + 1) * fine.dim_interior] = (vals * W) @ phi_ref
    assert np.abs(got - want).max() < 1e-13


def test_cross_mass_rejects_level_order():
    coarse = wg.WgSpace(build_uniform(2), 1, kind="laplacian", epsilon=0.1)
    fine = wg.WgSpace(build_uniform(1), 1, kind="laplacian", epsilon=0.1)
    with pytest.raises(LevelOrderError):
        cross_mass_rhs(coarse, np.zeros(coarse.ndof), fine)


@pytest.mark.parametrize("kind,degree", [("laplacian", 1), ("laplacian", 2), ("laplacian", 3),
                                         ("laplacian", 4), ("biharmonic", 2), ("biharmonic", 3)])
@pytest.mark.parametrize("gap", [0, 1, 2, 3])
def test_cross_mass_transfer_matches_quadrature_oracle(kind, degree, gap):
    # The exact nested-mesh transfer against Gauss quadrature at the fine
    # element points, on random coarse vectors.
    coarse = wg.WgSpace(build_uniform(1), degree, kind=kind, epsilon=0.1)
    fine = wg.WgSpace(build_uniform(1 + gap), degree, kind=kind, epsilon=0.1)
    rng = np.random.default_rng(100 * degree + gap)
    for _ in range(3):
        v = rng.standard_normal(coarse.ndof)
        got = cross_mass_rhs(coarse, v, fine)
        want = quadrature_cross_mass_rhs(coarse, v, fine)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert np.abs(got[fine.n_interior_dofs:]).max(initial=0.0) == 0.0


def test_cross_mass_rejects_wrong_length():
    coarse = wg.WgSpace(build_uniform(1), 2, kind="laplacian", epsilon=0.1)
    fine = wg.WgSpace(build_uniform(2), 2, kind="laplacian", epsilon=0.1)
    for n in (coarse.ndof - 1, coarse.ndof + 1, fine.ndof):
        with pytest.raises(ValueError, match="does not match"):
            cross_mass_rhs(coarse, np.zeros(n), fine)
    with pytest.raises(ValueError, match="does not match"):
        cross_mass_rhs(coarse, np.zeros((coarse.ndof, 1)), fine)


def test_cross_mass_rejects_mismatched_spaces():
    coarse = wg.WgSpace(build_uniform(1), 2, kind="laplacian", epsilon=0.1)
    for fine in (wg.WgSpace(build_uniform(2), 3, kind="laplacian", epsilon=0.1),
                 wg.WgSpace(build_uniform(2), 2, kind="biharmonic", epsilon=0.1)):
        with pytest.raises(ValueError, match="share degree and kind"):
            cross_mass_rhs(coarse, np.zeros(coarse.ndof), fine)


def test_run_direct_composition(lap_L2_k1):
    space, forms = lap_L2_k1
    cluster = run_direct("laplacian", 1, 0.1, 2, 4)
    direct = smallest_eigs(forms, 4)
    assert np.array_equal(cluster.values, [p.value for p in direct])
    assert cluster.groups() == [[0], [1, 2], [3]]


def test_run_direct_lower_bound_L5():
    cluster = run_direct("laplacian", 1, 0.1, 5, 1)
    assert cluster.pairs[0].value < 2 * np.pi**2


def test_run_direct_biharmonic_L3():
    # Reference first eigenvalue is 1294.9339598; at this coarse level and
    # degree the weakened scheme sits far below it (frozen regression value),
    # still positive and a lower bound.
    cluster = run_direct("biharmonic", 2, 0.1, 3, 1)
    value = cluster.pairs[0].value
    assert 0 < value < wg.BIHARMONIC_LAMBDA1
    assert abs(value - 307.1359934567) < 1e-6 * 307.14


def test_run_sipg_basic_lower_bounds():
    # Coarse level 3 is the coarsest mesh whose spectrum is ordered like the
    # exact one (at level 2 the fourth and sixth clusters cross).
    forms = fine_lap_k1(5)
    targets = list(run_sipg(forms, 3, 6))
    assert len(targets) == 6
    for t, lam in zip(targets, EXACT6):
        assert lam - t.rayleigh > 0
        assert abs(t.normalized @ (forms.B @ t.normalized) - 1.0) < 1e-12
    lam1_coarse = targets[0].coarse_value
    assert lam1_coarse < targets[0].rayleigh < 2 * np.pi**2
    assert [t.warning for t in targets] == [None] * 6


def test_run_sipg_rejects_equal_levels(monkeypatch):
    # A level order it refuses is refused before the coarse assembly and
    # eigensolve run.
    import wgeig.twogrid as tg

    forms = fine_lap_k1(3)

    def coarse_work(*args, **kwargs):
        raise AssertionError("coarse work ran before the level order was checked")

    monkeypatch.setattr(tg, "assemble", coarse_work)
    monkeypatch.setattr(tg, "smallest_eigs", coarse_work)
    with pytest.raises(LevelOrderError, match=r"fine level \(3\) must exceed coarse level \(3\)"):
        run_sipg(forms, 3, 1)


def test_run_sipg_solves_the_coarse_problem_at_the_call_and_streams_targets(monkeypatch):
    # The coarse solve runs when run_sipg is called; each target is computed
    # only when the caller asks for it, with exactly one shifted solve.
    import wgeig.twogrid as tg

    calls = {"coarse": 0, "shifted": 0}

    def counted_eigs(*args, **kwargs):
        calls["coarse"] += 1
        return coarse_eigs(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        calls["shifted"] += 1
        return shifted(*args, **kwargs)

    coarse_eigs, shifted = tg.smallest_eigs, tg.solve_shifted
    monkeypatch.setattr(tg, "smallest_eigs", counted_eigs)
    monkeypatch.setattr(tg, "solve_shifted", counted_solve)
    targets = run_sipg(fine_lap_k1(4), 2, 6)
    assert calls == {"coarse": 1, "shifted": 0}
    first = next(targets)
    assert first.index == 1 and calls == {"coarse": 1, "shifted": 1}
    assert [t.index for t in targets] == [2, 3, 4, 5, 6]
    assert calls == {"coarse": 1, "shifted": 6}
    assert list(targets) == []  # one pass: a caller that reads twice takes the list


def test_two_grid_consistency_same_level(lap_L3_k1):
    # With equal levels the shifted solve inverts onto the discrete
    # eigenvector; the driver forbids this configuration, so exercise the
    # components directly.  The shift sits on the fine spectrum, so the
    # residual contract cannot hold and the amplified best-effort solution
    # carried by the error is the meaningful output.
    space, forms = lap_L3_k1
    pairs = smallest_eigs(forms, 2)
    for pair in pairs[:1]:
        rhs = cross_mass_rhs(space, pair.vector, space)
        try:
            x = solve_shifted(forms, pair.value, rhs)
        except NearSingularError as exc:
            assert exc.solution is not None
            x = exc.solution
        lam = rayleigh_quotient(forms, x)
        assert abs(lam - pair.value) <= 1e-8 * pair.value


def test_accuracy_dominance_in_coarse_level():
    fine_forms = fine_lap_k1(5)
    lam_h = smallest_eigs(fine_forms, 1)[0].value
    gaps = []
    for coarse_level in (2, 3, 4):
        [target] = run_sipg(fine_forms, coarse_level, 1)
        gaps.append(abs(target.rayleigh - lam_h))
    floor = 1e-9 * lam_h
    for a, b in zip(gaps, gaps[1:]):
        assert b <= max(a, floor) * 1.05 + floor


def test_near_singular_surfaced_as_warning(monkeypatch):
    import wgeig.twogrid as tg

    def boom(forms, shift, rhs, tol=1e-10):
        raise NearSingularError(shift, pivot_ratio=1e-16)

    monkeypatch.setattr(tg, "solve_shifted", boom)
    [target] = run_sipg(fine_lap_k1(3), 2, 1)
    assert "collided" in target.warning
    assert np.isnan(target.rayleigh)
    assert target.normalized is None


# The two-grid defect of ROADMAP open item 1: a target whose coarse shift
# lies nearer another fine eigenvalue converges to that one, with no warning.
_WRONG_FINE_EIGENVALUE = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP open item 1: a target reads another fine eigenvalue, unwarned")


@pytest.mark.parametrize("kind,degree,coarse_level,fine_level", [
    pytest.param("laplacian", 1, 2, 6, marks=_WRONG_FINE_EIGENVALUE),  # targets 4 and 6
    pytest.param("biharmonic", 2, 2, 6, marks=_WRONG_FINE_EIGENVALUE),  # targets 5 and 6
    ("laplacian", 1, 4, 7),
    ("laplacian", 3, 3, 5),  # its collisions warn
    ("laplacian", 2, 2, 5),
])
def test_every_target_approximates_its_own_fine_eigenvalue_or_warns(kind, degree, coarse_level,
                                                                    fine_level):
    # Target j must lie no farther from λ_j,h than from any of the 12
    # smallest fine eigenvalues (up to the rounding that splits a double
    # one), or carry a warning.  The fine eigenvalues come from ARPACK alone,
    # independent of the correction route.
    forms = wg.assemble(wg.WgSpace(build_uniform(fine_level), degree, kind=kind, epsilon=0.1))
    lam_h = np.array([p.value for p in eigsolve._arpack(forms, 12, 1e-10)])
    wrong = []
    for t in run_sipg(forms, coarse_level, 6):
        own, slack = abs(t.rayleigh - lam_h[t.index - 1]), 1e-10 * lam_h[t.index - 1]
        if t.warning is None and not own <= np.min(np.abs(t.rayleigh - lam_h)) + slack:
            wrong.append(t.index)
    assert wrong == []
