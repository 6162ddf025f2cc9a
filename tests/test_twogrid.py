import numpy as np
import pytest

import wgeig as wg
from wgeig.errors import ConfigError, LevelOrderError, NearSingularError
from wgeig.mesh import build_uniform
from wgeig.polyspace import gauss_rule
from wgeig.twogrid import cross_mass_rhs, run_sipg
from wgeig.eigsolve import EigenCluster, rayleigh_quotient, smallest_eigs, solve_shifted

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
        with pytest.raises(ConfigError, match="must exceed coarse level"):
            run_sipg(forms, coarse_level, 1)
    with pytest.raises(ValueError):
        run_sipg(forms, 2, 0)


def test_cross_mass_same_level_equals_mass_product(lap_L2_k1):
    space, forms = lap_L2_k1
    rng = np.random.default_rng(17)
    v = rng.standard_normal(space.ndof)
    got = cross_mass_rhs(wg.WgFunction(space, v), space)
    want = forms.B @ v
    assert np.abs(got - want).max() < 1e-13 * max(1.0, np.abs(want).max())


def test_cross_mass_constant_field():
    coarse = wg.WgSpace(build_uniform(1), 1, kind="laplacian", epsilon=0.1)
    fine = wg.WgSpace(build_uniform(3), 1, kind="laplacian", epsilon=0.1)
    v = np.zeros(coarse.ndof)
    v[0 : coarse.n_interior_dofs : coarse.dim_interior] = 1.0  # interior field = 1
    rhs = cross_mass_rhs(wg.WgFunction(coarse, v), fine)
    h = fine.mesh.h
    const_entries = rhs[0 : fine.n_interior_dofs : fine.dim_interior]
    assert np.abs(const_entries - h * h).max() < 1e-15
    assert np.abs(rhs[fine.n_interior_dofs :]).max() == 0.0


def test_cross_mass_against_overintegration_oracle():
    coarse = wg.WgSpace(build_uniform(1), 2, kind="laplacian", epsilon=0.1)
    fine = wg.WgSpace(build_uniform(3), 2, kind="laplacian", epsilon=0.1)
    rng = np.random.default_rng(29)
    v = rng.standard_normal(coarse.ndof)
    got = cross_mass_rhs(wg.WgFunction(coarse, v), fine)

    # oracle: 20-point tensor Gauss per fine element, raw monomial evaluation
    from wgeig.polyspace import pk_exponents

    cc = wg.WgFunction(coarse, v).interior_matrix()
    exps = pk_exponents(2)
    g, w = gauss_rule(20)
    h = fine.mesh.h
    H = coarse.mesh.h
    off = 0.5 * h * (g + 1.0)
    OX, OY = np.meshgrid(off, off, indexing="ij")
    W = np.outer(w, w).ravel() * (0.5 * h) ** 2
    kit = fine.kit()
    phi_ref = kit.phi.eval(OX.ravel(), OY.ravel())
    from wgeig.mesh import containment_map

    cmap = containment_map(coarse.mesh, fine.mesh)
    ccx, ccy = coarse.mesh.element_centers()
    fx0, fy0 = fine.mesh.element_origins()
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
        cross_mass_rhs(wg.WgFunction(coarse, np.zeros(coarse.ndof)), fine)


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
    targets = run_sipg(forms, 3, 6)
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
    with pytest.raises(ConfigError):
        run_sipg(forms, 3, 1)


def test_two_grid_consistency_same_level(lap_L3_k1):
    # With equal levels the shifted solve inverts onto the discrete
    # eigenvector; the driver forbids this configuration, so exercise the
    # components directly.  The shift sits on the fine spectrum, so the
    # residual contract cannot hold and the amplified best-effort solution
    # carried by the error is the meaningful output.
    space, forms = lap_L3_k1
    pairs = smallest_eigs(forms, 2)
    for pair in pairs[:1]:
        rhs = cross_mass_rhs(wg.WgFunction(space, pair.vector), space)
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
        target = run_sipg(fine_forms, coarse_level, 1)[0]
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
