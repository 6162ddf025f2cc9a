"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criterion 6 (full paper scale, ~1.3M unknowns) is opt-in via WGEIG_STRETCH=1.
"""

import os
import time

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import wgeig as wg
from wgeig.eigsolve import smallest_eigs
from wgeig.mesh import build_uniform
from wgeig.polyspace import ElementBasis
from wgeig.twogrid import run_sipg
from wgeig.wg_core import _interior_moments

from conftest import dense_pencil_eigs

EXACT6 = np.array([2, 5, 5, 8, 10, 10]) * np.pi**2


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- helpers -----------------------------------------------------------------


def interpolate_all_elements(space, f, grad=None):
    """Unconstrained componentwise interpolant on every element, vectorized.

    Unlike the global projection, boundary edge components are kept, which is
    what the element-local commutation identity is about.
    """
    kit = space.kit()
    mesh = space.mesh
    h = mesh.h
    interior = cho_solve(kit.Gk_cho, _interior_moments(space, f, 10).T).T
    off, w1, psi_ref = kit.edge_quad(10)
    mx, my = mesh.edge_midpoints()
    vert = mesh.edge_orient == 0
    X = np.where(vert[:, None], mx[:, None], mx[:, None] - 0.5 * h + off[None, :])
    Y = np.where(vert[:, None], my[:, None] - 0.5 * h + off[None, :], my[:, None])

    def project(vals):
        return cho_solve(kit.Ge_cho, ((vals * w1[None, :]) @ psi_ref).T).T

    trace = project(np.asarray(f(X, Y), float))
    blocks = [interior] + [trace[mesh.elem_edges[:, p]] for p in range(4)]
    if space.kind == wg.BIHARMONIC:
        fx, fy = grad(X, Y)
        normal = project(np.where(vert[:, None], fx, fy))
        blocks += [normal[mesh.elem_edges[:, p]] for p in range(4)]
    return np.concatenate(blocks, axis=1)


def project_all_elements(space, f, degree):
    """Elementwise L2 projection of f onto P_degree, vectorized over elements."""
    kit = space.kit()
    h = space.mesh.h
    ox, oy, w, _ = kit.element_quad(10)
    chi = ElementBasis(degree=degree, center=(h / 2, h / 2), scale=h)
    chi_ref = chi.eval(ox, oy)
    gram = chi_ref.T @ (chi_ref * w[:, None])
    x0, y0 = space.mesh.element_origins()
    X = x0[:, None] + ox[None, :]
    Y = y0[:, None] + oy[None, :]
    moments = (np.asarray(f(X, Y), float) * w[None, :]) @ chi_ref
    return cho_solve(cho_factor(0.5 * (gram + gram.T)), moments.T).T


def monomial(a, b):
    f = lambda x, y: np.asarray(x, float) ** a * np.asarray(y, float) ** b

    def grad(x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        gx = a * x ** max(a - 1, 0) * y**b if a else np.zeros_like(x + y)
        gy = b * x**a * y ** max(b - 1, 0) if b else np.zeros_like(x + y)
        return gx, gy

    def lap(x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        t1 = a * (a - 1) * x ** max(a - 2, 0) * y**b if a >= 2 else np.zeros_like(x + y)
        t2 = b * (b - 1) * x**a * y ** max(b - 2, 0) if b >= 2 else np.zeros_like(x + y)
        return t1 + t2

    return f, grad, lap


# -- criterion computations (pure functions, reused by the determinism check) --


def compute_criterion_1():
    out = {}
    space = wg.WgSpace(build_uniform(2), 1, kind="laplacian", epsilon=0.1)
    forms = wg.assemble(space)
    out["lap_sparse"] = np.array([p.value for p in smallest_eigs(forms, 6)])
    out["lap_dense"] = dense_pencil_eigs(forms, 6)
    space = wg.WgSpace(build_uniform(1), 2, kind="biharmonic", epsilon=0.1)
    forms = wg.assemble(space)
    out["bih_sparse"] = np.array([p.value for p in smallest_eigs(forms, 2)])
    out["bih_dense"] = dense_pencil_eigs(forms, 2)
    return out


def compute_criterion_2():
    worst_grad = 0.0
    worst_lap = 0.0
    for level in (1, 2, 3):
        for k in (1, 2, 3):
            space = wg.WgSpace(build_uniform(level), k, kind="laplacian", epsilon=0.1)
            kit = space.kit()
            for a in range(k + 1):
                for b in range(k + 1 - a):
                    f, grad, _ = monomial(a, b)
                    V = interpolate_all_elements(space, f)
                    got_x = V @ kit.Wx.T
                    got_y = V @ kit.Wy.T
                    want_x = project_all_elements(space, lambda x, y: grad(x, y)[0], k - 1)
                    want_y = project_all_elements(space, lambda x, y: grad(x, y)[1], k - 1)
                    worst_grad = max(worst_grad,
                                     np.abs(got_x - want_x).max(),
                                     np.abs(got_y - want_y).max())
        for k in (2, 3):
            space = wg.WgSpace(build_uniform(level), k, kind="biharmonic", epsilon=0.1)
            kit = space.kit()
            for a in range(k + 1):
                for b in range(k + 1 - a):
                    f, grad, lap = monomial(a, b)
                    V = interpolate_all_elements(space, f, grad)
                    got = V @ kit.W.T
                    want = project_all_elements(space, lap, k - 2)
                    worst_lap = max(worst_lap, np.abs(got - want).max())
    return {"worst_grad": np.float64(worst_grad), "worst_lap": np.float64(worst_lap)}


def compute_criterion_3():
    res = wg.direct_study("laplacian", 1, 0.1, [3, 4, 5, 6], 6)
    errs = np.array([r.err_direct for r in res.rows])
    return {
        "eig1_order": np.float64(res.orders["eig_1"]),
        "energy1_order": np.float64(res.orders["energy_1"]),
        "errs": errs,
        "lambda_h": np.array([r.lambda_h for r in res.rows]),
        "energy": np.array([r.energy_err for r in res.rows]),
    }


def compute_criterion_4():
    fine_forms = wg.assemble(wg.WgSpace(build_uniform(6), 1, kind="laplacian", epsilon=0.1))
    targets = run_sipg(fine_forms, 3, 6)
    direct = smallest_eigs(fine_forms, 6)
    return {
        "tilde": np.array([t.rayleigh for t in targets]),
        "direct": np.array([p.value for p in direct]),
        "coarse": np.array([t.coarse_value for t in targets]),
    }


@pytest.fixture(scope="module")
def crit1():
    t0 = time.perf_counter()
    out = compute_criterion_1()
    out["seconds"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def crit2():
    t0 = time.perf_counter()
    out = compute_criterion_2()
    out["seconds"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def crit3():
    t0 = time.perf_counter()
    out = compute_criterion_3()
    out["seconds"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def crit4():
    t0 = time.perf_counter()
    out = compute_criterion_4()
    out["seconds"] = time.perf_counter() - t0
    return out


# -- the criteria ---------------------------------------------------------------


def test_criterion_1_oracle_equivalence(crit1):
    rel_lap = np.abs(crit1["lap_sparse"] - crit1["lap_dense"]).max() / crit1["lap_dense"].max()
    rel_bih = np.abs(crit1["bih_sparse"] - crit1["bih_dense"]).max() / crit1["bih_dense"].max()
    ok = rel_lap < 1e-10 and rel_bih < 1e-10 and crit1["seconds"] < 1.0
    report(1, ok,
           f"sparse-vs-dense rel err: laplacian {rel_lap:.2e}, biharmonic "
           f"{rel_bih:.2e}; runtime {crit1['seconds']:.2f}s (< 1 s)")


def test_criterion_2_commutation(crit2):
    ok = (crit2["worst_grad"] < 1e-12 and crit2["worst_lap"] < 1e-12
          and crit2["seconds"] < 1.0)
    report(2, ok,
           f"worst coefficient mismatch: gradient {crit2['worst_grad']:.2e}, "
           f"laplacian {crit2['worst_lap']:.2e} (tol 1e-12); "
           f"runtime {crit2['seconds']:.2f}s (< 1 s)")


def test_criterion_3_direct_convergence(crit3):
    p_eig = crit3["eig1_order"]
    p_energy = crit3["energy1_order"]
    all_lower = bool(np.all(crit3["errs"] > 0))
    ok = (1.7 <= p_eig <= 2.05 and 0.75 <= p_energy <= 1.05
          and all_lower and crit3["seconds"] < 120.0)
    report(3, ok,
           f"lambda_1 error order {p_eig:.3f} in [1.7, 2.05]; energy order "
           f"{p_energy:.3f} in [0.75, 1.05]; all 24 signed errors positive: "
           f"{all_lower}; runtime {crit3['seconds']:.1f}s (< 120 s)")


def test_criterion_4_two_grid_lower_bound(crit4):
    gap_exact = EXACT6 - crit4["tilde"]
    dominance = np.abs(crit4["tilde"] - crit4["direct"]) / (EXACT6 - crit4["direct"])
    ok = (bool(np.all(gap_exact > 0)) and bool(np.all(dominance < 0.05))
          and crit4["seconds"] < 60.0)
    report(4, ok,
           f"min(lambda - tilde) = {gap_exact.min():.3e} (> 0); max dominance "
           f"ratio {dominance.max():.2e} (< 0.05); runtime "
           f"{crit4['seconds']:.1f}s (< 60 s)")


def test_criterion_5_table_saturation():
    res = wg.sipg_study("laplacian", 1, 0.1, [3, 4, 5], 6, 6, include_direct=False)
    cols = {}
    for r in res.rows:
        cols.setdefault(r.H_level, {})[r.index] = r.err_sipg
    worst = 0.0
    for j in range(1, 7):
        change = abs(cols[4][j] - cols[5][j]) / abs(cols[5][j])
        worst = max(worst, change)
    ok = worst < 0.01
    report(5, ok,
           f"largest relative column change from H=1/16 to H=1/32 at h=1/64: "
           f"{worst:.2e} (< 1e-2)")


@pytest.mark.skipif(not os.environ.get("WGEIG_STRETCH"),
                    reason="full paper scale (approx 1.3M unknowns, tens of "
                           "minutes); set WGEIG_STRETCH=1 to run")
def test_criterion_6_full_scale_stretch():
    import resource

    t0 = time.perf_counter()
    fine_space = wg.WgSpace(build_uniform(9), 1, kind="laplacian", epsilon=0.1)
    fine_forms = wg.assemble(fine_space)
    [target] = run_sipg(fine_forms, 4, 1)
    gap = 2 * np.pi**2 - target.rayleigh
    gen = wg.exact_laplacian_spectrum(1)[0].generators[0]
    energy = wg.energy_error(fine_space, fine_forms, target.normalized, [gen])
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2
    dt = time.perf_counter() - t0
    ok_gap = abs(gap - 5.9045e-4) <= 0.01 * 5.9045e-4
    ok_energy = abs(energy - 2.2639e-2) <= 0.02 * 2.2639e-2
    report(6, ok_gap and ok_energy,
           f"lambda_1 - tilde = {gap:.4e} (target 5.9045e-4 within 1%); "
           f"energy error {energy:.4e} (target 2.2639e-2 within 2%); "
           f"runtime {dt:.0f}s, peak memory {peak_gb:.1f} GiB")


def test_criterion_7_biharmonic():
    # The order window is asymptotic. Since 0 < lambda_h < lambda, the error
    # lambda - lambda_h is capped by lambda itself and saturates on coarse
    # levels (92% of lambda at L=2, 47% at L=4), while lambda/lambda_h - 1
    # already contracts by 2^1.83 to 2^1.89 per level from L=2 on. So the
    # order is fitted on the two finest levels; monotone convergence and the
    # lower bound are checked on every level.
    t0 = time.perf_counter()
    levels = [2, 3, 4, 5, 6]
    fit_levels = levels[-2:]
    res = wg.direct_study("biharmonic", 2, 0.1, levels, 1)
    values = np.array([r.lambda_h for r in res.rows])
    errs = wg.BIHARMONIC_LAMBDA1 - values
    order = wg.rate_fit([2.0**-l for l in fit_levels],
                        np.abs(errs[-len(fit_levels):]))
    pairwise = np.log2(np.abs(errs[:-1] / errs[1:]))
    converging = bool(np.all(np.diff(np.abs(errs)) < 0))
    lower_bounds = bool(np.all(errs > 0))
    ok = converging and lower_bounds and 1.4 <= order <= 2.1
    per_level = "; ".join(
        f"L={l}: lambda_1h={v:.4f}, error {e:+.4e}"
        + (f", order {levels[i - 1]}->{l} {pairwise[i - 1]:.3f}" if i else "")
        for i, (l, v, e) in enumerate(zip(levels, values, errs)))
    report(7, ok,
           f"lambda_1 = {wg.BIHARMONIC_LAMBDA1}; {per_level} (monotone: "
           f"{converging}; all signed errors positive: {lower_bounds}); "
           f"fitted order on L={fit_levels[0]}..{fit_levels[-1]}: {order:.3f} "
           f"vs window [1.4, 2.1]; runtime {time.perf_counter() - t0:.1f}s")


def test_criterion_8_determinism(crit1, crit2, crit3, crit4):
    fresh = {
        1: compute_criterion_1(),
        2: compute_criterion_2(),
        3: compute_criterion_3(),
        4: compute_criterion_4(),
    }
    cached = {1: crit1, 2: crit2, 3: crit3, 4: crit4}
    mismatches = []
    for crit_id, fresh_out in fresh.items():
        for key, value in fresh_out.items():
            if not np.array_equal(np.asarray(value), np.asarray(cached[crit_id][key])):
                mismatches.append(f"criterion {crit_id} field {key}")
    report(8, not mismatches,
           "criteria 1-4 outputs bitwise identical across two runs"
           + (f"; mismatches: {mismatches}" if mismatches else ""))
