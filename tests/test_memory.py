"""Memory contracts of the direct eigensolve and of the two-grid study,
measured with tracemalloc, which sees numpy's buffers, ARPACK's included.
No test reads ARPACK's own arrays one by one."""

import tracemalloc

import numpy as np
import pytest

import wgeig as wg
import wgeig.eigsolve as eigsolve
import wgeig.twogrid as twogrid
from wgeig import linalg
from wgeig.mesh import build_uniform

# What the space's kit, the small objects of the factor and of the solve, and
# the test's own Python objects hold beyond the arrays counted below: about
# 30 KB measured at level 7, where the dof map alone is 917 KB and one
# interior vector 393 KB.
SLACK_BYTES = 128 * 1024
# _box_levels peaks at 2.2-2.3 times what it keeps (4 times while it built
# 64-bit ids and narrowed them at the end).
QUADTREE_PEAK_MULTIPLE = 2.5


def _quadtree_bytes(quadtree) -> int:
    return quadtree.order.nbytes + sum(level.perimeter.nbytes for level in quadtree.levels)


def _factor_bytes(lu) -> int:
    """The factor's LUs with their pivots, its X blocks and inverses, and its
    solve workspace once a solve has built it."""
    stored = sum(factor.nbytes + piv.nbytes + X.nbytes for (factor, piv), X in lu.factors)
    inverses = sum(inv.nbytes for inv in lu.inverses if inv is not None)
    return stored + inverses + sum(a.nbytes for a in vars(lu).get("_workspace", ()))


def test_arpack_runs_beside_the_quadtree_the_factor_and_one_vector(monkeypatch):
    # Level 7 would take the multilevel correction route first.
    monkeypatch.setattr(eigsolve, "_ROUTE_LEVEL", 8)
    factors, seen = [], {}

    def recorded_factor(space):
        factors.append(factor_spd(space))
        return factors[-1]

    def watched_eigsh(op, **kwargs):
        seen["live"] = tracemalloc.get_traced_memory()[0]
        seen["allowed"] = (_quadtree_bytes(space.quadtree) + _factor_bytes(factors[-1])
                           + 8 * space.n_interior_dofs + SLACK_BYTES)
        seen["dof_map"] = space._dof_map
        return arpack(op, **kwargs)

    factor_spd, arpack = linalg.factor_spd, eigsolve.eigsh
    monkeypatch.setattr(linalg, "factor_spd", recorded_factor)
    monkeypatch.setattr(eigsolve, "eigsh", watched_eigsh)
    tracemalloc.start()
    try:
        space = wg.assemble(wg.WgSpace(build_uniform(7), 1, kind="laplacian"))
        pairs = eigsolve.smallest_eigs(space, 6)
    finally:
        tracemalloc.stop()
    assert len(pairs) == 6 and len(factors) == 1
    assert seen["dof_map"] is None  # built by the first product, after ARPACK
    assert space._dof_map is not None
    assert seen["live"] <= seen["allowed"], (seen["live"], seen["allowed"])


def _traced_peak(work) -> int:
    """The traced peak of work(), counting only what it allocates."""
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_correction_route_peaks_below_arpack(monkeypatch):
    # The route holds one block of n fine vectors, not ARPACK's Lanczos
    # basis and its n × ncv eigenvector block.
    space = wg.assemble(wg.WgSpace(build_uniform(7), 1, kind="laplacian"))
    space.local_dof_map()  # built by either route; before the trace
    assert space.mesh.level >= eigsolve._ROUTE_LEVEL
    route = _traced_peak(lambda: eigsolve.smallest_eigs(space, 6))
    monkeypatch.setattr(eigsolve, "_ROUTE_LEVEL", 8)
    arpack = _traced_peak(lambda: eigsolve.smallest_eigs(space, 6))
    assert route < arpack, (route, arpack)


def _product_bytes(space) -> int:
    """One product of A: its input vector, its gathers and its result."""
    A = space.operator()
    return _traced_peak(lambda: A @ np.ones(space.ndof))


def _one_factor_bytes(space, shift) -> int:
    """A shifted factor with its workspace and one solve, or one that counts
    its inertia, whichever peaks higher."""
    def solved():
        lu, _ = linalg.factor_indefinite(space, shift)
        lu.solve(np.ones(space.ndof))

    def counted():
        linalg.NestedLU(space, shift, count_inertia=True)

    return max(_traced_peak(solved), _traced_peak(counted))


def test_the_correction_route_holds_one_block_of_fine_vectors(monkeypatch):
    # The route works in one (n, ndof) array: the first right-hand sides,
    # then each step's solutions and Ritz vectors.  Step 2 ran beside two
    # more blocks, the stale step-1 Ritz vectors and the new ones.
    probe = wg.assemble(wg.WgSpace(build_uniform(7), 1, kind="laplacian"))
    probe.local_dof_map()
    product, factor = _product_bytes(probe), _one_factor_bytes(probe, 30.0)
    live = []

    def watched_factor(space, shift):
        live.append(tracemalloc.get_traced_memory()[0])
        return factor_indefinite(space, shift)

    factor_indefinite = linalg.factor_indefinite
    monkeypatch.setattr(linalg, "factor_indefinite", watched_factor)
    tracemalloc.start()
    try:
        space = wg.assemble(wg.WgSpace(build_uniform(7), 1, kind="laplacian"))
        space.local_dof_map()
        tracemalloc.reset_peak()
        pairs = eigsolve.smallest_eigs(space, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Two steps of one factor per cluster: λ₁, λ₂ = λ₃, λ₄ and λ₅ = λ₆.
    assert len(pairs) == 6 and len(live) == 8, live
    block = 6 * 8 * space.ndof
    fixed = _quadtree_bytes(space.quadtree) + space.local_dof_map().nbytes + SLACK_BYTES
    assert max(live) <= block + fixed, (live, block, fixed)
    assert peak <= block + fixed + factor + product, (peak, block, fixed, factor, product)


def test_energy_error_holds_no_block_of_products():
    # M b_j is formed one basis column at a time; M @ basis, one more block
    # of the basis's size, stayed live beside the residual's own product.
    space = wg.assemble(wg.WgSpace(build_uniform(7), 1, kind="laplacian"))
    space.local_dof_map()
    cluster = wg.exact_laplacian_spectrum(2)[1]
    assert cluster.multiplicity == 2
    w = np.random.default_rng(0).standard_normal(space.ndof)
    product = _product_bytes(space)
    peak = _traced_peak(lambda: wg.energy_error(space, w, cluster.generators))
    basis = 2 * 8 * space.ndof
    assert peak <= basis + product + SLACK_BYTES, (peak, basis, product)


@pytest.mark.parametrize("kind,degree,level", [("laplacian", 1, 7), ("biharmonic", 2, 5)])
def test_factor_keeps_only_what_a_solve_reads(kind, degree, level):
    # Per level the LU with its pivots, X and, where a GEMM solves, the
    # inverse; no copy of a cross block.  Those copies were 0.70 MB in both
    # cases, against a factor of 1.06 MB.
    space = wg.assemble(wg.WgSpace(build_uniform(level), degree, kind=kind))
    space.local_dof_map()  # read by max_abs; built before the trace
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        if kind == "laplacian":
            lu = linalg.factor_spd(space)
        else:  # a shift between the plate's first two eigenvalues
            lu, _ = linalg.factor_indefinite(space, 2000.0)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert _factor_bytes(lu) <= kept <= _factor_bytes(lu) + SLACK_BYTES, (kept, _factor_bytes(lu))


@pytest.mark.parametrize("kind,degree,level", [("laplacian", 1, 7), ("biharmonic", 2, 5)])
def test_quadtree_build_peaks_near_what_it_keeps(kind, degree, level):
    space = wg.WgSpace(build_uniform(level), degree, kind=kind)
    tracemalloc.start()
    try:
        quadtree = space.quadtree
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept >= _quadtree_bytes(quadtree)
    assert peak <= QUADTREE_PEAK_MULTIPLE * kept, (peak, kept)


def _live_at_each_shifted_solve(monkeypatch, include_direct):
    """Live traced bytes at the entry of each target's shifted solve, and the
    bytes of one fine vector."""
    live, vector = [], {}

    def watched_solve(space, *args, **kwargs):
        live.append(tracemalloc.get_traced_memory()[0])
        vector["bytes"] = 8 * space.ndof
        return solve(space, *args, **kwargs)

    solve = twogrid.solve_shifted
    monkeypatch.setattr(twogrid, "solve_shifted", watched_solve)
    tracemalloc.start()
    try:
        wg.sipg_study("laplacian", 1, 0.1, [3], 6, 6, include_direct=include_direct)
    finally:
        tracemalloc.stop()
        monkeypatch.undo()
    assert len(live) == 6
    return live, vector["bytes"]


def test_two_grid_study_holds_one_target_at_a_time(monkeypatch):
    # Target 1 builds the dof map when the direct solve has not, so the
    # comparison starts at target 2.  An earlier target still held would add
    # one fine vector per target; the direct eigenvectors, six more.
    alone, vector = _live_at_each_shifted_solve(monkeypatch, include_direct=False)
    with_direct, _ = _live_at_each_shifted_solve(monkeypatch, include_direct=True)
    for live in (alone, with_direct):
        assert live[5] - live[1] < vector / 2, (live, vector)
    for a, d in zip(alone[1:], with_direct[1:]):
        assert d <= a + SLACK_BYTES, (alone, with_direct)
