from dataclasses import fields

import numpy as np
import pytest

import wgeig as wg
from wgeig import linalg
from conftest import local_interpolant
from oracles import (
    Square,
    _interior_moments,
    element_mass_matrix,
    id_box_levels,
    id_dof_map,
    id_edge_dofs,
    l2_error,
    layout_ids,
    l2_project_element,
    local_vector,
    masked_scatter,
    monomial_field,
    norm1_matrix,
    quadrature_qh_project,
    reference_mesh,
    solve_source,
    stabilizer_matrix,
    vnorm_error,
    weak_gradient_local,
    weak_laplacian_local,
)
from wgeig.analysis import _span_distance
from wgeig.errors import DegreeTooLowError
from wgeig.mesh import build_uniform
from wgeig.polyspace import dim_pk, gauss_rule, pk_exponents


# -- dense local oracles: rebuild the defining identities from raw quadrature --


def _oracle_geometry(space, element):
    h = space.mesh.h
    x0 = space.mesh.elem_ix[element] * h
    y0 = space.mesh.elem_iy[element] * h
    return x0, y0, h


def _elem_quad(x0, y0, h, npts=10):
    g, w = gauss_rule(npts)
    gx = x0 + 0.5 * h * (g + 1.0)
    gy = y0 + 0.5 * h * (g + 1.0)
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    W = np.outer(w, w).ravel() * (0.5 * h) ** 2
    return X.ravel(), Y.ravel(), W

def _edge_quads(x0, y0, h, npts=10):
    g, w = gauss_rule(npts)
    t = 0.5 * h * (g + 1.0)
    W = 0.5 * h * w
    # (points, weights, outward normal, fixed edge normal sign) per side
    return [
        ((np.full_like(t, x0), y0 + t), W, (-1.0, 0.0), -1.0),
        ((np.full_like(t, x0 + h), y0 + t), W, (1.0, 0.0), 1.0),
        ((x0 + t, np.full_like(t, y0)), W, (0.0, -1.0), -1.0),
        ((x0 + t, np.full_like(t, y0 + h)), W, (0.0, 1.0), 1.0),
    ]


def _scaled_monomials(x, y, cx, cy, h, k, dx=0, dy=0):
    cols = []
    for d in range(k + 1):
        for j in range(d + 1):
            a, b = d - j, j
            fa = 1.0
            for p in range(dx):
                fa *= a - p
            fb = 1.0
            for p in range(dy):
                fb *= b - p
            if a < dx or b < dy:
                cols.append(np.zeros_like(np.asarray(x, float)))
            else:
                cols.append(
                    fa * fb * ((x - cx) / h) ** (a - dx) * ((y - cy) / h) ** (b - dy)
                    / h ** (dx + dy)
                )
    return np.column_stack(cols)


def _edge_monomials(t_coord, mid, h, degree):
    s = (np.asarray(t_coord, float) - mid) / h
    return np.column_stack([s**i for i in range(degree + 1)])


def oracle_weak_gradient(space, element, vloc):
    """Least-squares solve of the weak-gradient identity with raw quadrature."""
    k = space.degree
    x0, y0, h = _oracle_geometry(space, element)
    cx, cy = x0 + h / 2, y0 + h / 2
    m = dim_pk(k - 1)
    nd0 = dim_pk(k)
    X, Y, W = _elem_quad(x0, y0, h)
    chi = _scaled_monomials(X, Y, cx, cy, h, k - 1)
    G = chi.T @ (chi * W[:, None])
    v0 = vloc[:nd0]
    rhs_x = -(_scaled_monomials(X, Y, cx, cy, h, k - 1, dx=1).T
              @ (W * (_scaled_monomials(X, Y, cx, cy, h, k) @ v0)))
    rhs_y = -(_scaled_monomials(X, Y, cx, cy, h, k - 1, dy=1).T
              @ (W * (_scaled_monomials(X, Y, cx, cy, h, k) @ v0)))
    for p, ((ex, ey), ew, n, _) in enumerate(_edge_quads(x0, y0, h)):
        vb = vloc[nd0 + p * k : nd0 + (p + 1) * k]
        mid = cy if p < 2 else cx
        tcoord = ey if p < 2 else ex
        vb_vals = _edge_monomials(tcoord, mid, h, k - 1) @ vb
        chi_e = _scaled_monomials(ex, ey, cx, cy, h, k - 1)
        rhs_x += n[0] * chi_e.T @ (ew * vb_vals)
        rhs_y += n[1] * chi_e.T @ (ew * vb_vals)
    return np.vstack([
        np.linalg.lstsq(G, rhs_x, rcond=None)[0],
        np.linalg.lstsq(G, rhs_y, rcond=None)[0],
    ])


def oracle_weak_laplacian(space, element, vloc):
    k = space.degree
    x0, y0, h = _oracle_geometry(space, element)
    cx, cy = x0 + h / 2, y0 + h / 2
    nd0 = dim_pk(k)
    X, Y, W = _elem_quad(x0, y0, h)
    chi = _scaled_monomials(X, Y, cx, cy, h, k - 2)
    G = chi.T @ (chi * W[:, None])
    v0 = vloc[:nd0]
    lap_chi = (_scaled_monomials(X, Y, cx, cy, h, k - 2, dx=2)
               + _scaled_monomials(X, Y, cx, cy, h, k - 2, dy=2))
    rhs = lap_chi.T @ (W * (_scaled_monomials(X, Y, cx, cy, h, k) @ v0))
    for p, ((ex, ey), ew, n, sigma) in enumerate(_edge_quads(x0, y0, h)):
        vb = vloc[nd0 + p * k : nd0 + (p + 1) * k]
        vn = vloc[nd0 + (4 + p) * k : nd0 + (5 + p) * k]
        mid = cy if p < 2 else cx
        tcoord = ey if p < 2 else ex
        edge_vals = _edge_monomials(tcoord, mid, h, k - 1)
        dn_chi = (n[0] * _scaled_monomials(ex, ey, cx, cy, h, k - 2, dx=1)
                  + n[1] * _scaled_monomials(ex, ey, cx, cy, h, k - 2, dy=1))
        chi_e = _scaled_monomials(ex, ey, cx, cy, h, k - 2)
        rhs -= dn_chi.T @ (ew * (edge_vals @ vb))
        rhs += sigma * chi_e.T @ (ew * (edge_vals @ vn))
    return np.linalg.lstsq(G, rhs, rcond=None)[0]


# -- spaces and layout ---------------------------------------------------------


def test_dof_counts(lap_L2_k1):
    space, forms = lap_L2_k1
    assert space.ndof == 16 * 3 + 24 * 1 == 72
    assert forms.A.shape == (72, 72)
    assert forms.n_interior_dofs == 48


def test_assemble_returns_the_space():
    # A space carries its own forms: assemble builds what their products read
    # and hands the space back, with no second object in between.
    space = wg.WgSpace(build_uniform(1), 1, kind="laplacian", epsilon=0.1)
    assert wg.assemble(space) is space
    assert "AssembledForms" not in wg.__all__


def test_biharmonic_dof_count(bih_L2_k2):
    space, forms = bih_L2_k2
    # 16 elements x 6 + 24 interior edges x 2 (trace) x 2 components
    assert space.ndof == 16 * 6 + 24 * 2 * 2 == 192
    assert forms.A.shape == (192, 192)


@pytest.mark.parametrize("kind,degree", [("laplacian", 1), ("laplacian", 2), ("laplacian", 3),
                                         ("biharmonic", 2), ("biharmonic", 3)])
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_fill_reducing_order_is_a_permutation(kind, degree, level):
    # The quadtree eliminates every dof exactly once: its level-major order
    # (the interiors, which keep their layout ids, then the edge dofs',
    # read through ``order`` by layout_ids) is a permutation of the dofs,
    # and the crosses of the levels partition the positions 0..ndof-1 level
    # by level, one contiguous range each.  A perimeter entry is the offset
    # from stop of a cross position of a higher level, or the Dirichlet sink
    # ndof - stop, and the offsets off the boundary are exactly the tail
    # 0..ndof-stop-1, each in exactly two boxes of its level.
    space = wg.WgSpace(build_uniform(level), degree, kind=kind, epsilon=0.1)
    levels, ndof, n_int = space.quadtree.levels, space.ndof, space.n_interior_dofs
    order = layout_ids(space)
    assert len(levels) == level + 1
    assert len(space.quadtree.order) == ndof - n_int
    assert np.array_equal(np.sort(order), np.arange(ndof))
    assert [box.start for box in levels] == [0] + [box.stop for box in levels[:-1]]
    assert levels[-1].stop == ndof
    assert levels[-1].boxes == 1
    if level == 0:  # level 0 keeps its perimeter, all Dirichlet on one element
        assert np.array_equal(levels[0].perimeter,
                              np.zeros((1, space.n_local - space.dim_interior)))
    else:
        assert levels[-1].perimeter.size == 0
    # Level 0's crosses are the interiors in element order.
    assert (levels[0].stop, levels[0].n_cross) == (n_int, space.dim_interior)
    for i, box in enumerate(levels):
        assert box.boxes == len(box.perimeter) == 4 ** (level - i)
        flat, sink = box.perimeter.ravel(), ndof - box.stop
        assert np.all((flat >= 0) & (flat <= sink))
        assert np.array_equal(np.sort(flat[flat < sink]), np.repeat(np.arange(sink), 2))
    if level >= 1:
        # The last cross is the edge dofs on the lines x = 1/2 and y = 1/2.
        mesh, k = space.mesh, space.dim_trace
        inner = reference_mesh(level)["interior_edges"]
        # ``order`` names each edge dof by its mesh id, (component * num_edges
        # + edge) * dim_trace + basis: exactly the interior edges' dofs.
        assert np.array_equal(np.sort(space.quadtree.order),
                              np.sort(id_edge_dofs(space, inner[None, :])[1].ravel()))
        # A vertical edge lies at x = i*h, a horizontal one at y = j*h.
        line = np.where(mesh.edge_orient[inner] == 0, mesh.edge_i[inner], mesh.edge_j[inner])
        ii = np.flatnonzero(line == mesh.n // 2)
        starts = space.n_interior_dofs + k * mesh.num_interior_edges * np.arange(
            space.num_edge_components)
        cut = (starts[:, None, None] + k * ii[None, :, None] + np.arange(k)).ravel()
        assert np.array_equal(np.sort(order[levels[-1].start:]), np.sort(cut))


@pytest.mark.parametrize("kind,degree", [("laplacian", 1), ("laplacian", 3), ("biharmonic", 2)])
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_level_major_quadtree_matches_the_id_oracle(kind, degree, level):
    # Read through ``order`` as layout ids, every box's cross and perimeter
    # are those of the quadtree built on layout ids (level 0 keeps its
    # perimeter, all Dirichlet on one element), and the merge runs place
    # each child's perimeter where its merge map does.
    space = wg.WgSpace(build_uniform(level), degree, kind=kind, epsilon=0.1)
    levels, ndof = space.quadtree.levels, space.ndof
    ids = np.append(layout_ids(space), ndof)  # the Dirichlet slot maps to itself
    for box, want in zip(levels, id_box_levels(space), strict=True):
        cross = ids[box.start:box.stop].reshape(box.boxes, box.n_cross)
        assert np.array_equal(cross, want.cross)
        assert np.array_equal(ids[box.stop:][box.perimeter], want.perimeter)
        if want.merge is None:
            assert box.merge is None
            continue
        size = box.n_cross + box.perimeter.shape[1]
        for runs, child in zip(box.merge, want.merge, strict=True):
            placed = np.full(len(child), size)
            for source, target, length in runs:
                assert np.all(placed[source:source + length] == size)
                placed[source:source + length] = target + np.arange(length)
            assert np.array_equal(placed, np.where(child < size, child, size))


@pytest.mark.parametrize("kind,degree,level", [("laplacian", 1, 6), ("laplacian", 3, 4),
                                               ("biharmonic", 2, 5)])
def test_quadtree_keeps_one_permutation_and_32_bit_positions(kind, degree, level):
    # Below 2**31 dofs every quadtree index array is 32-bit, the rule of the
    # assembly scatter, and no level keeps global ids or a pair-sum operator:
    # the one permutation ``order`` maps the edge dofs to mesh ids (an
    # interior's is its own id), and each level
    # keeps only its perimeters as offsets into its tail.  At h=1/256, k=1
    # these arrays take 3.4 MB, and the int64 id arrays of the oracle's
    # quadtree (cross, perimeter, pairs, touched) 13.0 MB.
    space = wg.WgSpace(build_uniform(level), degree, kind=kind, epsilon=0.1)
    levels, order = space.quadtree
    assert [f.name for f in fields(levels[0])] == [
        "start", "boxes", "n_cross", "perimeter", "merge"]
    assert order.dtype == np.int32 and order.shape == (space.ndof - space.n_interior_dofs,)
    for box in levels:
        assert box.perimeter.dtype == np.int32
    kept = order.nbytes + sum(box.perimeter.nbytes for box in levels)
    old = sum(b.cross.nbytes + b.perimeter.nbytes + b.pairs.nbytes + b.touched.nbytes
              for b in id_box_levels(space))
    assert kept < 0.4 * old


def test_degree_validation():
    mesh = build_uniform(1)
    with pytest.raises(DegreeTooLowError):
        wg.WgSpace(mesh, 0, kind="laplacian")
    with pytest.raises(DegreeTooLowError):
        wg.WgSpace(mesh, 1, kind="biharmonic")
    with pytest.raises(ValueError):
        wg.WgSpace(mesh, 1, kind="laplacian", epsilon=1.5)
    with pytest.raises(ValueError):
        wg.WgSpace(mesh, 1, kind="helmholtz")


# -- weak gradient -------------------------------------------------------------


def test_weak_gradient_of_constant(lap_L2_k1):
    space, _ = lap_L2_k1
    vloc = np.zeros(space.n_local)
    vloc[0] = 3.0       # interior constant
    vloc[3:] = 3.0 * np.array([1, 1, 1, 1.0])  # edge constants (k = 1)
    got = weak_gradient_local(space, vloc)
    assert np.abs(got).max() < 1e-13


def test_weak_gradient_of_linear():
    space = wg.WgSpace(build_uniform(2), 2, kind="laplacian", epsilon=0.1)
    q = quadrature_qh_project(space, lambda x, y: x)
    for element in (5, 6, 9):  # interior elements of the 4x4 grid
        got = weak_gradient_local(space, local_vector(space, q, element))
        want = np.zeros_like(got)
        want[0, 0] = 1.0
        assert np.abs(got - want).max() < 1e-12


def test_weak_gradient_random_against_dense_oracle():
    space = wg.WgSpace(build_uniform(2), 2, kind="laplacian", epsilon=0.1)
    rng = np.random.default_rng(11)
    for element in (0, 7):
        vloc = rng.standard_normal(space.n_local)
        got = weak_gradient_local(space, vloc)
        want = oracle_weak_gradient(space, element, vloc)
        assert np.abs(got - want).max() < 1e-11


def test_weak_gradient_wrong_kind(bih_L2_k2):
    space, _ = bih_L2_k2
    with pytest.raises(ValueError):
        weak_gradient_local(space, np.zeros(space.n_local))


# -- weak laplacian -------------------------------------------------------------


def test_weak_laplacian_of_x_squared(bih_L2_k2):
    space, _ = bih_L2_k2
    f, grad, _ = monomial_field(2, 0)
    for element in (0, 5, 10):
        vloc = local_interpolant(space, element, f, grad)
        got = weak_laplacian_local(space, vloc)
        want = np.zeros_like(got)
        want[0] = 2.0
        assert np.abs(got - want).max() < 1e-12


def test_weak_laplacian_consistent_traces():
    # v0 in P_k with vb = trace(v0), vn = grad(v0).n_e gives lap_w v = lap v0
    space = wg.WgSpace(build_uniform(1), 3, kind="biharmonic", epsilon=0.1)
    f, grad, lap = monomial_field(2, 1)  # x^2 y, degree 3
    element = 2
    vloc = local_interpolant(space, element, f, grad)
    got = weak_laplacian_local(space, vloc)
    x0, y0, h = _oracle_geometry(space, element)
    want = l2_project_element(lap, Square(x0, y0, h), 1)
    assert np.abs(got - want).max() < 1e-12


def test_weak_laplacian_random_against_dense_oracle():
    space = wg.WgSpace(build_uniform(2), 3, kind="biharmonic", epsilon=0.1)
    rng = np.random.default_rng(13)
    for element in (3, 12):
        vloc = rng.standard_normal(space.n_local)
        got = weak_laplacian_local(space, vloc)
        want = oracle_weak_laplacian(space, element, vloc)
        assert np.abs(got - want).max() < 1e-11


def test_weak_laplacian_wrong_kind(lap_L2_k1):
    space, _ = lap_L2_k1
    with pytest.raises(ValueError):
        weak_laplacian_local(space, np.zeros(space.n_local))


# -- commutation identities ------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("level", [1, 2])
def test_gradient_commutes_with_interpolation(k, level):
    space = wg.WgSpace(build_uniform(level), k, kind="laplacian", epsilon=0.1)
    for a in range(k + 1):
        for b in range(k + 1 - a):
            f, grad, _ = monomial_field(a, b)
            for element in range(0, space.mesh.num_elements, 3):
                vloc = local_interpolant(space, element, f)
                got = weak_gradient_local(space, vloc)
                x0, y0, h = _oracle_geometry(space, element)
                sq = Square(x0, y0, h)
                want = np.vstack([
                    l2_project_element(lambda x, y: grad(x, y)[0], sq, k - 1),
                    l2_project_element(lambda x, y: grad(x, y)[1], sq, k - 1),
                ])
                assert np.abs(got - want).max() < 1e-12


def test_gradient_commutes_for_sine():
    space = wg.WgSpace(build_uniform(2), 2, kind="laplacian", epsilon=0.1)
    f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    gx = lambda x, y: np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
    gy = lambda x, y: np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
    for element in (5, 10):
        vloc = local_interpolant(space, element, f)
        got = weak_gradient_local(space, vloc)
        x0, y0, h = _oracle_geometry(space, element)
        sq = Square(x0, y0, h)
        want = np.vstack([
            l2_project_element(gx, sq, 1),
            l2_project_element(gy, sq, 1),
        ])
        assert np.abs(got - want).max() < 1e-12


# -- assembled forms --------------------------------------------------------------


def test_assembled_symmetry_and_definiteness(lap_L2_k1, bih_L1_k2):
    for space, forms in (lap_L2_k1, bih_L1_k2):
        assert (forms.A - forms.A.T).nnz == 0
        assert (forms.B - forms.B.T).nnz == 0
        evals = np.linalg.eigvalsh(forms.A.toarray())
        assert evals.min() > 0
        bvals = np.linalg.eigvalsh(forms.B.toarray())
        assert bvals.min() > -1e-14
        ni = forms.n_interior_dofs
        assert np.linalg.eigvalsh(forms.B.toarray()[:ni, :ni]).min() > 0


@pytest.mark.parametrize("kind,degree", [("laplacian", 1), ("laplacian", 2), ("laplacian", 3),
                                         ("biharmonic", 2), ("biharmonic", 3),
                                         ("biharmonic", 4)])
@pytest.mark.parametrize("level", [1, 2])
def test_assembly_matches_dense_elementwise_oracle(kind, degree, level):
    # Add the local stiffness matrix and the padded Gram block element by
    # element into dense arrays through the dof map (Dirichlet dofs go to a
    # dropped slot).  Each entry sums at most two terms, so the sparse forms
    # match exactly, and an entry whose terms cancel to 0.0 is not stored.
    space = wg.WgSpace(build_uniform(level), degree, kind=kind, epsilon=0.1)
    forms, kit, ndof, nd0 = wg.assemble(space), space.kit(), space.ndof, space.dim_interior
    b_local = np.zeros((space.n_local, space.n_local))
    b_local[:nd0, :nd0] = kit.Gk
    A = np.zeros((ndof + 1, ndof + 1))
    B = np.zeros_like(A)
    terms = np.zeros(A.shape, dtype=int)
    for row in space.local_dof_map():
        A[np.ix_(row, row)] += kit.a_local
        B[np.ix_(row, row)] += b_local
        terms[np.ix_(row, row)] += kit.a_local != 0.0
    assert np.array_equal(forms.A.toarray(), A[:ndof, :ndof])
    assert np.array_equal(forms.B.toarray(), B[:ndof, :ndof])
    for M in (forms.A, forms.B):
        assert np.all(M.data != 0.0)
        assert all(np.all(np.diff(M.indices[a:b]) > 0)
                   for a, b in zip(M.indptr[:-1], M.indptr[1:]))
        assert (M != M.T).nnz == 0
    cancelled = np.count_nonzero((terms[:ndof, :ndof] == 2) & (A[:ndof, :ndof] == 0.0))
    if (kind, degree, level) == ("biharmonic", 3, 1):
        assert cancelled > 0


@pytest.mark.parametrize("kind,degree", [("laplacian", 1), ("laplacian", 2), ("laplacian", 3),
                                         ("laplacian", 4), ("laplacian", 5), ("biharmonic", 2),
                                         ("biharmonic", 3), ("biharmonic", 4)])
@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_gathered_pair_scatter_matches_the_masked_scatter(kind, degree, level):
    # The scatter gathers the dofs of the nonzero local pairs; the oracle
    # masks the full (element, row, column) cube.  Same triplets in the same
    # order, so the CSR arrays agree byte for byte, dtypes included.
    space = wg.WgSpace(build_uniform(level), degree, kind=kind, epsilon=0.1)
    forms, kit, nd0 = wg.assemble(space), space.kit(), space.dim_interior
    b_local = np.zeros((space.n_local, space.n_local))
    b_local[:nd0, :nd0] = kit.Gk
    for M, local in ((forms.A, kit.a_local), (forms.B, b_local)):
        want = masked_scatter(space, local)
        for got, expected in ((M.indptr, want.indptr), (M.indices, want.indices),
                              (M.data, want.data)):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


_KINDS_K1_3 = [("laplacian", 1), ("laplacian", 2), ("laplacian", 3), ("biharmonic", 2),
               ("biharmonic", 3)]


@pytest.mark.parametrize("kind,degree", _KINDS_K1_3)
@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_matrix_free_products_match_the_csr(kind, degree, level):
    # A x, B x and (A - σB) x without a global matrix against the CSR
    # products: the same sums, grouped by element rather than by row, so
    # they agree to rounding (1e-16 relative measured), for vectors,
    # blocks of columns and products from the left.
    space = wg.WgSpace(build_uniform(level), degree, kind=kind, epsilon=0.1)
    forms, ni = wg.assemble(space), space.n_interior_dofs
    rng = np.random.default_rng(level)
    x, X = rng.standard_normal(space.ndof), rng.standard_normal((space.ndof, 3))
    for op, csr in ((forms.operator(), forms.A), (forms.mass, forms.B),
                    (forms.operator(19.7), forms.A - 19.7 * forms.B),
                    (forms.operator(-3.0), forms.A + 3.0 * forms.B)):
        for got, want in ((op @ x, csr @ x), (op @ X, csr @ X), (x @ op, csr.T @ x)):
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
    assert not np.any((forms.mass @ x)[ni:])


@pytest.mark.parametrize("kind,degree", _KINDS_K1_3)
@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_max_abs_is_the_csr_maximum_bit_for_bit(kind, degree, level):
    # The scale of the pivot ratio, max|A - σB|, from one element's rows
    # equals the maximum over the CSR entries exactly: 200 cases in all.
    for epsilon in (0.1, 0.7):
        space = wg.WgSpace(build_uniform(level), degree, kind=kind, epsilon=epsilon)
        forms = wg.assemble(space)
        for sigma in (0.0, 19.7, 1234.5, -3.0):
            want = np.max(np.abs((forms.A - sigma * forms.B).data))
            assert forms.max_abs(sigma) == want, (epsilon, sigma)


@pytest.mark.parametrize("kind,degree", [("laplacian", 1), ("laplacian", 3), ("biharmonic", 2)])
@pytest.mark.parametrize("level", [0, 1, 2, 3, 5])
def test_dof_map_is_bitwise_the_id_oracle(kind, degree, level):
    # The dof map, read in layout ids through the quadtree's order, equals
    # the map built from the ids of every element's edges, as intp for
    # numpy's gathers.
    space = wg.WgSpace(build_uniform(level), degree, kind=kind, epsilon=0.1)
    want, got = id_dof_map(space), space.local_dof_map()
    ids = np.append(layout_ids(space), space.ndof).astype(np.intp)  # the sink maps to itself
    assert got.dtype == want.dtype == np.intp and ids[got].tobytes() == want.tobytes()


@pytest.mark.parametrize("kind,degree", [("laplacian", 1), ("laplacian", 3), ("biharmonic", 2)])
@pytest.mark.parametrize("level", [0, 2, 3])
def test_dof_map_is_level_zero_of_the_quadtree(kind, degree, level):
    # The quadtree's level-major order numbers the dofs: each row of the dof
    # map is an element's interior, then its perimeter at level 0, whose
    # Dirichlet sink offset ndof - stop names the sink ndof.
    space = wg.WgSpace(build_uniform(level), degree, kind=kind, epsilon=0.1)
    first, got = space.quadtree.levels[0], space.local_dof_map()
    assert first.perimeter.shape == (space.mesh.num_elements, space.n_local - first.n_cross)
    want = np.hstack([np.arange(first.stop).reshape(first.boxes, first.n_cross),
                      first.stop + first.perimeter])
    assert got.dtype == np.intp and np.array_equal(got, want)


def test_mass_matrix_lives_on_interior_only(lap_L3_k1):
    space, forms = lap_L3_k1
    coo = forms.B.tocoo()
    ni = forms.n_interior_dofs
    assert coo.row.max() < ni and coo.col.max() < ni


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_gram_block_matches_quadrature_oracle(k):
    space = wg.WgSpace(build_uniform(3), k, kind="laplacian", epsilon=0.1)
    h = space.mesh.h
    Gk = space.kit().Gk
    want = element_mass_matrix(Square(0.0, 0.0, h), k)
    assert np.abs(Gk - want).max() <= 1e-14 * np.diag(want).max()
    # Odd moments of a centred monomial vanish exactly, not to rounding.
    a, b = np.array(pk_exponents(k)).T
    odd = ((a[:, None] + a[None, :]) % 2 == 1) | ((b[:, None] + b[None, :]) % 2 == 1)
    assert np.all(Gk[odd] == 0.0)


def test_stabilizer_decays_under_refinement():
    u = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    values = []
    for level in (2, 3, 4):
        space = wg.WgSpace(build_uniform(level), 1, kind="laplacian", epsilon=0.1)
        S = stabilizer_matrix(space)
        q = quadrature_qh_project(space, u)
        values.append(float(q @ (S @ q)))
    assert values[0] > values[1] > values[2] > 0


def test_stabilizer_vanishes_on_consistent_fields():
    # local quadratic form is zero whenever the traces match the interior
    space = wg.WgSpace(build_uniform(2), 3, kind="biharmonic", epsilon=0.1)
    kit = space.kit()
    f, grad, _ = monomial_field(2, 1)
    vloc = local_interpolant(space, 6, f, grad)
    s = vloc @ (kit.stabilizer_local(space.epsilon) @ vloc)
    assert abs(s) < 1e-13

    # global form: polynomial vanishing on the boundary, so eliminated
    # boundary unknowns are consistent too
    space = wg.WgSpace(build_uniform(2), 4, kind="laplacian", epsilon=0.1)
    S = stabilizer_matrix(space)
    p = lambda x, y: x * (1 - x) * y * (1 - y)
    q = quadrature_qh_project(space, p)
    assert abs(q @ (S @ q)) < 1e-13


@pytest.mark.parametrize("kind,degree", [("laplacian", 1), ("biharmonic", 2)])
def test_norm_chain(kind, degree):
    space = wg.WgSpace(build_uniform(3), degree, kind=kind, epsilon=0.1)
    A = wg.assemble(space).A
    N1 = norm1_matrix(space)
    bound = space.mesh.h ** (-space.epsilon / 2)
    rng = np.random.default_rng(23)
    for _ in range(100):
        v = rng.standard_normal(space.ndof)
        a = np.sqrt(v @ (A @ v))
        b = np.sqrt(v @ (N1 @ v))
        assert a <= b * (1 + 1e-12)
        assert b <= bound * a * (1 + 1e-12)


# -- interpolation ------------------------------------------------------------------


def test_qh_project_zero_and_polynomial(lap_L2_k1):
    space, _ = lap_L2_k1
    zero = quadrature_qh_project(space, lambda x, y: np.zeros_like(x))
    assert np.abs(zero).max() == 0.0

    # global degree-1 field reproduced exactly in every kept component
    q = quadrature_qh_project(space, lambda x, y: 2.0 * x - y + 0.5)
    for element in range(space.mesh.num_elements):
        vloc = local_vector(space, q, element)
        want = local_interpolant(space, element, lambda x, y: 2.0 * x - y + 0.5)
        gmap = space.local_dof_map()[element]
        kept = gmap < space.ndof
        assert np.abs(vloc[kept] - want[kept]).max() < 1e-13


def test_qh_project_requires_gradient(bih_L1_k2):
    space, _ = bih_L1_k2
    with pytest.raises(ValueError):
        wg.qh_project(space, lambda x, y: x * y)


def test_qh_project_refuses_fields_it_cannot_project(lap_L2_k1, bih_L1_k2):
    # Only a field with 1D factors, and only into the second-order space.
    with pytest.raises(ValueError, match="separable"):
        wg.qh_project(lap_L2_k1[0], lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    mode = wg.exact_laplacian_spectrum(1)[0].generators[0]
    with pytest.raises(ValueError, match="second-order"):
        wg.qh_project(bih_L1_k2[0], mode)


def test_qh_energy_stable_under_quadrature_refinement():
    # The oracle's rule: 10 points a side already give the projection's
    # energy to 1e-10.
    space = wg.WgSpace(build_uniform(3), 1, kind="laplacian", epsilon=0.1)
    forms = wg.assemble(space)
    f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    q10 = quadrature_qh_project(space, f, npts=10)
    q20 = quadrature_qh_project(space, f, npts=20)
    e10 = np.sqrt(q10 @ (forms.A @ q10))
    e20 = np.sqrt(q20 @ (forms.A @ q20))
    assert abs(e10 - e20) < 1e-10 * max(1.0, e20)


@pytest.mark.parametrize("level", [2, 3, 4, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_separable_projection_matches_2d_path(k, level):
    """Sine modes projected through their 1D factors against the oracle's 2D
    evaluation of the same rule, given a plain lambda (no factors).

    Gk^{-1} amplifies rounding in the high-order moments, so interior columns
    are compared to 1e-9 of their own scale and traces to 1e-12."""
    space = wg.WgSpace(build_uniform(level), k, kind="laplacian", epsilon=0.1)
    forms = wg.assemble(space)
    pairs = wg.smallest_eigs(forms, 6)
    ni, nd0 = space.n_interior_dofs, space.dim_interior
    start = 0
    # Clusters (1,1); (1,2),(2,1); (2,2); (1,3),(3,1): m != n, both edge kinds.
    for cluster in wg.exact_laplacian_spectrum(4):
        gens = cluster.generators
        plain = [lambda x, y, g=g: g(x, y) for g in gens]
        refs = [quadrature_qh_project(space, p) for p in plain]
        for g, p, ref in zip(gens, plain, refs):
            assert hasattr(g, "factors") and not hasattr(p, "factors")
            sep = wg.qh_project(space, g)
            assert np.abs(sep[ni:] - ref[ni:]).max() <= 1e-12 * np.abs(ref[ni:]).max()
            S, R = sep[:ni].reshape(-1, nd0), ref[:ni].reshape(-1, nd0)
            assert np.all(np.abs(S - R).max(axis=0) <= 1e-9 * np.abs(R).max(axis=0))
        for pair in pairs[start : start + cluster.multiplicity]:
            e_sep = wg.energy_error(forms, pair.vector, gens)
            e_ref = _span_distance(np.column_stack(refs), pair.vector, space.operator())
            assert abs(e_sep - e_ref) <= 1e-10 * e_ref
        start += cluster.multiplicity


# -- source problem ------------------------------------------------------------------


def test_solve_source_zero(lap_L2_k1):
    space, forms = lap_L2_k1
    u = solve_source(space, lambda x, y: np.zeros_like(x))
    assert np.abs(u).max() < 1e-14


def test_solve_source_residual(lap_L3_k1):
    space, forms = lap_L3_k1
    f = lambda x, y: np.exp(x) * (1 + y)
    u = solve_source(space, f)
    rhs = np.zeros(space.ndof)
    rhs[: space.n_interior_dofs] = _interior_moments(space, f, 10).ravel()
    resid = np.linalg.norm(forms.A @ u - rhs)
    assert resid <= 1e-10 * np.linalg.norm(rhs)


def test_laplacian_source_convergence():
    f = lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    u = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    errs, hs = [], []
    for level in (3, 4, 5, 6):
        space = wg.WgSpace(build_uniform(level), 1, kind="laplacian", epsilon=0.1)
        uh = solve_source(space, f)
        errs.append(l2_error(space, uh, u))
        hs.append(space.mesh.h)
    order = wg.rate_fit(hs, errs)
    assert order >= 1 + 1 - 0.1 - 0.2  # k + 1 - eps with slack


def test_biharmonic_source_convergence():
    g = lambda t: t**2 * (1 - t) ** 2
    dg = lambda t: 2 * t - 6 * t**2 + 4 * t**3
    g2 = lambda t: 2 - 12 * t + 12 * t**2
    u = lambda x, y: g(x) * g(y)
    grad = lambda x, y: (dg(x) * g(y), g(x) * dg(y))
    lap = lambda x, y: g2(x) * g(y) + g(x) * g2(y)
    f = lambda x, y: 24 * g(y) + 2 * g2(x) * g2(y) + 24 * g(x)
    errs, hs = [], []
    for level in (2, 3, 4, 5):
        space = wg.WgSpace(build_uniform(level), 2, kind="biharmonic", epsilon=0.1)
        uh = solve_source(space, f)
        errs.append(vnorm_error(space, uh, u, grad, lap))
        hs.append(space.mesh.h)
    order = wg.rate_fit(hs, errs)
    assert order >= 2 - 1 - 0.1 - 0.3  # k - 1 - eps with slack


def _from_lu(factor, piv):
    """The matrix P L U that getrf factored, its row swaps undone in reverse."""
    block = (np.tril(factor, -1) + np.eye(len(factor))) @ np.triu(factor)
    for i, p in reversed(list(enumerate(piv))):
        block[[i, p]] = block[[p, i]]
    return block


@pytest.mark.parametrize("kind,degree", [("laplacian", 1), ("laplacian", 3), ("biharmonic", 2)])
@pytest.mark.parametrize("level", [0, 1, 3])
def test_box_blocks_match_the_assembled_schur_complement(kind, degree, level):
    # For box 0 of every quadtree level, the cross block (multiplied back
    # from the factor's LU) and X = K_CC⁻¹ K_CP of the factor, merged from
    # four copies of the level below, equal the Schur complement of the
    # box's own elements, assembled by the dof map, onto the box's cross and
    # perimeter (Dirichlet perimeter dofs dropped).
    space = wg.WgSpace(build_uniform(level), degree, kind=kind, epsilon=0.1)
    lu, ndof = linalg.factor_spd(wg.assemble(space)), space.ndof
    levels = space.quadtree.levels
    a = space.kit().a_local
    for i, (box, ((factor, piv), X)) in enumerate(zip(levels, lu.factors)):
        block = _from_lu(factor, piv)
        inside = (space.mesh.elem_ix < 2 ** i) & (space.mesh.elem_iy < 2 ** i)
        dof = space.local_dof_map()[inside]
        A = np.zeros((ndof + 1, ndof + 1))
        for row in dof:
            A[np.ix_(row, row)] += a
        keep = np.concatenate([np.arange(box.start, box.start + box.n_cross),
                               box.stop + box.perimeter[0]])
        live, rest = keep[keep < ndof], np.setdiff1d(dof[dof < ndof], keep)
        S = A[np.ix_(live, live)] - A[np.ix_(live, rest)] @ np.linalg.solve(
            A[np.ix_(rest, rest)], A[np.ix_(rest, live)])
        n_c = len(block)
        assert np.allclose(block, S[:n_c, :n_c], rtol=0, atol=1e-12 * np.abs(S).max())
        want = np.linalg.solve(S[:n_c, :n_c], S[:n_c, n_c:])
        assert np.allclose(X[:, keep[n_c:] < ndof], want, rtol=0, atol=1e-10)
