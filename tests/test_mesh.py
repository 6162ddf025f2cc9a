import dataclasses
import json

import numpy as np
import pytest

from oracles import reference_mesh
from wgeig import analysis, wg_core
from wgeig.eigsolve import smallest_eigs
from wgeig.errors import CapacityError, LevelOrderError
from wgeig.mesh import EDGE_SIGNS, MeshLevel, build_uniform, containment_map


@pytest.mark.parametrize("level,elems,edges,bdry", [
    (0, 1, 4, 4),
    (1, 4, 12, 8),
    (3, 64, 144, 32),
])
def test_entity_counts(level, elems, edges, bdry):
    m = build_uniform(level)
    assert m.num_elements == elems
    assert m.num_edges == edges
    assert m.num_boundary_edges == bdry


@pytest.mark.parametrize("level", range(6))
def test_count_formulas(level):
    m = build_uniform(level)
    n = 2**level
    assert m.num_elements == 4**level
    assert m.num_edges == 2 * n * (n + 1)
    assert m.num_boundary_edges == 4 * n
    assert m.num_interior_edges == m.num_edges - 4 * n
    assert m.h == 2.0 ** (-level)


@pytest.mark.parametrize("level", range(5))
def test_edge_incidence_and_signs(level):
    m = build_uniform(level)
    count = np.zeros(m.num_edges, dtype=int)
    sign_sum = np.zeros(m.num_edges)
    for e in range(m.num_elements):
        for side in range(4):
            count[m.elem_edges[e, side]] += 1
            sign_sum[m.elem_edges[e, side]] += EDGE_SIGNS[side]
    interior = ~m.boundary_flags
    assert np.all(count[interior] == 2)
    assert np.all(sign_sum[interior] == 0.0)
    assert np.all(count[m.boundary_flags] == 1)


def test_containment_identity_and_root():
    m2 = build_uniform(2)
    assert np.array_equal(containment_map(m2, m2), np.arange(m2.num_elements))
    m0 = build_uniform(0)
    assert np.all(containment_map(m0, m2) == 0)


def test_containment_halving():
    m1 = build_uniform(1)
    m2 = build_uniform(2)
    cmap = containment_map(m1, m2)
    fine_index = 2 * m2.n + 3  # fine cell (ix, iy) = (3, 2)
    assert m2.elem_ix[fine_index] == 3 and m2.elem_iy[fine_index] == 2
    assert cmap[fine_index] == 1 * m1.n + 1  # coarse cell (1, 1)


@pytest.mark.parametrize("lc,lf", [(0, 2), (1, 3), (2, 4)])
def test_containment_tiles_exactly(lc, lf):
    coarse = build_uniform(lc)
    fine = build_uniform(lf)
    cmap = containment_map(coarse, fine)
    per_coarse = np.bincount(cmap, minlength=coarse.num_elements)
    # each coarse cell is tiled by exactly 4^(lf-lc) fine cells
    assert np.all(per_coarse == 4 ** (lf - lc))
    # and integer cell coordinates stay inside the coarse cell
    d = lf - lc
    assert np.all((fine.elem_ix >> d) == coarse.elem_ix[cmap])
    assert np.all((fine.elem_iy >> d) == coarse.elem_iy[cmap])


def test_level_order_error():
    with pytest.raises(LevelOrderError):
        containment_map(build_uniform(3), build_uniform(2))


def test_capacity_and_validation():
    with pytest.raises(CapacityError):
        build_uniform(21)
    with pytest.raises(ValueError):
        build_uniform(-1)


def test_ordering_reproducible(tmp_path):
    a, b = build_uniform(3), build_uniform(3)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    a.dump_json(pa)
    b.dump_json(pb)
    assert pa.read_bytes() == pb.read_bytes()
    doc = json.loads(pa.read_text())
    assert doc["num_elements"] == 64
    assert len(doc["edges"]) == 144


@pytest.mark.parametrize("level", range(7))
def test_arrays_match_the_stored_construction(level):
    # Each index array is rebuilt on every read, with the values and dtypes
    # the mesh once stored; the edge counts are closed forms.
    m = build_uniform(level)
    for name, want in reference_mesh(level).items():
        got = getattr(m, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        else:
            assert got == want, name


def test_a_mesh_is_its_level():
    assert [f.name for f in dataclasses.fields(MeshLevel)] == ["level"]
    assert build_uniform(3) == build_uniform(3) != build_uniform(2)
    assert hash(build_uniform(3)) == hash(build_uniform(3))
    mesh = build_uniform(4)
    space = wg_core.assemble(wg_core.WgSpace(mesh, 1, kind="laplacian", epsilon=0.1))
    pair = smallest_eigs(space, 1)[0]
    analysis.energy_error(space, pair.vector, analysis.exact_laplacian_spectrum(1)[0].generators)
    assert not any(isinstance(v, np.ndarray) for v in vars(mesh).values())
