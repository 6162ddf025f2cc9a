import numpy as np
import pytest
from hypothesis import settings

import wgeig as wg
from oracles import Segment, Square, l2_project_edge, l2_project_element
from wgeig.polyspace import DEFAULT_FIELD_QUAD

# Fixed examples and no example database: every run draws the same cases,
# so the suite stays bitwise repeatable and its time bounded.
settings.register_profile("deterministic", derandomize=True, max_examples=40,
                          deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def lap_L2_k1():
    space = wg.WgSpace(wg.build_uniform(2), 1, kind="laplacian", epsilon=0.1)
    return space, wg.assemble(space)


@pytest.fixture(scope="session")
def lap_L3_k1():
    space = wg.WgSpace(wg.build_uniform(3), 1, kind="laplacian", epsilon=0.1)
    return space, wg.assemble(space)


@pytest.fixture(scope="session")
def bih_L1_k2():
    space = wg.WgSpace(wg.build_uniform(1), 2, kind="biharmonic", epsilon=0.1)
    return space, wg.assemble(space)


@pytest.fixture(scope="session")
def bih_L2_k2():
    space = wg.WgSpace(wg.build_uniform(2), 2, kind="biharmonic", epsilon=0.1)
    return space, wg.assemble(space)


class CountingLU:
    """Factor proxy that records the shape of every right-hand side it solves."""

    def __init__(self, lu):
        self.lu, self.shapes = lu, []

    def solve(self, rhs):
        self.shapes.append(np.shape(rhs))
        return self.lu.solve(rhs)

    def __getattr__(self, name):
        return getattr(self.lu, name)


def condensed_pencil_eigs(A, B, ni, m):
    """Independent oracle: the m smallest eigenvalues of the sparse pencil
    (A, B) whose mass B lives on the first ni unknowns.  Dense Schur
    condensation onto them and a dense generalized symmetric eigensolve give
    the eigenvectors; each value is the Rayleigh quotient of its vector,
    extended to the other unknowns, on the sparse pencil, whose error is the
    square of the vector's.  The dense values alone are off by up to 5e-14
    relative and move with the BLAS thread count (Laplacian k=3, h=1/8:
    78.91622861258486 with one thread, ...185 with two)."""
    import scipy.linalg as sla

    dense = A.toarray()
    AII, AIE, AEE = dense[:ni, :ni], dense[:ni, ni:], dense[ni:, ni:]
    S = AII - AIE @ np.linalg.solve(AEE, AIE.T)
    _, Z = sla.eigh(S, B[:ni, :ni].toarray(), subset_by_index=[0, min(m, ni) - 1])
    X = np.vstack([Z, -np.linalg.solve(AEE, AIE.T @ Z)])
    return np.sort(np.sum(X * (A @ X), axis=0) / np.sum(X * (B @ X), axis=0))


def dense_pencil_eigs(space, m):
    """The m smallest eigenvalues of (A, B) by condensed_pencil_eigs."""
    return condensed_pencil_eigs(space.A, space.B, space.n_interior_dofs, m)


def local_interior_eigs(space):
    """Eigenvalues of the pencil (a_II, Gk) of the shared interior block."""
    import scipy.linalg as sla

    kit, nb = space.kit(), space.dim_interior
    return sla.eigh(kit.a_local[:nb, :nb], kit.Gk, eigvals_only=True)


def local_interpolant(space, element, f, grad=None, npts=DEFAULT_FIELD_QUAD):
    """Independent oracle: unconstrained componentwise interpolant of f on one
    element, from per-element and per-edge L2 projections.

    Unlike qh_project, the trace and normal blocks of boundary edges are kept,
    so the element-local commutation identities of the weak operators hold for
    fields that do not vanish on the domain boundary.
    """
    if space.kind == wg.BIHARMONIC and grad is None:
        raise ValueError("the fourth-order interpolant needs the gradient of f")
    h = space.mesh.h
    x0 = space.mesh.elem_ix[element] * h
    y0 = space.mesh.elem_iy[element] * h
    segments = (
        Segment(x0, y0, x0, y0 + h),
        Segment(x0 + h, y0, x0 + h, y0 + h),
        Segment(x0, y0, x0 + h, y0),
        Segment(x0, y0 + h, x0 + h, y0 + h),
    )
    parts = [l2_project_element(f, Square(x0, y0, h), space.degree, npts=npts)]
    for seg in segments:
        parts.append(l2_project_edge(f, seg, space.degree - 1, npts=npts))
    if space.kind == wg.BIHARMONIC:
        for p, seg in enumerate(segments):
            comp = (lambda x, y: grad(x, y)[0]) if p < 2 else (lambda x, y: grad(x, y)[1])
            parts.append(l2_project_edge(comp, seg, space.degree - 1, npts=npts))
    return np.concatenate(parts)
