import numpy as np
import pytest
from hypothesis import settings

import wgeig as wg

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


def dense_pencil_eigs(forms, m):
    """Independent oracle: dense Schur condensation onto the interior block,
    then a dense generalized symmetric eigensolve."""
    import scipy.linalg as sla

    A = forms.A.toarray()
    B = forms.B.toarray()
    ni = forms.n_interior
    AII = A[:ni, :ni]
    AIE = A[:ni, ni:]
    AEE = A[ni:, ni:]
    S = AII - AIE @ np.linalg.solve(AEE, AIE.T)
    return sla.eigh(S, B[:ni, :ni], eigvals_only=True)[:m]
