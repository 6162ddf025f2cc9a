import numpy as np
import pytest

from oracles import (
    EdgeBasis,
    QuadratureRule,
    Segment,
    Square,
    edge_mass_matrix,
    element_basis,
    element_mass_matrix,
    l2_project_edge,
    l2_project_element,
)
from wgeig.polyspace import dim_pk, gauss_rule, pk_exponents

UNIT = Square(0.0, 0.0, 1.0)


def monomial_integral_over_square(square: Square, a: int, b: int) -> float:
    """Closed-form oracle for the centered scaled monomial X^a Y^b."""
    # int_{-1/2}^{1/2} s^p ds, times the side length per direction
    def mu(p):
        return 0.0 if p % 2 else (0.5**p) / (p + 1)

    return square.side**2 * mu(a) * mu(b)


def test_quadrature_exactness_and_weights():
    rule = QuadratureRule.tensor_gauss(UNIT, 10)
    assert rule.exactness == 19
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    for a in range(rule.exactness + 1):
        for b in range(rule.exactness + 1 - a):
            got = float((rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b).sum())
            assert abs(got - 1.0 / ((a + 1) * (b + 1))) < 1e-14


def test_interval_rule_measures():
    seg = Segment(0.25, 0.0, 0.75, 0.0)
    rule = QuadratureRule.interval_gauss(seg, 6)
    assert abs(rule.weights.sum() - 0.5) < 1e-15
    got = float((rule.weights * rule.points[:, 0] ** 3).sum())
    assert abs(got - (0.75**4 - 0.25**4) / 4) < 1e-15


def test_basis_dimensions_and_exponents():
    for k in range(5):
        assert dim_pk(k) == (k + 1) * (k + 2) // 2
        assert len(pk_exponents(k)) == dim_pk(k)
    assert pk_exponents(2) == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


@pytest.mark.parametrize("h", [1.0, 0.25, 2.0 ** -5])
def test_mass_matrix_k0_and_k1(h):
    sq = Square(0.5, 0.25, h)
    G0 = element_mass_matrix(sq, 0)
    assert G0.shape == (1, 1)
    assert abs(G0[0, 0] - h * h) < 1e-14 * h * h
    G1 = element_mass_matrix(sq, 1)
    want = np.diag([h * h, h * h / 12, h * h / 12])
    assert np.allclose(G1, want, rtol=0, atol=1e-14 * h * h)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_mass_matrix_vs_monomial_oracle(k):
    sq = Square(0.125, 0.5, 0.25)
    G = element_mass_matrix(sq, k)
    exps = pk_exponents(k)
    want = np.array([
        [monomial_integral_over_square(sq, a1 + a2, b1 + b2)
         for (a2, b2) in exps]
        for (a1, b1) in exps
    ])
    assert np.allclose(G, want, rtol=0, atol=1e-15)
    assert np.all(np.linalg.eigvalsh(G) > 0)
    assert np.array_equal(G, G.T)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_project_element_reproduces_polynomials(k):
    sq = Square(0.25, 0.5, 0.25)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(dim_pk(k))
    basis = element_basis(sq, k)
    f = lambda x, y: basis.eval(x, y) @ coeffs
    got = l2_project_element(lambda x, y: f(x, y).reshape(np.shape(x)), sq, k)
    assert np.abs(got - coeffs).max() < 5e-13


def test_project_element_constant():
    got = l2_project_element(lambda x, y: np.ones_like(x), Square(0.5, 0.0, 0.25), 3)
    want = np.zeros(dim_pk(3))
    want[0] = 1.0
    assert np.abs(got - want).max() < 1e-13


def test_project_element_sine_against_brute_force():
    f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    got = l2_project_element(f, UNIT, 1)
    # frozen closed form: only the constant mode survives by parity
    assert np.abs(got - np.array([4 / np.pi**2, 0.0, 0.0])).max() < 1e-13

    # brute-force normal-equations oracle on a 50x50 tensor rule
    x, w = gauss_rule(50)
    gx = 0.5 * (x + 1.0)
    X, Y = np.meshgrid(gx, gx, indexing="ij")
    W = np.outer(w, w).ravel() * 0.25
    basis = element_basis(UNIT, 1)
    V = basis.eval(X.ravel(), Y.ravel())
    G = V.T @ (V * W[:, None])
    rhs = V.T @ (W * f(X.ravel(), Y.ravel()))
    want = np.linalg.solve(G, rhs)
    assert np.abs(got - want).max() < 1e-13


def test_project_edge_exact_and_constant():
    seg = Segment(0.0, 0.25, 0.5, 0.25)
    basis = EdgeBasis(2, seg)
    coeffs = np.array([0.7, -1.3, 0.2])
    f = lambda x, y: basis.eval(x, y) @ coeffs
    got = l2_project_edge(lambda x, y: f(x, y).reshape(np.shape(x)), seg, 2)
    assert np.abs(got - coeffs).max() < 1e-13
    const = l2_project_edge(lambda x, y: np.full_like(x, 2.5), seg, 3)
    assert np.abs(const - np.array([2.5, 0, 0, 0])).max() < 1e-13


def test_project_edge_sine_frozen_and_oracle():
    seg = Segment(0.0, 0.0, 0.5, 0.0)
    f = lambda x, y: np.sin(np.pi * x)
    got = l2_project_edge(f, seg, 1)
    # frozen closed form from exact integration of sin against {1, s}
    want = np.array([2 / np.pi, 48 / np.pi**2 - 12 / np.pi])
    assert np.abs(got - want).max() < 1e-12

    x, w = gauss_rule(20)
    t = 0.25 * (x + 1.0)
    W = 0.25 * w
    V = EdgeBasis(1, seg).eval(t, np.zeros_like(t))
    G = V.T @ (V * W[:, None])
    rhs = V.T @ (W * np.sin(np.pi * t))
    oracle = np.linalg.solve(G, rhs)
    assert np.abs(got - oracle).max() < 1e-13


def test_projection_idempotent_and_best_approximation():
    sq = Square(0.0, 0.5, 0.5)
    f = lambda x, y: 1.0 + x + x * y - y**2
    once = l2_project_element(f, sq, 1)
    basis = element_basis(sq, 1)
    again = l2_project_element(
        lambda x, y: (basis.eval(x, y) @ once).reshape(np.shape(x)), sq, 1
    )
    assert np.abs(once - again).max() < 1e-13

    # degree-2 input projected to degree 1: the residual is orthogonal to P_1
    p2 = lambda x, y: (x - 0.2) ** 2 + 0.3 * y
    proj = l2_project_element(p2, sq, 1)
    rule = QuadratureRule.tensor_gauss(sq, 10)
    px, py, W = rule.points[:, 0], rule.points[:, 1], rule.weights
    resid = p2(px, py) - element_basis(sq, 1).eval(px, py) @ proj
    V1 = element_basis(sq, 1).eval(px, py)
    assert np.abs(V1.T @ (W * resid)).max() < 1e-12


def test_edge_mass_matrix_spd():
    seg = Segment(0.5, 0.25, 0.5, 0.75)
    G = edge_mass_matrix(seg, 3)
    assert np.all(np.linalg.eigvalsh(G) > 0)
    assert np.array_equal(G, G.T)
