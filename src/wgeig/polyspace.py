"""Scaled monomial element bases and Gauss-Legendre rules.

Element bases are monomials in ((x - x_T)/h_T, (y - y_T)/h_T) centered at the
element centroid.  The scaling keeps local Gram matrices conditioned
independently of the refinement level.  The edge basis, monomials in the
arclength parameter centered at the edge midpoint and scaled by the edge
length, is tabulated with the edge rule by the local kit of wg_core.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Tensor 10-point Gauss is exact through total degree 19 and is the fixed rule
# for transcendental integrands, so projections of smooth fields are
# reproducible to near machine precision.
DEFAULT_FIELD_QUAD = 10


def dim_pk(k: int) -> int:
    """Dimension of the 2D polynomial space of total degree <= k."""
    return (k + 1) * (k + 2) // 2


@lru_cache(maxsize=None)
def pk_exponents(k: int) -> tuple[tuple[int, int], ...]:
    """Exponent pairs of the P_k basis, ordered by total degree."""
    return tuple((d - j, j) for d in range(k + 1) for j in range(d + 1))


@lru_cache(maxsize=None)
def gauss_rule(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1]; exact through degree 2*npts - 1."""
    x, w = np.polynomial.legendre.leggauss(npts)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _power_with_derivative(t: np.ndarray, a: int, order: int) -> np.ndarray:
    """d^order/dt^order of t^a (without any chain-rule scale factor)."""
    if order > a:
        return np.zeros_like(t)
    coef = 1.0
    for p in range(order):
        coef *= a - p
    return coef * t ** (a - order)


@dataclass(frozen=True)
class ElementBasis:
    """Scale-normalized monomial basis of P_degree on a square element."""

    degree: int
    center: tuple[float, float]
    scale: float

    @property
    def dim(self) -> int:
        return dim_pk(self.degree)

    def eval(self, x: np.ndarray, y: np.ndarray, dx: int = 0, dy: int = 0) -> np.ndarray:
        """Basis (derivative) values; shape (npts, dim)."""
        X = (np.asarray(x, dtype=float) - self.center[0]) / self.scale
        Y = (np.asarray(y, dtype=float) - self.center[1]) / self.scale
        X = X.ravel()
        Y = Y.ravel()
        cols = []
        scale_fac = self.scale ** (dx + dy)
        for a, b in pk_exponents(self.degree):
            col = _power_with_derivative(X, a, dx) * _power_with_derivative(Y, b, dy)
            cols.append(col / scale_fac)
        return np.column_stack(cols)
