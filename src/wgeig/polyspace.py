"""Scaled monomial bases and Gauss quadrature.

Element bases are monomials in ((x - x_T)/h_T, (y - y_T)/h_T) centered at the
element centroid; edge bases are monomials in the arclength parameter centered
at the edge midpoint and scaled by the edge length.  The scaling keeps local
Gram matrices conditioned independently of the refinement level.
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


@dataclass(frozen=True)
class Square:
    """Axis-aligned square element with lower-left corner (x0, y0)."""

    x0: float
    y0: float
    side: float

    @property
    def center(self) -> tuple[float, float]:
        return self.x0 + 0.5 * self.side, self.y0 + 0.5 * self.side


@dataclass(frozen=True)
class Segment:
    """Straight edge from (x0, y0) to (x1, y1)."""

    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def length(self) -> float:
        return float(np.hypot(self.x1 - self.x0, self.y1 - self.y0))

    @property
    def midpoint(self) -> tuple[float, float]:
        return 0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1)

    def points(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map t in [0, 1] to physical points."""
        return self.x0 + t * (self.x1 - self.x0), self.y0 + t * (self.y1 - self.y0)


@dataclass(frozen=True)
class QuadratureRule:
    """Points, weights, and declared polynomial exactness of a mapped rule."""

    points: np.ndarray
    weights: np.ndarray
    exactness: int

    @staticmethod
    def tensor_gauss(square: Square, npts: int) -> "QuadratureRule":
        x, w = gauss_rule(npts)
        half = 0.5 * square.side
        gx = square.x0 + half * (x + 1.0)
        gy = square.y0 + half * (x + 1.0)
        X, Y = np.meshgrid(gx, gy, indexing="ij")
        W = np.outer(w, w).ravel() * half * half
        pts = np.column_stack([X.ravel(), Y.ravel()])
        return QuadratureRule(points=pts, weights=W, exactness=2 * npts - 1)

    @staticmethod
    def interval_gauss(segment: Segment, npts: int) -> "QuadratureRule":
        x, w = gauss_rule(npts)
        t = 0.5 * (x + 1.0)
        px, py = segment.points(t)
        W = w * 0.5 * segment.length
        return QuadratureRule(
            points=np.column_stack([px, py]), weights=W, exactness=2 * npts - 1
        )


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

    @staticmethod
    def for_square(square: Square, degree: int) -> "ElementBasis":
        return ElementBasis(degree=degree, center=square.center, scale=square.side)

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


@dataclass(frozen=True)
class EdgeBasis:
    """Scaled 1D monomial basis in the arclength parameter of an edge."""

    degree: int
    segment: Segment

    @property
    def dim(self) -> int:
        return self.degree + 1

    def eval(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        seg = self.segment
        mx, my = seg.midpoint
        tx = (seg.x1 - seg.x0) / seg.length
        ty = (seg.y1 - seg.y0) / seg.length
        s = ((np.asarray(x, float).ravel() - mx) * tx
             + (np.asarray(y, float).ravel() - my) * ty) / seg.length
        return np.column_stack([s**i for i in range(self.degree + 1)])
