"""Uniform nested square partitions of the unit square.

All geometry is dyadic: an entity is identified by integer cell coordinates
plus the level, so containment between nested levels is exact integer
arithmetic.  Every edge carries a fixed unit normal, +x for vertical edges
and +y for horizontal edges, independent of which elements touch it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, LevelOrderError

MAX_LEVEL = 20

# Local edge order used everywhere: (left, right, bottom, top).
# sigma = n . n_e, where n is the element outward normal and n_e the fixed
# edge normal (+x vertical, +y horizontal).  Same for every element.
EDGE_SIGNS = np.array([-1.0, 1.0, -1.0, 1.0])


@dataclass(frozen=True)
class MeshLevel:
    """A uniform 2^level x 2^level partition of (0,1)^2.

    Elements are ordered lexicographically by (iy, ix).  Vertical edges come
    first, ordered by (j, i) with i in 0..n and j in 0..n-1; horizontal edges
    follow, ordered by (j, i) with i in 0..n-1 and j in 0..n.

    The level is all a mesh stores: every index array is integer arithmetic
    on it, rebuilt on each read, so a caller that needs one twice binds it.
    """

    level: int

    @property
    def n(self) -> int:
        return 1 << self.level

    @property
    def h(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def num_elements(self) -> int:
        return self.n * self.n

    @property
    def num_edges(self) -> int:
        return 2 * self.n * (self.n + 1)

    @property
    def num_boundary_edges(self) -> int:
        return 4 * self.n

    @property
    def num_interior_edges(self) -> int:
        return 2 * self.n * (self.n - 1)

    @property
    def elem_ix(self) -> np.ndarray:
        return np.arange(self.num_elements) % self.n

    @property
    def elem_iy(self) -> np.ndarray:
        return np.arange(self.num_elements) // self.n

    @property
    def edge_orient(self) -> np.ndarray:
        """0 = vertical (normal +x), 1 = horizontal (+y)."""
        return np.repeat(np.arange(2, dtype=np.int8), self.num_edges // 2)

    def _edge_cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(i, j) of the vertical edges, x = i*h with id j*(n+1) + i, then of
        the horizontal ones, y = j*h with id n(n+1) + j*n + i."""
        n, ids = self.n, np.arange(self.num_edges // 2)
        return ids % (n + 1), ids // (n + 1), ids % n, ids // n

    @property
    def edge_i(self) -> np.ndarray:
        vi, _, hi, _ = self._edge_cells()
        return np.concatenate([vi, hi])

    @property
    def edge_j(self) -> np.ndarray:
        _, vj, _, hj = self._edge_cells()
        return np.concatenate([vj, hj])

    @property
    def boundary_flags(self) -> np.ndarray:
        vi, _, _, hj = self._edge_cells()
        n = self.n
        return np.concatenate([(vi == 0) | (vi == n), (hj == 0) | (hj == n)])

    @property
    def elem_edges(self) -> np.ndarray:
        """(Ne, 4) edge ids in (left, right, bottom, top) order."""
        n, ix, iy = self.n, self.elem_ix, self.elem_iy
        left = iy * (n + 1) + ix
        bottom = n * (n + 1) + iy * n + ix
        return np.column_stack([left, left + 1, bottom, bottom + n])

    @property
    def interior_edges(self) -> np.ndarray:
        return np.nonzero(~self.boundary_flags)[0]

    @property
    def interior_index(self) -> np.ndarray:
        """Position among the interior edges, -1 on the boundary."""
        index = np.full(self.num_edges, -1, dtype=np.int64)
        inner = self.interior_edges
        index[inner] = np.arange(inner.size)
        return index

    def element_centers(self) -> tuple[np.ndarray, np.ndarray]:
        return (self.elem_ix + 0.5) * self.h, (self.elem_iy + 0.5) * self.h

    def element_origins(self) -> tuple[np.ndarray, np.ndarray]:
        return self.elem_ix * self.h, self.elem_iy * self.h

    def edge_midpoints(self) -> tuple[np.ndarray, np.ndarray]:
        vertical, i, j, h = self.edge_orient == 0, self.edge_i, self.edge_j, self.h
        mx = np.where(vertical, i * h, (i + 0.5) * h)
        my = np.where(vertical, (j + 0.5) * h, j * h)
        return mx, my

    def to_debug_dict(self) -> dict:
        return {
            "level": self.level,
            "mesh_size": self.h,
            "num_elements": self.num_elements,
            "num_edges": self.num_edges,
            "num_boundary_edges": self.num_boundary_edges,
            "elements": [
                {"ix": int(ix), "iy": int(iy)}
                for ix, iy in zip(self.elem_ix, self.elem_iy)
            ],
            "edges": [
                {
                    "orient": "vertical" if o == 0 else "horizontal",
                    "i": int(i),
                    "j": int(j),
                    "boundary": bool(b),
                }
                for o, i, j, b in zip(
                    self.edge_orient, self.edge_i, self.edge_j, self.boundary_flags
                )
            ],
            "element_edges": self.elem_edges.tolist(),
            "edge_signs": EDGE_SIGNS.tolist(),
        }

    def dump_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_debug_dict(), fh, indent=2, sort_keys=True)


def build_uniform(level: int) -> MeshLevel:
    """The uniform mesh at the given refinement level (h = 2^-level)."""
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    if level > MAX_LEVEL:
        raise CapacityError(f"level {level} exceeds the supported maximum {MAX_LEVEL}")
    return MeshLevel(level)


def containment_map(coarse: MeshLevel, fine: MeshLevel) -> np.ndarray:
    """Map each fine element to the coarse element that contains it.

    Pure integer arithmetic: fine cell (ix, iy) lies in coarse cell
    (ix >> d, iy >> d) with d the level difference.
    """
    if fine.level < coarse.level:
        raise LevelOrderError(
            f"fine level {fine.level} is coarser than coarse level {coarse.level}"
        )
    d = fine.level - coarse.level
    return (fine.elem_iy >> d) * coarse.n + (fine.elem_ix >> d)
