"""Grid state, player partitions, connected components, and exact expected
utilities.

A strategy profile is a 0/1 grid (1 = tree planted).  Lightning strikes one
cell according to a probability field; a strike on a planted cell burns the
whole connected component of trees containing it.  A tree therefore survives
with probability 1 minus the total strike probability of its component, which
makes every utility an exact expectation computed from a component labeling
(no Monte Carlo anywhere).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

FOUR_NEIGHBOR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=np.uint8)
EIGHT_NEIGHBOR = np.ones((3, 3), dtype=np.uint8)


def neighbor_structure(connectivity: int) -> np.ndarray:
    if connectivity == 4:
        return FOUR_NEIGHBOR
    if connectivity == 8:
        return EIGHT_NEIGHBOR
    raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")


class GridConfig:
    """Planted/empty state of every cell of a width x height grid.

    Cells are stored row-major as a read-only uint8 array of shape
    (height, width); flat cell indices are g = y * width + x.
    """

    __slots__ = ("width", "height", "cells")

    def __init__(self, cells) -> None:
        arr = np.ascontiguousarray(cells, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError("cells must be a 2-D array")
        if not ((arr == 0) | (arr == 1)).all():
            raise ValueError("cells must contain only 0 and 1")
        arr = arr.copy()
        arr.setflags(write=False)
        self.cells = arr
        self.height, self.width = arr.shape

    @classmethod
    def empty(cls, width: int, height: int) -> "GridConfig":
        return cls(np.zeros((height, width), dtype=np.uint8))

    @classmethod
    def full(cls, width: int, height: int) -> "GridConfig":
        return cls(np.ones((height, width), dtype=np.uint8))

    @property
    def n_cells(self) -> int:
        return self.width * self.height

    @property
    def planted_count(self) -> int:
        return int(self.cells.sum())

    @property
    def density(self) -> float:
        return self.planted_count / self.n_cells

    def __eq__(self, other) -> bool:
        return isinstance(other, GridConfig) and np.array_equal(self.cells, other.cells)

    def __hash__(self):
        return hash((self.width, self.height, self.cells.tobytes()))

    def to_text(self) -> str:
        """One row per line, '1' planted / '0' empty, top-left origin."""
        return "\n".join("".join("1" if c else "0" for c in row) for row in self.cells) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "GridConfig":
        rows = [line for line in text.splitlines() if line.strip()]
        if not rows:
            raise ValueError("empty grid text")
        try:
            arr = np.array([[int(ch) for ch in row] for row in rows], dtype=np.uint8)
        except ValueError as exc:
            raise ValueError(f"bad grid text: {exc}") from None
        return cls(arr)

    def to_pgm_bytes(self) -> bytes:
        """Binary PGM snapshot: planted = 255, empty = 0."""
        header = f"P5\n{self.width} {self.height}\n255\n".encode("ascii")
        return header + (self.cells * np.uint8(255)).tobytes()


class PlayerPartition:
    """Assignment of grid cells to players.

    The standard construction tiles a square grid into m identical square
    subgrids (m a power of 4), numbered row-major by subgrid.  Degenerate
    constructions (one player owning everything; one player per cell) are
    provided for oracles and 1-D checks.
    """

    __slots__ = ("owner", "m", "width", "height", "_starts", "_order")

    def __init__(self, owner, m: int) -> None:
        owner = np.ascontiguousarray(owner, dtype=np.int64)
        if owner.ndim != 2:
            raise ValueError("owner must be a 2-D array")
        flat = owner.ravel()
        counts = np.bincount(flat, minlength=m)
        if flat.min() < 0 or flat.max() >= m or (counts == 0).any():
            raise ValueError("owner map must use every player index in [0, m)")
        owner.setflags(write=False)
        self.owner = owner
        self.m = m
        self.height, self.width = owner.shape
        # Cells grouped by player index; the stable sort keeps each player's
        # cells in row-major order.
        self._order = np.argsort(flat, kind="stable")
        self._starts = np.concatenate(([0], np.cumsum(counts)))

    @classmethod
    def square_tiling(cls, edge: int, m: int) -> "PlayerPartition":
        """Partition an edge x edge grid into m identical square subgrids."""
        if m < 1:
            raise ValueError(f"m must be a positive power of 4, got {m}")
        root = math.isqrt(m)
        if root * root != m or root & (root - 1):
            raise ValueError(f"m must be a power of 4, got {m}")
        if edge % root:
            raise ValueError(f"grid edge {edge} not divisible into {root}x{root} subgrids")
        side = edge // root
        yy, xx = np.mgrid[0:edge, 0:edge]
        owner = (yy // side) * root + (xx // side)
        return cls(owner, m)

    @classmethod
    def single(cls, width: int, height: int) -> "PlayerPartition":
        """One player owning the whole grid (the single-optimizer case)."""
        return cls(np.zeros((height, width), dtype=np.int64), 1)

    @classmethod
    def per_cell(cls, width: int, height: int) -> "PlayerPartition":
        """One player per cell (m = N); also serves 1-D lines (height 1)."""
        owner = np.arange(width * height, dtype=np.int64).reshape(height, width)
        return cls(owner, width * height)

    def n_player_cells(self, i: int) -> int:
        return int(self._starts[i + 1] - self._starts[i])

    def player_cells(self, i: int):
        """Row/column index arrays of player i's cells, row-major order."""
        flat = self._order[self._starts[i]:self._starts[i + 1]]
        return np.unravel_index(flat, self.owner.shape)

    def check_dims(self, width: int, height: int) -> None:
        if (self.width, self.height) != (width, height):
            raise ValueError(
                f"partition is {self.width}x{self.height}, grid is {width}x{height}")


class ComponentLabeling:
    """Connected components of planted cells.

    labels[y, x] > 0 for planted cells (component id), 0 for empty cells.
    masses[k], sizes[k] and boxes[k] are the total strike probability, the
    cell count and the bounding box (a pair of slices) of component k + 1;
    sizes and boxes are found on first use.
    """

    __slots__ = ("labels", "masses", "n_components", "_sizes", "_boxes")

    def __init__(self, labels: np.ndarray, masses: np.ndarray) -> None:
        self.labels = labels
        self.masses = masses
        self.n_components = len(masses)
        self._sizes = self._boxes = None

    @property
    def sizes(self) -> np.ndarray:
        if self._sizes is None:
            self._sizes = np.bincount(self.labels.ravel(),
                                      minlength=self.n_components + 1)[1:]
        return self._sizes

    @property
    def boxes(self) -> list:
        if self._boxes is None:
            self._boxes = ndimage.find_objects(self.labels, self.n_components)
        return self._boxes


def label_cells(cells: np.ndarray, p: np.ndarray, connectivity: int) -> ComponentLabeling:
    """Label a raw 0/1 cell array under the strike probabilities p of the
    same shape; label_components checks the shapes first."""
    labels, n = ndimage.label(cells, structure=neighbor_structure(connectivity))
    masses = np.bincount(labels.ravel(), weights=p.ravel(), minlength=n + 1)[1:]
    return ComponentLabeling(labels, masses)


def label_components(config: GridConfig, field, connectivity: int = 4) -> ComponentLabeling:
    """Label 4- (or 8-) connected components of planted cells with their
    strike-probability mass under the given lightning field."""
    if (field.width, field.height) != (config.width, config.height):
        raise ValueError(
            f"field is {field.width}x{field.height}, grid is {config.width}x{config.height}")
    return label_cells(config.cells, field.p, connectivity)


def survival_prob(labeling: ComponentLabeling, g: int) -> float:
    """Probability that the tree at flat cell index g survives a strike:
    lightning must miss its entire component."""
    lab = labeling.labels.ravel()[g]
    if lab == 0:
        raise ValueError(f"cell {g} is not planted")
    return float(1.0 - labeling.masses[lab - 1])


def check_cost(cost: float) -> None:
    if not math.isfinite(cost) or cost < 0:
        raise ValueError(f"cost must be finite and nonnegative, got {cost}")


def cells_utility(labeling: ComponentLabeling, rows, cols, cost: float) -> float:
    """Exact utility of the owner of cells (rows, cols) under a labeling:
    sum over the planted ones of (survival probability - cost)."""
    labs = labeling.labels[rows, cols]
    planted = labs > 0
    n_planted = int(planted.sum())
    if n_planted == 0:
        return 0.0
    return float(np.sum(1.0 - labeling.masses[labs[planted] - 1]) - cost * n_planted)


def player_utility(config: GridConfig, field, part: PlayerPartition, i: int,
                   cost: float, labeling: ComponentLabeling | None = None,
                   connectivity: int = 4) -> float:
    """Exact expected utility of player i: sum over planted cells of
    (survival probability - cost)."""
    check_cost(cost)
    part.check_dims(config.width, config.height)
    if labeling is None:
        labeling = label_components(config, field, connectivity)
    return cells_utility(labeling, *part.player_cells(i), cost)


def welfare(config: GridConfig, field, cost: float,
            labeling: ComponentLabeling | None = None, connectivity: int = 4) -> float:
    """Global utility: expected surviving trees minus total planting cost.

    Equal to the sum of player utilities for every partition of the grid.
    """
    if labeling is None:
        labeling = label_components(config, field, connectivity)
    planted = int(labeling.sizes.sum())
    expected_burned = float(np.dot(labeling.sizes, labeling.masses))
    return planted - expected_burned - cost * planted
