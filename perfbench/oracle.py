"""Independent recomputation of what the benchmark checks.

Pure Python: no notforest, no scipy, no numpy.  Grids are flat lists of 0/1
in row-major order (cell g = y * width + x); fields are flat lists of strike
probabilities.  Everything is recomputed from scratch with a flood fill, so a
shared bug in notforest's fast paths cannot hide here.
"""

from __future__ import annotations

import math

OFFSETS = {
    4: ((0, 1), (0, -1), (1, 0), (-1, 0)),
    8: ((0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (1, -1), (-1, 1), (-1, -1)),
}


def gaussian_field(width: int, height: int, v: float, center=(0, 0)) -> list:
    """Truncated Gaussian strike field with per-axis variance N / v, centered
    at cell (cx, cy), normalized over the grid."""
    cx, cy = center
    two_s2 = 2.0 * width * height / v
    w = [math.exp(-((x - cx) ** 2 + (y - cy) ** 2) / two_s2)
         for y in range(height) for x in range(width)]
    total = math.fsum(w)
    return [val / total for val in w]


def square_owner(edge: int, m: int) -> list:
    """Owner of each cell when an edge x edge grid is tiled into m squares,
    numbered row-major by square."""
    root = math.isqrt(m)
    side = edge // root
    return [(y // side) * root + x // side for y in range(edge) for x in range(edge)]


def owned_cells(owner: list) -> dict:
    out: dict = {}
    for g, i in enumerate(owner):
        out.setdefault(i, []).append(g)
    return out


def label(cells: list, width: int, connectivity: int = 4):
    """Flood-fill labeling: labels[g] = k + 1 for the k-th component found in
    row-major order, 0 for empty cells; comps[k] lists the component's cells."""
    height = len(cells) // width
    offsets = OFFSETS[connectivity]
    labels = [0] * len(cells)
    comps = []
    for start, planted in enumerate(cells):
        if not planted or labels[start]:
            continue
        k = len(comps) + 1
        labels[start] = k
        stack, comp = [start], []
        while stack:
            g = stack.pop()
            comp.append(g)
            y, x = divmod(g, width)
            for dy, dx in offsets:
                ny, nx = y + dy, x + dx
                if 0 <= ny < height and 0 <= nx < width:
                    h = ny * width + nx
                    if cells[h] and not labels[h]:
                        labels[h] = k
                        stack.append(h)
        comps.append(comp)
    return labels, comps


def masses(cells: list, p: list, width: int, connectivity: int = 4):
    """Labels and the strike-probability mass of each component."""
    labels, comps = label(cells, width, connectivity)
    return labels, [math.fsum(p[g] for g in comp) for comp in comps], comps


def _own_utility(cells: list, labels: list, mass: list, owned: list, cost: float) -> float:
    return math.fsum(1.0 - mass[labels[g] - 1] - cost for g in owned if cells[g])


def utilities(cells: list, p: list, width: int, owner: list, cost: float,
              connectivity: int = 4) -> dict:
    """Each player's expected surviving trees minus planting cost."""
    labels, mass, _ = masses(cells, p, width, connectivity)
    return {i: _own_utility(cells, labels, mass, owned, cost)
            for i, owned in owned_cells(owner).items()}


def welfare(cells: list, p: list, width: int, cost: float, connectivity: int = 4) -> float:
    """Expected surviving trees minus total planting cost."""
    _, mass, comps = masses(cells, p, width, connectivity)
    return math.fsum(len(comp) * (1.0 - mu) for comp, mu in zip(comps, mass)) \
        - cost * sum(cells)


def flip_gains(cells: list, p: list, width: int, owner: list, flips, cost: float,
               connectivity: int = 4) -> list:
    """Utility change of each flipped cell's owner when that cell alone is
    flipped, one relabeling of the whole grid per flip."""
    by_player = owned_cells(owner)
    labels, mass, _ = masses(cells, p, width, connectivity)
    base: dict = {}
    gains = []
    for g in flips:
        owned = by_player[owner[g]]
        if owner[g] not in base:
            base[owner[g]] = _own_utility(cells, labels, mass, owned, cost)
        flipped = list(cells)
        flipped[g] ^= 1
        f_labels, f_mass, _ = masses(flipped, p, width, connectivity)
        gains.append(_own_utility(flipped, f_labels, f_mass, owned, cost) - base[owner[g]])
    return gains


def fire_break_correlation(cells: list, p: list):
    """Strike probability of the empty cells over their share of the grid;
    None when every cell is planted."""
    empty = [g for g, c in enumerate(cells) if not c]
    if not empty:
        return None
    return math.fsum(p[g] for g in empty) / (len(empty) / len(cells))


def empty_centroid(cells: list, width: int):
    empty = [divmod(g, width) for g, c in enumerate(cells) if not c]
    if not empty:
        return None
    return (sum(x for _, x in empty) / len(empty), sum(y for y, _ in empty) / len(empty))


def cascade_percentile(cells: list, p: list, width: int, q: float,
                       connectivity: int = 4) -> int:
    """Smallest cascade size x with Pr{X <= x} >= q, where a strike on an
    empty cell is a size-0 cascade and one on a tree burns its component."""
    _, mass, comps = masses(cells, p, width, connectivity)
    by_size = {0: math.fsum(p[g] for g, c in enumerate(cells) if not c)}
    for comp, mu in zip(comps, mass):
        by_size[len(comp)] = by_size.get(len(comp), 0.0) + mu
    cdf = 0.0
    for size in sorted(by_size):
        cdf += by_size[size]
        if cdf >= q - 1e-12:
            return size
    return max(by_size)
