"""Lightning strike distributions.

The strike field is a truncated Gaussian centered on one cell; "truncated"
means the density is evaluated at integer cell coordinates and renormalized
over the grid, so no mass falls outside it.  The per-axis variance is N / v
where N is the cell count and v the concentration parameter: v = 1 puts one
standard deviation at roughly the grid edge, large v concentrates strikes
near the center cell.
"""

from __future__ import annotations

import numpy as np


class LightningField:
    """Normalized per-cell strike probability field.

    p has shape (height, width) and sums to 1.  center/v are None for the
    uniform field.
    """

    __slots__ = ("width", "height", "p", "center", "v")

    def __init__(self, p: np.ndarray, center=None, v: float | None = None) -> None:
        # A copy, as GridConfig makes of its cells: the caller's array stays
        # writeable, and later writes to it or its base do not reach p.
        p = np.array(p, dtype=np.float64, order="C")
        if p.ndim != 2:
            raise ValueError("p must be a 2-D array")
        if not np.isfinite(p).all():
            raise ValueError("strike probabilities must be finite")
        if (p < 0).any():
            raise ValueError("strike probabilities must be nonnegative")
        total = p.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"strike probabilities must sum to 1 (got {total!r})")
        p.setflags(write=False)
        self.p = p
        self.height, self.width = p.shape
        self.center = center
        self.v = v

    @property
    def n_cells(self) -> int:
        return self.width * self.height


def build_gaussian_field(width: int, height: int, v: float,
                         center: tuple[int, int] = (0, 0)) -> LightningField:
    """Truncated Gaussian strike field with per-axis variance N / v, centered
    at cell (cx, cy), two integers, not floats or bools; default top-left."""
    if not np.isfinite(v):
        raise ValueError(f"concentration v must be finite, got {v}")
    if v <= 0:
        raise ValueError(f"concentration v must be positive, got {v}")
    cx, cy = center
    if not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool) for c in center):
        raise ValueError(f"center must be two integer cell coordinates, got {center}")
    if not (0 <= cx < width and 0 <= cy < height):
        raise ValueError(f"center {center} outside {width}x{height} grid")
    n = width * height
    sigma2 = n / v
    xx = np.arange(width, dtype=np.float64) - cx
    yy = np.arange(height, dtype=np.float64) - cy
    d2 = yy[:, None] ** 2 + xx[None, :] ** 2
    p = np.exp(-d2 / (2.0 * sigma2))
    p /= p.sum()
    return LightningField(p, center=(int(cx), int(cy)), v=float(v))


def build_uniform_field(width: int, height: int) -> LightningField:
    """Exactly uniform strike field, p_g = 1/N."""
    n = width * height
    return LightningField(np.full((height, width), 1.0 / n))


def recenter_random(field: LightningField, rng: np.random.Generator) -> LightningField:
    """Rebuild a Gaussian field with its center drawn uniformly from all
    cells (the fragility perturbation).  Recentering a uniform field is a
    no-op."""
    if field.v is None:
        return field
    g = int(rng.integers(0, field.n_cells))
    cy, cx = divmod(g, field.width)
    return build_gaussian_field(field.width, field.height, field.v, center=(cx, cy))

