"""Measurements over a fixed planting configuration: cascade-size
distribution, fire-break/lightning correlation, empty-cell centroid,
fragility under relocated lightning, and the planting-fine experiment.

Everything except the fine experiment is an exact computation from component
masses; no strikes are ever sampled.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DynamicsParams, RunResult, best_response_dynamics
from .grid import (
    ComponentLabeling,
    GridConfig,
    PlayerPartition,
    _masses,
    label_components,
    welfare,
)
from .lightning import LightningField, recenter_random


@dataclass
class CascadeDistribution:
    """Exact distribution of the burnout cascade size X over one lightning
    strike.  support holds the distinct positive sizes in ascending order
    with their probability masses (pmf) and tail probabilities
    ccdf[i] = Pr{X >= support[i]}; zero_mass is the probability of striking
    an empty cell (a size-0 cascade)."""

    support: np.ndarray
    pmf: np.ndarray
    ccdf: np.ndarray
    zero_mass: float

    def to_csv(self) -> str:
        """CSV rows (x, ccdf) over the positive support, for log-log plots."""
        buf = io.StringIO()
        buf.write("x,ccdf\n")
        for x, c in zip(self.support, self.ccdf):
            buf.write(f"{int(x)},{float(c)!r}\n")
        return buf.getvalue()


def cascade_distribution(config: GridConfig, field: LightningField,
                         connectivity: int = 4) -> CascadeDistribution:
    """A strike on a planted cell burns its whole component (cascade size =
    component size, probability = component mass); a strike on an empty cell
    is a size-0 cascade."""
    labeling = label_components(config, field, connectivity)
    zero_mass = float(field.p[config.cells == 0].sum())
    if labeling.n_components == 0:
        return CascadeDistribution(np.array([], dtype=np.int64), np.array([]),
                                   np.array([]), zero_mass)
    # bincount sums each size's masses in label order.
    support, inverse = np.unique(labeling.sizes, return_inverse=True)
    pmf = np.bincount(inverse, weights=labeling.masses)
    ccdf = np.cumsum(pmf[::-1])[::-1]
    return CascadeDistribution(support, pmf, ccdf, zero_mass)


def cascade_percentile(dist: CascadeDistribution, q: float) -> int:
    """Smallest cascade size x with Pr{X <= x} >= q, where a strike on an
    empty cell is a size-0 cascade."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    xs = [0] + list(dist.support)
    ps = [dist.zero_mass] + list(dist.pmf)
    total = sum(ps)
    if total <= 0:
        raise ValueError("empty cascade distribution")
    cdf = 0.0
    for x, p in zip(xs, ps):
        cdf += p / total
        if cdf >= q - 1e-12:
            return int(x)
    return int(xs[-1])


def fire_break_correlation(config: GridConfig, field: LightningField) -> float | None:
    """Probability that lightning strikes an empty cell, divided by the empty
    fraction of the grid.  1 means fire breaks are placed independently of
    the lightning distribution; returns None for a fully planted grid (the
    ratio is undefined)."""
    if (field.width, field.height) != (config.width, config.height):
        raise ValueError("field dimensions do not match grid")
    empty_fraction = 1.0 - config.density
    if empty_fraction == 0.0:
        return None
    numerator = float(field.p[config.cells == 0].sum())
    return numerator / empty_fraction


def empty_centroid(config: GridConfig) -> tuple[float, float] | None:
    """Arithmetic mean (x, y) of the empty cells' coordinates, or None when
    every cell is planted."""
    ys, xs = np.nonzero(config.cells == 0)
    if xs.size == 0:
        return None
    return (float(xs.mean()), float(ys.mean()))


@dataclass
class FragilityResult:
    mean_shifted_welfare: float
    baseline_welfare: float
    shifted_welfares: np.ndarray


def fragility_eval(config: GridConfig, field: LightningField, cost: float,
                   trials: int, rng: np.random.Generator,
                   connectivity: int = 4) -> FragilityResult:
    """Welfare of a fixed configuration after the lightning epicenter is
    relocated uniformly at random, averaged over trials, against the welfare
    under the original field.  rng draws the new epicenters.  The grid is
    labeled once: a relocated field changes only the components' masses,
    summed as label_cells sums them."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    labeling = label_components(config, field, connectivity)
    baseline = welfare(config, field, cost, labeling)
    shifted = np.empty(trials)
    for t in range(trials):
        moved = recenter_random(field, rng)
        masses = _masses(labeling.labels, labeling.n_components, moved.p)
        shifted[t] = welfare(config, moved, cost, ComponentLabeling(labeling.labels, masses))
    return FragilityResult(float(shifted.mean()), baseline, shifted)


def fines_experiment(field: LightningField, part: PlayerPartition, true_cost: float,
                     penalty: float, params: DynamicsParams) -> tuple[float, RunResult]:
    """Run the dynamics with every player perceiving cost true_cost + penalty,
    then score the resulting configuration at the true cost.  Returns the true
    welfare and the underlying run."""
    if not math.isfinite(penalty) or penalty < 0:
        raise ValueError(f"penalty must be finite and nonnegative, got {penalty}")
    result = best_response_dynamics(field, part, true_cost + penalty, params)
    true_welfare = welfare(result.config, field, true_cost,
                           connectivity=params.connectivity)
    return true_welfare, result
