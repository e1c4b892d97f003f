"""Closed-form results for the one-dimensional line under uniform lightning,
plus brute-force oracles.

On a line, planted runs of length k alternate with gaps of length l.  For a
single optimizer the best layout uses l = 1 and run length near
k* = sqrt(N(1-c) + 1) - 1; with one player per cell the equilibrium run
lengths are bracketed between roughly N(1-c)/2 and N(1-c), which yields an
unbounded price of anarchy and an asymptotic price of stability of 2.  These
small exact results validate the full 2-D stack (the line is just a
height-1 grid).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridConfig


def _check_domain(n: int, c: float) -> None:
    if n < 2:
        raise ValueError("line length must be at least 2")
    if not 0.0 <= c < 1.0 - 1.0 / n:
        raise ValueError(f"cost must satisfy 0 <= c < 1 - 1/N, got c={c}, N={n}")


def pattern_density(k: float) -> float:
    """Density of the periodic (k planted, 1 empty) pattern."""
    return k / (k + 1.0)


def pattern_welfare(n: int, k: float, c: float) -> float:
    """Welfare of the periodic (k, l=1) pattern under uniform lightning:
    N * rho(k) * (1 - k/N - c)."""
    return n * pattern_density(k) * (1.0 - k / n - c)


def optimal_k(n: int, c: float) -> float:
    """Welfare-maximizing run length for a single player (continuous k)."""
    _check_domain(n, c)
    return math.sqrt(n * (1.0 - c) + 1.0) - 1.0


def optimal_density(n: int, c: float) -> float:
    _check_domain(n, c)
    root = math.sqrt(n * (1.0 - c) + 1.0)
    return (root - 1.0) / root


def optimal_welfare(n: int, c: float) -> float:
    _check_domain(n, c)
    a = n * (1.0 - c)
    return optimal_density(n, c) * (a - math.sqrt(a + 1.0) + 1.0)


@dataclass
class BruteForceResult:
    k: int
    welfare: float
    plant: bool  # False when no run length yields positive welfare


def brute_force_optimal_pattern(n: int, c: float) -> BruteForceResult:
    """Exhaustive scan of the periodic-pattern welfare over integer run
    lengths k in [1, N]; the independent oracle for optimal_k."""
    if n > 10 ** 4:
        raise ValueError("brute force limited to N <= 1e4")
    ks = np.arange(1, n + 1, dtype=np.float64)
    w = n * (ks / (ks + 1.0)) * (1.0 - ks / n - c)
    best = int(np.argmax(w))
    return BruteForceResult(k=best + 1, welfare=float(w[best]), plant=bool(w[best] > 0))


ALLOWED_GAPS = (1, 2)


def equilibrium_k_lower(n: int, c: float, l: int) -> float:
    """Smallest run length sustainable in a one-player-per-cell equilibrium
    with gap length l: for l = 1 a planted gap cell would join two runs, for
    l = 2 only one."""
    _check_domain(n, c)
    a = n * (1.0 - c)
    if l == 1:
        return (a - 1.0) / 2.0
    if l == 2:
        return a - 1.0
    raise ValueError(f"equilibrium gap length must be 1 or 2, got {l}")


def equilibrium_k_bounds(n: int, c: float) -> tuple[float, float]:
    """(lowest, highest) equilibrium run length over all gap lengths; gaps
    themselves must be 1 or 2 (see ALLOWED_GAPS).
    For the lower bound at a given gap length use equilibrium_k_lower."""
    return equilibrium_k_lower(n, c, 1), n * (1.0 - c)


def efficiency_ratios(n: int, c: float) -> tuple[float, float]:
    """(price of anarchy, price of stability).

    The worst equilibrium has runs of length N(1-c) and zero welfare, so the
    price of anarchy is unbounded (math.inf); the best has l = 1 and the
    shortest sustainable runs.
    """
    _check_domain(n, c)
    k_lo, k_hi = equilibrium_k_bounds(n, c)
    w_star = optimal_welfare(n, c)
    w_worst = pattern_welfare(n, k_hi, c)
    poa = math.inf if w_worst <= 0 else w_star / w_worst
    pos = w_star / pattern_welfare(n, k_lo, c)
    return poa, pos


@dataclass
class DensityComparison:
    equilibrium_density: float
    optimal_density: float
    equilibrium_higher: bool


def density_comparison(n: int, c: float) -> DensityComparison:
    """Whether the best-equilibrium density exceeds the optimal density;
    holds exactly when N(1-c) > 3."""
    _check_domain(n, c)
    rho_eq = pattern_density(equilibrium_k_lower(n, c, 1))
    rho_opt = optimal_density(n, c)
    return DensityComparison(rho_eq, rho_opt, rho_eq > rho_opt)


def line_config(n: int, k: int, l: int) -> GridConfig:
    """1 x n grid with the periodic pattern of k planted cells then l empty,
    truncated at the line end."""
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    period = np.array([1] * k + [0] * l, dtype=np.uint8)
    cells = np.tile(period, n // (k + l) + 1)[:n]
    return GridConfig(cells.reshape(1, n))


def tiled_line_config(n: int, k: int, l: int) -> GridConfig | None:
    """Like line_config but only when the line decomposes exactly into full
    runs with interior gaps (N = (q+1)k + q*l for some q >= 1): the finite
    line then has no truncated run or edge gap.  Returns None otherwise."""
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    if (n - k) % (k + l) or n == k:
        return None
    return line_config(n, k, l)


def emit_table(ns, cs) -> str:
    """CSV table of the closed forms and the brute-force oracle per (N, c)."""
    buf = io.StringIO()
    buf.write("N,c,k_star,k_brute,rho_star,W_star,k_lo,k_hi,price_of_stability\n")
    for n in ns:
        for c in cs:
            k_star = optimal_k(n, c)
            brute = brute_force_optimal_pattern(n, c)
            k_lo, k_hi = equilibrium_k_bounds(n, c)
            _, pos = efficiency_ratios(n, c)
            buf.write(f"{n},{c!r},{k_star!r},{brute.k},{optimal_density(n, c)!r},"
                      f"{optimal_welfare(n, c)!r},{k_lo!r},{k_hi!r},{pos!r}\n")
    return buf.getvalue()
