"""Acceptance gate: twelve end-to-end criteria, one test (and one pass/fail
line) each.

Criteria 1-5 and 11-12 are exact or tightly-bounded oracle checks.  Criteria
6-10 are qualitative trend checks over equilibrium runs at desk scale
(32x32 / 64x64 grids) evaluated over fixed seed sets with majority voting;
they use only default dynamics parameters.
"""

import json
import math
import os

import numpy as np
import pytest

from notforest import (
    DynamicsParams,
    GridConfig,
    PlayerPartition,
    best_response_dynamics,
    build_gaussian_field,
    build_uniform_field,
    cascade_distribution,
    cascade_percentile,
    empty_centroid,
    fines_experiment,
    fire_break_correlation,
    fragility_eval,
    is_nash,
    label_components,
    welfare,
)
from notforest import oned
from notforest.runner import ExperimentConfig, run_cell

from conftest import flood_fill_labels, label_partition_equal

SEEDS = (0, 1, 2, 3, 4)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


def equilibrium_metrics(edge: int, v: float, m: int, seed: int):
    """One default-parameter equilibrium run plus the metric bundle used by
    the trend criteria; nash_gap is the largest single-flip gain any player
    has left (<= 0 for a single-flip Nash profile)."""
    field = build_gaussian_field(edge, edge, v)
    part = PlayerPartition.square_tiling(edge, m)
    result = best_response_dynamics(field, part, 0.0, DynamicsParams(seed=seed))
    config = result.config
    c_stat = fire_break_correlation(config, field)
    centroid = empty_centroid(config)
    p90 = cascade_percentile(cascade_distribution(config, field), 0.9)
    frag = fragility_eval(config, field, 0.0, trials=30,
                          rng=np.random.default_rng(10_000 + seed))
    return {
        "welfare": result.welfare,
        "C": c_stat,
        "centroid": centroid,
        "p90": p90,
        "frag_ratio": frag.mean_shifted_welfare / frag.baseline_welfare,
        "nash_gap": is_nash(config, field, part, 0.0).max_gain,
    }


@pytest.fixture(scope="module")
def runs_32(request):
    """Cached 32x32, v=100, c=0 equilibrium runs shared by criteria 6, 7, 9."""
    cache = {}
    for m in (1, 64):
        for seed in SEEDS:
            cache[(m, seed)] = equilibrium_metrics(32, 100.0, m, seed)
    return cache


def test_criterion_01_one_d_closed_form():
    worst = 0.0
    for n in (50, 99, 200, 399):
        for c in (0.0, 0.25, 0.5):
            k_star = oned.optimal_k(n, c)
            k_brute = oned.brute_force_optimal_pattern(n, c).k
            worst = max(worst, abs(k_brute - k_star))
    report(1, worst <= 1.0,
           f"brute-force k within ±1 of closed form over 12 (N, c) pairs "
           f"(max gap {worst:.3f})")


def test_criterion_02_one_d_nash_certification():
    # Each gap length has its own lower bound: a planted cell in a 1-cell
    # gap joins two runs, in a 2-cell gap only one.  Tiled profiles between
    # the union bound (a-1)/2 and the gap-aware bound must not be Nash.
    failures = []
    n_pass = n_short_checked = n_fail_checked = 0
    for n in range(5, 31):
        field = build_uniform_field(n, 1)
        part = PlayerPartition.per_cell(n, 1)
        for c in (0.0, 0.5):
            if c >= 1 - 1 / n:
                continue
            k_lo, k_hi = oned.equilibrium_k_bounds(n, c)
            for l in oned.ALLOWED_GAPS:
                k_gap = oned.equilibrium_k_lower(n, c, l)
                for k in range(1, n):
                    cfg = oned.tiled_line_config(n, k, l)
                    if cfg is None:
                        continue
                    if k_gap <= k <= k_hi:
                        n_pass += 1
                        if not is_nash(cfg, field, part, c).is_nash:
                            failures.append(("in-bounds not Nash", n, c, k, l))
                    elif k_lo <= k < k_gap:
                        n_short_checked += 1
                        if is_nash(cfg, field, part, c).is_nash:
                            failures.append(("short run certified", n, c, k, l))
            # Profiles with k above N(1-c)+1 must fail certification.
            for k in range(math.floor(n * (1 - c) + 1) + 1, n):
                cfg = oned.line_config(n, k, 1)
                if cfg.density == 1.0:
                    continue
                n_fail_checked += 1
                if is_nash(cfg, field, part, c).is_nash:
                    failures.append(("oversized run certified", n, c, k, 1))
    report(2, not failures,
           f"{n_pass} in-bounds profiles Nash, {n_short_checked} profiles below "
           f"the gap-aware bound rejected, {n_fail_checked} oversized profiles "
           f"rejected; violations: {failures[:5]}")


def test_criterion_03_price_of_stability():
    _, pos = oned.efficiency_ratios(10 ** 5, 0.0)
    report(3, 1.9 <= pos <= 2.1, f"PoS(N=1e5, c=0) = {pos:.4f}")


def test_criterion_04_m_equals_n_equilibrium():
    field = build_gaussian_field(8, 8, 10.0)
    part = PlayerPartition.per_cell(8, 8)
    result = best_response_dynamics(field, part, 0.0, DynamicsParams(seed=0))
    planted = result.config.planted_count
    check = is_nash(result.config, field, part, 0.0)
    w_full = welfare(GridConfig.full(8, 8), field, 0.0)
    ok = planted >= 63 and check.is_nash and abs(w_full) < 1e-12
    report(4, ok,
           f"{planted}/64 planted, Nash={check.is_nash} "
           f"(max gain {check.max_gain:.2e}), full-grid welfare {w_full:.2e}")


def test_criterion_05_c_statistic_exactness():
    rng = np.random.default_rng(0)
    field_u = build_uniform_field(8, 8)
    worst = 0.0
    for _ in range(100):
        cells = (rng.random((8, 8)) < rng.random()).astype(np.uint8)
        if cells.all():
            cells[0, 0] = 0
        c = fire_break_correlation(GridConfig(cells), field_u)
        worst = max(worst, abs(c - 1.0))
    field_g = build_gaussian_field(8, 8, 10.0)
    q = 0.3
    num_sum = rho_sum = 0.0
    n_samples = 10_000
    for _ in range(n_samples):
        empty = rng.random((8, 8)) < q
        num_sum += field_g.p[empty].sum()
        rho_sum += empty.mean()
    gap = abs(num_sum / n_samples - rho_sum / n_samples)
    ok = worst < 1e-12 and gap < 0.01
    report(5, ok,
           f"uniform-field C within {worst:.2e} of 1 over 100 configs; "
           f"MC numerator vs 1-rho gap {gap:.4f}")


def test_criterion_06_hot_structure(runs_32):
    details, ok_count = [], 0
    for seed in SEEDS[:3]:
        met = runs_32[(1, seed)]
        cx, cy = met["centroid"]
        ok = met["C"] > 1 and cx < 16 and cy < 16
        ok_count += ok
        details.append(f"seed {seed}: C={met['C']:.2f} centroid=({cx:.1f},{cy:.1f})")
    report(6, ok_count == 3, "; ".join(details))


def test_criterion_07_homogenization_trend(runs_32):
    center = (32 - 1) / 2
    wins, details = 0, []
    for seed in SEEDS:
        one, many = runs_32[(1, seed)], runs_32[(64, seed)]
        d1 = math.dist(one["centroid"], (center, center))
        d64 = math.dist(many["centroid"], (center, center))
        win = abs(many["C"] - 1) < abs(one["C"] - 1) and d64 < d1
        wins += win
        details.append(f"seed {seed}: C {one['C']:.2f}->{many['C']:.2f}, "
                       f"dcenter {d1:.1f}->{d64:.1f}, "
                       f"Nash gap {one['nash_gap']:.2g}->{many['nash_gap']:.2g}")
    report(7, wins >= 3, f"{wins}/5 seeds homogenize; " + "; ".join(details))


def test_criterion_08_tail_heaviness():
    wins, details = 0, []
    for seed in SEEDS:
        p90_1 = equilibrium_metrics(64, 10.0, 1, seed)["p90"]
        p90_256 = equilibrium_metrics(64, 10.0, 256, seed)["p90"]
        wins += p90_256 > p90_1
        details.append(f"seed {seed}: p90 {p90_1}->{p90_256}")
    report(8, wins >= 3, f"{wins}/5 seeds heavier tail at m=256; " + "; ".join(details))


def test_criterion_09_reduced_fragility(runs_32):
    wins, details = 0, []
    for seed in SEEDS:
        r1 = runs_32[(1, seed)]["frag_ratio"]
        r64 = runs_32[(64, seed)]["frag_ratio"]
        wins += r64 > r1
        gap1 = runs_32[(1, seed)]["nash_gap"]
        gap64 = runs_32[(64, seed)]["nash_gap"]
        details.append(f"seed {seed}: ratio {r1:.3f}->{r64:.3f}, "
                       f"Nash gap {gap1:.2g}->{gap64:.2g}")
    report(9, wins >= 3, f"{wins}/5 seeds less fragile at m=64; " + "; ".join(details))


def test_criterion_10_fines_direction():
    field = build_gaussian_field(16, 16, 10.0)
    part = PlayerPartition.per_cell(16, 16)
    wins, details = 0, []
    for seed in SEEDS:
        w_p, _ = fines_experiment(field, part, 0.0, 0.05, DynamicsParams(seed=seed))
        w_0, _ = fines_experiment(field, part, 0.0, 0.0, DynamicsParams(seed=seed))
        wins += w_p > w_0
        details.append(f"seed {seed}: W(0)={w_0:.2f} W(0.05)={w_p:.2f}")
    report(10, wins >= 3, f"{wins}/5 seeds improved by the fine; " + "; ".join(details))


def test_criterion_11_determinism(tmp_path):
    def one_sweep(out_dir):
        cfg = ExperimentConfig(edge=8, m_values=[4], c_values=[0.0],
                               v_values=[10.0], seeds=[0], fragility_trials=5,
                               out_dir=str(out_dir),
                               iteration_overrides={4: (3, 20)}, m_defaulted=False)
        cfg.validate()
        run_cell(cfg, 4, 0.0, 10.0, 0)
        return os.path.join(str(out_dir), "runs", "4_0_10_0")

    dir_a = one_sweep(tmp_path / "a")
    dir_b = one_sweep(tmp_path / "b")
    identical = True
    for name in ("metrics.json", "grid.txt", "ccdf.csv", "trace.csv"):
        with open(os.path.join(dir_a, name), "rb") as fh:
            a = fh.read()
        with open(os.path.join(dir_b, name), "rb") as fh:
            b = fh.read()
        identical = identical and a == b
    report(11, identical, "repeated run artifacts byte-identical")


def test_criterion_12_flood_fill_equivalence():
    field = build_uniform_field(4, 4)
    mismatches = 0
    bits = np.zeros(16, dtype=np.uint8)
    for code in range(1 << 16):
        for b in range(16):
            bits[b] = (code >> b) & 1
        cells = bits.reshape(4, 4)
        lab = label_components(GridConfig(cells), field)
        oracle = flood_fill_labels(cells)
        if not label_partition_equal(lab.labels, oracle):
            mismatches += 1
    report(12, mismatches == 0,
           f"{mismatches} mismatches over all 65536 4x4 configurations")
