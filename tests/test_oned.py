"""One-dimensional closed forms and their exhaustive oracles."""

import math

import numpy as np
import pytest

from notforest import GridConfig, PlayerPartition, build_uniform_field, is_nash
from notforest import oned


class TestOptimalK:
    def test_exact_values(self):
        assert oned.optimal_k(99, 0.0) == pytest.approx(9.0)
        assert oned.optimal_k(399, 0.0) == pytest.approx(19.0)

    def test_near_domain_boundary(self):
        n = 100
        c = 1 - 1 / n - 1e-6
        k = oned.optimal_k(n, c)
        assert 0 < k < 1

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            oned.optimal_k(100, 0.99)
        with pytest.raises(ValueError):
            oned.optimal_k(100, -0.1)
        with pytest.raises(ValueError):
            oned.optimal_k(1, 0.0)
        # The domain is checked before any square root is taken.
        with pytest.raises(ValueError, match="cost must satisfy"):
            oned.optimal_density(10, 5.0)

    def test_density_and_welfare_forms(self):
        n, c = 99, 0.0
        k = oned.optimal_k(n, c)
        assert oned.optimal_density(n, c) == pytest.approx(k / (k + 1))
        assert oned.optimal_welfare(n, c) == pytest.approx(
            oned.pattern_welfare(n, k, c))

    def test_asymptotics(self):
        # Optimal density tends to 1 and optimal welfare to N(1-c).
        prev_rho, prev_frac = 0.0, 0.0
        for n in (10 ** 2, 10 ** 4, 10 ** 6):
            rho = oned.optimal_density(n, 0.25)
            frac = oned.optimal_welfare(n, 0.25) / (n * 0.75)
            assert rho > prev_rho and frac > prev_frac
            prev_rho, prev_frac = rho, frac
        assert prev_rho > 0.99 and prev_frac > 0.99


class TestBruteForce:
    def test_matches_closed_form(self):
        assert oned.brute_force_optimal_pattern(99, 0.0).k == 9

    def test_unprofitable_line(self):
        res = oned.brute_force_optimal_pattern(8, 0.9)
        assert not res.plant
        assert res.welfare <= 0

    def test_within_one_of_continuous_optimum(self):
        for n in (50, 99, 200, 399, 1000):
            for c in (0.0, 0.25, 0.5, 0.75):
                k_star = oned.optimal_k(n, c)
                k_brute = oned.brute_force_optimal_pattern(n, c).k
                assert k_brute in (math.floor(k_star), math.ceil(k_star))

    def test_size_limit(self):
        with pytest.raises(ValueError):
            oned.brute_force_optimal_pattern(10 ** 5, 0.0)

    def test_welfare_concave_in_k(self):
        for n, c in ((100, 0.0), (250, 0.5), (999, 0.25)):
            w = np.array([oned.pattern_welfare(n, k, c) for k in range(1, n + 1)])
            second_diff = w[2:] - 2 * w[1:-1] + w[:-2]
            assert (second_diff <= 1e-9).all()


class TestEquilibriumBounds:
    def test_plug_in_values(self):
        assert oned.equilibrium_k_bounds(100, 0.0) == pytest.approx((49.5, 100.0))
        assert oned.equilibrium_k_bounds(100, 0.5) == pytest.approx((24.5, 50.0))

    def test_l_specific_lower_bounds(self):
        # A gap cell between two runs (l=1) would join both by planting; next
        # to one run (l=2) it joins only that run, so longer runs are needed.
        assert oned.equilibrium_k_lower(100, 0.0, 1) == pytest.approx(49.5)
        assert oned.equilibrium_k_lower(100, 0.0, 2) == pytest.approx(99.0)
        with pytest.raises(ValueError):
            oned.equilibrium_k_lower(100, 0.0, 3)

    def test_allowed_gaps(self):
        assert oned.ALLOWED_GAPS == (1, 2)

    def test_l_aware_profiles_are_nash(self):
        # Every exactly-tiled uniform (k, l) profile with k at or above the
        # l-specific lower bound and at most N(1-c) certifies as a Nash
        # equilibrium of the one-player-per-cell game.
        checked = 0
        for n in range(5, 26):
            field = build_uniform_field(n, 1)
            part = PlayerPartition.per_cell(n, 1)
            for c in (0.0, 0.5):
                if c >= 1 - 1 / n:
                    continue
                hi = n * (1 - c)
                for l in oned.ALLOWED_GAPS:
                    lo = oned.equilibrium_k_lower(n, c, l)
                    for k in range(1, n):
                        if not (lo <= k <= hi):
                            continue
                        cfg = oned.tiled_line_config(n, k, l)
                        if cfg is None:
                            continue
                        assert is_nash(cfg, field, part, c).is_nash, (n, c, k, l)
                        checked += 1
        assert checked > 10


class TestEfficiency:
    def test_price_of_anarchy_unbounded(self):
        poa, _ = oned.efficiency_ratios(100, 0.0)
        assert math.isinf(poa)

    def test_price_of_stability_approaches_two(self):
        _, pos4 = oned.efficiency_ratios(10 ** 4, 0.0)
        _, pos5 = oned.efficiency_ratios(10 ** 5, 0.0)
        assert 1.8 <= pos4 <= 2.2
        assert abs(pos5 - 2) < abs(pos4 - 2)


class TestDensityComparison:
    def test_large_line(self):
        res = oned.density_comparison(100, 0.0)
        assert res.equilibrium_higher
        assert res.equilibrium_density > res.optimal_density

    def test_small_effective_line(self):
        assert not oned.density_comparison(4, 0.5).equilibrium_higher

    def test_boundary_is_strict(self):
        # N(1-c) = 3 exactly: not higher.
        assert not oned.density_comparison(6, 0.5).equilibrium_higher


class TestLineConfigs:
    def test_line_config_pattern(self):
        cfg = oned.line_config(10, 3, 1)
        assert cfg.cells.tolist() == [[1, 1, 1, 0, 1, 1, 1, 0, 1, 1]]

    def test_tiled_line_config(self):
        cfg = oned.tiled_line_config(7, 3, 1)  # 3 + 1 + 3
        assert cfg.cells.tolist() == [[1, 1, 1, 0, 1, 1, 1]]
        assert oned.tiled_line_config(8, 3, 1) is None

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            oned.line_config(5, 0, 1)
        with pytest.raises(ValueError):
            oned.tiled_line_config(5, 1, 0)

    def test_utility_stack_agrees_with_formula(self):
        # The 2-D utility code on a height-1 grid reproduces the closed-form
        # pattern welfare for exact tilings.
        from notforest.grid import welfare
        n, k, l = 19, 4, 1  # 4 runs of 4, 3 gaps
        cfg = oned.tiled_line_config(n, k, l)
        assert cfg is not None
        w = welfare(cfg, build_uniform_field(n, 1), 0.0)
        planted = cfg.planted_count
        assert w == pytest.approx(planted * (1 - k / n))


def test_emit_table():
    text = oned.emit_table([50, 99], [0.0, 0.25])
    lines = text.strip().splitlines()
    assert lines[0].startswith("N,c,k_star,k_brute")
    assert len(lines) == 5
    row = lines[2].split(",")  # N=50, c=0.25
    assert row[0] == "50" and float(row[1]) == 0.25
