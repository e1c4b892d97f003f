"""Measurement suite: cascade distributions, fire-break statistic, centroid,
fragility, fines."""

import itertools

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
)


def random_config(rng, w, h, density=0.5):
    return GridConfig((rng.random((h, w)) < density).astype(np.uint8))


class TestCascadeDistribution:
    def test_full_grid(self):
        dist = cascade_distribution(GridConfig.full(4, 4), build_uniform_field(4, 4))
        assert dist.support.tolist() == [16]
        assert dist.ccdf[0] == pytest.approx(1.0)
        assert dist.zero_mass == 0.0

    def test_empty_grid(self):
        dist = cascade_distribution(GridConfig.empty(4, 4), build_uniform_field(4, 4))
        assert len(dist.support) == 0
        assert dist.zero_mass == pytest.approx(1.0)

    def test_one_d_alternating_pattern(self):
        # N=9, pattern 110110110: three runs of 2, three empty cells.
        cells = np.array([[1, 1, 0, 1, 1, 0, 1, 1, 0]], dtype=np.uint8)
        dist = cascade_distribution(GridConfig(cells), build_uniform_field(9, 1))
        assert dist.support.tolist() == [2]
        assert dist.ccdf[0] == pytest.approx(6 / 9)
        assert dist.zero_mass == pytest.approx(3 / 9)

    def test_total_mass_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cfg = random_config(rng, 6, 6, density=float(rng.random()))
            field = build_gaussian_field(6, 6, 10.0)
            dist = cascade_distribution(cfg, field)
            assert dist.pmf.sum() + dist.zero_mass == pytest.approx(1.0)
            assert (np.diff(dist.ccdf) <= 1e-15).all()

    def test_to_csv(self):
        cells = np.array([[1, 1, 0, 1]], dtype=np.uint8)
        dist = cascade_distribution(GridConfig(cells), build_uniform_field(4, 1))
        lines = dist.to_csv().strip().splitlines()
        assert lines[0] == "x,ccdf"
        assert lines[1].startswith("1,")
        assert lines[2].startswith("2,")


class TestCascadePercentile:
    def test_full_grid(self):
        dist = cascade_distribution(GridConfig.full(5, 5), build_uniform_field(5, 5))
        assert cascade_percentile(dist, 0.9) == 25

    def test_zero_dominated(self):
        # One tree on a 25-cell uniform grid: 96% of strikes hit empty cells.
        cells = np.zeros((5, 5), dtype=np.uint8)
        cells[2, 2] = 1
        dist = cascade_distribution(GridConfig(cells), build_uniform_field(5, 5))
        assert dist.zero_mass == pytest.approx(24 / 25)
        assert cascade_percentile(dist, 0.9) == 0

    def test_one_d_example(self):
        cells = np.array([[1, 1, 0, 1, 1, 0, 1, 1, 0]], dtype=np.uint8)
        dist = cascade_distribution(GridConfig(cells), build_uniform_field(9, 1))
        assert cascade_percentile(dist, 0.9) == 2

    def test_monotone_in_q(self):
        rng = np.random.default_rng(1)
        cfg = random_config(rng, 8, 8, density=0.7)
        dist = cascade_distribution(cfg, build_gaussian_field(8, 8, 10.0))
        qs = [0.1, 0.3, 0.5, 0.7, 0.9, 0.99]
        vals = [cascade_percentile(dist, q) for q in qs]
        assert vals == sorted(vals)

    def test_invalid_q(self):
        dist = cascade_distribution(GridConfig.full(2, 2), build_uniform_field(2, 2))
        with pytest.raises(ValueError):
            cascade_percentile(dist, 0.0)
        with pytest.raises(ValueError):
            cascade_percentile(dist, 1.0)


class TestFireBreakCorrelation:
    def test_uniform_field_always_one(self):
        rng = np.random.default_rng(2)
        field = build_uniform_field(6, 6)
        for _ in range(30):
            cfg = random_config(rng, 6, 6, density=float(rng.random() * 0.99))
            if cfg.density == 1.0:
                continue
            c = fire_break_correlation(cfg, field)
            assert c == pytest.approx(1.0, abs=1e-12)

    def test_empties_on_hot_cells_exceed_one(self):
        field = build_gaussian_field(6, 6, 50.0)
        order = np.argsort(field.p.ravel())[::-1]
        cells = np.ones((6, 6), dtype=np.uint8)
        cells.ravel()[order[:5]] = 0
        assert fire_break_correlation(GridConfig(cells), field) > 1.0

    def test_full_grid_is_none(self):
        field = build_gaussian_field(4, 4, 10.0)
        assert fire_break_correlation(GridConfig.full(4, 4), field) is None

    def test_hottest_empties_maximize_c(self):
        # Exhaustive over all 3-empty placements on 4x4.
        field = build_gaussian_field(4, 4, 20.0)
        order = np.argsort(field.p.ravel())[::-1]
        best_cells = np.ones((4, 4), dtype=np.uint8)
        best_cells.ravel()[order[:3]] = 0
        best_c = fire_break_correlation(GridConfig(best_cells), field)
        for combo in itertools.combinations(range(16), 3):
            cells = np.ones((4, 4), dtype=np.uint8)
            cells.ravel()[list(combo)] = 0
            assert fire_break_correlation(GridConfig(cells), field) <= best_c + 1e-12


class TestEmptyCentroid:
    def test_single_empty_cell(self):
        cells = np.ones((8, 8), dtype=np.uint8)
        cells[5, 3] = 0  # row y=5, column x=3
        assert empty_centroid(GridConfig(cells)) == (3.0, 5.0)

    def test_full_grid_is_none(self):
        assert empty_centroid(GridConfig.full(3, 3)) is None

    def test_top_left_quadrant(self):
        k = 4
        cells = np.ones((2 * k, 2 * k), dtype=np.uint8)
        cells[:k, :k] = 0
        cx, cy = empty_centroid(GridConfig(cells))
        assert cx < k and cy < k

    def test_uniform_empties_near_center(self):
        rng = np.random.default_rng(3)
        centroids = []
        for _ in range(200):
            cfg = random_config(rng, 16, 16, density=0.5)
            c = empty_centroid(cfg)
            if c is not None:
                centroids.append(c)
        mean = np.mean(centroids, axis=0)
        assert np.allclose(mean, (7.5, 7.5), atol=0.3)


class TestFragility:
    def test_uniform_field_is_stable(self):
        rng = np.random.default_rng(4)
        cfg = random_config(rng, 6, 6)
        field = build_uniform_field(6, 6)
        res = fragility_eval(cfg, field, 0.0, trials=10, rng=rng)
        assert np.allclose(res.shifted_welfares, res.baseline_welfare)

    def test_empty_grid_zero(self):
        field = build_gaussian_field(6, 6, 10.0)
        res = fragility_eval(GridConfig.empty(6, 6), field, 0.0, trials=5,
                             rng=np.random.default_rng(0))
        assert res.mean_shifted_welfare == 0.0 and res.baseline_welfare == 0.0

    def test_full_grid_zero_at_no_cost(self):
        field = build_gaussian_field(6, 6, 10.0)
        res = fragility_eval(GridConfig.full(6, 6), field, 0.0, trials=5,
                             rng=np.random.default_rng(0))
        assert res.mean_shifted_welfare == pytest.approx(0.0)

    def test_trial_count_respected(self):
        field = build_gaussian_field(6, 6, 10.0)
        cfg = random_config(np.random.default_rng(5), 6, 6)
        res = fragility_eval(cfg, field, 0.0, trials=7, rng=np.random.default_rng(1))
        assert len(res.shifted_welfares) == 7
        with pytest.raises(ValueError):
            fragility_eval(cfg, field, 0.0, trials=0, rng=np.random.default_rng(1))


class TestFinesExperiment:
    def test_zero_penalty_matches_plain_run(self):
        field = build_gaussian_field(8, 8, 10.0)
        part = PlayerPartition.square_tiling(8, 4)
        params = DynamicsParams(seed=0, t_br=3, t_opt=20)
        w0, res0 = fines_experiment(field, part, 0.25, 0.0, params)
        plain = best_response_dynamics(field, part, 0.25, params)
        assert res0.config == plain.config
        assert w0 == pytest.approx(plain.welfare)

    def test_prohibitive_total_cost_yields_empty(self):
        field = build_gaussian_field(8, 8, 10.0)
        part = PlayerPartition.square_tiling(8, 4)
        params = DynamicsParams(seed=0, t_br=2, t_opt=10)
        w, res = fines_experiment(field, part, 0.5, 0.6, params)
        assert res.config == GridConfig.empty(8, 8)
        assert w == 0.0

    def test_negative_penalty_rejected(self):
        field = build_uniform_field(4, 4)
        part = PlayerPartition.per_cell(4, 4)
        with pytest.raises(ValueError):
            fines_experiment(field, part, 0.0, -0.1, DynamicsParams())

    @pytest.mark.parametrize("penalty", [np.nan, np.inf])
    def test_non_finite_penalty_rejected(self, penalty):
        field = build_uniform_field(4, 4)
        part = PlayerPartition.per_cell(4, 4)
        with pytest.raises(ValueError, match=f"penalty .* got {penalty}"):
            fines_experiment(field, part, 0.0, penalty, DynamicsParams(t_br=1))
