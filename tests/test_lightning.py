"""Lightning field construction and perturbation."""

import math

import numpy as np
import pytest

from notforest import build_gaussian_field, build_uniform_field, recenter_random
from notforest.lightning import LightningField


class TestGaussianField:
    def test_normalized(self):
        for v in (0.1, 1.0, 10.0, 100.0):
            field = build_gaussian_field(16, 16, v)
            assert field.p.sum() == pytest.approx(1.0, abs=1e-12)
            assert (field.p >= 0).all()

    def test_small_v_is_nearly_uniform(self):
        field = build_gaussian_field(32, 32, 0.001)
        ratio = field.p.max() / field.p.min()
        assert ratio < 1.01

    def test_variance_scale(self):
        # Per-axis variance is N/v; at v=1 on 128x128 the standard deviation
        # equals the grid edge, so the density formula is checkable directly.
        field = build_gaussian_field(128, 128, 1.0)
        sigma2 = 128 * 128
        expected_ratio = math.exp(-(127 ** 2) / (2 * sigma2))
        assert field.p[0, 127] / field.p[0, 0] == pytest.approx(expected_ratio)

    def test_radial_monotonicity_and_symmetry(self):
        field = build_gaussian_field(9, 9, 50.0, center=(4, 4))
        cx = cy = 4
        by_d2 = {}
        for y in range(9):
            for x in range(9):
                d2 = (x - cx) ** 2 + (y - cy) ** 2
                by_d2.setdefault(d2, []).append(field.p[y, x])
        for d2, vals in by_d2.items():
            assert max(vals) == pytest.approx(min(vals))
        d2s = sorted(by_d2)
        means = [by_d2[d][0] for d in d2s]
        assert all(a >= b - 1e-15 for a, b in zip(means, means[1:]))

    def test_default_center_is_top_left_cell(self):
        field = build_gaussian_field(8, 8, 100.0)
        assert field.center == (0, 0)
        assert field.p[0, 0] == field.p.max()

    @pytest.mark.parametrize("center", [(0.5, 0), (True, 0)], ids=["fraction", "bool"])
    def test_center_must_be_integers(self, center):
        # A centre between cells would be recorded truncated, and a run
        # rebuilt from that record would face another field.
        with pytest.raises(ValueError, match="center must be two integer cell coordinates"):
            build_gaussian_field(8, 8, 10.0, center)

    def test_numpy_integer_center_is_recorded_as_ints(self):
        field = build_gaussian_field(8, 8, 10.0, (np.int64(1), 2))
        assert field.center == (1, 2) and type(field.center[0]) is int
        assert field.p[2, 1] == field.p.max()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_gaussian_field(8, 8, 0.0)
        with pytest.raises(ValueError):
            build_gaussian_field(8, 8, -1.0)
        with pytest.raises(ValueError):
            build_gaussian_field(8, 8, 1.0, center=(8, 0))
        for v in (math.inf, math.nan):
            with pytest.raises(ValueError, match="v must be finite"):
                build_gaussian_field(8, 8, v)


class TestUniformField:
    def test_values(self):
        field = build_uniform_field(4, 4)
        assert (field.p == 1 / 16).all()
        assert field.p.sum() == pytest.approx(1.0)
        assert field.v is None and field.center is None


class TestLightningFieldValidation:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LightningField(np.array([[1.5, -0.5]]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            LightningField(np.array([[0.3, 0.3]]))

    def test_rejects_non_finite(self):
        for p in ([[np.nan, 1.0]], [[np.nan, np.nan]], [[np.inf, 0.0]]):
            with pytest.raises(ValueError, match="must be finite"):
                LightningField(np.array(p))

    def test_read_only(self):
        field = build_uniform_field(2, 2)
        with pytest.raises(ValueError):
            field.p[0, 0] = 0.5


class TestRecenterRandom:
    def test_one_cell_grid_unchanged(self):
        field = build_gaussian_field(1, 1, 10.0)
        moved = recenter_random(field, np.random.default_rng(0))
        assert np.array_equal(moved.p, field.p)

    def test_uniform_is_noop(self):
        field = build_uniform_field(4, 4)
        assert recenter_random(field, np.random.default_rng(0)) is field

    def test_still_normalized(self):
        rng = np.random.default_rng(1)
        field = build_gaussian_field(8, 8, 100.0)
        for _ in range(20):
            moved = recenter_random(field, rng)
            assert moved.p.sum() == pytest.approx(1.0, abs=1e-12)
            assert moved.v == field.v

    def test_centers_uniform(self):
        rng = np.random.default_rng(2)
        field = build_gaussian_field(8, 8, 100.0)
        counts = np.zeros(64)
        draws = 10_000
        for _ in range(draws):
            moved = recenter_random(field, rng)
            cx, cy = moved.center
            counts[cy * 8 + cx] += 1
        expected = draws / 64
        tol = 3 * math.sqrt(draws * (1 / 64) * (63 / 64))
        assert (np.abs(counts - expected) <= tol).all()
