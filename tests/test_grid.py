"""Grid state, partitions, component labeling, and exact utilities."""

import numpy as np
import pytest

from notforest import (
    GridConfig,
    PlayerPartition,
    build_uniform_field,
    label_components,
    player_utility,
    survival_prob,
    welfare,
)
from notforest.lightning import LightningField, build_gaussian_field

from conftest import brute_force_player_utility, flood_fill_labels, label_partition_equal


def random_config(rng, w, h, density=0.5):
    return GridConfig((rng.random((h, w)) < density).astype(np.uint8))


class TestGridConfig:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            GridConfig(np.array([[0, 2]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            GridConfig(np.zeros(4))

    @pytest.mark.parametrize("cells", [[[0.5, 1.7]], np.array([[256, 1]]), [[-1]]],
                             ids=["fraction", "wraps_to_0", "negative"])
    def test_rejects_values_a_uint8_cast_would_change(self, cells):
        with pytest.raises(ValueError, match="cells must contain only 0 and 1"):
            GridConfig(cells)

    @pytest.mark.parametrize("cells", [[[1.0, 0.0]], [[True, False]]], ids=["float", "bool"])
    def test_loads_integral_floats_and_bools(self, cells):
        cfg = GridConfig(cells)
        assert cfg.cells.dtype == np.uint8 and cfg.cells.tolist() == [[1, 0]]

    def test_density_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cfg = random_config(rng, 5, 3)
            assert 0.0 <= cfg.density <= 1.0
            assert cfg.n_cells == 15

    def test_text_round_trip(self):
        rng = np.random.default_rng(1)
        cfg = random_config(rng, 7, 4)
        again = GridConfig.from_text(cfg.to_text())
        assert again == cfg

    def test_from_text_rejects_garbage(self):
        with pytest.raises(ValueError):
            GridConfig.from_text("10x\n001\n")
        with pytest.raises(ValueError):
            GridConfig.from_text("   \n")

    def test_pgm_bytes(self):
        cfg = GridConfig(np.array([[1, 0], [0, 1]], dtype=np.uint8))
        data = cfg.to_pgm_bytes()
        assert data.startswith(b"P5\n2 2\n255\n")
        assert data[-4:] == bytes([255, 0, 0, 255])

    def test_cells_read_only(self):
        cfg = GridConfig.empty(3, 3)
        with pytest.raises(ValueError):
            cfg.cells[0, 0] = 1

    def test_eq_hash(self):
        a = GridConfig.full(3, 2)
        b = GridConfig.full(3, 2)
        assert a == b and hash(a) == hash(b)
        assert a != GridConfig.empty(3, 2)


class TestPlayerPartition:
    def test_square_tiling_rejects_non_power_of_4(self):
        for m in (2, 3, 8, 32):
            with pytest.raises(ValueError):
                PlayerPartition.square_tiling(8, m)

    def test_square_tiling_rejects_m_below_one(self):
        for m in (0, -4):
            with pytest.raises(ValueError, match=f"m must be a positive power of 4, got {m}"):
                PlayerPartition.square_tiling(8, m)

    def test_square_tiling_rejects_indivisible_edge(self):
        with pytest.raises(ValueError):
            PlayerPartition.square_tiling(6, 16)

    def test_square_tiling_shape(self):
        part = PlayerPartition.square_tiling(8, 16)
        assert part.m == 16
        for i in range(16):
            assert part.n_player_cells(i) == 4
        # Player 0 owns the top-left 2x2 block.
        rows, cols = part.player_cells(0)
        assert sorted(zip(rows.tolist(), cols.tolist())) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_player_cells_row_major(self):
        part = PlayerPartition.square_tiling(4, 4)
        rows, cols = part.player_cells(3)
        flat = (rows * 4 + cols).tolist()
        assert flat == sorted(flat)
        # An owner map that is not a tiling: each player's cells scattered.
        owner = np.random.default_rng(3).permutation(np.arange(7 * 5) % 6).reshape(5, 7)
        part = PlayerPartition(owner, 6)
        for i in range(6):
            rows, cols = part.player_cells(i)
            flat = (rows * 7 + cols).tolist()
            assert flat == np.flatnonzero(owner == i).tolist()

    def test_rejects_owners_an_int64_cast_would_change(self):
        for owner in (np.array([[0.5, 1.2]]), np.array([[0.0, np.nan]])):
            with pytest.raises(ValueError, match=r"every player index in \[0, m\)"):
                PlayerPartition(owner, 2)

    def test_loads_integral_float_and_bool_owners(self):
        for owner in (np.array([[0.0, 1.0]]), np.array([[False, True]])):
            assert PlayerPartition(owner, 2).owner.tolist() == [[0, 1]]

    def test_owner_map_is_copied(self):
        # The caller's array stays writeable, and a write through its base
        # after construction does not reach the checked owners.
        given = np.zeros((2, 2), dtype=np.int64)
        PlayerPartition(given, 1)
        assert given.flags.writeable
        base = np.zeros(4, dtype=np.int64)
        part = PlayerPartition(base.reshape(2, 2), 1)
        base[1] = 5
        assert part.owner.tolist() == [[0, 0], [0, 0]]
        assert part.player_cells(0)[0].tolist() == [0, 0, 1, 1]

    def test_per_cell(self):
        part = PlayerPartition.per_cell(5, 1)
        assert part.m == 5
        rows, cols = part.player_cells(2)
        assert (rows.tolist(), cols.tolist()) == ([0], [2])

    def test_every_cell_owned_once(self):
        part = PlayerPartition.square_tiling(8, 4)
        seen = np.zeros((8, 8), dtype=int)
        for i in range(part.m):
            rows, cols = part.player_cells(i)
            seen[rows, cols] += 1
        assert (seen == 1).all()


class TestLabelComponents:
    def test_full_grid_single_component(self):
        field = build_uniform_field(5, 4)
        lab = label_components(GridConfig.full(5, 4), field)
        assert lab.n_components == 1
        assert lab.sizes.tolist() == [20]
        assert lab.masses[0] == pytest.approx(1.0)

    def test_empty_grid(self):
        field = build_uniform_field(3, 3)
        lab = label_components(GridConfig.empty(3, 3), field)
        assert lab.n_components == 0
        assert lab.sizes.tolist() == []

    def test_ring_is_one_component(self):
        # 3x3 planted everywhere except the center: the ring is 4-connected.
        cells = np.ones((3, 3), dtype=np.uint8)
        cells[1, 1] = 0
        lab = label_components(GridConfig(cells), build_uniform_field(3, 3))
        assert lab.n_components == 1
        assert lab.sizes.tolist() == [8]
        assert lab.masses[0] == pytest.approx(8 / 9)

    def test_diagonal_split_4_vs_8(self):
        cells = np.eye(3, dtype=np.uint8)
        cfg = GridConfig(cells)
        field = build_uniform_field(3, 3)
        assert label_components(cfg, field, connectivity=4).n_components == 3
        assert label_components(cfg, field, connectivity=8).n_components == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            label_components(GridConfig.empty(3, 3), build_uniform_field(4, 4))

    def test_matches_flood_fill_on_random_grids(self):
        rng = np.random.default_rng(42)
        for trial in range(60):
            w, h = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            cfg = random_config(rng, w, h, density=float(rng.random()))
            field = build_uniform_field(w, h)
            for conn in (4, 8):
                lab = label_components(cfg, field, connectivity=conn)
                oracle = flood_fill_labels(cfg.cells, conn)
                assert label_partition_equal(lab.labels, oracle)
                assert sorted(lab.sizes) == sorted(np.bincount(oracle.ravel())[1:])


class TestSurvivalProb:
    def test_full_grid_zero_everywhere(self):
        field = build_uniform_field(4, 4)
        lab = label_components(GridConfig.full(4, 4), field)
        for g in range(16):
            assert survival_prob(lab, g) == pytest.approx(0.0)

    def test_isolated_tree(self):
        p = np.array([[0.1, 0.5], [0.15, 0.25]])
        field = LightningField(p)
        cells = np.array([[1, 0], [0, 0]], dtype=np.uint8)
        lab = label_components(GridConfig(cells), field)
        assert survival_prob(lab, 0) == pytest.approx(0.9)

    def test_one_d_run_of_k(self):
        n, k = 12, 5
        field = build_uniform_field(n, 1)
        cells = np.zeros((1, n), dtype=np.uint8)
        cells[0, :k] = 1
        lab = label_components(GridConfig(cells), field)
        for g in range(k):
            assert survival_prob(lab, g) == pytest.approx(1 - k / n)

    def test_unplanted_cell_rejected(self):
        field = build_uniform_field(2, 2)
        lab = label_components(GridConfig.empty(2, 2), field)
        with pytest.raises(ValueError):
            survival_prob(lab, 0)

    def test_in_unit_interval_and_mass_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            cfg = random_config(rng, 6, 6)
            field = build_gaussian_field(6, 6, 10.0)
            lab = label_components(cfg, field)
            burn = 0.0
            for g in np.flatnonzero(cfg.cells.ravel()):
                s = survival_prob(lab, int(g))
                assert 0.0 <= s <= 1.0
                burn += 1.0 - s
            assert burn == pytest.approx(float(np.dot(lab.sizes, lab.masses)))


class TestPlayerUtility:
    def test_empty_owner_zero(self):
        field = build_uniform_field(4, 4)
        part = PlayerPartition.square_tiling(4, 4)
        cells = np.zeros((4, 4), dtype=np.uint8)
        cells[2:, 2:] = 1  # only player 3 plants
        cfg = GridConfig(cells)
        assert player_utility(cfg, field, part, 0, 0.0) == 0.0

    def test_single_player_full_grid(self):
        field = build_uniform_field(4, 4)
        part = PlayerPartition.single(4, 4)
        assert player_utility(GridConfig.full(4, 4), field, part, 0, 0.0) == pytest.approx(0.0)

    def test_one_d_pattern_formula(self):
        # N=99, runs of k=9 separated by single gaps: utility is
        # N * k/(k+1) * (1 - k/N) = 90 * (1 - 9/99).
        n, k = 99, 9
        field = build_uniform_field(n, 1)
        part = PlayerPartition.single(n, 1)
        period = np.array([1] * k + [0], dtype=np.uint8)
        cfg = GridConfig(np.tile(period, n // (k + 1) + 1)[:n].reshape(1, n))
        expected = 90 * (1 - 9 / 99)
        assert player_utility(cfg, field, part, 0, 0.0) == pytest.approx(expected)

    def test_negative_cost_rejected(self):
        field = build_uniform_field(2, 2)
        part = PlayerPartition.single(2, 2)
        for cost in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match=f"got {cost}"):
                player_utility(GridConfig.empty(2, 2), field, part, 0, cost)

    def test_matches_brute_force_definition(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            cfg = random_config(rng, 4, 4)
            field = build_gaussian_field(4, 4, 5.0)
            part = PlayerPartition.square_tiling(4, 4)
            for i in range(4):
                got = player_utility(cfg, field, part, i, 0.25)
                want = brute_force_player_utility(cfg.cells, field.p, part.owner, i, 0.25)
                assert got == pytest.approx(want)


class TestWelfare:
    def test_empty_grid(self):
        assert welfare(GridConfig.empty(5, 5), build_uniform_field(5, 5), 0.0) == 0.0

    def test_full_grid_cost_zero(self):
        assert welfare(GridConfig.full(5, 5), build_uniform_field(5, 5), 0.0) == pytest.approx(0.0)

    def test_full_grid_cost_only(self):
        w = welfare(GridConfig.full(5, 5), build_uniform_field(5, 5), 0.25)
        assert w == pytest.approx(-0.25 * 25)

    def test_equals_sum_of_player_utilities(self):
        rng = np.random.default_rng(3)
        for m in (1, 4, 16):
            for _ in range(5):
                cfg = random_config(rng, 8, 8)
                field = build_gaussian_field(8, 8, 10.0)
                part = PlayerPartition.square_tiling(8, m)
                total = sum(player_utility(cfg, field, part, i, 0.25)
                            for i in range(m))
                assert welfare(cfg, field, 0.25) == pytest.approx(total)

    def test_partition_independent(self):
        rng = np.random.default_rng(5)
        cfg = random_config(rng, 8, 8)
        field = build_gaussian_field(8, 8, 100.0)
        for part in (PlayerPartition.single(8, 8), PlayerPartition.per_cell(8, 8)):
            total = sum(player_utility(cfg, field, part, i, 0.5)
                        for i in range(part.m))
            assert total == pytest.approx(welfare(cfg, field, 0.5))


def test_planting_never_helps_other_trees():
    # Components only merge when a tree is added, so every other tree's
    # survival probability is non-increasing.
    rng = np.random.default_rng(9)
    for _ in range(15):
        cells = (rng.random((5, 5)) < 0.5).astype(np.uint8)
        empties = np.flatnonzero(cells.ravel() == 0)
        if empties.size == 0:
            continue
        field = build_gaussian_field(5, 5, 10.0)
        before = label_components(GridConfig(cells), field)
        g_new = int(rng.choice(empties))
        grown = cells.copy()
        grown.ravel()[g_new] = 1
        after = label_components(GridConfig(grown), field)
        for g in np.flatnonzero(cells.ravel()):
            assert survival_prob(after, int(g)) <= survival_prob(before, int(g)) + 1e-12
