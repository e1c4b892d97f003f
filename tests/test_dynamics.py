"""Equilibrium dynamics: reference sampling, the inner optimizer, the outer
best-response loop, and the equilibrium certifier."""

import hashlib
from functools import cache

import numpy as np
import pytest
from scipy import ndimage

from notforest import (
    DynamicsParams,
    GridConfig,
    LightningField,
    PlayerPartition,
    best_response_dynamics,
    build_gaussian_field,
    build_uniform_field,
    choose_actions,
    default_iterations,
    is_nash,
    opt_sampled_fp,
    player_utility,
)
from notforest import dynamics, oned
from notforest.grid import FOUR_NEIGHBOR, label_cells, welfare

from conftest import (brute_force_player_utility, naive_best_response_dynamics,
                      naive_opt_sampled_fp)


def ring_of(cells, y, x) -> int:
    """Ring mask of cell (y, x): bit k set when the cell at
    dynamics._OFFSETS[k] from it is planted; off-grid cells are empty."""
    height, width = cells.shape
    return sum(1 << k for k, (dy, dx) in enumerate(dynamics._OFFSETS)
               if 0 <= y + dy < height and 0 <= x + dx < width and cells[y + dy, x + dx])


def local_non_cut(ring: int, connectivity: int) -> bool:
    """Oracle for the cut-test table: flood-fill the planted cells of the 3x3
    window with its centre cleared, and report whether the centre's planted
    neighbours all land in one component."""
    planted = {off for k, off in enumerate(dynamics._OFFSETS) if ring >> k & 1}
    steps = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)
             if (dy, dx) != (0, 0) and (connectivity == 8 or 0 in (dy, dx))]
    neighbours = [cell for cell in steps if cell in planted]
    if not neighbours:
        return True
    seen, stack = {neighbours[0]}, [neighbours[0]]
    while stack:
        y, x = stack.pop()
        for dy, dx in steps:
            cell = (y + dy, x + dx)
            if cell in planted and cell not in seen:
                seen.add(cell)
                stack.append(cell)
    return all(cell in seen for cell in neighbours)


class TestChooseActions:
    # In sampled-fictitious-play terms the reference comes from a one-entry
    # history with no exploration: choose_actions draws the first, from the
    # empty history; every later one is the previous candidate.
    def test_empty_history_is_fair_coin(self):
        rng = np.random.default_rng(0)
        draws = np.concatenate([choose_actions(100, rng) for _ in range(100)])
        assert set(np.unique(draws)) <= {0, 1}
        assert abs(draws.mean() - 0.5) < 0.02


class TestDefaultIterations:
    def test_single_player(self):
        assert default_iterations(1, 1024) == (1, 200)

    def test_schedule_keys(self):
        assert default_iterations(4, 256) == (20, 80)
        assert default_iterations(16, 16) == (40, 80)
        assert default_iterations(64, 1) == (50, 1)

    def test_off_schedule_falls_back_to_nearest(self):
        assert default_iterations(4, 100) == default_iterations(4, 64)


class TestDynamicsParams:
    def test_validation(self):
        DynamicsParams().validate()
        with pytest.raises(ValueError):
            DynamicsParams(p_player=1.5).validate()
        with pytest.raises(ValueError):
            DynamicsParams(t_br=0).validate()
        with pytest.raises(ValueError):
            DynamicsParams(connectivity=6).validate()

    @pytest.mark.parametrize("connectivity", [4.0, True])
    def test_connectivity_must_be_the_integer_4_or_8(self, connectivity):
        # 4.0 == 4 and True == 1, yet the scorers shift and slice by it.
        with pytest.raises(ValueError, match="connectivity must be 4 or 8"):
            DynamicsParams(connectivity=connectivity).validate()
        field = build_uniform_field(4, 4)
        with pytest.raises(ValueError, match="connectivity must be 4 or 8"):
            is_nash(GridConfig.full(4, 4), field, PlayerPartition.per_cell(4, 4), 0.0,
                    connectivity=connectivity)


class TestOptSampledFP:
    def test_single_cell_is_myopic_best_response(self):
        # A lone cell plants iff (1 - own strike mass - cost) > 0.
        field = build_uniform_field(3, 3)
        part = PlayerPartition.per_cell(3, 3)
        base = np.zeros((3, 3), dtype=np.uint8)
        labeling = label_cells(base, field.p, 4)
        rng = np.random.default_rng(0)
        out = opt_sampled_fp(4, base, field, part, 0.0, 5, rng, 4, labeling)
        assert out.tolist() == [1]
        rng = np.random.default_rng(0)
        out = opt_sampled_fp(4, base, field, part, 0.95, 5, rng, 4, labeling)
        assert out.tolist() == [0]

    def test_one_d_line_near_closed_form(self):
        n = 99
        field = build_uniform_field(n, 1)
        part = PlayerPartition.single(n, 1)
        result = best_response_dynamics(field, part, 0.0, DynamicsParams(seed=0))
        w_star = oned.optimal_welfare(n, 0.0)
        assert result.welfare >= 0.95 * w_star

    def test_4x4_beats_all_planted_and_below_optimum(self):
        field = build_gaussian_field(4, 4, 10.0)
        part = PlayerPartition.single(4, 4)
        base = np.zeros((4, 4), dtype=np.uint8)
        rng = np.random.default_rng(0)
        s = opt_sampled_fp(0, base, field, part, 0.0, 300, rng, 4,
                           label_cells(base, field.p, 4))
        rows, cols = part.player_cells(0)
        cells = np.zeros((4, 4), dtype=np.uint8)
        cells[rows, cols] = s
        u = player_utility(GridConfig(cells), field, part, 0, 0.0)
        u_full = player_utility(GridConfig.full(4, 4), field, part, 0, 0.0)
        # Exhaustive optimum over all 2^16 strategies (bit b of a code is
        # flat cell b), labeled in one call: the structure links cells only
        # within a strategy's own 4x4 plane.
        codes = np.arange(1 << 16)
        trials = (codes[:, None] >> np.arange(16) & 1).astype(np.uint8).reshape(-1, 4, 4)
        structure = np.zeros((3, 3, 3), dtype=np.uint8)
        structure[1] = FOUR_NEIGHBOR
        labels, _ = ndimage.label(trials, structure)
        p = np.broadcast_to(field.p, trials.shape)
        masses = np.bincount(labels.ravel(), weights=p.ravel())
        utilities = ((1.0 - masses[labels]) * trials).sum(axis=(1, 2))
        code = int(np.argmax(utilities))
        best = player_utility(GridConfig(trials[code]), field, part, 0, 0.0)
        assert best == pytest.approx(utilities[code], abs=1e-12)
        assert u_full <= u <= best + 1e-12

    def test_never_worse_than_current_strategy(self):
        # Lightning only strikes player 3's block, so every cell of player
        # 0's block is risk-free.  Player 0 already plants 14 of its 16
        # cells, among them the isolated corner (0, 0); a best response from
        # the empty strategy rarely gets back to 14 trees in a few
        # iterations, one that starts from the current strategy cannot lose.
        p = np.zeros((8, 8))
        p[4:, 4:] = 1 / 16
        field = LightningField(p)
        part = PlayerPartition.square_tiling(8, 4)
        base = np.zeros((8, 8), dtype=np.uint8)
        base[:4, :4] = 1
        base[0, 1] = base[1, 0] = 0
        u_now = player_utility(GridConfig(base), field, part, 0, 0.0)
        assert u_now == 14.0
        rows, cols = part.player_cells(0)
        labeling = label_cells(base, field.p, 4)
        for seed in range(5):
            s = opt_sampled_fp(0, base, field, part, 0.0, 10, np.random.default_rng(seed),
                               4, labeling)
            trial = base.copy()
            trial[rows, cols] = s
            assert player_utility(GridConfig(trial), field, part, 0, 0.0) >= u_now

    def test_draw_stream(self):
        # A visit of t_opt = T iterations on an n-cell player draws n
        # uniforms and n bits for the first reference, n selection uniforms,
        # then 2n uniforms per later iteration: exactly what these three
        # calls draw.
        field = build_gaussian_field(8, 8, 10.0)
        base = (np.random.default_rng(0).random((8, 8)) < 0.5).astype(np.uint8)
        labeling = label_cells(base, field.p, 4)
        t_opt = 7
        for part in (PlayerPartition.per_cell(8, 8), PlayerPartition.square_tiling(8, 4),
                     PlayerPartition.square_tiling(8, 1)):
            n = part.n_player_cells(0)
            rng = np.random.default_rng(4)
            opt_sampled_fp(0, base, field, part, 0.0, t_opt, rng, 4, labeling)
            fresh = np.random.default_rng(4)
            fresh.random(n)
            fresh.integers(0, 2, size=n, dtype=np.uint8)
            fresh.random((2 * t_opt - 1) * n)
            assert rng.bit_generator.state == fresh.bit_generator.state, n

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("cost", [0.0, 0.3])
    def test_matches_naive_visit_loop(self, connectivity, cost):
        # Players of 1, 16, 64, 256 and 4096 cells, each with a t_opt whose
        # last draw call holds fewer iterations than the others: same
        # strategy, same generator state.
        for edge, m, t_opt in ((16, 256, 8195), (16, 16, 515), (16, 4, 130),
                               (16, 1, 35), (64, 1, 5)):
            n = edge * edge // m
            calls = dynamics._draw_calls(n, t_opt)
            assert len(calls) > 1 and calls[-1][0] < calls[0][0], n
            field = build_gaussian_field(edge, edge, 10.0)
            part = PlayerPartition.square_tiling(edge, m)
            base = (np.random.default_rng(edge).random((edge, edge)) < 0.5).astype(np.uint8)
            labeling = label_cells(base, field.p, connectivity)
            for i in sorted({0, m // 2 + 1} & set(range(m))):
                rng, ref = np.random.default_rng(i), np.random.default_rng(i)
                got = opt_sampled_fp(i, base, field, part, cost, t_opt, rng, connectivity,
                                     labeling)
                want = naive_opt_sampled_fp(i, base, field, part, cost, t_opt, ref,
                                            connectivity, labeling)
                assert got.tolist() == want.tolist(), (n, i)
                assert rng.bit_generator.state == ref.bit_generator.state, (n, i)

    def test_one_cell_draws_match_the_array_form(self):
        # choose_actions draws a one-cell player's bit as a scalar; bits and
        # generator states must be those of the array form, draw after draw.
        for seed in range(200):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                bits = choose_actions(1, rng)
                ref.random(1)
                assert bits == ref.integers(0, 2, size=1, dtype=np.uint8).tolist()
                assert rng.bit_generator.state == ref.bit_generator.state, seed
                assert rng.random() == ref.random()


class TestBestResponseDynamics:
    def test_unprofitable_cost_yields_empty_grid(self):
        field = build_gaussian_field(8, 8, 10.0)
        for m in (1, 4, 64):
            part = PlayerPartition.square_tiling(8, m)
            result = best_response_dynamics(field, part, 1.0,
                                            DynamicsParams(seed=0, t_br=2, t_opt=10))
            assert result.config == GridConfig.empty(8, 8)
            assert result.welfare == 0.0

    def test_single_player_defaults_to_one_round(self):
        field = build_gaussian_field(8, 8, 10.0)
        part = PlayerPartition.single(8, 8)
        result = best_response_dynamics(field, part, 0.0, DynamicsParams(seed=1))
        assert result.manifest["t_br"] == 1
        assert len(result.welfare_trajectory) == 1
        assert result.welfare > 0

    def test_trajectory_length_and_manifest(self):
        field = build_gaussian_field(8, 8, 10.0)
        part = PlayerPartition.square_tiling(8, 4)
        params = DynamicsParams(seed=3, t_br=5, t_opt=10)
        result = best_response_dynamics(field, part, 0.25, params)
        assert len(result.welfare_trajectory) == 5
        man = result.manifest
        assert man["m"] == 4 and man["cost"] == 0.25 and man["seed"] == 3
        assert man["t_br"] == 5 and man["t_opt"] == 10

    def test_deterministic(self):
        field = build_gaussian_field(8, 8, 100.0)
        part = PlayerPartition.square_tiling(8, 4)
        params = DynamicsParams(seed=7, t_br=3, t_opt=15)
        a = best_response_dynamics(field, part, 0.0, params)
        b = best_response_dynamics(field, part, 0.0, params)
        assert a.config == b.config
        assert a.welfare_trajectory == b.welfare_trajectory
        assert np.array_equal(a.player_utilities, b.player_utilities)
        assert a.trace == b.trace

    def test_cut_test_does_not_change_runs(self, monkeypatch):
        # With an infinite guard every removal gain is priced on a relabel,
        # as before the cut-test table; the runs must be bit-identical to the
        # default ones, which price most removals off the labeling held.
        field = build_gaussian_field(16, 16, 10.0)
        for m in (1, 16):
            part = PlayerPartition.square_tiling(16, m)
            for connectivity in (4, 8):
                params = DynamicsParams(seed=2, t_br=3, connectivity=connectivity)
                runs, labelings = [], []
                for guard in (dynamics._CUT_GUARD, np.inf):
                    monkeypatch.setattr(dynamics, "_CUT_GUARD", guard)
                    calls = TestLabelingCounts.count_labelings(monkeypatch)
                    runs.append(best_response_dynamics(field, part, 0.0, params))
                    labelings.append(len(calls))
                    monkeypatch.undo()
                a, b = runs
                assert labelings[0] < labelings[1], (m, connectivity)
                assert a.config == b.config
                assert a.trace == b.trace
                assert a.welfare_trajectory == b.welfare_trajectory
                assert np.array_equal(a.player_utilities, b.player_utilities)

    def test_seed_changes_outcome(self):
        field = build_gaussian_field(8, 8, 100.0)
        part = PlayerPartition.square_tiling(8, 4)
        outcomes = {best_response_dynamics(field, part, 0.0,
                                           DynamicsParams(seed=s, t_br=2, t_opt=20)).config
                    for s in range(4)}
        assert len(outcomes) > 1

    def test_welfare_equals_reported_trajectory_end(self):
        field = build_gaussian_field(8, 8, 10.0)
        part = PlayerPartition.square_tiling(8, 16)
        result = best_response_dynamics(field, part, 0.0,
                                        DynamicsParams(seed=0, t_br=3, t_opt=10))
        assert result.welfare == pytest.approx(
            welfare(result.config, field, 0.0))
        assert result.welfare == pytest.approx(result.player_utilities.sum())

    def test_dimension_mismatch_rejected(self):
        field = build_gaussian_field(8, 8, 10.0)
        part = PlayerPartition.square_tiling(4, 4)
        with pytest.raises(ValueError):
            best_response_dynamics(field, part, 0.0, DynamicsParams(t_br=1, t_opt=1))

    @pytest.mark.parametrize("cost", [np.nan, np.inf])
    def test_non_finite_cost_rejected(self, cost):
        field = build_gaussian_field(4, 4, 10.0)
        part = PlayerPartition.square_tiling(4, 4)
        with pytest.raises(ValueError, match=f"got {cost}"):
            best_response_dynamics(field, part, cost, DynamicsParams(t_br=1, t_opt=1))

    @pytest.mark.parametrize("edge, m, cost, params", [
        (12, 144, 0.05, {"t_br": 10, "t_opt": 3, "connectivity": 8}),
        (16, 256, 0.0, {"t_br": 20}),
        (16, 256, 0.1, {"t_br": 10, "p_player": 0.5}),
        (16, 16, 0.0, {"t_br": 3}),
    ])
    def test_matches_naive_outer_loop(self, edge, m, cost, params):
        # The skipped one-cell visits and the trace utilities scored once
        # per grid state must change nothing against the plain loop.
        field = build_gaussian_field(edge, edge, 10.0)
        part = (PlayerPartition.per_cell(edge, edge) if m == edge * edge
                else PlayerPartition.square_tiling(edge, m))
        params = DynamicsParams(seed=1, **params)
        config, trace, trajectory, utilities, changes = naive_best_response_dynamics(
            field, part, cost, params)
        result = best_response_dynamics(field, part, cost, params)
        assert result.config == config
        assert result.trace == trace
        assert result.welfare_trajectory == trajectory
        assert np.array_equal(result.player_utilities, utilities)
        assert result.changes_per_round == changes
        assert sum(changes) > 0

    @staticmethod
    def record_visits(monkeypatch) -> list:
        """(player, whether the grid changed) per opt_sampled_fp call of the
        outer loop."""
        visit = dynamics.opt_sampled_fp
        calls = []

        def recorded(i, cells, field, part, *args):
            s = visit(i, cells, field, part, *args)
            rows, cols = part.player_cells(i)
            calls.append((i, bool((s != cells[rows, cols]).any())))
            return s

        monkeypatch.setattr(dynamics, "opt_sampled_fp", recorded)
        return calls

    def test_changes_per_round_count_grid_changes(self, monkeypatch):
        field = build_gaussian_field(16, 16, 10.0)
        for m in (16, 256):
            part = PlayerPartition.square_tiling(16, m)
            calls = self.record_visits(monkeypatch)
            result = best_response_dynamics(field, part, 0.0, DynamicsParams(seed=0, t_br=5))
            monkeypatch.undo()
            assert len(result.changes_per_round) == 5
            assert sum(result.changes_per_round) == sum(changed for _, changed in calls) > 0

    def test_settled_one_cell_visits_are_not_scored(self, monkeypatch):
        # Once every player has had a scored visit since the grid last
        # changed, no visit can change it, and none calls opt_sampled_fp.
        field = build_gaussian_field(8, 8, 10.0)
        part = PlayerPartition.per_cell(8, 8)
        calls = self.record_visits(monkeypatch)
        result = best_response_dynamics(field, part, 0.0, DynamicsParams(seed=0))
        scored = set()
        for k, (i, changed) in enumerate(calls):
            assert len(scored) < part.m, f"call {k} after the grid settled"
            scored = {i} if changed else scored | {i}
        assert len(scored) == part.m
        assert len(calls) < sum(row[2] for row in result.trace)


# sha256 over a run's final cells bytes, repr(trace), repr(welfare_trajectory)
# and player_utilities bytes, for seed 0 on a v = 10 Gaussian field unless the
# kind says otherwise, with one player per cell when m = edge**2:
# name -> (edge, m, cost, field kind, params, digest).
# The manifest is left out; its keys follow the params.
GOLDEN_RUNS = {
    "m1": (16, 1, 0.0, "gaussian", {},
           "09248f4f695ad8467d1f1ad1a399fbe09ebb23c46ad2d55603be5cf233412f40"),
    "m4": (16, 4, 0.0, "gaussian", {"t_br": 3},
           "5730bef14b80629ce660d2bce28990ad138eb2b2ede761506f9e60bddd4489b2"),
    "m16_c0.25": (16, 16, 0.25, "gaussian", {"t_br": 3},
                  "039873cb95348a7bc61430093bc99ff0cd425a295d9cde0eb7f164b3504bff85"),
    "m64": (16, 64, 0.0, "gaussian", {"t_br": 5},
            "8ec365c83e078b7ed17e26d98fef2d114897ef70d54f305365434a64a55c16bf"),
    "m256": (16, 256, 0.0, "gaussian", {"t_br": 10},
             "0cf2abbc4608218a470623dce116a1d8b5c7000062851bc6ad8ea76b27a10c3c"),
    "m16_conn8": (16, 16, 0.0, "gaussian", {"t_br": 3, "connectivity": 8},
                  "eb0c9c437a503aad5223f2726b530eb96549fb7896f6c574c02299de1878f263"),
    "m16_p_player0.5": (16, 16, 0.0, "gaussian", {"t_br": 3, "p_player": 0.5},
                        "cfbf9ab3a363213a7ddb14053c0b5d100bf324333b0b0dd9900c5146767ea767"),
    "m4_uniform": (16, 4, 0.0, "uniform", {"t_br": 3},
                   "6b354affe9d345525a9398d9b5f954d21a466f79cb1438d4599a261763cecb4c"),
    "line20_per_cell": (20, 20, 0.0, "line", {},
                        "d3acc8e8725b9211b4cb18147d0ced05404fea449ee8bb9f22e8a07e0ff4bbd1"),
    # One-cell players whose isolated plant gains all tie at exactly 0.
    "m256_uniform_tie": (16, 256, 1 - 1 / 256, "uniform", {"t_br": 10},
                         "525e4f700f41bfaf960b7ee5d4980aa4742c2560b2ec38586bec7ca0675cacf1"),
    "12x12_per_cell_conn8_t_opt3": (
        12, 144, 0.0, "gaussian", {"t_br": 20, "connectivity": 8, "t_opt": 3},
        "23ec12d4b3720b22b1d5d2ce99140cb4935e93f61fd7cb414c1f1c3a36886365"),
    "m256_p_player0.5_c0.05": (16, 256, 0.05, "gaussian", {"t_br": 20, "p_player": 0.5},
                               "69e31235673818b19d5c2c94231f4a3cd18764475e2c70e739eb91db9aaa7d9b"),
    # Large players, whose components span a small part of the grid.
    "32x32_m1": (32, 1, 0.0, "gaussian", {},
                 "1e737a1b38def1544ac464987cf8b3a6f1cd23ddc5c935d2da87cae02c10d293"),
    "32x32_m1_conn8": (32, 1, 0.0, "gaussian", {"connectivity": 8},
                       "7912df9acbb6de5b3795ebabaf89d97f0f564fdfe1f0d7f3541ff759e3a5c15d"),
    "32x32_m4": (32, 4, 0.0, "gaussian", {"t_br": 5},
                 "33cc47ac554dff402c03a2f1012cb48b804b7f84503cacdda5d5c3ff431f7236"),
    "32x32_m4_conn8": (32, 4, 0.0, "gaussian", {"t_br": 5, "connectivity": 8},
                       "9cbd789b2eede4d54ec9bf67aac280332a6053efff4a18c99d41d600afa33f52"),
}


def test_golden_dynamics_runs():
    # Refactors of the dynamics must leave these runs bit-identical; a change
    # that alters them on purpose records the new digests and says why.
    changed = []
    for name, (edge, m, cost, kind, params, want) in GOLDEN_RUNS.items():
        if kind == "line":
            field, part = build_uniform_field(edge, 1), PlayerPartition.per_cell(edge, 1)
        else:
            field = (build_gaussian_field(edge, edge, 10.0) if kind == "gaussian"
                     else build_uniform_field(edge, edge))
            part = (PlayerPartition.per_cell(edge, edge) if m == edge * edge
                    else PlayerPartition.square_tiling(edge, m))
        result = best_response_dynamics(field, part, cost, DynamicsParams(seed=0, **params))
        digest = hashlib.sha256()
        for blob in (result.config.cells.tobytes(), repr(result.trace).encode(),
                     repr(result.welfare_trajectory).encode(),
                     result.player_utilities.tobytes()):
            digest.update(blob)
        if digest.hexdigest() != want:
            changed.append(name)
    assert not changed, f"runs differ from the golden runs: {changed}"


def test_golden_single_flip_scan_of_a_large_player():
    # The final grid of a default 64x64, m = 1 run, scanned at two costs
    # and both connectivities: max_gain to the last digit, its witness and
    # the count of profitable flips.
    field = build_gaussian_field(64, 64, 10.0)
    part = PlayerPartition.single(64, 64)
    config = best_response_dynamics(field, part, 0.0, DynamicsParams(seed=0)).config
    assert hashlib.sha256(config.cells.tobytes()).hexdigest() == (
        "9752153ec19a603c58765e4903102802e940db78f4bc26e3d90b5de1f2c25065")
    want = {
        (4, 0.0): ("-0.18216064846239577", (0, ("flip", 597)), 0),
        (4, 0.3): ("-0.16572260521851526", (0, ("flip", 1092)), 0),
        (8, 0.0): ("5.26666919601712", (0, ("flip", 0)), 2045),
        (8, 0.3): ("5.56666919601712", (0, ("flip", 0)), 3627),
    }
    for (connectivity, cost), pinned in want.items():
        check = is_nash(config, field, part, cost, connectivity=connectivity)
        got = (repr(check.max_gain), check.witness, check.profitable_flips)
        assert got == pinned, (connectivity, cost)


@cache
def final_grid(edge, v, m, cost):
    """The field, partition and final grid of a default run at seed 0."""
    field = build_gaussian_field(edge, edge, v)
    part = PlayerPartition.square_tiling(edge, m)
    return field, part, best_response_dynamics(field, part, cost, DynamicsParams(seed=0)).config


def test_golden_single_flip_scans_of_many_players():
    # The final grids of default 16x16, v = 10 runs and of the 32x32,
    # v = 100, m = 1024 run, each scanned at its own cost: the grid's
    # sha256, max_gain to the last digit, its witness and the count of
    # profitable flips.  Recorded while each player's flips were priced by a
    # PlayerScorer of their own.
    want = {
        (16, 10.0, 4, 0.0): (
            "bd05ba3f58499cac782ed9be09ca11856effaf4198fe7041fe1d9e3ed0c5e81e",
            "0.9472923409414942", (3, ("flip", 248)), 3),
        (16, 10.0, 4, 0.25): (
            "04d65eb76d066f2bbe16323895dffd4c175616f91e371ffc338121c6fba57c1d",
            "-0.03975464715485705", (0, ("flip", 64)), 0),
        (16, 10.0, 16, 0.0): (
            "c796e79011b24cd090632c18712a6cdd564d4df77feae7f9983d53436bbf3d14",
            "-0.18896902007302396", (0, ("flip", 1)), 0),
        (16, 10.0, 16, 0.25): (
            "2659f583d9082a36ea4a97a1f10537a3588129442d7f5db4530bbaeac895ec1e",
            "-0.06364979302369939", (4, ("flip", 83)), 0),
        (16, 10.0, 256, 0.0): (
            "7b4d73c84bb145b0cab4320a2a7ac315d0c17bba095f78f35b31c6d98419da7a",
            "-2.220446049250313e-16", (247, ("flip", 247)), 0),
        (16, 10.0, 256, 0.25): (
            "4e21efad66e98cb447929de64ace6ca3559dd03eeef2b88ff7b04fce191932d9",
            "-0.00016578668532296614", (0, ("flip", 0)), 0),
        (32, 100.0, 1024, 0.0): (
            "5a648d8015900d89664e00e125df179636301a2d8fa191c1aa2bd9358ea53a69",
            "-1.4432899320127035e-15", (38, ("flip", 38)), 0),
    }
    for key, pinned in want.items():
        field, part, config = final_grid(*key)
        check = is_nash(config, field, part, key[3])
        got = (hashlib.sha256(config.cells.tobytes()).hexdigest(), repr(check.max_gain),
               check.witness, check.profitable_flips)
        assert got == pinned, key


class TestLabelingCounts:
    """Each grid state is labeled once: count scipy.ndimage.label calls."""

    @staticmethod
    def count_labelings(monkeypatch) -> list:
        # The cut-test tables label 256 windows when first used; build them
        # before counting.
        for connectivity in (4, 8):
            dynamics.not_cut_table(connectivity)
        calls = []
        label = ndimage.label

        def counted(*args, **kwargs):
            calls.append(None)
            return label(*args, **kwargs)

        monkeypatch.setattr(ndimage, "label", counted)
        return calls

    def run_without_visits(self):
        # p_player = 0 skips every visit, so the grid never leaves its
        # initial state; trace rows, trajectory and utilities all read it.
        field = build_gaussian_field(8, 8, 10.0)
        part = PlayerPartition.square_tiling(8, 16)
        result = best_response_dynamics(field, part, 0.0,
                                        DynamicsParams(t_br=3, p_player=0.0))
        return field, part, result

    # ndimage.label calls per run on a 16x16, v = 10 field at cost 0 and
    # seed 0, keyed by (m, t_br); t_br None is the default schedule.
    PINNED_RUNS = {(1, None): 203, (4, 3): 585, (16, 3): 53, (256, 3): 277}

    def test_labelings_per_run_are_pinned(self, monkeypatch):
        field = build_gaussian_field(16, 16, 10.0)
        calls = self.count_labelings(monkeypatch)
        for (m, t_br), want in self.PINNED_RUNS.items():
            calls.clear()
            best_response_dynamics(field, PlayerPartition.square_tiling(16, m), 0.0,
                                   DynamicsParams(seed=0, t_br=t_br))
            assert len(calls) == want, m

    def test_single_optimizer_64_labelings_are_pinned(self, monkeypatch):
        # A 64x64, v = 10, m = 1 solve at seed 0 prices every batch in one
        # pass, each batch's removals off one strip of packed component
        # boxes, and so does its single-flip is_nash.  Pricing each box on a
        # labeling of its own took 2,966 and 145 labelings.
        field = build_gaussian_field(64, 64, 10.0)
        part = PlayerPartition.single(64, 64)
        calls = self.count_labelings(monkeypatch)
        result = best_response_dynamics(field, part, 0.0, DynamicsParams(seed=0))
        assert len(calls) == 303
        calls.clear()
        is_nash(result.config, field, part, 0.0)
        assert len(calls) == 4

    def test_unchanged_grid_is_labeled_once(self, monkeypatch):
        calls = self.count_labelings(monkeypatch)
        _, _, result = self.run_without_visits()
        assert len(calls) == 1
        assert len(result.trace) == 3 * 16

    def test_single_flip_scan_labels_base_once(self, monkeypatch):
        # The base grid is labeled once; planting a tree reads the base
        # labeling, and so does removing one that is not a local cut cell.
        # Only removing a local cut cell needs the labeling with it empty:
        # one strip holds the boxes of all of them on this 8x8 grid.
        field, part, result = self.run_without_visits()
        planted = best_response_dynamics(field, part, 0.0,
                                         DynamicsParams(seed=0, t_br=3)).config
        assert 0 < planted.planted_count < planted.n_cells
        calls = self.count_labelings(monkeypatch)
        for config in (result.config, planted):
            calls.clear()
            is_nash(config, field, part, 0.0)
            cut = sum(not local_non_cut(ring_of(config.cells, y, x), 4)
                      for y, x in zip(*np.nonzero(config.cells)))
            assert len(calls) == 1 + (cut > 0)
        assert cut > 0 and len(calls) < 1 + planted.planted_count

    def test_many_player_scan_labels_boxes_in_strips(self, monkeypatch):
        # Every player's box cells share the strips.  Each of the 1,024 trees
        # of the 32x32, m = 1024 grid is a near tie whose box is the whole
        # grid: 29 such boxes fill a strip, so 36 strips.  A scorer per
        # player labeled these grids 1,025 and 33 times.
        want = {(32, 100.0, 1024, 0.0): 1 + 36, (16, 10.0, 256, 0.25): 2}
        grids = {key: final_grid(*key) for key in want}
        calls = self.count_labelings(monkeypatch)
        for key, (field, part, config) in grids.items():
            calls.clear()
            is_nash(config, field, part, key[3])
            assert len(calls) == want[key], key

    def test_visit_reuses_callers_labeling(self, monkeypatch):
        # A 16-cell player's visit scores every strategy against the grid
        # with its cells cleared: one labeling, none when those cells are
        # already empty, since the caller's labeling is then the exterior's.
        field = build_gaussian_field(8, 8, 10.0)
        part = PlayerPartition.square_tiling(8, 4)
        base = (np.random.default_rng(0).random((8, 8)) < 0.5).astype(np.uint8)
        rows, cols = part.player_cells(1)
        empty = base.copy()
        empty[rows, cols] = 0
        calls = self.count_labelings(monkeypatch)
        for cells, want in ((base, 1), (empty, 0)):
            labeling = label_cells(cells, field.p, 4)
            before = len(calls)
            opt_sampled_fp(1, cells, field, part, 0.0, 20, np.random.default_rng(3), 4,
                           labeling)
            assert len(calls) - before == want


class TestFlipGainOracle:
    """One-cell gains against differences of brute-force utilities, on seeded
    random grids and strike fields; every cell is scored, boundary cells
    included."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(11)
        for width, height, make_part in (
                (8, 8, lambda: PlayerPartition.square_tiling(8, 1)),
                (8, 8, lambda: PlayerPartition.square_tiling(8, 4)),
                (5, 5, lambda: PlayerPartition.per_cell(5, 5)),
                (9, 1, lambda: PlayerPartition.per_cell(9, 1)),
                (9, 1, lambda: PlayerPartition.single(9, 1))):
            for connectivity in (4, 8):
                for cost in (0.0, 0.3):
                    p = rng.random((height, width))
                    cells = (rng.random((height, width)) < 0.6).astype(np.uint8)
                    yield cells, LightningField(p / p.sum()), make_part(), connectivity, cost

    @staticmethod
    def brute_gain(cells, field, part, g, cost, connectivity):
        """Owner's utility with flat cell g planted minus with it empty."""
        y, x = divmod(g, cells.shape[1])
        with_tree, without = cells.copy(), cells.copy()
        with_tree[y, x], without[y, x] = 1, 0
        owner = int(part.owner[y, x])
        return (brute_force_player_utility(with_tree, field.p, part.owner, owner, cost,
                                           connectivity)
                - brute_force_player_utility(without, field.p, part.owner, owner, cost,
                                             connectivity))

    def test_plant_gains_match_brute_force(self):
        for cells, field, part, connectivity, cost in self.cases():
            labeling = label_cells(cells, field.p, connectivity)
            for i in range(part.m):
                rows, cols = part.player_cells(i)
                s = cells[rows, cols]
                scorer = dynamics.PlayerScorer(i, cells, field, part, cost, connectivity,
                                               labeling)
                gains = scorer.plant_gains(s, range(s.size))
                for j, gain in enumerate(gains):
                    g = int(rows[j]) * cells.shape[1] + int(cols[j])
                    want = self.brute_gain(cells, field, part, g, cost, connectivity)
                    assert abs(gain - want) <= 1e-12, (part.m, connectivity, cost, g)

    def test_is_nash_max_gain_is_largest_flip_gain(self):
        for cells, field, part, connectivity, cost in self.cases():
            flip = [self.brute_gain(cells, field, part, g, cost, connectivity)
                    * (-1 if cells.flat[g] else 1) for g in range(cells.size)]
            check = is_nash(GridConfig(cells), field, part, cost, connectivity=connectivity)
            assert abs(check.max_gain - max(flip)) <= 1e-12
            i, (kind, g) = check.witness
            assert kind == "flip" and i == part.owner.flat[g]
            assert abs(flip[g] - check.max_gain) <= 1e-12
            assert check.is_nash == (check.max_gain <= 1e-9)


class TestBoxRelabel:
    """Removal gains priced on a relabel of the component's bounding box
    equal, bit for bit, those read off a relabel of the whole grid."""

    @staticmethod
    def reference_gain(cells, field, part, y, x, cost, connectivity):
        """_plant_gain over the distinct components next to (y, x) in the
        labeling of the whole grid with that cell cleared."""
        cleared = cells.copy()
        cleared[y, x] = 0
        labeling = label_cells(cleared, field.p, connectivity)
        labels = labeling.labels
        own = np.bincount(labels[part.owner == part.owner[y, x]],
                          minlength=labeling.n_components + 1)[1:]
        height, width = cells.shape
        neigh = []
        for dy, dx in dynamics._OFFSETS[:connectivity]:
            ny, nx = y + dy, x + dx
            if 0 <= ny < height and 0 <= nx < width:
                lab = int(labels[ny, nx])
                if lab and lab not in neigh:
                    neigh.append(lab)
        return dynamics._plant_gain(float(field.p[y, x]),
                                    [(float(labeling.masses[lab - 1]), int(own[lab - 1]))
                                     for lab in neigh], cost)

    @staticmethod
    def arms(edge, y, x, connectivity, n_arms, length=3):
        """A tree at (y, x) with n_arms straight arms of trees, orthogonal
        under 4-connectivity and diagonal under 8, which touch one another
        only through it."""
        steps = (((0, 1), (1, 0), (0, -1), (-1, 0)) if connectivity == 4
                 else ((1, 1), (1, -1), (-1, -1), (-1, 1)))
        cells = np.zeros((edge, edge), dtype=np.uint8)
        cells[y, x] = 1
        for dy, dx in steps[:n_arms]:
            for k in range(1, length + 1):
                if 0 <= y + k * dy < edge and 0 <= x + k * dx < edge:
                    cells[y + k * dy, x + k * dx] = 1
        return cells

    def cases(self):
        """(name, cells, partition, the cell (y, x), the pieces its removal
        leaves, connectivity)."""
        for connectivity in (4, 8):
            # A ring around a 3x3 hole: each side's middle tree is a local
            # cut cell, and the ring stays one component without it.
            ring = np.zeros((7, 7), dtype=np.uint8)
            ring[1:6, 1:6] = 1
            ring[2:5, 2:5] = 0
            yield "ring", ring, PlayerPartition.single(7, 7), (1, 3), 1, connectivity
            for n_arms in (2, 3, 4):
                yield (f"cut_{n_arms}", self.arms(9, 4, 4, connectivity, n_arms),
                       PlayerPartition.single(9, 9), (4, 4), n_arms, connectivity)
            # Trees along the top and left edges, cut on the top edge.
            edge = np.zeros((8, 8), dtype=np.uint8)
            edge[0, :6] = edge[:5, 0] = 1
            yield "edge", edge, PlayerPartition.single(8, 8), (0, 3), 2, connectivity
            # Four arms from player 0's corner into the three other
            # players' quarters.
            yield ("shared", self.arms(8, 3, 3, connectivity, 4, length=4),
                   PlayerPartition.square_tiling(8, 4), (3, 3), 4, connectivity)
            lone = np.zeros((5, 5), dtype=np.uint8)
            lone[2, 3] = 1
            yield "isolated", lone, PlayerPartition.single(5, 5), (2, 3), 0, connectivity

    def test_box_gains_equal_whole_grid_relabel(self, monkeypatch):
        rng = np.random.default_rng(21)
        for name, cells, part, (y, x), n_pieces, connectivity in self.cases():
            p = rng.random(cells.shape)
            field = LightningField(p / p.sum())
            cleared = cells.copy()
            cleared[y, x] = 0
            labels = label_cells(cleared, field.p, connectivity).labels
            assert len({labels[y + dy, x + dx] for dy, dx in dynamics._OFFSETS[:connectivity]
                        if 0 <= y + dy < cells.shape[0] and 0 <= x + dx < cells.shape[1]}
                       - {0}) == n_pieces, name
            if name != "isolated":
                assert not dynamics.not_cut_table(connectivity)[ring_of(cells, y, x)], name
            i = int(part.owner[y, x])
            rows, cols = part.player_cells(i)
            s = cells[rows, cols]
            j = int(np.flatnonzero((rows == y) & (cols == x))[0])
            labeling = label_cells(cells, field.p, connectivity)
            # An infinite guard sends the isolated tree, which is no local
            # cut cell, through the box relabel too.
            for guard in (dynamics._CUT_GUARD, np.inf):
                monkeypatch.setattr(dynamics, "_CUT_GUARD", guard)
                for cost in (0.0, 0.3):
                    want = self.reference_gain(cells, field, part, y, x, cost, connectivity)
                    scorer = dynamics.PlayerScorer(i, cells, field, part, cost, connectivity,
                                                   labeling)
                    assert scorer.plant_gains(s, [j])[0] == want, (name, connectivity, cost)
                monkeypatch.undo()

    def test_every_removal_equals_whole_grid_relabel(self, monkeypatch):
        # With an infinite guard every tree of the flip-gain oracle's random
        # grids is priced on a box relabel.
        monkeypatch.setattr(dynamics, "_CUT_GUARD", np.inf)
        for cells, field, part, connectivity, cost in TestFlipGainOracle.cases():
            labeling = label_cells(cells, field.p, connectivity)
            for i in range(part.m):
                rows, cols = part.player_cells(i)
                s = cells[rows, cols]
                scorer = dynamics.PlayerScorer(i, cells, field, part, cost, connectivity,
                                               labeling)
                gains = scorer.plant_gains(s, range(s.size))
                for j in np.flatnonzero(s):
                    want = self.reference_gain(cells, field, part, int(rows[j]), int(cols[j]),
                                               cost, connectivity)
                    assert gains[j] == want, (part.m, connectivity, cost, j)

    def test_batched_box_gains_equal_whole_grid_relabel(self, monkeypatch):
        # An infinite guard sends every tree of a one-pass batch through
        # _box_gains, and a 48-cell strip cap spreads each batch over several
        # strips, most of several boxes, some of one box larger than the cap.
        cap = 48
        monkeypatch.setattr(dynamics, "_CUT_GUARD", np.inf)
        monkeypatch.setattr(dynamics, "_STRIP_CELLS", cap)
        strips = []
        label_strip = dynamics._label_strip

        def recorded(labeling, p, owner, cells, boxes, cost, connectivity):
            strips[-1].append([(rows.stop - rows.start + 2) * (cols.stop - cols.start + 2)
                               for rows, cols in boxes])
            return label_strip(labeling, p, owner, cells, boxes, cost, connectivity)

        monkeypatch.setattr(dynamics, "_label_strip", recorded)
        rng = np.random.default_rng(41)
        for m in (1, 4):
            part = PlayerPartition.square_tiling(12, m)
            for connectivity in (4, 8):
                for cost in (0.0, 0.3):
                    p = rng.random((12, 12))
                    field = LightningField(p / p.sum())
                    cells = (rng.random((12, 12)) < 0.4).astype(np.uint8)
                    labeling = label_cells(cells, field.p, connectivity)
                    for i in range(m):
                        rows, cols = part.player_cells(i)
                        s = cells[rows, cols]
                        assert s.size >= dynamics._ONE_PASS_MIN_CELLS
                        scorer = dynamics.PlayerScorer(i, cells, field, part, cost,
                                                       connectivity, labeling)
                        strips.append([])
                        gains = scorer.plant_gains(s, range(s.size))
                        for j in np.flatnonzero(s):
                            want = self.reference_gain(cells, field, part, int(rows[j]),
                                                       int(cols[j]), cost, connectivity)
                            assert gains[j] == want, (m, connectivity, cost, i, j)
        assert max(len(batch) for batch in strips) > 1
        assert any(len(boxes) > 1 for batch in strips for boxes in batch)
        assert any(boxes[0] > cap for batch in strips for boxes in batch if len(boxes) == 1)

    def test_box_gains_are_memoized_per_strategy(self, monkeypatch):
        # The strategy held, priced again, reads its removal gains off the
        # scorer; the caller's labeling is that strategy's.  The 49 cells are
        # one one-pass batch, whose 16 local cut cells' boxes share one strip:
        # one labeling.
        _, cells, part, _, _, connectivity = next(self.cases())
        field = build_uniform_field(*cells.shape)
        scorer = dynamics.PlayerScorer(0, cells, field, part, 0.0, connectivity,
                                       label_cells(cells, field.p, connectivity))
        s = cells.ravel()
        assert s.size >= dynamics._ONE_PASS_MIN_CELLS
        assert sum(
            not dynamics.not_cut_table(connectivity)[ring_of(cells, *divmod(g, cells.shape[1]))]
            for g in np.flatnonzero(s)) == 16
        calls = TestLabelingCounts.count_labelings(monkeypatch)
        first = scorer.plant_gains(s, range(s.size))
        assert len(calls) == 1
        calls.clear()
        assert np.array_equal(scorer.plant_gains(s, range(s.size)), first)
        assert calls == []


class TestHeldLabeling:
    """A PlayerScorer holds one labeling: the caller's, then that of the
    strategy it last priced or scored."""

    def test_revisits_equal_a_fresh_scorer(self):
        # Strategies A, B, A, C, B on one scorer, A the base strategy: every
        # revisit relabels, and its gains and utility must equal those of a
        # fresh scorer for that strategy.  The 64-cell player prices its
        # batches in one pass, the 16-cell players cell by cell.
        rng = np.random.default_rng(31)
        for part in (PlayerPartition.single(8, 8), PlayerPartition.square_tiling(8, 4)):
            for connectivity in (4, 8):
                for cost in (0.0, 0.3):
                    p = rng.random((8, 8))
                    field = LightningField(p / p.sum())
                    cells = (rng.random((8, 8)) < 0.6).astype(np.uint8)
                    labeling = label_cells(cells, field.p, connectivity)
                    for i in range(part.m):
                        rows, cols = part.player_cells(i)
                        a = cells[rows, cols]
                        b, c = ((rng.random(a.size) < 0.6).astype(np.uint8) for _ in range(2))
                        args = (i, cells, field, part, cost, connectivity, labeling)
                        scorer = dynamics.PlayerScorer(*args)
                        for k, s in enumerate((a, b, a, c, b)):
                            fresh = dynamics.PlayerScorer(*args)
                            want = (fresh.plant_gains(s, range(s.size)), fresh.utility(s))
                            # Score first on every other visit, price first on the rest.
                            if k % 2:
                                util = scorer.utility(s)
                                gains = scorer.plant_gains(s, range(s.size))
                            else:
                                gains = scorer.plant_gains(s, range(s.size))
                                util = scorer.utility(s)
                            assert (gains == want[0]).all(), (part.m, connectivity, cost, i, k)
                            assert util == want[1], (part.m, connectivity, cost, i, k)

    def test_relabels_only_a_new_strategy(self, monkeypatch):
        # Empty cells are priced off the held labeling alone, so every
        # labeling counted is one of a whole strategy.
        field = build_gaussian_field(8, 8, 10.0)
        part = PlayerPartition.single(8, 8)
        rng = np.random.default_rng(2)
        base, s, t = ((rng.random((8, 8)) < 0.5).astype(np.uint8).ravel() for _ in range(3))
        scorer = dynamics.PlayerScorer(0, base.reshape(8, 8), field, part, 0.0, 4,
                                       label_cells(base.reshape(8, 8), field.p, 4))
        calls = TestLabelingCounts.count_labelings(monkeypatch)

        def price(strategy):
            scorer.plant_gains(strategy, np.flatnonzero(strategy == 0))

        price(base)
        assert calls == []
        for strategy in (s, t, s):
            price(strategy)
        assert len(calls) == 3
        price(s)
        scorer.utility(s)
        assert len(calls) == 3


class TestOnePassGains:
    """A batch priced in one numpy pass gets the cell loop's gains, bit for
    bit, plant_gains takes the pass from _ONE_PASS_MIN_CELLS cells up, and
    the two paths share one memo of box gains."""

    @staticmethod
    def cases():
        # Square tilings, then one player on grids whose height and width
        # differ, lines included: a row stride of the wrong side of the grid
        # reads wrong neighbors only there.
        rng = np.random.default_rng(41)
        grids = [(edge, edge, PlayerPartition.square_tiling(edge, m))
                 for edge, m in ((8, 1), (8, 4), (16, 1))]
        grids += [(height, width, PlayerPartition.single(width, height))
                  for height, width in ((12, 5), (5, 12), (25, 1), (1, 25))]
        for height, width, part in grids:
            for connectivity in (4, 8):
                for cost in (0.0, 0.3):
                    for density in (0.4, 0.8):
                        p = rng.random((height, width))
                        cells = (rng.random((height, width)) < density).astype(np.uint8)
                        yield (cells, LightningField(p / p.sum()), part, connectivity, cost, rng)

    @staticmethod
    def batches(rows, cols, shape, rng, min_cells):
        """Every cell, the cells on the grid's boundary, and random batches
        on both sides of min_cells, the pass's smallest batch."""
        n = rows.size
        height, width = shape
        yield np.arange(n)
        yield np.flatnonzero((rows == 0) | (rows == height - 1) | (cols == 0) | (cols == width - 1))
        for size in (1, min_cells - 1, min_cells):
            if size <= n:
                yield np.sort(rng.choice(n, size, replace=False))

    def test_one_pass_equals_cell_loop(self, monkeypatch):
        min_cells = dynamics._ONE_PASS_MIN_CELLS
        for guard in (dynamics._CUT_GUARD, np.inf):
            monkeypatch.setattr(dynamics, "_CUT_GUARD", guard)
            for cells, field, part, connectivity, cost, rng in self.cases():
                labeling = label_cells(cells, field.p, connectivity)
                for i in range(part.m):
                    rows, cols = part.player_cells(i)
                    s = cells[rows, cols]
                    for js in self.batches(rows, cols, cells.shape, rng, min_cells):
                        got = []
                        # A scorer each, so neither path reads the other's box
                        # gains; each holds the caller's labeling, that of s.
                        # An infinite threshold takes the cell loop, 0 the pass.
                        for threshold in (np.inf, 0):
                            monkeypatch.setattr(dynamics, "_ONE_PASS_MIN_CELLS", threshold)
                            scorer = dynamics.PlayerScorer(i, cells, field, part, cost,
                                                           connectivity, labeling)
                            got.append(scorer.plant_gains(s, js))
                        assert (got[0] == got[1]).all(), (part.m, connectivity, cost, guard, i)
            monkeypatch.undo()

    def test_batch_size_selects_the_path(self, monkeypatch):
        taken = []
        cell_gains, read_gains = dynamics.PlayerScorer._cell_gains, dynamics._read_gains

        def cell_loop(self, s, js):
            taken.append("_cell_gains")
            return cell_gains(self, s, js)

        def one_pass(*args):
            taken.append("_read_gains")
            return read_gains(*args)

        monkeypatch.setattr(dynamics.PlayerScorer, "_cell_gains", cell_loop)
        monkeypatch.setattr(dynamics, "_read_gains", one_pass)
        cells = np.ones((8, 8), dtype=np.uint8)
        field = build_uniform_field(8, 8)
        part = PlayerPartition.single(8, 8)
        scorer = dynamics.PlayerScorer(0, cells, field, part, 0.0, 4,
                                       label_cells(cells, field.p, 4))
        for size in (1, dynamics._ONE_PASS_MIN_CELLS - 1, dynamics._ONE_PASS_MIN_CELLS, 64):
            scorer.plant_gains(cells.ravel(), range(size))
        assert taken == ["_cell_gains"] * 2 + ["_read_gains"] * 2

    def test_paths_share_the_box_memo(self, monkeypatch):
        # A ring around a 3x3 hole, whose 16 local cut cells under
        # 4-connectivity are its box cells.  Those the pass relabels in one
        # strip the cell loop reads off the memo, and those the cell loop
        # relabels, one box each, leave the pass no strip.
        cells = np.zeros((7, 7), dtype=np.uint8)
        cells[1:6, 1:6] = 1
        cells[2:5, 2:5] = 0
        part, connectivity = PlayerPartition.single(7, 7), 4
        field = build_uniform_field(7, 7)
        labeling = label_cells(cells, field.p, connectivity)
        s = cells.ravel()
        cut = [j for j in np.flatnonzero(s) if not dynamics.not_cut_table(connectivity)[
            ring_of(cells, *divmod(j, cells.shape[1]))]]
        assert len(cut) == 16
        size = dynamics._ONE_PASS_MIN_CELLS - 1
        small = [cut[k:k + size] for k in range(0, len(cut), size)]
        calls = TestLabelingCounts.count_labelings(monkeypatch)
        scorer = dynamics.PlayerScorer(0, cells, field, part, 0.0, connectivity, labeling)
        want = scorer.plant_gains(s, range(s.size))
        assert len(calls) == 1
        for js in small:
            assert np.array_equal(scorer.plant_gains(s, js), want[js])
        assert len(calls) == 1
        calls.clear()
        scorer = dynamics.PlayerScorer(0, cells, field, part, 0.0, connectivity, labeling)
        for js in small:
            assert np.array_equal(scorer.plant_gains(s, js), want[js])
        assert len(calls) == len(cut)
        assert np.array_equal(scorer.plant_gains(s, range(s.size)), want)
        assert len(calls) == len(cut)


class TestCrossPlayerPass:
    """is_nash prices every player's flips in one pass: its flip gains,
    max_gain, witness and profitable flips equal, with ==, those of a scan
    that prices each player's flips with a PlayerScorer of their own."""

    @staticmethod
    def per_player_flip_gains(config, field, part, cost, connectivity):
        labeling = label_cells(config.cells, field.p, connectivity)
        flip = np.empty((config.height, config.width))
        for i in range(part.m):
            scorer = dynamics.PlayerScorer(i, config.cells, field, part, cost, connectivity,
                                           labeling)
            s = config.cells[scorer.rows, scorer.cols]
            planting = scorer.plant_gains(s, np.arange(s.size))
            flip[scorer.rows, scorer.cols] = np.where(s, -planting, planting)
        return flip.ravel()

    @staticmethod
    def partitions():
        for edge, ms in ((8, (1, 4, 16, 64)), (16, (1, 4, 16, 64, 256))):
            for m in ms:
                yield PlayerPartition.square_tiling(edge, m)
        for width, height in ((6, 5), (12, 1), (1, 12)):
            yield PlayerPartition.per_cell(width, height)
        # Player 1 holds a ring; player 0 holds the cells outside and inside
        # it, two pieces.
        owner = np.zeros((9, 9), dtype=np.int64)
        owner[2:7, 2:7] = 1
        owner[3:6, 3:6] = 0
        yield PlayerPartition(owner, 2)

    def test_one_pass_equals_per_player_scan(self, monkeypatch):
        rng = np.random.default_rng(51)
        sparse = []
        for guard in (dynamics._CUT_GUARD, np.inf):
            monkeypatch.setattr(dynamics, "_CUT_GUARD", guard)
            for part in self.partitions():
                for connectivity in (4, 8):
                    for cost in (0.0, 0.3):
                        for density in (0.3, 0.6, 0.9):
                            p = rng.random((part.height, part.width))
                            field = LightningField(p / p.sum())
                            config = GridConfig((rng.random(p.shape) < density).astype(np.uint8))
                            want = self.per_player_flip_gains(config, field, part, cost,
                                                              connectivity)
                            labeling = label_cells(config.cells, field.p, connectivity)
                            sparse.append(isinstance(dynamics._tree_counts(labeling, part),
                                                     dynamics._PairCounts))
                            got = dynamics._flip_gains(config, field, part, cost, connectivity,
                                                       labeling)
                            case = (part.width, part.height, part.m, connectivity, cost,
                                    density, guard)
                            assert (got == want).all(), case
                            g = int(np.argmax(want))
                            check = is_nash(config, field, part, cost, connectivity=connectivity)
                            assert (repr(check.max_gain), check.witness,
                                    check.profitable_flips) == (
                                repr(float(want[g])), (int(part.owner.flat[g]), ("flip", g)),
                                int((want > dynamics.NASH_TOL).sum())), case
            monkeypatch.undo()
        # Both forms of the (component, owner) tree counts were read.
        assert any(sparse) and not all(sparse)

    def test_tree_counts_stay_within_the_grid(self):
        # One player per cell on a 128x128 grid: a dense table would hold
        # (components + 1) * 16384 counts; the sparse one holds one per tree.
        part = PlayerPartition.per_cell(128, 128)
        cells = (np.random.default_rng(7).random((128, 128)) < 0.5).astype(np.uint8)
        labeling = label_cells(cells, build_uniform_field(128, 128).p, 4)
        counts = dynamics._tree_counts(labeling, part)
        assert isinstance(counts, dynamics._PairCounts)
        assert counts.keys.size == cells.sum() and (counts.counts == 1).all()
        # Player o's one tree is in component k when cell o is labeled k.
        labels = labeling.labels.ravel()
        for owners in (part.owner.ravel(), np.roll(part.owner.ravel(), 129)):
            got = counts[labels[:, None], owners[:, None]][:, 0]
            assert (got == ((labels[owners] == labels) & (labels > 0))).all()


class TestBlockScorer:
    """The small-player visit kernel: utilities and one-cell gains off a
    frozen exterior, its exact fallbacks and its batched draws."""

    @staticmethod
    def cases():
        yield from TestFlipGainOracle.cases()
        rng = np.random.default_rng(12)
        for connectivity in (4, 8):
            p = rng.random((5, 5))
            field = LightningField(p / p.sum())
            # Player 1 owns the centre 3x3 block; one exterior component
            # rings it and touches it on all four sides.
            owner = np.zeros((5, 5), dtype=np.int64)
            owner[1:4, 1:4] = 1
            ring = np.ones((5, 5), dtype=np.uint8)
            ring[1:4, 1:4] = rng.random((3, 3)) < 0.5
            yield ring, field, PlayerPartition(owner, 2), connectivity, 0.1
            # Player 1 owns the middle column; the trees left and right of
            # it join only through the block.
            owner = np.zeros((5, 5), dtype=np.int64)
            owner[:, 2] = 1
            sides = np.zeros((5, 5), dtype=np.uint8)
            sides[:, 1] = sides[:, 3] = 1
            sides[1:4, 2] = 1, 0, 1
            yield sides, field, PlayerPartition(owner, 2), connectivity, 0.0
            # One-cell players on a cross: the centre tree is a cut cell,
            # the arm ends are not.
            cross = np.zeros((5, 5), dtype=np.uint8)
            cross[2, :] = cross[:, 2] = 1
            yield cross, field, PlayerPartition.per_cell(5, 5), connectivity, 0.0

    @staticmethod
    def with_strategy(cells, part, i, s):
        rows, cols = part.player_cells(i)
        out = cells.copy()
        out[rows, cols] = s
        return out

    def test_utilities_and_gains_match_brute_force(self):
        rng = np.random.default_rng(13)
        for cells, field, part, connectivity, cost in self.cases():
            labeling = label_cells(cells, field.p, connectivity)
            for i in range(part.m):
                n = part.n_player_cells(i)
                if n > dynamics._BLOCK_MAX_CELLS:
                    continue
                rows, cols = part.player_cells(i)
                current = cells[rows, cols]
                others = [current] + [(rng.random(n) < 0.5).astype(np.uint8) for _ in range(2)]
                scorer = dynamics.BlockScorer(i, cells, field, part, cost, connectivity,
                                              labeling)
                assert np.array_equal(scorer.strategy(scorer.start), current)
                for s in others:
                    grid = self.with_strategy(cells, part, i, s)
                    mask = sum(int(bit) << j for j, bit in enumerate(s))
                    want = brute_force_player_utility(grid, field.p, part.owner, i, cost,
                                                      connectivity)
                    assert abs(scorer.utility(mask) - want) <= 1e-12, (part.m, i)
                    for j in range(n):
                        g = int(rows[j]) * cells.shape[1] + int(cols[j])
                        gain = TestFlipGainOracle.brute_gain(grid, field, part, g, cost,
                                                             connectivity)
                        assert abs(scorer.plant_gain(mask, j) - gain) <= 1e-12, (i, j)

    def test_exact_fallback_does_not_change_runs(self, monkeypatch):
        # With an infinite guard every gain and every utility comparison of
        # the kernel is decided by a PlayerScorer; the runs must be
        # bit-identical to the default ones, which label far less.
        field = build_gaussian_field(16, 16, 10.0)
        for m in (16, 256):
            part = PlayerPartition.square_tiling(16, m)
            for connectivity in (4, 8):
                params = DynamicsParams(seed=5, t_br=3, connectivity=connectivity)
                runs, labelings = [], []
                for guard in (dynamics._CUT_GUARD, np.inf):
                    monkeypatch.setattr(dynamics, "_CUT_GUARD", guard)
                    calls = TestLabelingCounts.count_labelings(monkeypatch)
                    runs.append(best_response_dynamics(field, part, 0.1, params))
                    labelings.append(len(calls))
                    monkeypatch.undo()
                a, b = runs
                assert labelings[0] < labelings[1], (m, connectivity)
                assert a.config == b.config
                assert a.trace == b.trace
                assert a.welfare_trajectory == b.welfare_trajectory
                assert np.array_equal(a.player_utilities, b.player_utilities)

    def test_near_ties_label_each_strategy_once(self, monkeypatch):
        # With an infinite guard every comparison goes to the PlayerScorer,
        # which keeps each strategy's utility: three comparisons of two
        # strategies other than the base one label each of them once.
        field = build_gaussian_field(8, 8, 10.0)
        part = PlayerPartition.square_tiling(8, 4)
        cells = (np.random.default_rng(0).random((8, 8)) < 0.5).astype(np.uint8)
        scorer = dynamics.BlockScorer(1, cells, field, part, 0.0, 4,
                                      label_cells(cells, field.p, 4))
        s, t = scorer.start ^ 1, scorer.start ^ 6
        want = scorer.improves(s, t), scorer.improves(t, s)
        monkeypatch.setattr(dynamics, "_CUT_GUARD", np.inf)
        calls = TestLabelingCounts.count_labelings(monkeypatch)
        got = scorer.improves(s, t), scorer.improves(t, s), scorer.improves(s, t)
        assert got == (*want, want[0])
        assert len(calls) == 2

    class ZeroAt:
        """A Generator stand-in on a PCG64 stream (gen) whose k-th double is
        replaced by an exact 0.0."""

        def __init__(self, seed: int, k: int) -> None:
            self.gen, self.k, self.drawn = np.random.default_rng(seed), k, 0

        def random(self, size=None):
            out = self.gen.random(1 if size is None else size)
            if self.drawn <= self.k < self.drawn + out.size:
                out[self.k - self.drawn] = 0.0
            self.drawn += out.size
            return out if size is not None else float(out[0])

        def integers(self, *args, **kwargs):
            return self.gen.integers(*args, **kwargs)

    @pytest.mark.parametrize("case", ["block_16_cells", "scorer_64_cells",
                                      "settled_one_cell"])
    def test_zero_reference_uniform_changes_nothing(self, monkeypatch, case):
        # A later iteration's reference is the previous candidate whatever
        # its uniforms: an exact 0.0 among them must leave the outcome and
        # the PCG64 state as they are with no 0.0.
        if case == "settled_one_cell":
            # With p_player = 1 and t_opt = 3, visit v of a per-cell run
            # draws doubles 7v .. 7v + 6: p_player's, then the visit's, of
            # which 7v + 3 and 7v + 5 are later references' uniforms.  No
            # grid change in the last two rounds leaves every visit of the
            # last round settled, so none may call opt_sampled_fp.
            field = build_gaussian_field(4, 4, 10.0)
            part = PlayerPartition.per_cell(4, 4)
            params = DynamicsParams(seed=0, t_br=8, t_opt=3, p_player=1.0)

            def run(k):
                rng = self.ZeroAt(0, k)
                monkeypatch.setattr(np.random, "Generator", lambda _: rng)
                calls = TestBestResponseDynamics.record_visits(monkeypatch)
                result = best_response_dynamics(field, part, 0.0, params)
                monkeypatch.undo()
                return ((result.config, result.trace, result.changes_per_round, len(calls)),
                        rng.gen.bit_generator.state)

            plain, plain_state = run(-1)
            assert plain[2][-2:] == [0, 0]
            ks = [7 * v + d for v in range(7 * 16, 8 * 16) for d in (3, 5)]
        else:
            # Doubles 2tn .. 2tn + n - 1 are iteration t's reference
            # uniforms; 16 cells go through opt_sampled_fp's BlockScorer
            # loop, 64 through its PlayerScorer loop.
            edge, t_opt = (8, 4) if case == "block_16_cells" else (16, 3)
            field = build_gaussian_field(edge, edge, 10.0)
            part = PlayerPartition.square_tiling(edge, 4)
            base = (np.random.default_rng(0).random((edge, edge)) < 0.5).astype(np.uint8)
            n = part.n_player_cells(2)
            assert (n <= dynamics._BLOCK_MAX_CELLS) == (case == "block_16_cells")
            labeling = label_cells(base, field.p, 4)

            def run(k):
                rng = self.ZeroAt(6, k)
                s = opt_sampled_fp(2, base, field, part, 0.0, t_opt, rng, 4, labeling)
                return s.tolist(), rng.gen.bit_generator.state

            plain, plain_state = run(-1)
            ks = [k for t in range(1, t_opt) for k in range(2 * t * n, (2 * t + 1) * n)]
        for k in ks:
            assert run(k) == (plain, plain_state), k


class TestCutTable:
    """The 3x3 local cut test that lets a removal gain skip the relabel."""

    def test_table_matches_flood_fill(self):
        for connectivity in (4, 8):
            table = dynamics.not_cut_table(connectivity)
            assert len(table) == 256
            for ring in range(256):
                assert table[ring] == local_non_cut(ring, connectivity), (connectivity, ring)

    def test_non_cut_cells_do_not_split_components(self):
        # Clearing a planted cell the table calls non-cut leaves all its
        # planted neighbours in one component of the whole grid.
        rng = np.random.default_rng(5)
        p = np.ones((7, 9)) / 63
        for connectivity in (4, 8):
            table = dynamics.not_cut_table(connectivity)
            steps = dynamics._OFFSETS[:connectivity]
            tested = cut = 0
            for density in (0.3, 0.5, 0.7, 0.9):
                cells = (rng.random((7, 9)) < density).astype(np.uint8)
                for y, x in zip(*np.nonzero(cells)):
                    if not table[ring_of(cells, y, x)]:
                        cut += 1
                        continue
                    cleared = cells.copy()
                    cleared[y, x] = 0
                    labels = label_cells(cleared, p, connectivity).labels
                    neigh = {labels[y + dy, x + dx] for dy, dx in steps
                             if 0 <= y + dy < 7 and 0 <= x + dx < 9 and cleared[y + dy, x + dx]}
                    assert len(neigh) <= 1, (connectivity, density, y, x)
                    tested += len(neigh)
            assert tested > 0 and cut > 0


class TestIsNash:
    def test_full_grid_m_n_cost_zero_is_nash(self):
        field = build_uniform_field(4, 4)
        part = PlayerPartition.per_cell(4, 4)
        check = is_nash(GridConfig.full(4, 4), field, part, 0.0)
        assert check.is_nash and check.max_gain <= 1e-9

    def test_one_empty_cell_is_nash(self):
        field = build_uniform_field(4, 4)
        part = PlayerPartition.per_cell(4, 4)
        cells = np.ones((4, 4), dtype=np.uint8)
        cells[1, 2] = 0
        assert is_nash(GridConfig(cells), field, part, 0.0).is_nash

    def test_two_empty_corners_not_nash(self):
        # With two fire breaks the components have mass < 1, so the empty
        # players gain by planting.
        field = build_uniform_field(3, 3)
        part = PlayerPartition.per_cell(3, 3)
        cells = np.ones((3, 3), dtype=np.uint8)
        cells[0, 0] = cells[2, 2] = 0
        check = is_nash(GridConfig(cells), field, part, 0.0)
        assert not check.is_nash
        assert check.max_gain > 0

    def test_profitable_flips_counts_gaining_cells(self):
        for cells, field, part, connectivity, cost in TestFlipGainOracle.cases():
            flip = [TestFlipGainOracle.brute_gain(cells, field, part, g, cost, connectivity)
                    * (-1 if cells.flat[g] else 1) for g in range(cells.size)]
            check = is_nash(GridConfig(cells), field, part, cost, connectivity=connectivity)
            assert check.profitable_flips == sum(gain > 1e-9 for gain in flip)

    def test_exhaustive_agrees_on_small_grid(self):
        field = build_gaussian_field(4, 4, 10.0)
        part = PlayerPartition.square_tiling(4, 4)
        result = best_response_dynamics(field, part, 0.25,
                                        DynamicsParams(seed=0, t_br=10, t_opt=30))
        single = is_nash(result.config, field, part, 0.25, scope="single_flip")
        exhaustive = is_nash(result.config, field, part, 0.25, scope="exhaustive")
        # Exhaustive scope can only find weakly larger deviations.
        assert exhaustive.max_gain >= single.max_gain - 1e-12

    def test_exhaustive_max_gain_matches_brute_force(self):
        # Every strategy of every 4-cell player, utilities straight from the
        # definition: the largest gain to rounding, and a witness attaining it.
        rng = np.random.default_rng(17)
        part = PlayerPartition.square_tiling(4, 4)
        for connectivity in (4, 8):
            for cost in (0.0, 0.3):
                for density in (0.3, 0.7):
                    p = rng.random((4, 4))
                    field = LightningField(p / p.sum())
                    cells = (rng.random((4, 4)) < density).astype(np.uint8)
                    check = is_nash(GridConfig(cells), field, part, cost, scope="exhaustive",
                                    connectivity=connectivity)

                    def gain(i, bits):
                        grid = TestBlockScorer.with_strategy(cells, part, i, bits)
                        return (brute_force_player_utility(grid, field.p, part.owner, i, cost,
                                                           connectivity)
                                - brute_force_player_utility(cells, field.p, part.owner, i,
                                                             cost, connectivity))

                    best = max(gain(i, bits) for i in range(4)
                               for bits in np.ndindex(2, 2, 2, 2))
                    assert abs(check.max_gain - best) <= 1e-12, (connectivity, cost)
                    assert abs(gain(*check.witness) - best) <= 1e-12, (connectivity, cost)

    # repr(max_gain) and witness of the exhaustive scan of the final grid of
    # an 8x8, v = 10, m = 4 run, keyed by (seed, connectivity, cost).
    GOLDEN_EXHAUSTIVE = {
        (0, 8, 0.25): ("0.37725737623427946",
                       (1, (0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 0, 0, 0, 0))),
        (2, 8, 0.25): ("0.10947910214616563",
                       (0, (1, 1, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 0, 1))),
        (1, 4, 0.0): ("0.021355685691114346",
                      (0, (1, 0, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 1))),
    }

    def test_golden_exhaustive_scans(self, monkeypatch):
        # A player's 2^16 strategies are scored off one frozen exterior, not
        # through a labeling each: the scan labels fewer times than one
        # player has strategies.
        field = build_gaussian_field(8, 8, 10.0)
        part = PlayerPartition.square_tiling(8, 4)
        for (seed, connectivity, cost), pinned in self.GOLDEN_EXHAUSTIVE.items():
            params = DynamicsParams(seed=seed, connectivity=connectivity)
            config = best_response_dynamics(field, part, cost, params).config
            calls = TestLabelingCounts.count_labelings(monkeypatch)
            check = is_nash(config, field, part, cost, scope="exhaustive",
                            connectivity=connectivity)
            monkeypatch.undo()
            assert (repr(check.max_gain), check.witness) == pinned, seed
            assert not check.is_nash and check.profitable_flips is None
            assert len(calls) < 2 ** 16, seed

    def test_exhaustive_scan_keeps_only_the_running_best(self, monkeypatch):
        # Each BlockScorer of the scan ends with one memo entry, the best, not
        # one per strategy; max_gain and the witness are the golden ones.
        field = build_gaussian_field(8, 8, 10.0)
        part = PlayerPartition.square_tiling(8, 4)
        config = best_response_dynamics(field, part, 0.0, DynamicsParams(seed=1)).config
        scorers = []

        class Recorded(dynamics.BlockScorer):
            def __init__(self, *args):
                super().__init__(*args)
                scorers.append(self)

        monkeypatch.setattr(dynamics, "BlockScorer", Recorded)
        check = is_nash(config, field, part, 0.0, scope="exhaustive")
        assert (repr(check.max_gain), check.witness) == self.GOLDEN_EXHAUSTIVE[(1, 4, 0.0)]
        assert len(scorers) == part.m
        for scorer in scorers:
            assert len(scorer.memo) == len(scorer.utilities) == 1

    def test_exhaustive_refused_for_large_players(self):
        field = build_uniform_field(8, 8)
        part = PlayerPartition.single(8, 8)
        with pytest.raises(ValueError):
            is_nash(GridConfig.empty(8, 8), field, part, 0.0, scope="exhaustive")

    @pytest.mark.parametrize("cost", [np.nan, np.inf, -0.5])
    def test_non_finite_or_negative_cost_rejected(self, cost):
        field = build_uniform_field(2, 2)
        part = PlayerPartition.per_cell(2, 2)
        with pytest.raises(ValueError, match=f"got {cost}"):
            is_nash(GridConfig.empty(2, 2), field, part, cost)

    def test_unknown_scope(self):
        field = build_uniform_field(2, 2)
        part = PlayerPartition.per_cell(2, 2)
        with pytest.raises(ValueError):
            is_nash(GridConfig.empty(2, 2), field, part, 0.0, scope="bogus")
