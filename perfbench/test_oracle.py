"""Tests of the benchmark's oracle and tracer on hand-worked cases.

    python3 -m pytest perfbench/test_oracle.py
"""

import math
import time
import types

import oracle
from tracer import Tracer

# 3x3 grid, uniform field p = 1/9:    owners:
#   1 1 0                             0 0 1
#   0 0 0                             0 0 1
#   0 0 1                             2 2 1
CELLS = [1, 1, 0,
         0, 0, 0,
         0, 0, 1]
OWNER = [0, 0, 1,
         0, 0, 1,
         2, 2, 1]
UNIFORM = [1 / 9] * 9


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def test_label_finds_components_in_row_major_order():
    labels, comps = oracle.label(CELLS, 3)
    assert labels == [1, 1, 0, 0, 0, 0, 0, 0, 2]
    assert comps == [[0, 1], [8]]


def test_diagonal_cells_join_only_under_8_connectivity():
    diagonal = [1, 0,
                0, 1]
    assert len(oracle.label(diagonal, 2, 4)[1]) == 2
    assert len(oracle.label(diagonal, 2, 8)[1]) == 1
    # Two components of mass 1/4 each, or one of mass 1/2.
    assert close(oracle.welfare(diagonal, [0.25] * 4, 2, 0.0, 4), 1.5)
    assert close(oracle.welfare(diagonal, [0.25] * 4, 2, 0.0, 8), 1.0)


def test_welfare_counts_surviving_trees_minus_cost():
    # {0, 1} survives with 7/9, {8} with 8/9: 2 * 7/9 + 8/9 = 22/9.
    assert close(oracle.welfare(CELLS, UNIFORM, 3, 0.0), 22 / 9)
    assert close(oracle.welfare(CELLS, UNIFORM, 3, 0.1), 22 / 9 - 0.3)


def test_utilities_split_welfare_by_owner():
    utils = oracle.utilities(CELLS, UNIFORM, 3, OWNER, 0.0)
    assert close(utils[0], 14 / 9)
    assert close(utils[1], 8 / 9)
    assert utils[2] == 0.0
    assert close(math.fsum(utils.values()), oracle.welfare(CELLS, UNIFORM, 3, 0.0))


def test_flip_gains_by_hand():
    # Planting 3 grows player 0's run to {0, 1, 3}, mass 3/9: 3 * 6/9 - 14/9.
    # Clearing 1 leaves {0}, mass 1/9: 8/9 - 14/9.
    # Planting 5 joins player 1's tree at 8: 2 * 7/9 - 8/9, less the cost.
    # Planting 2 joins player 0's run; player 1 gains 6/9 + 8/9 - 8/9.
    gains = oracle.flip_gains(CELLS, UNIFORM, 3, OWNER, [3, 1, 5, 2], 0.0)
    assert [round(g * 9, 9) for g in gains] == [4, -6, 6, 6]
    assert close(oracle.flip_gains(CELLS, UNIFORM, 3, OWNER, [5], 0.1)[0], 6 / 9 - 0.1)


def test_gaussian_field_is_normalized_and_centered():
    # 3x1 line, N = 3, v = 3: variance 1, weights exp(-d^2 / 2) from x = 0.
    p = oracle.gaussian_field(3, 1, 3.0)
    assert close(sum(p), 1.0)
    assert close(p[1] / p[0], math.exp(-0.5))
    assert close(p[2] / p[0], math.exp(-2.0))
    q = oracle.gaussian_field(5, 5, 10.0, center=(2, 2))
    assert max(range(25), key=q.__getitem__) == 12
    assert close(q[11], q[13]) and close(q[7], q[17])


def test_square_owner_numbers_squares_row_major():
    assert oracle.square_owner(4, 4) == [0, 0, 1, 1,
                                         0, 0, 1, 1,
                                         2, 2, 3, 3,
                                         2, 2, 3, 3]
    assert oracle.square_owner(2, 1) == [0, 0, 0, 0]


def test_fire_break_correlation_and_centroid():
    assert close(oracle.fire_break_correlation(CELLS, UNIFORM), 1.0)
    line = [0.4, 0.3, 0.2, 0.1]
    assert close(oracle.fire_break_correlation([0, 1, 1, 1], line), 0.4 / 0.25)
    assert oracle.fire_break_correlation([1, 1, 1, 1], line) is None
    # Empty cells (y, x): (0,2) (1,0) (1,1) (1,2) (2,0) (2,1).
    cx, cy = oracle.empty_centroid(CELLS, 3)
    assert close(cx, 1.0) and close(cy, 7 / 6)
    assert oracle.empty_centroid([1, 1], 2) is None


def test_cascade_percentile_includes_empty_strikes():
    # Sizes 0, 1 and 2 with masses 0.2, 0.1 and 0.7.
    cells, p = [1, 1, 0, 1], [0.4, 0.3, 0.2, 0.1]
    assert oracle.cascade_percentile(cells, p, 4, 0.1) == 0
    assert oracle.cascade_percentile(cells, p, 4, 0.25) == 1
    assert oracle.cascade_percentile(cells, p, 4, 0.9) == 2


def test_tracer_self_times_add_up_to_the_root():
    def leaf():
        time.sleep(0.002)

    module = types.SimpleNamespace(leaf=leaf)
    module.outer = lambda: [module.leaf() for _ in range(3)]
    original_leaf = module.leaf
    tracer = Tracer()
    tracer.wrap(module, "leaf", "leaf")
    tracer.wrap(module, "outer", "outer")
    with tracer.span("root"):
        module.outer()
        module.leaf()
    tracer.restore()
    assert module.leaf is original_leaf
    assert tracer.names == ["root", "outer", "leaf", "leaf", "leaf", "leaf"]
    assert tracer.parents == [-1, 0, 1, 1, 1, 0]
    assert tracer.nearest(4, {"outer", "root"}) == "outer"
    assert tracer.nearest(5, {"outer"}) is None
    summary = tracer.summary()
    assert summary["leaf"]["calls"] == 4
    assert summary["leaf"]["busy_s"] >= 0.008
    assert close(math.fsum(tracer.self_times()), tracer.durations()[0])
