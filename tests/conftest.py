"""Shared test oracles: deliberately naive reimplementations used to verify
the fast production code paths."""

import numpy as np


def flood_fill_labels(cells: np.ndarray, connectivity: int = 4) -> np.ndarray:
    """Naive BFS component labeling of planted cells; the oracle for
    label_components."""
    h, w = cells.shape
    if connectivity == 4:
        offs = ((0, 1), (0, -1), (1, 0), (-1, 0))
    else:
        offs = ((0, 1), (0, -1), (1, 0), (-1, 0),
                (1, 1), (1, -1), (-1, 1), (-1, -1))
    labels = np.zeros((h, w), dtype=np.int64)
    next_label = 0
    for y in range(h):
        for x in range(w):
            if cells[y, x] and not labels[y, x]:
                next_label += 1
                stack = [(y, x)]
                labels[y, x] = next_label
                while stack:
                    cy, cx = stack.pop()
                    for dy, dx in offs:
                        ny, nx = cy + dy, cx + dx
                        if (0 <= ny < h and 0 <= nx < w
                                and cells[ny, nx] and not labels[ny, nx]):
                            labels[ny, nx] = next_label
                            stack.append((ny, nx))
    return labels


def label_partition_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two labelings induce the same partition of the nonzero cells
    (label numbering may differ)."""
    if ((a > 0) != (b > 0)).any():
        return False
    pairs = {}
    for la, lb in zip(a.ravel().tolist(), b.ravel().tolist()):
        if la == 0:
            continue
        if pairs.setdefault(la, lb) != lb:
            return False
    return len(set(pairs.values())) == len(pairs)


def brute_force_player_utility(cells, p, owner, i, cost, connectivity=4):
    """Player utility straight from the definition: for each planted cell the
    player owns, survival probability = 1 - mass of its flood-fill component."""
    labels = flood_fill_labels(np.asarray(cells), connectivity)
    total = 0.0
    h, w = labels.shape
    for y in range(h):
        for x in range(w):
            if owner[y, x] == i and cells[y, x]:
                mass = p[labels == labels[y, x]].sum()
                total += (1.0 - mass) - cost
    return total


def naive_best_response_dynamics(field, part, cost, params):
    """The outer loop without its shortcuts: every updated visit goes through
    opt_sampled_fp and every trace row through cells_utility; the oracle for
    best_response_dynamics.  Returns (config, trace, welfare trajectory,
    player utilities, visits that changed the grid per round)."""
    from notforest.dynamics import default_iterations, opt_sampled_fp
    from notforest.grid import GridConfig, cells_utility, label_components, welfare

    n_i_max = max(part.n_player_cells(i) for i in range(part.m))
    t_br, t_opt = default_iterations(part.m, n_i_max)
    t_br = params.t_br if params.t_br is not None else t_br
    t_opt = params.t_opt if params.t_opt is not None else t_opt
    rng = np.random.Generator(np.random.PCG64(params.seed))
    cells = np.zeros((part.height, part.width), dtype=np.uint8)
    labeling = label_components(GridConfig(cells), field, params.connectivity)
    w = welfare(GridConfig(cells), field, cost, labeling)
    trace, trajectory, changes = [], [], []
    for rnd in range(t_br):
        changes.append(0)
        for i in range(part.m):
            updated = rng.random() <= params.p_player or part.m == 1
            rows, cols = part.player_cells(i)
            if updated:
                s_i = opt_sampled_fp(i, cells, field, part, cost, t_opt, rng,
                                     params.connectivity, labeling)
                if (s_i != cells[rows, cols]).any():
                    cells[rows, cols] = s_i
                    labeling = label_components(GridConfig(cells), field, params.connectivity)
                    w = welfare(GridConfig(cells), field, cost, labeling)
                    changes[-1] += 1
            trace.append((rnd, i, int(updated), cells_utility(labeling, rows, cols, cost), w))
        trajectory.append(w)
    utilities = np.array([cells_utility(labeling, *part.player_cells(i), cost)
                          for i in range(part.m)])
    return GridConfig(cells), trace, trajectory, utilities, changes


def naive_opt_sampled_fp(i, base_cells, field, part, cost, t_opt, rng, connectivity, labeling):
    """opt_sampled_fp as one loop of iterations, each making its own draws:
    the reference's uniforms (and on the first iteration its bits), then the
    selection uniforms.  Every player is scored by a PlayerScorer.  The
    oracle for opt_sampled_fp's draw calls and its BlockScorer visits."""
    from notforest.dynamics import PlayerScorer, default_p_cell

    scorer = PlayerScorer(i, base_cells, field, part, cost, connectivity, labeling)
    n_i = scorer.rows.size
    incumbent = base_cells[scorer.rows, scorer.cols]
    incumbent_util = scorer.utility(incumbent)
    candidate = None
    for _ in range(t_opt):
        rng.random(n_i)
        if candidate is None:
            candidate = rng.integers(0, 2, size=n_i, dtype=np.uint8)
        ref = candidate
        selected = np.flatnonzero(rng.random(n_i) <= default_p_cell(n_i))
        candidate = ref.copy()
        if selected.size:
            candidate[selected] = scorer.plant_gains(ref, selected) > 0
        if (candidate != incumbent).any():
            cand_util = scorer.utility(candidate)
            if cand_util > incumbent_util:
                incumbent, incumbent_util = candidate, cand_util
    return incumbent
