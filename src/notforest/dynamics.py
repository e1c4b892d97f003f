"""Equilibrium approximation.

Outer loop: best-response dynamics — starting from an empty grid, players are
visited in fixed index order and, with probability p_player each visit, have
their whole subgrid re-optimized against everyone else's current planting.

Inner loop ("OPT"): sampled fictitious play (Lambert, Epelman & Smith 2005)
with no exploration and a one-entry history — each of the player's cells acts
as a cooperative sub-player.  Every iteration takes a reference strategy
(uniform random bits first, the previous candidate after that), sets a random
subset of the reference's cells to their myopically better action against it,
and keeps the resulting candidate only if it strictly improves the player's
exact utility.  The incumbent starts as the player's current strategy, so a
visit never lowers the player's utility.

All randomness flows through a single numpy Generator per run; draw order is
fixed (one uniform per player per outer round; per inner iteration the
reference strategy first, then one uniform per cell in row-major order), so a
(parameters, seed) pair reproduces a run bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field
from functools import cache
from itertools import product

import numpy as np

from . import __version__
from .grid import (
    GridConfig,
    PlayerPartition,
    cells_utility,
    label_cells,
    label_components,
    neighbor_structure,
    player_utility,
    welfare,
)

# (outer, inner) iteration counts keyed by cells-per-player.  They are not
# a convergence criterion: a 64x64, m = 256 run (16 cells per player) still
# changes its grid in round 39 of 40.
ITERATION_SCHEDULE = {
    16384: (1, 200),
    4096: (5, 120),
    1024: (20, 80),
    256: (20, 80),
    64: (20, 80),
    16: (40, 80),
    4: (20, 35),
    1: (50, 1),
}


def default_iterations(m: int, cells_per_player: int) -> tuple[int, int]:
    """Default (outer, inner) iteration counts.

    A single player always gets one outer round (re-optimizing from scratch a
    second time cannot help a lone optimizer) with the full inner budget;
    otherwise the schedule is keyed on cells-per-player, falling back to the
    nearest key in log-space for off-schedule sizes.
    """
    if m == 1:
        return (1, 200)
    if cells_per_player in ITERATION_SCHEDULE:
        return ITERATION_SCHEDULE[cells_per_player]
    keys = np.array(sorted(ITERATION_SCHEDULE))
    nearest = keys[np.argmin(np.abs(np.log(keys) - np.log(cells_per_player)))]
    return ITERATION_SCHEDULE[int(nearest)]


def default_p_cell(cells_per_player: int) -> float:
    return max(0.05, 1.0 / cells_per_player)


@dataclass
class DynamicsParams:
    """Knobs of the equilibrium approximation.

    t_br/t_opt left as None are resolved from the player count at run time
    (see default_iterations); each player's p_cell is default_p_cell of its
    size.
    """

    t_br: int | None = None
    t_opt: int | None = None
    p_player: float = 0.9
    seed: int = 0
    connectivity: int = 4

    def validate(self) -> None:
        if not 0.0 <= self.p_player <= 1.0:
            raise ValueError(f"p_player must be in [0, 1], got {self.p_player}")
        for name in ("t_br", "t_opt"):
            val = getattr(self, name)
            if val is not None and val < 1:
                raise ValueError(f"{name} must be >= 1, got {val}")
        neighbor_structure(self.connectivity)


@dataclass
class RunResult:
    """Final profile plus everything needed to reproduce and audit a run."""

    config: GridConfig
    player_utilities: np.ndarray
    welfare_trajectory: list
    trace: list = _field(repr=False)
    manifest: dict = _field(default_factory=dict)

    @property
    def welfare(self) -> float:
        return self.welfare_trajectory[-1]


def choose_actions(n_cells: int, previous: np.ndarray | None,
                   rng: np.random.Generator) -> np.ndarray:
    """Reference strategy for one inner iteration: uniform random bits on the
    first iteration (previous None), the previous candidate after that.

    Draw order: one uniform per cell (row-major), then one random bit per
    cell if any cell takes one: every cell on the first iteration, later
    only a cell whose uniform is exactly 0.0 (chance 2**-53), as sampled
    fictitious play with no exploration draws them.
    """
    u = rng.random(n_cells)
    if previous is None:
        return rng.integers(0, 2, size=n_cells, dtype=np.uint8)
    fresh = u == 0.0
    if not fresh.any():
        return previous
    out = previous.copy()
    out[fresh] = rng.integers(0, 2, size=n_cells, dtype=np.uint8)[fresh]
    return out


# Labelings a PlayerScorer keeps (read at each lookup).
_MEMO_ENTRIES = 256
# Removal gains read off the labeling held that lie within this of 0 are
# recomputed on a relabel (read at each call), so every sign decision is that
# of the relabeled masses.
_CUT_GUARD = 1e-9
# Neighbor offsets in the order plant gains sum their masses; the first four
# are the 4-connected ones.  Bit k of a ring mask is the cell at _OFFSETS[k].
_OFFSETS = ((0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (1, -1), (-1, 1), (-1, -1))


@cache
def not_cut_table(connectivity: int) -> tuple:
    """For each 8-bit ring mask of planted cells around a centre, whether the
    centre's planted neighbors under the connectivity lie in at most one
    component of the 3x3 window with the centre cleared.  Such a centre is not
    a local cut cell (Rosenfeld 1970): removing it cannot split its
    component.  Built on first use, with the grid's own labeling.
    """
    table = []
    for ring in range(256):
        window = np.zeros((3, 3), dtype=np.uint8)
        for bit, (dy, dx) in enumerate(_OFFSETS):
            window[1 + dy, 1 + dx] = ring >> bit & 1
        labels = label_cells(window, np.zeros((3, 3)), connectivity).labels
        neigh = {labels[1 + dy, 1 + dx] for dy, dx in _OFFSETS[:connectivity]}
        table.append(len(neigh - {0}) <= 1)
    return tuple(table)


class PlayerScorer:
    """Exact utilities and one-cell gains of player i's strategies (0/1
    vectors over their cells, row-major) while the rest of base_cells stays
    fixed.  A labeling then depends only on the strategy, and search paths
    revisit the same few strategies, so labelings and utilities are memoized
    per strategy; the store is emptied when it holds _MEMO_ENTRIES of them.
    labeling, if given, is the caller's labeling of base_cells.
    """

    def __init__(self, i: int, base_cells: np.ndarray, field, part: PlayerPartition,
                 cost: float, connectivity: int = 4, labeling=None) -> None:
        self.rows, self.cols = part.player_cells(i)
        self.p, self.cost, self.connectivity = field.p, cost, connectivity
        self.work = base_cells.copy()
        self.memo: dict[bytes, list] = {}
        if labeling is not None:
            self.memo[base_cells[self.rows, self.cols].tobytes()] = self._entry(labeling)

    def _entry(self, labeling) -> list:
        """[labeling, own component counts, utility or None]."""
        return [labeling, np.bincount(labeling.labels[self.rows, self.cols],
                                      minlength=labeling.n_components + 1)[1:], None]

    def labeled(self, s: np.ndarray) -> list:
        key = s.tobytes()
        entry = self.memo.get(key)
        if entry is None:
            if len(self.memo) >= _MEMO_ENTRIES:
                self.memo.clear()
            self.work[self.rows, self.cols] = s
            entry = self.memo[key] = self._entry(
                label_cells(self.work, self.p, self.connectivity))
        return entry

    def utility(self, s: np.ndarray) -> float:
        entry = self.labeled(s)
        if entry[2] is None:
            entry[2] = cells_utility(entry[0], self.rows, self.cols, self.cost)
        return entry[2]

    def plant_gains(self, s: np.ndarray, js) -> np.ndarray:
        """For each of the player's cell indices j in js, the utility of s
        with cell j planted minus with it empty, the rest of s unchanged.

        Read off the components next to cell j when it is empty (_plant_gain).
        For an empty cell they are those of the labeling of s, labeled once
        per batch.  A planted cell that is not a local cut cell (its ring in
        that labeling passes not_cut_table) leaves its component C as C minus
        j: mass(C) - p_j, with one tree fewer of the player's.  Those masses
        differ from a relabel's by rounding, so such a gain within _CUT_GUARD
        of 0, and every gain of a local cut cell, is read off the labeling of
        s with cell j cleared instead; every gain's sign is then the one the
        relabeled masses give.
        """
        base = self.labeled(s)
        table = not_cut_table(self.connectivity)
        neighbor_bits = (1 << self.connectivity) - 1
        height, width = self.work.shape
        gains = np.empty(len(js))
        for k, j in enumerate(js):
            labeling, own_counts, _ = base
            y, x = int(self.rows[j]), int(self.cols[j])
            p_j = self.p[y, x]
            if s[j]:
                label_at = labeling.labels.item
                ring = 0
                for bit, (dy, dx) in enumerate(_OFFSETS):
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < height and 0 <= nx < width and label_at(ny, nx):
                        ring |= 1 << bit
                if table[ring]:
                    lab = label_at(y, x) - 1
                    rest = ([(labeling.masses[lab] - p_j, own_counts[lab] - 1)]
                            if ring & neighbor_bits else [])
                    gains[k] = _plant_gain(p_j, rest, self.cost)
                    if abs(gains[k]) > _CUT_GUARD:
                        continue
                cleared = s.copy()
                cleared[j] = 0
                labeling, own_counts, _ = self.labeled(cleared)
            labels = labeling.labels
            neigh = []
            for dy, dx in _OFFSETS[:self.connectivity]:
                ny, nx = y + dy, x + dx
                if 0 <= ny < height and 0 <= nx < width:
                    lab = labels[ny, nx]
                    if lab and lab not in neigh:
                        neigh.append(lab)
            gains[k] = _plant_gain(p_j, [(labeling.masses[lab - 1], own_counts[lab - 1])
                                         for lab in neigh], self.cost)
        return gains


def _plant_gain(p_j: float, neigh: list, cost: float) -> float:
    """Gain of planting a cell of strike probability p_j next to the distinct
    components neigh, as (mass, the player's trees in it) pairs: they merge
    with the cell into one of mass p_j plus theirs; the new tree earns
    (1 - merged mass - cost) and each of the player's trees in a merged
    component loses the mass increase."""
    merged = p_j + sum(mass for mass, _ in neigh)
    gain = 1.0 - merged - cost
    for mass, own in neigh:
        gain -= own * (merged - mass)
    return gain


def opt_sampled_fp(i: int, base_cells: np.ndarray, field, part: PlayerPartition,
                   cost: float, t_opt: int, rng: np.random.Generator,
                   connectivity: int = 4, labeling=None) -> np.ndarray:
    """Approximate best response of player i to the rest of the grid.

    base_cells holds the current planting of every player; player i's cells
    there are the starting incumbent, scored at their exact utility, so the
    returned strategy never leaves player i worse off.  Each iteration selects
    each cell with probability default_p_cell of the player's size.  labeling,
    if given, is the labeling of base_cells, which the visit then does not
    label again.  Returns player i's strategy as a 0/1 vector over their cells
    in row-major order.
    """
    scorer = PlayerScorer(i, base_cells, field, part, cost, connectivity, labeling)
    n_i = scorer.rows.size
    p_cell = default_p_cell(n_i)
    incumbent = base_cells[scorer.rows, scorer.cols]
    incumbent_util = scorer.utility(incumbent)
    candidate = None

    for _ in range(t_opt):
        ref = choose_actions(n_i, candidate, rng)
        sel = rng.random(n_i)
        selected = np.flatnonzero(sel <= p_cell)
        # The candidate is the reference with the selected cells replaced by
        # their best responses; mutating the reference (rather than the
        # incumbent) keeps the search moving past one-flip-stable layouts,
        # and the strict-improvement gate below still protects the incumbent.
        candidate = ref.copy()
        if selected.size:
            candidate[selected] = scorer.plant_gains(ref, selected) > 0
        if (candidate != incumbent).any():
            cand_util = scorer.utility(candidate)
            if cand_util > incumbent_util:
                incumbent = candidate
                incumbent_util = cand_util
    return incumbent


def best_response_dynamics(field, part: PlayerPartition, cost: float,
                           params: DynamicsParams) -> RunResult:
    """Run best-response dynamics from the all-empty grid and return the
    final profile, utilities, welfare trajectory, and a reproducibility
    manifest.  Every draw comes from one PCG64 generator seeded with
    params.seed."""
    params.validate()
    if cost < 0:
        raise ValueError("cost must be nonnegative")
    n_i_max = max(part.n_player_cells(i) for i in range(part.m))
    sched = default_iterations(part.m, n_i_max)
    t_br = params.t_br if params.t_br is not None else sched[0]
    t_opt = params.t_opt if params.t_opt is not None else sched[1]
    rng = np.random.Generator(np.random.PCG64(params.seed))

    if (field.width, field.height) != (part.width, part.height):
        raise ValueError("field dimensions do not match partition")

    player_cells = [part.player_cells(i) for i in range(part.m)]

    # One labeling per grid state: the grid is relabeled only when a visit
    # changes it, and the next visit, the trace rows, the trajectory and the
    # final utilities all read that labeling.
    cells = np.zeros((part.height, part.width), dtype=np.uint8)
    config = GridConfig(cells)
    labeling = label_components(config, field, params.connectivity)
    w = welfare(config, field, cost, labeling)
    trajectory = []
    trace = []
    for rnd in range(t_br):
        for i in range(part.m):
            # The per-visit skip only desynchronizes players; with a single
            # player it would just void the whole run 1 - p_player of the
            # time, so the lone player always re-optimizes.
            updated = rng.random() <= params.p_player or part.m == 1
            rows, cols = player_cells[i]
            if updated:
                s_i = opt_sampled_fp(i, cells, field, part, cost, t_opt, rng,
                                     params.connectivity, labeling)
                if (s_i != cells[rows, cols]).any():
                    cells[rows, cols] = s_i
                    config = GridConfig(cells)
                    labeling = label_components(config, field, params.connectivity)
                    w = welfare(config, field, cost, labeling)
            trace.append((rnd, i, int(updated), cells_utility(labeling, rows, cols, cost), w))
        trajectory.append(w)

    utilities = np.array([cells_utility(labeling, rows, cols, cost)
                          for rows, cols in player_cells])
    manifest = {
        "version": __version__,
        "width": part.width,
        "height": part.height,
        "m": part.m,
        "cost": cost,
        "field_v": field.v,
        "field_center": list(field.center) if field.center is not None else None,
        "t_br": t_br,
        "t_opt": t_opt,
        "p_player": params.p_player,
        "p_cell": "max(0.05, 1/N_i)",
        "seed": params.seed,
        "connectivity": params.connectivity,
    }
    return RunResult(config, utilities, trajectory, trace, manifest)


# A deviation counts as profitable only when it gains more than this.
NASH_TOL = 1e-9


@dataclass
class NashCheck:
    """Outcome of a unilateral-deviation scan: an epsilon-equilibrium
    certificate when is_nash is True (no in-scope deviation gains more than
    NASH_TOL).  profitable_flips counts the cells whose flip gains more than
    NASH_TOL; the exhaustive scope leaves it None."""

    is_nash: bool
    max_gain: float
    witness: tuple | None = None
    profitable_flips: int | None = None


def is_nash(config: GridConfig, field, part: PlayerPartition, cost: float,
            scope: str = "single_flip", connectivity: int = 4) -> NashCheck:
    """Check whether any in-scope unilateral deviation improves some
    player's utility by more than NASH_TOL.

    scope "single_flip" tries every one-cell change; "exhaustive" tries every
    strategy of every player and is refused for players with more than 16
    cells.  Both score through one PlayerScorer per player, seeded with the
    labeling of the base grid.  A flip is priced by the local plant gain on
    the labeling with the cell empty (negated for removing a tree): planting
    reads the base labeling; removing a tree that is not a local cut cell
    reads it too, its component less the tree, and only removing a local cut
    cell, or a tree whose gain lies within _CUT_GUARD of 0, relabels the
    grid with that cell cleared.  The guard keeps the sign of every gain that
    of the relabeled masses.  max_gain may differ from a difference of two
    utilities by rounding; the witness is the first cell, row-major, that
    attains it.
    """
    part.check_dims(config.width, config.height)
    if scope not in ("single_flip", "exhaustive"):
        raise ValueError(f"unknown deviation scope {scope!r}")
    labeling = label_components(config, field, connectivity)
    flip_gains = np.empty((config.height, config.width))
    max_gain, witness = -np.inf, None
    for i in range(part.m):
        scorer = PlayerScorer(i, config.cells, field, part, cost, connectivity, labeling)
        s = config.cells[scorer.rows, scorer.cols]
        if scope == "single_flip":
            planting = scorer.plant_gains(s, range(s.size))
            flip_gains[scorer.rows, scorer.cols] = np.where(s, -planting, planting)
        elif s.size > 16:
            raise ValueError(
                f"exhaustive deviation scan refused for player with {s.size} > 16 cells")
        else:
            base = player_utility(config, field, part, i, cost, labeling)
            for bits in product((0, 1), repeat=s.size):
                gain = scorer.utility(np.array(bits, dtype=np.uint8)) - base
                if gain > max_gain:
                    max_gain, witness = gain, (i, bits)
    profitable = None
    if scope == "single_flip":
        g = int(np.argmax(flip_gains))
        max_gain, witness = float(flip_gains.flat[g]), (int(part.owner.flat[g]), ("flip", g))
        profitable = int((flip_gains > NASH_TOL).sum())
    return NashCheck(is_nash=max_gain <= NASH_TOL, max_gain=float(max_gain), witness=witness,
                     profitable_flips=profitable)
