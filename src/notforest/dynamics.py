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
(parameters, seed) pair reproduces a run bit-exactly.  A visit to a player of
at most _BLOCK_MAX_CELLS cells makes those draws in three calls, which give
the same stream.  A one-cell player's visit is a function of the grid, so
when the grid has not changed since the player's last scored visit, the
visit makes its draws without scoring: it would keep the cell.
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
    check_cost,
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
    # Visits that changed the grid, per outer round.
    changes_per_round: list = _field(default_factory=list)

    @property
    def welfare(self) -> float:
        return self.welfare_trajectory[-1]


def choose_actions(n_cells: int, previous: np.ndarray | None,
                   rng: np.random.Generator) -> np.ndarray:
    """Reference strategy for one inner iteration: uniform random bits on the
    first iteration (previous None), the previous candidate after that.

    Draw order: one uniform per cell (row-major), then on the first
    iteration one random bit per cell.  With no exploration the uniforms
    decide nothing; drawing them keeps a seed's stream, and so its run, as
    it has been.
    """
    rng.random(n_cells)
    if previous is None:
        return rng.integers(0, 2, size=n_cells, dtype=np.uint8)
    return previous


# Labelings a PlayerScorer keeps (read at each lookup).
_MEMO_ENTRIES = 256
# Removal gains read off the labeling held that lie within this of 0 are
# recomputed on a relabel (read at each call), so every sign decision is that
# of the relabeled masses.
_CUT_GUARD = 1e-9
# Neighbor offsets in the order plant gains sum their masses; the first four
# are the 4-connected ones.  Bit k of a ring mask is the cell at _OFFSETS[k].
_OFFSETS = ((0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (1, -1), (-1, 1), (-1, -1))


def _ring(labels: np.ndarray, y: int, x: int) -> int:
    """Ring mask of cell (y, x) under a labeling: bit k is set when the cell
    at _OFFSETS[k] from it is planted; off-grid cells are empty."""
    height, width = labels.shape
    label_at = labels.item
    ring = 0
    for bit, (dy, dx) in enumerate(_OFFSETS):
        ny, nx = y + dy, x + dx
        if 0 <= ny < height and 0 <= nx < width and label_at(ny, nx):
            ring |= 1 << bit
    return ring


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
        self.i, self.owner = i, part.owner
        self.rows, self.cols = part.player_cells(i)
        self.ys, self.xs = self.rows.tolist(), self.cols.tolist()
        self.p, self.cost, self.connectivity = field.p, cost, connectivity
        self.work = base_cells.copy()
        self.memo: dict[bytes, list] = {}
        if labeling is not None:
            self.memo[base_cells[self.rows, self.cols].tobytes()] = [labeling, None, None, {}]

    def labeled(self, s: np.ndarray) -> list:
        """[labeling, own counts or None, utility or None, box gains by cell] of s."""
        key = s.tobytes()
        entry = self.memo.get(key)
        if entry is None:
            if len(self.memo) >= _MEMO_ENTRIES:
                self.memo.clear()
            self.work[self.rows, self.cols] = s
            entry = self.memo[key] = [label_cells(self.work, self.p, self.connectivity),
                                      None, None, {}]
        return entry

    def own_counts(self, entry: list) -> np.ndarray:
        """The player's trees per component of entry's labeling, counted on
        first read: only plant gains read them."""
        if entry[1] is None:
            labeling = entry[0]
            entry[1] = np.bincount(labeling.labels[self.rows, self.cols],
                                   minlength=labeling.n_components + 1)[1:]
        return entry[1]

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
        of 0, and every gain of a local cut cell, is read off a relabel of
        the bounding box of j's component with j cleared (_box_gain) instead;
        every gain's sign is then the one the relabeled masses give.
        """
        entry = self.labeled(s)
        labeling, box_gains = entry[0], entry[3]
        table = not_cut_table(self.connectivity)
        neighbor_bits = (1 << self.connectivity) - 1
        p_at = self.p.item
        gains = np.empty(len(js))
        for k, j in enumerate(js):
            y, x = self.ys[j], self.xs[j]
            p_j = p_at(y, x)
            if not s[j]:
                gains[k] = self._gain_next_to(labeling, self.own_counts(entry), y, x, p_j)
                continue
            ring = _ring(labeling.labels, y, x)
            if table[ring]:
                lab = labeling.labels.item(y, x) - 1
                rest = ([(labeling.masses.item(lab) - p_j,
                          self.own_counts(entry).item(lab) - 1)]
                        if ring & neighbor_bits else [])
                gain = _plant_gain(p_j, rest, self.cost)
                if abs(gain) > _CUT_GUARD:
                    gains[k] = gain
                    continue
            gain = box_gains.get(j)
            if gain is None:
                gain = box_gains[j] = self._box_gain(labeling, y, x, p_j)
            gains[k] = gain
        return gains

    def _box_gain(self, labeling, y: int, x: int, p_j: float) -> float:
        """Plant gain of planted cell (y, x) off a labeling of its component's
        bounding box with the cell cleared.  bincount sums each piece's mass
        in the grid's raster order restricted to the box: a grid relabel's."""
        lab = labeling.labels.item(y, x)
        box = labeling.boxes[lab - 1]
        y0, x0 = box[0].start, box[1].start
        sub = labeling.labels[box] == lab
        sub[y - y0, x - x0] = False
        pieces = label_cells(sub, self.p[box], self.connectivity)
        own = np.bincount(pieces.labels[self.owner[box] == self.i],
                          minlength=pieces.n_components + 1)[1:]
        return self._gain_next_to(pieces, own, y - y0, x - x0, p_j)

    def _gain_next_to(self, labeling, own: np.ndarray, y: int, x: int, p_j: float) -> float:
        """_plant_gain of an empty cell (y, x) of labeling's array next to its
        distinct components, in _OFFSETS order; own[k] is the player's trees
        in component k + 1, and cells off the array are empty."""
        height, width = labeling.labels.shape
        label_at = labeling.labels.item
        neigh = []
        for dy, dx in _OFFSETS[:self.connectivity]:
            ny, nx = y + dy, x + dx
            if 0 <= ny < height and 0 <= nx < width:
                lab = label_at(ny, nx)
                if lab and lab not in neigh:
                    neigh.append(lab)
        mass_at, own_at = labeling.masses.item, own.item
        return _plant_gain(p_j, [(mass_at(lab - 1), own_at(lab - 1)) for lab in neigh],
                           self.cost)


def _plant_gain(p_j: float, neigh: list, cost: float) -> float:
    """Gain of planting a cell of strike probability p_j next to the distinct
    components neigh, as (mass, the player's trees in it) pairs: they merge
    with the cell into one of mass p_j plus theirs; the new tree earns
    (1 - merged mass - cost) and each of the player's trees in a merged
    component loses the mass increase."""
    # Summed left to right from 0, then added to p_j: builtin sum may
    # compensate Python floats, which would change the last digits.
    total = 0.0
    for mass, _ in neigh:
        total += mass
    merged = p_j + total
    gain = 1.0 - merged - cost
    for mass, own in neigh:
        gain -= own * (merged - mass)
    return gain


# Players of at most this many cells are visited by _block_visit; larger ones
# keep PlayerScorer.  At 64 cells the flood fills win on a 64x64 grid, tie on a
# 16x16 one and lose on a 32x32, v = 100 one, where most cells are planted.
_BLOCK_MAX_CELLS = 16


class BlockScorer:
    """Utilities and one-cell plant gains of a small player's strategies,
    as bit masks over their cells (bit j is the j-th cell, row-major), while
    the rest of base_cells stays fixed: the exterior, frozen for a visit.

    The exterior is labeled at most once.  It is the caller's labeling when
    the player's cells are all empty; for a one-cell player whose tree is not
    a local cut cell (not_cut_table), it is the caller's labeling with that
    tree's component less p_j; otherwise the grid is labeled with the
    player's cells cleared.  A strategy's components then come from a flood
    fill over its planted cells, two of which are linked when they are
    neighbors or touch the same exterior component; a component's mass is
    its cells' strike probabilities plus the masses of the distinct exterior
    components it touches.  Those sums run in another order than a
    labeling's, so a gain within _CUT_GUARD of 0, and a utility comparison
    whose difference lies within it, is decided by a PlayerScorer built on
    first need; every decision is then the one a PlayerScorer makes.
    """

    def __init__(self, i: int, base_cells: np.ndarray, field, part: PlayerPartition,
                 cost: float, connectivity: int, labeling) -> None:
        self.args = (i, base_cells, field, part, cost, connectivity, labeling)
        self.cost = cost
        self._exact = None
        rows, cols = part.player_cells(i)
        ys, xs = rows.tolist(), cols.tolist()
        height, width = base_cells.shape
        y0, x0 = max(min(ys) - 1, 0), max(min(xs) - 1, 0)
        box = (slice(y0, max(ys) + 2), slice(x0, max(xs) + 2))
        self.p = field.p[rows, cols].tolist()
        self.start = sum(bit << j for j, bit in enumerate(base_cells[rows, cols].tolist()))
        # Masses to take off exterior components, by label.
        exterior, taken = labeling, {}
        if self.start and len(ys) == 1 and labeling is not None and not_cut_table(
                connectivity)[_ring(labeling.labels, ys[0], xs[0])]:
            taken[labeling.labels.item(ys[0], xs[0])] = self.p[0]
        elif self.start or labeling is None:
            cleared = base_cells.copy()
            cleared[rows, cols] = 0
            exterior = label_cells(cleared, field.p, connectivity)
        window = exterior.labels[box].tolist()
        index = {cell: j for j, cell in enumerate(zip(ys, xs))}
        # Exterior labels met, in order: bit e of a mask is the e-th, and
        # ext_index maps each to e and the mask of the cells touching it.
        ext_index: dict[int, list] = {}
        # Per cell: the mask of its own neighbors and of the exterior
        # components it touches.
        self.neighbors, self.touches = [], []
        for k, (y, x) in enumerate(zip(ys, xs)):
            own = ext = 0
            for dy, dx in _OFFSETS[:connectivity]:
                ny, nx = y + dy, x + dx
                if 0 <= ny < height and 0 <= nx < width:
                    j = index.get((ny, nx))
                    if j is not None:
                        own |= 1 << j
                    elif lab := window[ny - y0][nx - x0]:
                        entry = ext_index.setdefault(lab, [len(ext_index), 0])
                        ext |= 1 << entry[0]
                        entry[1] |= 1 << k
            self.neighbors.append(own)
            self.touches.append(ext)
        self.ext_mass = [exterior.masses.item(lab - 1) - taken.get(lab, 0.0)
                         for lab in ext_index]
        # Cells are linked when they are neighbors or touch one exterior
        # component.
        self.links = list(self.neighbors)
        for _, cells in ext_index.values():
            rest = cells
            while rest:
                bit = rest & -rest
                rest ^= bit
                self.links[bit.bit_length() - 1] |= cells & ~bit
        self.memo: dict[int, list] = {}
        self.utilities: dict[int, float] = {}

    def components(self, s: int) -> list:
        """(cells mask, exterior mask, mass, tree count) of each component
        holding a tree of s."""
        comps = self.memo.get(s)
        if comps is None:
            comps = self.memo[s] = []
            links, touches, p, ext_mass = self.links, self.touches, self.p, self.ext_mass
            rest = s
            while rest:
                cells = frontier = rest & -rest
                ext, mass = 0, 0.0
                while frontier:
                    bit = frontier & -frontier
                    frontier ^= bit
                    j = bit.bit_length() - 1
                    mass += p[j]
                    ext |= touches[j]
                    new = links[j] & rest & ~cells
                    cells |= new
                    frontier |= new
                rest ^= cells
                touched = ext
                while touched:
                    bit = touched & -touched
                    touched ^= bit
                    mass += ext_mass[bit.bit_length() - 1]
                comps.append((cells, ext, mass, cells.bit_count()))
        return comps

    def utility(self, s: int) -> float:
        """Each planted cell of s earns 1 - its component's mass - cost."""
        util = self.utilities.get(s)
        if util is None:
            util = self.utilities[s] = sum(own * (1.0 - mass - self.cost)
                                           for _, _, mass, own in self.components(s))
        return util

    def exact(self) -> PlayerScorer:
        """The PlayerScorer that decides near-ties, built on first need."""
        if self._exact is None:
            self._exact = PlayerScorer(*self.args)
        return self._exact

    def strategy(self, s: int) -> np.ndarray:
        """Bit mask s as a 0/1 vector over the player's cells."""
        return np.array([s >> j & 1 for j in range(len(self.p))], dtype=np.uint8)

    def plant_gain(self, s: int, j: int) -> float:
        """Utility of s with cell j planted minus with it empty (_plant_gain
        on the components next to j in s with j empty)."""
        cleared = s & ~(1 << j)
        own, ext = self.neighbors[j], self.touches[j]
        neigh = []
        for cells, touched, mass, count in self.components(cleared):
            if cells & own or touched & ext:
                neigh.append((mass, count))
                ext &= ~touched
        while ext:
            bit = ext & -ext
            ext ^= bit
            neigh.append((self.ext_mass[bit.bit_length() - 1], 0))
        gain = _plant_gain(self.p[j], neigh, self.cost)
        if abs(gain) <= _CUT_GUARD:
            gain = float(self.exact().plant_gains(self.strategy(s), [j])[0])
        return gain

    def improves(self, s: int, t: int) -> bool:
        """Whether strategy s's utility exceeds strategy t's."""
        diff = self.utility(s) - self.utility(t)
        if abs(diff) > _CUT_GUARD:
            return diff > 0
        exact = self.exact()
        return exact.utility(self.strategy(s)) > exact.utility(self.strategy(t))


def _visit_draws(n_i: int, t_opt: int, rng: np.random.Generator) -> tuple:
    """A visit's draws for an n_i-cell player, made in three calls: the same
    stream as the per-iteration draws.  Returns the first reference's bits,
    as a list, and the uniforms after them."""
    rng.random(n_i)
    # A scalar bit is an array of one's bit and stream, at a third of the cost.
    bits = (rng.integers(0, 2, size=n_i, dtype=np.uint8).tolist() if n_i > 1
            else [int(rng.integers(0, 2, dtype=np.uint8))])
    # The first iteration's n selection uniforms, then per later iteration n
    # reference uniforms and n selection uniforms.
    return bits, rng.random((2 * t_opt - 1) * n_i)


def _block_visit(i: int, base_cells: np.ndarray, field, part: PlayerPartition,
                 cost: float, t_opt: int, rng: np.random.Generator,
                 connectivity: int, labeling) -> np.ndarray:
    """opt_sampled_fp for a player of at most _BLOCK_MAX_CELLS cells, scored
    by a BlockScorer, with the visit's draws made by _visit_draws."""
    n_i = part.n_player_cells(i)
    bits, draws = _visit_draws(n_i, t_opt, rng)
    picks = [[] for _ in range(t_opt)]
    for q in np.flatnonzero(draws <= default_p_cell(n_i)).tolist():
        k, j = divmod(q + n_i, 2 * n_i)
        if j >= n_i:
            picks[k].append(j - n_i)

    scorer = BlockScorer(i, base_cells, field, part, cost, connectivity, labeling)
    incumbent = scorer.start
    candidate = sum(bit << j for j, bit in enumerate(bits))
    for js in picks:
        ref = candidate
        for j in js:
            if scorer.plant_gain(ref, j) > 0:
                candidate |= 1 << j
            else:
                candidate &= ~(1 << j)
        if candidate != incumbent and scorer.improves(candidate, incumbent):
            incumbent = candidate
    return scorer.strategy(incumbent)


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
    in row-major order.  A player of at most _BLOCK_MAX_CELLS cells is visited
    by _block_visit, which makes the same decisions from the same draws.
    """
    if part.n_player_cells(i) <= _BLOCK_MAX_CELLS:
        return _block_visit(i, base_cells, field, part, cost, t_opt, rng, connectivity, labeling)
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
    check_cost(cost)
    part.check_dims(field.width, field.height)
    n_i_max = max(part.n_player_cells(i) for i in range(part.m))
    sched = default_iterations(part.m, n_i_max)
    t_br = params.t_br if params.t_br is not None else sched[0]
    t_opt = params.t_opt if params.t_opt is not None else sched[1]
    rng = np.random.Generator(np.random.PCG64(params.seed))

    player_cells = [part.player_cells(i) for i in range(part.m)]

    # One labeling per grid state: the grid is relabeled only when a visit
    # changes it, and version counts those changes.  The next visit, the
    # trace rows, the trajectory and the final utilities all read that
    # labeling; each player's utility is scored once per version.
    cells = np.zeros((part.height, part.width), dtype=np.uint8)
    config = GridConfig(cells)
    labeling = label_components(config, field, params.connectivity)
    w = welfare(config, field, cost, labeling)
    version = 0
    # seen[i]: the version right after one-cell player i's last scored visit.
    seen = [-1] * part.m
    scored = [(-1, 0.0)] * part.m

    def utility(i: int) -> float:
        if scored[i][0] != version:
            rows, cols = player_cells[i]
            scored[i] = (version, cells_utility(labeling, rows, cols, cost))
        return scored[i][1]

    trajectory = []
    changes_per_round = []
    trace = []
    for rnd in range(t_br):
        round_start = version
        for i in range(part.m):
            # The per-visit skip only desynchronizes players; with a single
            # player it would just void the whole run 1 - p_player of the
            # time, so the lone player always re-optimizes.
            updated = rng.random() <= params.p_player or part.m == 1
            # A one-cell player selects its cell on every iteration
            # (p_cell = 1), and whether to plant it is decided against the
            # frozen exterior whatever the reference, every near-tie on
            # relabeled masses: the visit's outcome is a function of the
            # grid alone.  Its last scored visit applied that function, so
            # while the grid is unchanged since then the visit would keep
            # the cell; it only makes its draws.  Any change to a one-cell
            # visit must keep its outcome a function of the grid, as a polish
            # step that draws nothing would.
            if updated and seen[i] == version:
                _visit_draws(1, t_opt, rng)
            elif updated:
                rows, cols = player_cells[i]
                s_i = opt_sampled_fp(i, cells, field, part, cost, t_opt, rng,
                                     params.connectivity, labeling)
                if (s_i != cells[rows, cols]).any():
                    cells[rows, cols] = s_i
                    config = GridConfig(cells)
                    labeling = label_components(config, field, params.connectivity)
                    w = welfare(config, field, cost, labeling)
                    version += 1
                if rows.size == 1:
                    seen[i] = version
            trace.append((rnd, i, int(updated), utility(i), w))
        trajectory.append(w)
        changes_per_round.append(version - round_start)

    utilities = np.array([utility(i) for i in range(part.m)])
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
    return RunResult(config, utilities, trajectory, trace, manifest, changes_per_round)


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
    bounding box of the tree's component with that cell cleared.  The guard
    keeps the sign of every gain that of the relabeled masses.  max_gain may
    differ from a difference of two utilities by rounding; the witness is
    the first cell, row-major, that attains it.  cost must be finite and
    nonnegative.
    """
    part.check_dims(config.width, config.height)
    check_cost(cost)
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
