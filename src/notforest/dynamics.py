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
(parameters, seed) pair reproduces a run bit-exactly.  Every visit draws its
first reference through choose_actions and the rest in the calls _draw_calls
lays out.  A one-cell player's visit is a function of the grid, so when the
grid has not changed since the player's last scored visit, the visit makes
its draws without scoring: it would keep the cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field
from functools import cache

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


def choose_actions(n_cells: int, rng: np.random.Generator) -> list:
    """A visit's first reference strategy, uniform random bits as a list of
    0/1 ints, one per cell in row-major order; every later reference is the
    previous candidate.  Draws one uniform per cell, which with no exploration
    decides nothing but keeps a seed's stream as it has been, then the bits."""
    rng.random(n_cells)
    if n_cells == 1:
        # A scalar bit is an array of one's bit and stream, at a third of the cost.
        return [int(rng.integers(0, 2, dtype=np.uint8))]
    return rng.integers(0, 2, size=n_cells, dtype=np.uint8).tolist()


# A visit draws whole iterations' uniforms, at most this many a call unless one
# iteration needs more: 200 iterations of a 4096-cell player would draw 13 MB
# at once, while a default visit of up to 64 cells draws in one call.
_MAX_DRAW = 1 << 14


@cache
def _draw_calls(n_cells: int, t_opt: int) -> tuple:
    """How a visit draws its uniforms after choose_actions': (iterations,
    uniforms) per call.  Per iteration, in stream order, come one selection
    uniform per cell, row-major, then the next iteration's reference
    uniforms, which decide nothing; the last iteration has no next."""
    per_call = max(1, _MAX_DRAW // (2 * n_cells))
    ks = [min(per_call, t_opt - start) for start in range(0, t_opt, per_call)]
    return tuple((k, n_cells * (2 * k - (c == len(ks) - 1))) for c, k in enumerate(ks))


def _selections(n_cells: int, t_opt: int, rng: np.random.Generator):
    """Each iteration's selected cells: those whose selection uniform is at
    most default_p_cell of the player's size, as a list of indices for a
    BlockScorer's bit shifts or, past _BLOCK_MAX_CELLS cells, an array for a
    PlayerScorer.  Only one draw call's picks are held at a time."""
    p_cell = default_p_cell(n_cells)
    for k, size in _draw_calls(n_cells, t_opt):
        uniforms = rng.random(size)
        if n_cells == 1:
            # p_cell is 1: every iteration selects the one cell.
            yield from [[0]] * k
            continue
        # Row r views iteration r's selection uniforms, float64s of 8 bytes.
        selection = np.ndarray((k, n_cells), buffer=uniforms, strides=(16 * n_cells, 8))
        rows, cols = np.divmod(np.flatnonzero(selection <= p_cell), n_cells)
        picks, start = cols.tolist() if n_cells <= _BLOCK_MAX_CELLS else cols, 0
        for count in np.bincount(rows, minlength=k).tolist():
            yield picks[start:start + count]
            start += count


# Removal gains read off the labeling held that lie within this of 0 are
# recomputed on a relabel (read at each call), so every sign decision is that
# of the relabeled masses.
_CUT_GUARD = 1e-9
# PlayerScorer.plant_gains prices a batch of at least this many cells in one
# numpy pass and a smaller one cell by cell.  The pass costs about 60 us plus
# 0.3 us a cell, the loop 3-3.5 us a cell: on 16x16, 32x32 and 64x64 grids the
# two tie at 18-22 cells.  A visit prices about 5% of a player's cells, so a
# 16x16 run's visits keep the loop and a 64x64, m = 1 run's (205 cells) do not.
_ONE_PASS_MIN_CELLS = 20
# Neighbor offsets in the order plant gains sum their masses; the first four
# are the 4-connected ones.  Bit k of a ring mask is the cell at _OFFSETS[k].
_OFFSETS = ((0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (1, -1), (-1, 1), (-1, -1))
# _strip_gains packs its rounds' regions into strips of at most this many
# cells, one labeling each; a larger region gets a strip of its own.  A
# labeling costs about 12 us before its first cell, which a 64x64, m = 1 solve
# paid on some 3,000 one-box relabels.
_STRIP_CELLS = 1 << 15


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
def not_cut_table(connectivity: int) -> np.ndarray:
    """For each 8-bit ring mask of planted cells around a centre, whether the
    centre's planted neighbors under the connectivity lie in at most one
    component of the 3x3 window with the centre cleared.  Such a centre is not
    a local cut cell (Rosenfeld 1970): removing it cannot split its
    component.  Built on first use, with the grid's own labeling, as a
    read-only bool array indexed by a ring mask or an array of them.
    """
    table = np.zeros(256, dtype=bool)
    for ring in range(256):
        window = np.zeros((3, 3), dtype=np.uint8)
        for bit, (dy, dx) in enumerate(_OFFSETS):
            window[1 + dy, 1 + dx] = ring >> bit & 1
        labels = label_cells(window, np.zeros((3, 3)), connectivity).labels
        neigh = {labels[1 + dy, 1 + dx] for dy, dx in _OFFSETS[:connectivity]}
        table[ring] = len(neigh - {0}) <= 1
    table.setflags(write=False)
    return table


@cache
def _flat_offsets(width: int) -> np.ndarray:
    """Flat offsets of the neighbors at _OFFSETS, in that order, in a raster
    of rows width cells wide; read-only.  A raster with an empty border reads
    every neighbor of its inner cells at them, off-grid ones as empty."""
    offsets = np.array([dy * width + dx for dy, dx in _OFFSETS])
    offsets.setflags(write=False)
    return offsets


class PlayerScorer:
    """Exact utilities and one-cell gains of player i's strategies (0/1
    vectors over their cells, row-major) while the rest of base_cells stays
    fixed.  It holds one labeling, with its own counts and box gains: the
    caller's labeling of base_cells, then that of the strategy it last priced
    or scored, which search paths mostly revisit.  Utilities are kept per
    strategy, by its bytes, past a relabel: scoring one again labels nothing.
    """

    def __init__(self, i: int, base_cells: np.ndarray, field, part: PlayerPartition,
                 cost: float, connectivity: int, labeling) -> None:
        self.i, self.owner = i, part.owner
        self.rows, self.cols = part.player_cells(i)
        self.ys, self.xs = self.rows.tolist(), self.cols.tolist()
        self.p, self.cost, self.connectivity = field.p, cost, connectivity
        self.work = base_cells.copy()
        self.utilities: dict[bytes, float] = {}
        self._hold(base_cells[self.rows, self.cols], labeling)

    def _hold(self, s: np.ndarray, labeling) -> None:
        self.key, self.labeling = s.tobytes(), labeling
        self.counts = None
        self.box_gains: dict[tuple, float] = {}

    def labeled(self, s: np.ndarray):
        """The labeling of s, which the scorer then holds."""
        if s.tobytes() != self.key:
            self.work[self.rows, self.cols] = s
            self._hold(s, label_cells(self.work, self.p, self.connectivity))
        return self.labeling

    def own_counts(self) -> np.ndarray:
        """The player's trees per component of the held labeling, counted on
        first read: only plant gains read them."""
        if self.counts is None:
            self.counts = np.bincount(self.labeling.labels[self.rows, self.cols],
                                      minlength=self.labeling.n_components + 1)[1:]
        return self.counts

    def utility(self, s: np.ndarray) -> float:
        key = s.tobytes()
        if key not in self.utilities:
            self.utilities[key] = cells_utility(self.labeled(s), self.rows, self.cols, self.cost)
        return self.utilities[key]

    def plant_gains(self, s: np.ndarray, js) -> np.ndarray:
        """For each of the player's cell indices j in js, the utility of s
        with cell j planted minus with it empty, the rest of s unchanged.

        Read off the components next to cell j when it is empty (_plant_gain).
        For an empty cell they are those of the labeling of s, which the
        scorer holds from then on.  A planted cell that is not a local cut
        cell (its ring in that labeling passes not_cut_table) leaves its
        component C as C minus j: mass(C) - p_j, with one tree fewer of the
        player's.  Those masses differ from a relabel's by rounding, so such a
        gain within _CUT_GUARD of 0, and every gain of a local cut cell, is
        read off a relabel of the bounding box of j's component with j cleared
        instead; every gain's sign is then the relabeled masses'.

        A batch of at least _ONE_PASS_MIN_CELLS cells is priced in one numpy
        pass (_read_gains), and its box cells not yet in box_gains are
        relabeled together, a round of distinct components at a time and
        rounds packed into strips (_strip_gains); a smaller one
        is priced cell by cell (_cell_gains), one box relabel per box cell
        (_box_gain).  The two give the same gains bit for bit and share
        box_gains, keyed by grid cell, for the labeling held.
        """
        labeling = self.labeled(s)
        if len(js) < _ONE_PASS_MIN_CELLS:
            return self._cell_gains(s, js)
        js = np.asarray(js)
        gains, box = _read_gains(labeling, self.p, self.rows[js], self.cols[js], s[js] != 0,
                                 np.append(0, self.own_counts())[:, None], 0, self.cost,
                                 self.connectivity)
        if box.any():
            memo = self.box_gains
            cells = list(zip(self.rows[js[box]].tolist(), self.cols[js[box]].tolist()))
            memo.update(_strip_gains(labeling, self.p, self.owner,
                                     [cell for cell in cells if cell not in memo], self.cost,
                                     self.connectivity))
            gains[box] = [memo[cell] for cell in cells]
        return gains

    def _cell_gains(self, s: np.ndarray, js) -> np.ndarray:
        """plant_gains, one cell at a time, with s's labeling held."""
        labeling = self.labeling
        table = not_cut_table(self.connectivity)
        neighbor_bits = (1 << self.connectivity) - 1
        p_at = self.p.item
        gains = np.empty(len(js))
        for k, j in enumerate(js):
            y, x = self.ys[j], self.xs[j]
            p_j = p_at(y, x)
            if not s[j]:
                gains[k] = self._gain_next_to(labeling, self.own_counts(), y, x, p_j)
                continue
            ring = _ring(labeling.labels, y, x)
            if table[ring]:
                lab = labeling.labels.item(y, x) - 1
                rest = ([(labeling.masses.item(lab) - p_j,
                          self.own_counts().item(lab) - 1)]
                        if ring & neighbor_bits else [])
                gain = _plant_gain(p_j, rest, self.cost)
                if abs(gain) > _CUT_GUARD:
                    gains[k] = gain
                    continue
            gains[k] = self._box_gain(y, x)
        return gains

    def _box_gain(self, y: int, x: int) -> float:
        """Plant gain of the held strategy's planted cell (y, x) off a
        labeling of its component's bounding box with the cell cleared, kept
        in box_gains until the scorer relabels.  bincount sums each piece's
        mass in the grid's raster order restricted to the box: a grid
        relabel's.  The cell loop's path: its few box cells a call would pay
        more for a strip (_strip_gains) than for a labeling each."""
        gain = self.box_gains.get((y, x))
        if gain is None:
            labeling = self.labeling
            lab = labeling.labels.item(y, x)
            box = labeling.boxes[lab - 1]
            y0, x0 = box[0].start, box[1].start
            sub = labeling.labels[box] == lab
            sub[y - y0, x - x0] = False
            pieces = label_cells(sub, self.p[box], self.connectivity)
            own = np.bincount(pieces.labels[self.owner[box] == self.i],
                              minlength=pieces.n_components + 1)[1:]
            gain = self.box_gains[y, x] = self._gain_next_to(pieces, own, y - y0, x - x0,
                                                             self.p.item(y, x))
        return gain

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


def _read_gains(labeling, p: np.ndarray, ys: np.ndarray, xs: np.ndarray,
                planted: np.ndarray, counts, owners, cost: float, conn: int):
    """Plant gains of cells (ys, xs), planted where planted is set, read off
    labeling in one numpy pass for each cell's owner: counts[labels, owners],
    owners the cells' owners or one scalar, gives the trees of each cell's
    owner per component, 0 for label 0.  Each cell's neighbor labels, read
    at _flat_offsets through a copy with an empty border as _label_strip
    reads a strip, in _OFFSETS order with repeats zeroed, form its column of
    near, whose rows _column_gains takes one at a time, so every gain equals
    the cell loop's exactly.  The copy's labels are intp, which numpy indexes
    with no cast.  Returns the gains and the mask of the box cells, whose
    gains are left for _strip_gains: local cut cells and removals within
    _CUT_GUARD of 0."""
    height, width = labeling.labels.shape
    labels = np.zeros((height + 2, width + 2), dtype=np.intp)
    labels[1:-1, 1:-1] = labeling.labels
    labels = labels.ravel()
    g = (ys + 1) * (width + 2) + xs + 1
    near = labels[np.add.outer(_flat_offsets(width + 2), g)]
    ring = _ring_masks(near)
    near = _distinct(near[:conn])
    # A planted cell with a neighbor under the connectivity (less) has one
    # neighbor, its component less the cell's p and tree; one without has none.
    near *= ~planted
    less = planted & ((ring & ((1 << conn) - 1)) != 0)
    near[0, less] = labels[g[less]]
    mass = np.append(0.0, labeling.masses)[near]
    count = counts[near, owners]
    p = p[ys, xs]
    mass[0] -= p * less
    count[0] -= less
    gains = _column_gains(p, mass, count, cost)
    return gains, planted & ~(not_cut_table(conn)[ring] & (np.abs(gains) > _CUT_GUARD))


# Row k of a ring mask's eight bit planes shifts to bit k.
_RING_SHIFTS = np.arange(len(_OFFSETS), dtype=np.uint8)[:, None]


def _ring_masks(near: np.ndarray) -> np.ndarray:
    """Each column's ring mask, as uint8: bit k is set when the label in row
    k, the neighbor at _OFFSETS[k], is planted.  The eight rows are shifted
    and ORed together."""
    return np.bitwise_or.reduce((near > 0).view(np.uint8) << _RING_SHIFTS, axis=0)


class _PairCounts:
    """Trees per (component, owner) of a labeling, held as the sorted keys
    label * m + owner of the pairs that hold trees, with their counts, and
    read as counts[labels, owners] with 0 for absent pairs."""

    def __init__(self, labels: np.ndarray, owner: np.ndarray, m: int) -> None:
        planted = labels > 0
        self.m = m
        self.keys, self.counts = np.unique(labels[planted] * np.int64(m) + owner[planted],
                                           return_counts=True)

    def __getitem__(self, index) -> np.ndarray:
        labels, owners = index
        key = labels * np.int64(self.m) + owners
        at = np.minimum(np.searchsorted(self.keys, key), len(self.keys) - 1)
        return np.where(self.keys[at] == key, self.counts[at], 0)


def _tree_counts(labeling, part: PlayerPartition):
    """Every owner's trees per component of labeling, read as
    counts[labels, owners] with 0 for label 0, in O(N) memory: a dense
    (components + 1, m) table when it holds at most 8 counts a cell, as the
    pass's (N, 8) neighbor array does, else the sparse _PairCounts."""
    labels, m = labeling.labels, part.m
    size = (labeling.n_components + 1) * m
    if size > 8 * labels.size:
        return _PairCounts(labels, part.owner, m)
    counts = np.bincount((labels * m + part.owner).ravel(), minlength=size).reshape(-1, m)
    counts[0] = 0
    return counts


def _strip_gains(labeling, p: np.ndarray, owner: np.ndarray, cells: list, cost: float,
                 conn: int) -> dict:
    """Plant gain of each planted cell (y, x) in cells of labeling, distinct,
    for the cell's owner, off a labeling of its component's bounding box with
    the cell cleared (the cell loop's _box_gain), as a dict by cell.

    Round (o, r) holds the r-th cell, in cells' order, of owner o in each
    component that holds one, so one mask of o's cells serves the round.
    Planted cells of different components are never neighbors, so clearing
    one cell per component splits each component as clearing that cell
    alone would.  A round's region is the bounding box of its components'
    boxes, copied as its planted cells: other components there become pieces
    that no cell of the round reads.  Regions, their round's cells cleared,
    are labeled a strip at a time: side by side with an empty column between
    them and an empty border, so no piece spans two regions and a cell's
    neighbors off its region read empty.  Sorted by height, regions of one
    strip pad little.  Within a piece the strip's raster order is the grid's,
    so bincount sums the masses of _box_gain bit for bit."""
    label_at, owner_at, boxes = labeling.labels.item, owner.item, labeling.boxes
    # The rounds by (owner, rank); a cell's rank counts the cells of its
    # (owner, component) pair met before it, in met.
    met, rounds = {}, {}
    for cell in cells:
        pair = owner_at(*cell), label_at(*cell)
        rank = met[pair] = met.get(pair, -1) + 1
        rounds.setdefault((pair[0], rank), []).append(cell)
    rounds = list(rounds.values())
    regions = []
    for round_ in rounds:
        if len(round_) == 1:
            regions.append(boxes[label_at(*round_[0]) - 1])
            continue
        rows, cols = zip(*[boxes[label_at(*cell) - 1] for cell in round_])
        regions.append((slice(min(s.start for s in rows), max(s.stop for s in rows)),
                        slice(min(s.start for s in cols), max(s.stop for s in cols))))
    order = sorted(range(len(regions)), key=lambda r: regions[r][0].stop - regions[r][0].start)
    # width: the last strip's columns right of its left border.
    strips, width = [], 0
    for r in order:
        rows, cols = regions[r]
        width += cols.stop - cols.start + 1
        if not strips or (rows.stop - rows.start + 2) * (1 + width) > _STRIP_CELLS:
            strips.append([])
            width = cols.stop - cols.start + 1
        strips[-1].append(r)
    gains = {}
    for strip in strips:
        strip_rounds = [rounds[r] for r in strip]
        gains.update(zip([cell for round_ in strip_rounds for cell in round_],
                         _label_strip(labeling, p, owner, strip_rounds,
                                      [regions[r] for r in strip], cost, conn)))
    return gains


def _label_strip(labeling, p: np.ndarray, owner: np.ndarray, rounds: list, regions: list,
                 cost: float, conn: int) -> list:
    """Label one strip of _strip_gains, the regions of rounds left to right,
    the tallest last, each with its round's owner's trees, and return the
    gains of the rounds' cells in turn; their neighbors are read at
    _flat_offsets through the strip's empty border."""
    height = regions[-1][0].stop - regions[-1][0].start + 2
    width = 1 + sum(cols.stop - cols.start + 1 for _, cols in regions)
    sub = np.zeros((height, width), dtype=bool)
    strip_p = np.zeros((height, width))
    mine = np.zeros((height, width), dtype=bool)
    at, x0 = [], 1
    for cells, region in zip(rounds, regions):
        rows, cols = region
        dst = (slice(1, 1 + rows.stop - rows.start), slice(x0, x0 + cols.stop - cols.start))
        np.greater(labeling.labels[region], 0, out=sub[dst])
        strip_p[dst] = p[region]
        np.equal(owner[region], owner.item(*cells[0]), out=mine[dst])
        for y, x in cells:
            y, x = 1 + y - rows.start, x0 + x - cols.start
            sub[y, x] = False
            at.append(y * width + x)
        x0 += cols.stop - cols.start + 1
    pieces = label_cells(sub, strip_p, conn)
    own = np.bincount(pieces.labels[mine], minlength=pieces.n_components + 1)
    own[0] = 0
    near = _distinct(pieces.labels.ravel()[np.add.outer(_flat_offsets(width)[:conn], at)])
    return _column_gains(strip_p.ravel()[at], np.append(0.0, pieces.masses)[near], own[near],
                         cost).tolist()


def _distinct(near: np.ndarray) -> np.ndarray:
    """Rows of neighbor labels, a column per cell, with each repeat of a
    label in its column set to 0, the empty label: each row is compared in
    place with every row above it, in order."""
    for k in range(1, len(near)):
        row = near[k]
        for j in range(k):
            row *= near[j] != row
    return near


def _column_gains(p: np.ndarray, mass: np.ndarray, count: np.ndarray,
                  cost: float) -> np.ndarray:
    """_plant_gain of cells of strike probabilities p, column k's neighbors
    the (mass, count) pairs of column k, taken a row at a time in
    _plant_gain's order.  A row entry of mass 0.0 and count 0, an absent
    neighbor, adds 0.0 to the mass and takes 0.0 off the gain, so each gain
    equals _plant_gain's over the column's other pairs bit for bit."""
    total = np.zeros(len(p))
    for row in mass:
        total += row
    merged = p + total
    gains = 1.0 - merged - cost
    for mass_k, count_k in zip(mass, count):
        gains -= count_k * (merged - mass_k)
    return gains


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


# Players of at most this many cells are scored by a BlockScorer, larger ones
# by a PlayerScorer.  At 64 cells the flood fills win on a 64x64 grid, tie on
# a 16x16 one and lose on a 32x32, v = 100 one, where most cells are planted.
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
        if self.start and len(ys) == 1 and not_cut_table(
                connectivity)[_ring(labeling.labels, ys[0], xs[0])]:
            taken[labeling.labels.item(ys[0], xs[0])] = self.p[0]
        elif self.start:
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


def opt_sampled_fp(i: int, base_cells: np.ndarray, field, part: PlayerPartition,
                   cost: float, t_opt: int, rng: np.random.Generator,
                   connectivity: int, labeling) -> np.ndarray:
    """Approximate best response of player i to the rest of the grid.

    base_cells holds the current planting of every player; player i's cells
    there are the starting incumbent, scored at their exact utility, so the
    returned strategy never leaves player i worse off.  labeling is the
    caller's labeling of base_cells under connectivity, which the visit reads
    instead of labeling base_cells again.  Returns player i's strategy as a
    0/1 vector over their cells in row-major order.  A BlockScorer scores a
    player of at most _BLOCK_MAX_CELLS cells and makes a PlayerScorer's
    decisions.
    """
    n_i = part.n_player_cells(i)
    bits = choose_actions(n_i, rng)
    # The candidate is the reference with the selected cells replaced by
    # their best responses; mutating the reference (rather than the
    # incumbent) keeps the search moving past one-flip-stable layouts, and
    # the strict-improvement gate still protects the incumbent.
    if n_i <= _BLOCK_MAX_CELLS:
        scorer = BlockScorer(i, base_cells, field, part, cost, connectivity, labeling)
        incumbent = scorer.start
        candidate = sum(bit << j for j, bit in enumerate(bits))
        for js in _selections(n_i, t_opt, rng):
            ref = candidate
            for j in js:
                bit = 1 << j
                candidate = candidate | bit if scorer.plant_gain(ref, j) > 0 else candidate & ~bit
            if candidate != incumbent and scorer.improves(candidate, incumbent):
                incumbent = candidate
        return scorer.strategy(incumbent)
    scorer = PlayerScorer(i, base_cells, field, part, cost, connectivity, labeling)
    incumbent = base_cells[scorer.rows, scorer.cols]
    incumbent_util = scorer.utility(incumbent)
    candidate = np.array(bits, dtype=np.uint8)
    for js in _selections(n_i, t_opt, rng):
        ref, candidate = candidate, candidate.copy()
        if js.size:
            candidate[js] = scorer.plant_gains(ref, js) > 0
        if (candidate != incumbent).any():
            cand_util = scorer.utility(candidate)
            if cand_util > incumbent_util:
                incumbent, incumbent_util = candidate, cand_util
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
            # (p_cell = 1) and plants it or not against the frozen exterior
            # whatever the reference, every near-tie on relabeled masses:
            # the visit's outcome is a function of the grid alone.  While the
            # grid is unchanged since its last scored visit, the visit would
            # keep the cell, so it only makes its draws.  Any change to a
            # one-cell visit must keep its outcome a function of the grid.
            if updated and seen[i] == version:
                choose_actions(1, rng)
                for _, size in _draw_calls(1, t_opt):
                    rng.random(size)
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


def _flip_gains(config: GridConfig, field, part: PlayerPartition, cost: float,
                connectivity: int, labeling) -> np.ndarray:
    """Each cell's single-flip gain for its owner, row-major: the plant gain
    of an empty cell, less that of a planted one, every cell read off
    labeling in one pass (_read_gains) against one table of trees per
    (component, owner) (_tree_counts), and the box cells of every player
    relabeled together in rounds packed into strips (_strip_gains)."""
    planted = config.cells.ravel() != 0
    ys, xs = np.divmod(np.arange(config.n_cells), config.width)
    planting, box = _read_gains(labeling, field.p, ys, xs, planted, _tree_counts(labeling, part),
                                part.owner.ravel(), cost, connectivity)
    if box.any():
        cells = list(zip(ys[box].tolist(), xs[box].tolist()))
        gains = _strip_gains(labeling, field.p, part.owner, cells, cost, connectivity)
        planting[box] = [gains[cell] for cell in cells]
    return np.where(planted, -planting, planting)


def is_nash(config: GridConfig, field, part: PlayerPartition, cost: float,
            scope: str = "single_flip", connectivity: int = 4) -> NashCheck:
    """Check whether any in-scope unilateral deviation improves some
    player's utility by more than NASH_TOL.

    scope "single_flip" tries every one-cell change of every player in one
    pass over the labeling of the base grid (_flip_gains), with no scorer
    per player.  A flip is priced by the owner's local plant gain on the
    labeling with the cell empty (negated for removing a tree): planting
    reads the base labeling; removing a tree that is not a local cut cell
    reads it too, its component less the tree, and only removing a local cut
    cell, or a tree whose gain lies within _CUT_GUARD of 0, relabels the
    bounding box of the tree's component with that cell cleared.  The guard
    keeps the sign of every gain that of the relabeled masses.  Those cells,
    of every player, are relabeled a round at a time, one cell of each
    component and one owner a round, and a strip of rounds per labeling.  Each
    gain equals, bit for bit, a PlayerScorer's plant_gains for the owner.
    max_gain may differ from a difference of two utilities by rounding; the
    witness is the first cell, row-major, that attains it.  "exhaustive"
    tries every strategy of every player, refused
    for players with more than 16 cells, through one BlockScorer per player
    in product((0, 1), repeat=n) order; BlockScorer.improves keeps the first
    best, whose exact utility less the player's is its gain and whose bits
    are the witness.  cost must be finite and nonnegative.
    """
    part.check_dims(config.width, config.height)
    check_cost(cost)
    if scope not in ("single_flip", "exhaustive"):
        raise ValueError(f"unknown deviation scope {scope!r}")
    labeling = label_components(config, field, connectivity)
    if scope == "single_flip":
        flip_gains = _flip_gains(config, field, part, cost, connectivity, labeling)
        g = int(np.argmax(flip_gains))
        max_gain = float(flip_gains[g])
        return NashCheck(max_gain <= NASH_TOL, max_gain, (int(part.owner.flat[g]), ("flip", g)),
                         int((flip_gains > NASH_TOL).sum()))
    max_gain, witness = -np.inf, None
    for i in range(part.m):
        n_i = part.n_player_cells(i)
        if n_i > 16:
            raise ValueError(
                f"exhaustive deviation scan refused for player with {n_i} > 16 cells")
        scorer = BlockScorer(i, config.cells, field, part, cost, connectivity, labeling)
        # The masks in product order: each earlier cell varies slower.
        order = [0]
        for j in reversed(range(n_i)):
            order += [t | 1 << j for t in order]
        best = 0
        for t in order[1:]:
            if scorer.improves(t, best):
                best, t = t, best
            # Only the running best is read again; the loser's memos go.
            del scorer.memo[t], scorer.utilities[t]
        bits = scorer.strategy(best)
        gain = (scorer.exact().utility(bits)
                - player_utility(config, field, part, i, cost, labeling))
        if gain > max_gain:
            max_gain, witness = gain, (i, tuple(bits.tolist()))
    return NashCheck(max_gain <= NASH_TOL, float(max_gain), witness)
