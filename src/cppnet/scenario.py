"""Random obstacle grid scenarios: generation, validation, and text serialization.

A scenario is a rectangular occupancy grid with a fixed start cell. Free
cells are guaranteed to form a single connected component so that every
cell is reachable from the start, which downstream tour construction
relies on. Obstacle counts are exact (round(density * cells)) rather than
Bernoulli-sampled, so the density label of a map is meaningful even on
small grids.
"""

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import FormatVersionMismatch, InvalidDensity, ParseError
from .fileio import atomic_write_text, read_text

SCENARIO_HEADER = "cpp-scenario v1"
MANIFEST_HEADER = "cpp-scenario-set v1"

SPLITS = ("train", "validation", "test")

# every generated map's start cell, and generate_scenario's uniform draws
START_CELL = (0, 0)
REJECTION_TRIES = 100

ORTHO_STEPS = ((-1, 0), (1, 0), (0, -1), (0, 1))
DIAG_STEPS = ((-1, -1), (-1, 1), (1, -1), (1, 1))


def neighbor_steps(connectivity: int):
    if connectivity == 4:
        return ORTHO_STEPS
    if connectivity == 8:
        return ORTHO_STEPS + DIAG_STEPS
    raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")


def weighted_steps(connectivity: int, cell_size: float):
    """(dr, dc, length) per neighbour step: the one place that fixes a step's
    length, cell_size straight and cell_size * sqrt(2) on a diagonal."""
    diagonal = cell_size * math.sqrt(2.0)
    return tuple(
        (dr, dc, diagonal if dr and dc else float(cell_size))
        for dr, dc in neighbor_steps(connectivity)
    )


@dataclass(frozen=True, eq=False)
class GridMap:
    """Occupancy tiling of a rectangular search area.

    occupancy[r, c] is True where an obstacle blocks the cell. The start
    cell is always free, and all free cells are mutually reachable under
    the connectivity the map was generated with (4-connected by default).
    """

    rows: int
    cols: int
    cell_size: float
    occupancy: np.ndarray
    start: tuple[int, int]

    def __post_init__(self):
        occ = np.asarray(self.occupancy, dtype=bool)
        if occ.shape != (self.rows, self.cols):
            raise ValueError(f"occupancy shape {occ.shape} != ({self.rows}, {self.cols})")
        occ.setflags(write=False)
        object.__setattr__(self, "occupancy", occ)

    def __eq__(self, other):
        if not isinstance(other, GridMap):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.cell_size == other.cell_size
            and self.start == other.start
            and np.array_equal(self.occupancy, other.occupancy)
        )

    def __hash__(self):
        return hash(self.content_hash())

    @property
    def n_free(self) -> int:
        return int(self.rows * self.cols - np.count_nonzero(self.occupancy))

    def in_bounds(self, cell) -> bool:
        r, c = cell
        return 0 <= r < self.rows and 0 <= c < self.cols

    def is_free(self, cell) -> bool:
        return self.in_bounds(cell) and not self.occupancy[cell[0], cell[1]]

    @cached_property
    def cell_table(self) -> tuple[tuple[int, int], ...]:
        """(r, c) of every cell in row-major order, made once per map, so
        that the paths planned on it share their cell tuples."""
        return tuple((r, c) for r in range(self.rows) for c in range(self.cols))

    def free_cells(self) -> list[tuple[int, int]]:
        """All free cells in row-major order, as cell_table's tuples."""
        table = self.cell_table
        return [table[k] for k in np.flatnonzero(~self.occupancy).tolist()]

    @property
    def start_slot(self) -> int:
        """Row-major slot of the start cell among the free cells."""
        r, c = self.start
        return int(np.count_nonzero(~self.occupancy.reshape(-1)[: r * self.cols + c]))

    def neighbors(self, cell, connectivity: int = 4):
        r, c = cell
        for dr, dc in neighbor_steps(connectivity):
            nxt = (r + dr, c + dc)
            if self.is_free(nxt):
                yield nxt

    def density(self) -> float:
        return float(np.count_nonzero(self.occupancy)) / (self.rows * self.cols)

    def validate(self, connectivity: int = 4) -> None:
        """Raise ValueError if any structural invariant is violated."""
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must be at least 1x1")
        if not (math.isfinite(self.cell_size) and self.cell_size > 0):
            raise ValueError(f"cell_size must be positive and finite, got {self.cell_size}")
        if not self.in_bounds(self.start):
            raise ValueError(f"start {self.start} outside grid")
        if self.occupancy[self.start[0], self.start[1]]:
            raise ValueError(f"start {self.start} is an obstacle cell")
        if not free_cells_connected(self, connectivity):
            raise ValueError("free cells are not a single connected component")

    def to_text(self) -> str:
        lines = [
            f"{SCENARIO_HEADER} {self.rows} {self.cols} {self.cell_size!r} "
            f"{self.start[0]} {self.start[1]}"
        ]
        for r in range(self.rows):
            lines.append("".join("#" if self.occupancy[r, c] else "." for c in range(self.cols)))
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        """Stable identity used to key label caches and benchmark records."""
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()[:16]


def free_cell_edges(grid: GridMap, connectivity: int = 4):
    """Every directed neighbour pair of free cells, as slot arrays (i, j) and
    the step length of each pair, in (i, j) order: by i, then by j.

    Slots number the free cells in row-major order. Each step compares the
    slot grid with a copy of itself shifted by that step.
    """
    rows, cols = grid.rows, grid.cols
    slot = np.full((rows, cols), -1, dtype=np.int64)
    slot[~grid.occupancy] = np.arange(grid.n_free)
    src, dst, lengths = [], [], []
    for dr, dc, length in weighted_steps(connectivity, grid.cell_size):
        a = slot[max(0, -dr) : rows - max(0, dr), max(0, -dc) : cols - max(0, dc)]
        b = slot[max(0, dr) : rows + min(0, dr), max(0, dc) : cols + min(0, dc)]
        both = (a >= 0) & (b >= 0)
        src.append(a[both])
        dst.append(b[both])
        lengths.append(np.full(np.count_nonzero(both), length))
    i, j = np.concatenate(src), np.concatenate(dst)
    order = np.lexsort((j, i))
    return i[order], j[order], np.concatenate(lengths)[order]


@lru_cache(maxsize=None)
def _label_structure(connectivity: int) -> np.ndarray:
    steps = np.array(neighbor_steps(connectivity))
    structure = np.zeros((3, 3), dtype=bool)
    structure[1 + steps[:, 0], 1 + steps[:, 1]] = True
    structure.setflags(write=False)
    return structure


def free_cells_connected(grid: GridMap, connectivity: int = 4) -> bool:
    """True if the start cell is free and every free cell is reachable from it."""
    if not grid.is_free(grid.start):
        return False
    _, components = ndimage.label(~grid.occupancy, _label_structure(connectivity))
    return components == 1


def _safe_cells(neighbours, root: int) -> list[int]:
    """Cells reachable from root, root excluded, that are no cut cells, in id order:
    one iterative Tarjan search (Tarjan 1972) over flat disc/low/cut lists."""
    n = len(neighbours)
    disc, low, cut = [-1] * n, [0] * n, [False] * n
    disc[root] = timer = 0
    stack = [(root, iter(neighbours[root]))]
    while stack:
        v, unseen = stack[-1]
        lowest = low[v]
        for w in unseen:
            if disc[w] < 0:
                low[v] = lowest
                timer += 1
                disc[w] = low[w] = timer
                stack.append((w, iter(neighbours[w])))
                break
            # the edge back to v's parent counts too: harmless for cut cells
            if disc[w] < lowest:
                lowest = disc[w]
        else:
            stack.pop()
            if stack:
                parent = stack[-1][0]
                if lowest < low[parent]:
                    low[parent] = lowest
                if lowest >= disc[parent]:
                    cut[parent] = True
    # disc > 0 leaves out root, so the root's own cut rule is never needed
    return [v for v in range(n) if disc[v] > 0 and not cut[v]]


def _connected_placement(rows, cols, n_obstacles, connectivity, rng) -> np.ndarray:
    """Place obstacles one by one, choosing uniformly among free cells whose
    removal keeps the remaining free cells connected. Never gets stuck: a
    connected graph on >= 3 vertices always has a non-articulation vertex
    other than the start cell."""
    occ = np.zeros((rows, cols), dtype=bool)
    # on the empty grid a cell's slot is its row-major id r * cols + c
    empty = GridMap(rows, cols, 1.0, np.zeros((rows, cols), dtype=bool), START_CELL)
    i, j, _ = free_cell_edges(empty, connectivity)
    neighbours = [ids.tolist() for ids in np.split(j, np.flatnonzero(np.diff(i)) + 1)]
    for _ in range(n_obstacles):
        candidates = _safe_cells(neighbours, START_CELL[0] * cols + START_CELL[1])
        cell = candidates[int(rng.integers(len(candidates)))]
        occ.flat[cell] = True
        for other in neighbours[cell]:
            neighbours[other].remove(cell)
    return occ


def generate_scenario(
    rows: int,
    cols: int,
    cell_size: float,
    density: float,
    seed: int,
    connectivity: int = 4,
) -> GridMap:
    """Generate one random scenario with an exact obstacle count.

    Obstacles are placed uniformly at random over all cells but START_CELL;
    layouts with disconnected free cells are rejected and regenerated
    from a derived sub-seed. Unconditioned uniform placement is almost
    never connected above ~35% density, so after REJECTION_TRIES
    rejections placement switches to a connectivity-preserving sequential
    draw (uniform among cells that are safe to block at each step). The
    result is a pure function of the arguments either way.
    """
    if not 0.0 <= density <= 0.5:
        raise InvalidDensity(f"density {density} outside [0, 0.5]")
    if rows < 2 or cols < 2:
        raise ValueError("rows and cols must be >= 2")
    if not (math.isfinite(cell_size) and cell_size > 0):
        raise ValueError(f"cell_size must be positive and finite, got {cell_size}")
    n_cells = rows * cols
    n_obstacles = int(round(density * n_cells))
    if n_obstacles > n_cells - 2:
        raise InvalidDensity(f"cannot place {n_obstacles} obstacles on {n_cells} cells")

    # the candidates are every cell id but the start's, in id order
    for attempt in range(REJECTION_TRIES):
        rng = np.random.default_rng([seed, attempt])
        occ = np.zeros((rows, cols), dtype=bool)
        if n_obstacles:
            picks = rng.choice(n_cells - 1, size=n_obstacles, replace=False)
            occ.flat[picks + (picks >= START_CELL[0] * cols + START_CELL[1])] = True
        grid = GridMap(rows, cols, float(cell_size), occ, START_CELL)
        if free_cells_connected(grid, connectivity):
            return grid
    rng = np.random.default_rng([seed, REJECTION_TRIES])
    occ = _connected_placement(rows, cols, n_obstacles, connectivity, rng)
    return GridMap(rows, cols, float(cell_size), occ, START_CELL)


@dataclass
class ScenarioSet:
    """Ordered scenarios with their split tags and the master seed."""

    scenarios: list[GridMap]
    splits: list[str] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        if len(self.scenarios) != len(self.splits):
            raise ValueError("one split tag per scenario required")
        for tag in self.splits:
            if tag not in SPLITS:
                raise ValueError(f"unknown split tag {tag!r}")

    def __len__(self):
        return len(self.scenarios)

    def split(self, tag: str) -> list[GridMap]:
        return [s for s, t in zip(self.scenarios, self.splits) if t == tag]


def split_sizes(count: int, ratios) -> tuple[int, int, int]:
    """Exact split sizes; fractional remainders all land in the train split."""
    train_ratio, val_ratio, test_ratio = ratios
    for ratio in ratios:
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"split ratio {ratio} outside [0, 1]")
    if abs(train_ratio + val_ratio + test_ratio - 1.0) > 1e-9:
        raise ValueError("split ratios must sum to 1")
    n_val = int(np.floor(val_ratio * count + 1e-9))
    n_test = int(np.floor(test_ratio * count + 1e-9))
    # ratios in [0, 1] summing to 1 leave n_val + n_test <= count
    return count - n_val - n_test, n_val, n_test


def dataset_build(
    count: int,
    rows: int,
    cols: int,
    cell_size: float,
    density_range,
    ratios,
    seed: int,
    connectivity: int = 4,
) -> ScenarioSet:
    """Build a scenario dataset with per-scenario densities and split tags.

    Each scenario draws its density uniformly from density_range using its
    own spawned sub-seed, so generation order (or parallel scheduling)
    cannot change any individual map. Split tags are a deterministic
    shuffle of the exact split sizes.
    """
    if count < 3:
        raise ValueError("need at least 3 scenarios")
    n_train, n_val, n_test = split_sizes(count, ratios)
    lo, hi = density_range
    if not (0.0 <= lo <= hi <= 0.5):
        raise InvalidDensity(f"density range [{lo}, {hi}] outside [0, 0.5]")

    children = np.random.SeedSequence(seed).spawn(count)
    scenarios = []
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        density = float(rng.uniform(lo, hi)) if hi > lo else float(lo)
        sub_seed = int(rng.integers(0, 2**63 - 1))
        try:
            scenarios.append(
                generate_scenario(rows, cols, cell_size, density, sub_seed, connectivity)
            )
        except InvalidDensity as exc:
            raise type(exc)(f"scenario {i}: {exc}") from exc

    tags = ["train"] * n_train + ["validation"] * n_val + ["test"] * n_test
    shuffle_rng = np.random.default_rng([seed, count])
    shuffle_rng.shuffle(tags)
    return ScenarioSet(scenarios, tags, seed)


def scenario_from_text(text: str) -> GridMap:
    """Parse one scenario file and validate it under 4-connectivity, the
    connectivity every CLI verb plans with. Any defect is a ParseError."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty scenario file")
    head = lines[0].split()
    if len(head) < 2 or " ".join(head[:2]) != SCENARIO_HEADER:
        raise FormatVersionMismatch(f"bad scenario header: {lines[0]!r}")
    if len(head) != 7:
        raise ParseError(f"scenario header needs 5 fields, got {len(head) - 2}")
    try:
        rows, cols = int(head[2]), int(head[3])
        cell_size = float(head[4])
        start = (int(head[5]), int(head[6]))
    except ValueError as exc:
        raise ParseError(f"bad scenario header field: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ParseError(f"grid must be at least 1x1, got {rows}x{cols}")
    body = lines[1 : 1 + rows]
    if len(body) != rows:
        raise ParseError(f"expected {rows} grid rows, found {len(body)}")
    if any(line.strip() for line in lines[1 + rows :]):
        raise ParseError(f"text after the {rows} grid rows")
    for r, line in enumerate(body):
        if len(line) != cols:
            raise ParseError(f"row {r} has {len(line)} cells, expected {cols}")
        for c, ch in enumerate(line):
            if ch not in ".#":
                raise ParseError(f"unknown cell char {ch!r} at ({r}, {c})")
    occ = np.array([[ch == "#" for ch in line] for line in body], dtype=bool)
    grid = GridMap(rows, cols, cell_size, occ, start)
    try:
        grid.validate(connectivity=4)
    except ValueError as exc:
        raise ParseError(f"invalid scenario: {exc}") from exc
    return grid


def save_scenarios(sset: ScenarioSet, path) -> None:
    """Write one scenario file per map plus a manifest into a directory.

    Every map is first checked under 4-connectivity, as scenario_from_text
    reads it back, so a set that load_scenarios would refuse (an 8-connected
    build) raises ValueError before any file is written.
    """
    for i, grid in enumerate(sset.scenarios):
        try:
            grid.validate(connectivity=4)
        except ValueError as exc:
            raise ValueError(f"scenario {i}: {exc} under 4-connectivity, "
                             "which scenario files are read with") from exc
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    manifest = [f"{MANIFEST_HEADER} {sset.seed}"]
    for i, (grid, tag) in enumerate(zip(sset.scenarios, sset.splits)):
        name = f"scenario_{i:05d}.txt"
        atomic_write_text(root / name, grid.to_text())
        manifest.append(f"{name} {tag}")
    atomic_write_text(root / "manifest.txt", "\n".join(manifest) + "\n")


def load_scenarios(path) -> ScenarioSet:
    """Load a scenario directory written by save_scenarios.

    Raises before returning anything if any file is malformed; a partial
    set is never produced.
    """
    root = Path(path)
    manifest_path = root / "manifest.txt"
    if not manifest_path.is_file():
        raise ParseError(f"no manifest.txt under {root}")
    lines = read_text(manifest_path).splitlines()
    if not lines:
        raise ParseError("empty manifest")
    head = lines[0].split()
    if len(head) != 3 or " ".join(head[:2]) != MANIFEST_HEADER:
        raise FormatVersionMismatch(f"bad manifest header: {lines[0]!r}")
    try:
        seed = int(head[2])
    except ValueError as exc:
        raise ParseError(f"manifest line 1: bad seed {head[2]!r}") from exc
    scenarios, tags = [], []
    first_line = {}     # scenario file name -> the manifest line naming it
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"bad manifest line: {line!r}")
        name, tag = parts
        if tag not in SPLITS:
            raise ParseError(f"unknown split tag {tag!r}")
        # a name is a file of the set's own directory, never a path out of it
        if Path(name).name != name or not (root / name).is_file():
            raise ParseError(f"manifest names {name!r}, which is no file in {root}")
        # one map in two splits would leak training maps into the test split
        if name in first_line:
            raise ParseError(f"manifest line {lineno}: {name!r} is already named "
                             f"on line {first_line[name]}")
        first_line[name] = lineno
        scenarios.append(scenario_from_text(read_text(root / name)))
        tags.append(tag)
    return ScenarioSet(scenarios, tags, seed)
