"""Turn an edge-probability heat graph into a feasible coverage trajectory.

Greedy decoding walks the map picking the unvisited cell with the highest
symmetrized probability among the nearest unvisited cells; A* then
stitches consecutive tour cells into a collision-free grid path. The
decoder covers every free cell for any heat input, including uniform or
adversarial ones, because some unvisited cell is always the nearest.
"""

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush

import numpy as np

from .errors import CapacityExceeded, Disconnected, FormatVersionMismatch, ParseError
from .fileio import atomic_write_text, read_text
from .graph import ScenarioGraph, encode
from .model import ModelParams, heat_for_graph
from .oracle import Tour
from .scenario import GridMap, weighted_steps

TRAJ_HEADER = "cpp-traj v1"


@dataclass(frozen=True)
class Trajectory:
    tour: Tour                    # visit order over free-cell slots
    path: tuple                   # stitched cell sequence, revisits included
    length: float                 # meters
    inference_ms: float = 0.0


@lru_cache(maxsize=None)
def _ring(connectivity: int, radius: int) -> tuple:
    """Offsets at exactly `radius` from a cell, in row-major order: Manhattan
    rings on 4-connected grids, Chebyshev rings on 8-connected ones, so
    radius 1 is exactly the grid neighbours."""
    span = range(-radius, radius + 1)
    manhattan = connectivity == 4
    return tuple((dr, dc) for dr in span for dc in span
                 if (abs(dr) + abs(dc) if manhattan else max(abs(dr), abs(dc))) == radius)


def greedy_decode(heat: np.ndarray, graph: ScenarioGraph, start: int) -> Tour:
    """Greedy tour over symmetrized probabilities in the nearest neighborhood.

    From the current cell, the unvisited node with the highest
    (p_ij + p_ji) / 2 is chosen among the unvisited nodes at the smallest
    radius from it (ties to the lower slot). The step walks outward ring by
    ring under the graph's connectivity and reads heat only at the pairs of
    the first ring that holds an unvisited cell.
    """
    slot_of = {cell: s for s, cell in enumerate(graph.slot_cells)}
    visited = [False] * graph.n_free
    visited[start] = True
    order = [start]
    for _ in range(graph.n_free - 1):
        current = order[-1]
        r, c = graph.slot_cells[current]
        chosen, best, radius = -1, 0.0, 0
        # some unvisited cell is always at a finite radius, so the walk ends
        while chosen < 0:
            radius += 1
            # row-major offsets visit the ring's cells in ascending slot order
            for dr, dc in _ring(graph.connectivity, radius):
                k = slot_of.get((r + dr, c + dc))
                if k is None or visited[k]:
                    continue
                value = (heat[current, k] + heat[k, current]) * 0.5
                # strict > keeps the lowest slot of a tie; the first NaN
                # wins, as in np.argmax
                if chosen < 0 or value > best or (value != value and best == best):
                    chosen, best = k, value
        visited[chosen] = True
        order.append(chosen)
    return Tour(tuple(order))


def astar(grid: GridMap, start_cell, goal_cell, connectivity: int = 4):
    """Shortest grid path between two free cells.

    Euclidean straight-line heuristic (admissible and consistent for both
    connectivities), read from one table per call; ties prefer lower f,
    then higher g, then the lower row-major cell index, so paths are
    reproducible. The path holds the map's shared cell_table tuples.
    Disconnected if no path joins the two cells.
    """
    if start_cell == goal_cell:
        return [start_cell], 0.0
    rows, cols = grid.rows, grid.cols
    size = grid.cell_size
    steps = weighted_steps(connectivity, size)
    blocked = grid.occupancy.tolist()
    table = grid.cell_table
    heuristic = (size * np.hypot(np.arange(rows)[:, None] - goal_cell[0],
                                 np.arange(cols) - goal_cell[1])).tolist()

    start_h = heuristic[start_cell[0]][start_cell[1]]
    open_heap = [(start_h, -0.0, start_cell[0] * cols + start_cell[1], start_cell)]
    g_score = {start_cell: 0.0}
    came = {}
    closed = set()
    while open_heap:
        f, neg_g, _, cell = heappop(open_heap)
        if cell in closed:
            continue
        if cell == goal_cell:
            path = [cell]
            while cell in came:
                cell = came[cell]
                path.append(cell)
            path.reverse()
            return path, g_score[goal_cell]
        closed.add(cell)
        g = -neg_g
        for dr, dc, step_cost in steps:
            r, c = cell[0] + dr, cell[1] + dc
            if not (0 <= r < rows and 0 <= c < cols) or blocked[r][c]:
                continue
            k = r * cols + c
            nxt = table[k]
            if nxt in closed:
                continue
            ng = g + step_cost
            if ng < g_score.get(nxt, np.inf) - 1e-12:
                g_score[nxt] = ng
                came[nxt] = cell
                heappush(open_heap, (ng + heuristic[r][c], -ng, k, nxt))
    raise Disconnected(f"no path {start_cell} -> {goal_cell} under {connectivity}-connectivity")


def stitch(tour: Tour, grid: GridMap, connectivity: int = 4) -> Trajectory:
    """Join consecutive tour cells with shortest grid paths.

    Grid neighbours are joined by their direct step, which is strictly
    shorter than any other path between them; A* joins the other pairs.
    Segment endpoints are deduplicated; length is the summed segment
    costs, which equals the sum of cost-matrix entries along the tour.
    """
    cells = grid.free_cells()
    steps = {(dr, dc): length for dr, dc, length in weighted_steps(connectivity, grid.cell_size)}
    path = [cells[tour.order[0]]]
    total = 0.0
    for k in range(len(tour.order) - 1):
        a, b = cells[tour.order[k]], cells[tour.order[k + 1]]
        step = steps.get((b[0] - a[0], b[1] - a[1]))
        if step is not None:
            path.append(b)
            total += step
            continue
        seg, seg_len = astar(grid, a, b, connectivity)
        path.extend(seg[1:])
        total += seg_len
    return Trajectory(Tour(tour.order, total), tuple(path), total)


def plan(grid: GridMap, params: ModelParams, connectivity: int = 4) -> Trajectory:
    """Full learned pipeline: encode, eval-mode forward, decode, stitch.

    The graph is encoded at exactly n_free slots (padding is inert in
    eval mode, so trimming it changes nothing but speed); the model's
    n_max is still the hard capacity bound.
    """
    if grid.n_free > params.config.n_max:
        raise CapacityExceeded(
            f"{grid.n_free} free cells exceed model capacity {params.config.n_max}"
        )
    t0 = time.perf_counter()
    graph = encode(grid, n_max=grid.n_free, connectivity=connectivity)
    heat = heat_for_graph(graph, params)
    tour = greedy_decode(heat, graph, grid.start_slot)
    traj = stitch(tour, grid, connectivity)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    return Trajectory(traj.tour, traj.path, traj.length, elapsed_ms)


def trajectory_to_text(traj: Trajectory, scenario_hash: str) -> str:
    lines = [
        TRAJ_HEADER,
        f"scenario {scenario_hash}",
        "tour " + " ".join(str(s) for s in traj.tour.order),
        "path " + " ".join(f"{r},{c}" for r, c in traj.path),
        f"length_m {traj.length!r}",
        f"inference_ms {traj.inference_ms!r}",
    ]
    return "\n".join(lines) + "\n"


def trajectory_from_text(text: str) -> tuple[Trajectory, str]:
    """A trajectory file's contents; a missing, repeated or unknown key, a
    negative slot or cell, or a length or time that is not finite and >= 0
    is a ParseError."""
    lines = text.splitlines()
    if not lines or lines[0] != TRAJ_HEADER:
        raise FormatVersionMismatch(f"bad trajectory header: {lines[0]!r}" if lines else "empty file")
    fields = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        key, _, value = line.partition(" ")
        if key in fields:
            raise ParseError(f"trajectory key {key!r} given twice")
        fields[key] = value
    try:
        scenario_hash = fields.pop("scenario")
        order = tuple(int(s) for s in fields.pop("tour").split())
        pairs = (pair.split(",") for pair in fields.pop("path").split())
        path = tuple((int(r), int(c)) for r, c in pairs)
        length = float(fields.pop("length_m"))
        inference_ms = float(fields.pop("inference_ms"))
    except (KeyError, ValueError) as exc:
        raise ParseError(f"malformed trajectory file: {exc}") from exc
    if fields:
        raise ParseError(f"unknown trajectory key {next(iter(fields))!r}")
    if any(s < 0 for s in order) or any(v < 0 for cell in path for v in cell):
        raise ParseError("trajectory tour slots and path cells must be >= 0")
    if not all(math.isfinite(v) and v >= 0.0 for v in (length, inference_ms)):
        raise ParseError(f"trajectory length_m {length!r} and inference_ms {inference_ms!r} "
                         "must be finite and >= 0")
    return Trajectory(Tour(order, length), path, length, inference_ms), scenario_hash


def save_trajectory(traj: Trajectory, scenario_hash: str, path) -> None:
    atomic_write_text(path, trajectory_to_text(traj, scenario_hash))


def load_trajectory(path) -> tuple[Trajectory, str]:
    return trajectory_from_text(read_text(path))
