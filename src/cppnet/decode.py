"""Turn an edge-probability heat graph into a feasible coverage trajectory.

Greedy decoding walks the map picking the unvisited cell with the highest
symmetrized probability among the nearest unvisited cells; A* then
stitches consecutive tour cells into a collision-free grid path. The
decoder covers every free cell for any heat input, including uniform or
adversarial ones, because some unvisited cell is always the nearest.
"""

import time
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .errors import CapacityExceeded, FormatVersionMismatch, ParseError
from .fileio import atomic_write_text, read_text
from .graph import ScenarioGraph, encode
from .model import ModelParams, heat_for_graph
from .oracle import Tour
from .scenario import GridMap, neighbor_steps, weighted_steps

TRAJ_HEADER = "cpp-traj v1"


@dataclass(frozen=True)
class Trajectory:
    tour: Tour                    # visit order over free-cell slots
    path: tuple                   # stitched cell sequence, revisits included
    length: float                 # meters
    inference_ms: float = 0.0


def _radius1_slots(cells: np.ndarray, connectivity: int) -> np.ndarray:
    """(n, S) slots of each slot's radius-1 cells under the decoder's radius
    rule, n where the step leaves the free cells. Slots number the cells in
    row-major order, so taking the steps in row-major offset order lists
    each slot's neighbours in ascending slot order."""
    n = len(cells)
    # slot of every cell, with a border of n on every side
    lookup = np.full(tuple(cells.max(axis=0) + 3), n)
    lookup[cells[:, 0] + 1, cells[:, 1] + 1] = np.arange(n)
    return np.stack([lookup[cells[:, 0] + 1 + dr, cells[:, 1] + 1 + dc]
                     for dr, dc in sorted(neighbor_steps(connectivity))], axis=1)


def greedy_decode(heat: np.ndarray, graph: ScenarioGraph, start: int,
                  connectivity: int = 4) -> Tour:
    """Greedy tour over symmetrized probabilities in the nearest neighborhood.

    From the current cell, the unvisited node with the highest
    (p_ij + p_ji) / 2 is chosen among the unvisited nodes at the smallest
    radius from it (ties to the lower slot). Radius 1 is scanned first, in
    plain Python over the precomputed neighbour slots and their
    probabilities; the radius scan over every cell runs only for a step with
    no unvisited neighbour.
    """
    n = graph.n_free
    cells = np.array(graph.slot_cells[:n])
    near1 = _radius1_slots(cells, connectivity)
    slots = np.arange(n)[:, None]
    # (p_ij + p_ji) / 2 of every radius-1 pair; slot n reads slot n - 1's
    # value, which the scan skips
    inside = np.minimum(near1, n - 1)
    near1_sym = ((heat[slots, inside] + heat[inside, slots]) * 0.5).tolist()
    near1 = near1.tolist()
    # slot n stands for "no free cell there" and counts as visited
    visited = [False] * n + [True]
    visited[start] = True
    order = [start]
    current = start
    for _ in range(n - 1):
        chosen, best = -1, 0.0
        for k, value in zip(near1[current], near1_sym[current]):
            if visited[k]:
                continue
            # strict > keeps the lowest slot of a tie; the first NaN wins,
            # as in np.argmax
            if chosen < 0 or value > best or (value != value and best == best):
                chosen, best = k, value
        if chosen < 0:
            cur_cell = cells[current]
            dr = np.abs(cells[:, 0] - cur_cell[0])
            dc = np.abs(cells[:, 1] - cur_cell[1])
            # Manhattan balls on 4-connected grids, Chebyshev balls on
            # 8-connected ones: radius 1 is exactly the grid neighbors
            radii = dr + dc if connectivity == 4 else np.maximum(dr, dc)
            unvisited = np.flatnonzero(~np.array(visited[:n]))
            near = unvisited[radii[unvisited] == radii[unvisited].min()]
            chosen = int(near[np.argmax((heat[current, near] + heat[near, current]) * 0.5)])
        visited[chosen] = True
        order.append(chosen)
        current = chosen
    return Tour(tuple(order))


def astar(grid: GridMap, start_cell, goal_cell, connectivity: int = 4):
    """Shortest grid path between two free cells.

    Euclidean straight-line heuristic (admissible and consistent for both
    connectivities), read from one table per call; ties prefer lower f,
    then higher g, then the lower row-major cell index, so paths are
    reproducible. The path holds the map's shared cell_table tuples.
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
    raise AssertionError(f"no path {start_cell} -> {goal_cell}; map invariant violated")


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
    tour = greedy_decode(heat, graph, grid.start_slot, connectivity)
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
    """A trajectory file's contents; a missing, repeated or unknown key is a
    ParseError."""
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
    return Trajectory(Tour(order, length), path, length, inference_ms), scenario_hash


def save_trajectory(traj: Trajectory, scenario_hash: str, path) -> None:
    atomic_write_text(path, trajectory_to_text(traj, scenario_hash))


def load_trajectory(path) -> tuple[Trajectory, str]:
    return trajectory_from_text(read_text(path))
