"""Turn an edge-probability heat graph into a feasible coverage trajectory.

Greedy decoding walks the map picking the unvisited cell with the highest
symmetrized probability inside an expanding local neighborhood; A* then
stitches consecutive tour cells into a collision-free grid path. The
decoder covers every free cell for any heat input, including uniform or
adversarial ones, because the neighborhood radius keeps growing until an
unvisited cell appears.
"""

import time
from dataclasses import dataclass
from heapq import heappop, heappush
from pathlib import Path

import numpy as np

from .errors import CapacityExceeded, FormatVersionMismatch, ParseError
from .fileio import atomic_write_text
from .graph import ScenarioGraph, encode
from .model import ModelParams, heat_for_graph
from .oracle import Tour
from .scenario import GridMap, neighbor_steps

TRAJ_HEADER = "cpp-traj v1"


@dataclass(frozen=True)
class Trajectory:
    tour: Tour                    # visit order over free-cell slots
    path: tuple                   # stitched cell sequence, revisits included
    length: float                 # meters
    inference_ms: float = 0.0


def greedy_decode(heat: np.ndarray, graph: ScenarioGraph, grid: GridMap,
                  start: int, connectivity: int = 4) -> Tour:
    """Greedy tour over symmetrized probabilities with expanding neighborhoods.

    From the current cell, the unvisited node with the highest
    (p_ij + p_ji) / 2 within radius r is chosen (ties to the lower slot);
    r starts at 1 and grows until a candidate exists.
    """
    n = graph.n_free
    sym = (heat + heat.T) * 0.5
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    order = [start]
    cells = np.array(graph.slot_cells[:n])
    max_radius = grid.rows + grid.cols
    current = start
    for _ in range(n - 1):
        cur_cell = cells[current]
        dr = np.abs(cells[:, 0] - cur_cell[0])
        dc = np.abs(cells[:, 1] - cur_cell[1])
        # Manhattan balls on 4-connected grids, Chebyshev balls on
        # 8-connected ones: radius 1 is exactly the grid neighbors
        radii = dr + dc if connectivity == 4 else np.maximum(dr, dc)
        chosen = -1
        for r in range(1, max_radius + 1):
            candidates = np.flatnonzero(~visited & (radii <= r))
            if len(candidates):
                probs = sym[current, candidates]
                chosen = int(candidates[int(np.argmax(probs))])
                break
        if chosen < 0:
            raise AssertionError("expansion exhausted with unvisited cells left")
        visited[chosen] = True
        order.append(chosen)
        current = chosen
    return Tour(tuple(order))


def astar(grid: GridMap, start_cell, goal_cell, connectivity: int = 4):
    """Shortest grid path between two free cells.

    Euclidean straight-line heuristic (admissible and consistent for both
    connectivities); ties prefer lower f, then higher g, then the lower
    row-major cell index, so paths are reproducible.
    """
    if start_cell == goal_cell:
        return [start_cell], 0.0
    size = grid.cell_size
    steps = [
        (dr, dc, size * (np.sqrt(2.0) if dr and dc else 1.0))
        for dr, dc in neighbor_steps(connectivity)
    ]

    def heuristic(cell):
        return size * float(np.hypot(cell[0] - goal_cell[0], cell[1] - goal_cell[1]))

    start_h = heuristic(start_cell)
    open_heap = [(start_h, -0.0, start_cell[0] * grid.cols + start_cell[1], start_cell)]
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
            nxt = (cell[0] + dr, cell[1] + dc)
            if not grid.is_free(nxt) or nxt in closed:
                continue
            ng = g + step_cost
            if ng < g_score.get(nxt, np.inf) - 1e-12:
                g_score[nxt] = ng
                came[nxt] = cell
                heappush(open_heap, (ng + heuristic(nxt), -ng, nxt[0] * grid.cols + nxt[1], nxt))
    raise AssertionError(f"no path {start_cell} -> {goal_cell}; map invariant violated")


def stitch(tour: Tour, grid: GridMap, connectivity: int = 4) -> Trajectory:
    """Join consecutive tour cells with A* shortest paths.

    Segment endpoints are deduplicated; length is the summed segment
    costs, which equals the sum of cost-matrix entries along the tour.
    """
    cells = grid.free_cells()
    path = [cells[tour.order[0]]]
    total = 0.0
    for k in range(len(tour.order) - 1):
        seg, seg_len = astar(grid, cells[tour.order[k]], cells[tour.order[k + 1]], connectivity)
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
    start_slot = graph.cell_slots[grid.start]
    tour = greedy_decode(heat, graph, grid, start_slot, connectivity)
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
    lines = text.splitlines()
    if not lines or lines[0] != TRAJ_HEADER:
        raise FormatVersionMismatch(f"bad trajectory header: {lines[0]!r}" if lines else "empty file")
    fields = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        key, _, value = line.partition(" ")
        fields[key] = value
    try:
        scenario_hash = fields["scenario"]
        order = tuple(int(s) for s in fields["tour"].split())
        path = tuple(
            (int(r), int(c))
            for r, c in (pair.split(",") for pair in fields["path"].split())
        ) if fields["path"].strip() else ()
        length = float(fields["length_m"])
        inference_ms = float(fields["inference_ms"])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"malformed trajectory file: {exc}") from exc
    return Trajectory(Tour(order, length), path, length, inference_ms), scenario_hash


def save_trajectory(traj: Trajectory, scenario_hash: str, path) -> None:
    atomic_write_text(path, trajectory_to_text(traj, scenario_hash))


def load_trajectory(path) -> tuple[Trajectory, str]:
    return trajectory_from_text(Path(path).read_text(encoding="utf-8"))
