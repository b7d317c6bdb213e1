"""Correctness checks on every output the benchmark times.

Each check returns a list of problems, empty when the output is correct,
so the run counts failures instead of stopping at the first one. The
reference cost matrix for trajectory lengths comes from `cost_matrix` as
imported here, before any tracing patch, so checking adds no spans; timed
cost matrices are checked without it, by `check_cost_matrix`.
"""

import dataclasses
import math

import numpy as np

from cppnet.oracle import cost_matrix
from cppnet.scenario import neighbor_steps

LENGTH_TOL = 1e-9


class References:
    """Reference cost matrices, computed once per map and kept."""

    def __init__(self, connectivity: int = 4):
        self.connectivity = connectivity
        self._costs = {}

    def costs(self, key, grid):
        if key not in self._costs:
            self._costs[key] = cost_matrix(grid, self.connectivity)
        return self._costs[key]


def check_trajectory(traj, grid, costs, connectivity: int = 4) -> list[str]:
    """A coverage trajectory must:

    - visit each free-cell slot once in its tour, starting at the start slot;
    - move only to free grid neighbours along its path;
    - visit every free cell;
    - have the length of the cost-matrix sum along its tour, which is also
      the length of the path it walks.
    """
    problems = []
    cells = grid.free_cells()
    n = len(cells)
    order = list(traj.tour.order)
    permutation = sorted(order) == list(range(n))
    if not permutation:
        problems.append("tour is not a permutation of the free-cell slots")
    elif order[0] != cells.index(grid.start):
        problems.append(f"tour starts at slot {order[0]}, not at the start slot")

    path = list(traj.path)
    if not path or path[0] != grid.start:
        problems.append("path does not start at the start cell")
    steps = set(neighbor_steps(connectivity))
    walked = 0.0
    for a, b in zip(path, path[1:]):
        step = (b[0] - a[0], b[1] - a[1])
        if step not in steps or not grid.is_free(b):
            problems.append(f"path step {a} -> {b} is not a move to a free neighbour")
            break
        walked += grid.cell_size * (math.sqrt(2.0) if step[0] and step[1] else 1.0)
    else:
        if abs(walked - traj.length) > LENGTH_TOL:
            problems.append(f"length {traj.length!r} differs from the walked path {walked!r}")
    missed = set(cells) - set(path)
    if missed:
        problems.append(f"{len(missed)} free cells never visited")

    if permutation:
        expected = float(sum(costs.cost[order[k], order[k + 1]] for k in range(n - 1)))
        if abs(expected - traj.length) > LENGTH_TOL:
            problems.append(f"length {traj.length!r} differs from the cost-matrix sum {expected!r}")
    return problems


def check_cost_matrix(costs, grid, connectivity: int = 4) -> list[str]:
    """A cost matrix must hold the shortest-path lengths between free-cell
    slots. With positive step costs these are the only finite distances
    that are 0 on the diagonal and meet the Bellman equation
    cost[i, j] = min over neighbours k of j of cost[i, k] + step(k, j),
    so the check needs no shortest-path solver of its own."""
    cells = grid.free_cells()
    n = len(cells)
    cost = costs.cost
    if cost.shape != (n, n):
        return [f"cost matrix has shape {cost.shape}, expected {(n, n)}"]
    if not np.all(np.isfinite(cost)):
        return ["cost matrix has entries that are not finite"]
    slot = {cell: i for i, cell in enumerate(cells)}
    best = np.full((n, n), np.inf)
    for dr, dc in neighbor_steps(connectivity):
        step = grid.cell_size * (math.sqrt(2.0) if dr and dc else 1.0)
        # via[i, j]: from i to j's neighbour k = j + (dr, dc), then one step to j
        nbr = np.array([slot.get((r + dr, c + dc), -1) for r, c in cells])
        has = nbr >= 0
        via = np.full((n, n), np.inf)
        via[:, has] = cost[:, nbr[has]] + step
        np.minimum(best, via, out=best)
    np.fill_diagonal(best, 0.0)
    wrong = np.abs(cost - best) > LENGTH_TOL
    if wrong.any():
        i, j = np.argwhere(wrong)[0]
        return [f"cost[{i}, {j}] = {cost[i, j]!r} is not the shortest-path length "
                f"{best[i, j]!r}; {int(wrong.sum())} entries wrong"]
    return []


def check_label_pairs(pairs, grid) -> list[str]:
    """2-opt labels must be the edges of one open path over every free-cell
    slot that starts at the start slot."""
    cells = grid.free_cells()
    n = len(cells)
    start = cells.index(grid.start)
    adjacent = {i: [] for i in range(n)}
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            return [f"label pair ({i}, {j}) is not a pair of distinct slots"]
        adjacent[i].append(j)
        adjacent[j].append(i)
    if len(set(map(tuple, pairs))) != n - 1 or len(pairs) != n - 1:
        return [f"{len(pairs)} label pairs for {n} slots, expected {n - 1} distinct pairs"]
    if n > 1 and len(adjacent[start]) != 1:
        return ["the start slot is not an end of the labelled path"]
    seen = [start]
    prev, cur = None, start
    while True:
        nxt = [k for k in adjacent[cur] if k != prev]
        if len(nxt) != 1:
            break
        prev, cur = cur, nxt[0]
        seen.append(cur)
    if sorted(seen) != list(range(n)):
        return ["label pairs do not form one path over every slot"]
    return []


def check_loss(loss) -> list[str]:
    if not (isinstance(loss, float) and math.isfinite(loss)):
        return [f"loss {loss!r} is not a finite float"]
    return []


def same_output(a, b) -> bool:
    """Exact equality of two outputs of the same call. Trajectories are
    compared without their wall-clock field; arrays, tuples, lists and
    dataclasses element by element."""
    if hasattr(a, "tour") and hasattr(b, "tour"):
        return a.tour.order == b.tour.order and a.path == b.path and a.length == b.length
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same_output, a, b))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same_output(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    return a == b
