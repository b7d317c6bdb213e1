"""Graph encoding of a grid scenario: its free cells and their neighbour pairs.

Free cells become node slots in row-major order. The encoding carries the
cell-centre coordinates of each slot and the free-cell edge list, every
directed neighbour pair (i, j) with its step length, sorted by (i, j), and
the connectivity (4 or 8) those pairs follow.
n_max is the capacity: the slots of the padded heat and label maps.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CapacityExceeded
from .scenario import GridMap, free_cell_edges


@dataclass(frozen=True, eq=False)
class ScenarioGraph:
    n_max: int
    n_free: int
    coords: np.ndarray      # (n_free, 2) cell centres in metres
    edges: tuple            # (i, j, length): neighbour pairs sorted by (i, j)
    slot_cells: tuple       # slot -> (row, col), length n_free
    connectivity: int       # 4 or 8: the neighbour steps the edges follow


def encode(grid: GridMap, n_max: int, connectivity: int = 4) -> ScenarioGraph:
    """Encode a grid map as an n_max-capacity graph; coordinates in metres."""
    n_free = grid.n_free
    if n_free > n_max:
        raise CapacityExceeded(f"{n_free} free cells exceed capacity {n_max}")

    rs, cs = np.nonzero(~grid.occupancy)
    coords = np.stack([(cs + 0.5) * grid.cell_size, (rs + 0.5) * grid.cell_size], axis=1)
    i, j, length = free_cell_edges(grid, connectivity)
    order = np.lexsort((j, i))
    edges = (i[order], j[order], length[order])
    for arr in (coords, *edges):
        arr.setflags(write=False)
    return ScenarioGraph(n_max, n_free, coords, edges, tuple(grid.free_cells()), connectivity)
