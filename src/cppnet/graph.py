"""Fixed-capacity graph encoding of a grid scenario.

Free cells become node slots in row-major order. The encoding carries
cell-center coordinates, an adjacency-gated distance matrix, and an
indicator matrix distinguishing adjacent pairs (1), self connections (2),
and everything else (0). Slots beyond the number of free cells are inert
padding: zero coordinates, zero distances, zero indicators.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CapacityExceeded, OutOfRange
from .scenario import GridMap, neighbor_steps


@dataclass(frozen=True, eq=False)
class ScenarioGraph:
    n_max: int
    n_free: int
    coords: np.ndarray      # (n_max, 2) cell centers in meters
    dist: np.ndarray        # (n_max, n_max) gated pairwise distances
    indicator: np.ndarray   # (n_max, n_max) int8 in {0, 1, 2}
    slot_cells: tuple       # slot -> (row, col), length n_free
    cell_slots: dict        # (row, col) -> slot

    def real_mask(self) -> np.ndarray:
        return np.diag(self.indicator) == 2


def encode(grid: GridMap, n_max: int, connectivity: int = 4, normalize: bool = False) -> ScenarioGraph:
    """Encode a grid map into an n_max-slot graph.

    normalize scales coordinates into [0, 1] over the map extent; the
    default keeps absolute meters.
    """
    cells = grid.free_cells()
    n_free = len(cells)
    if n_free > n_max:
        raise CapacityExceeded(f"{n_free} free cells exceed capacity {n_max}")

    cell_slots = {cell: i for i, cell in enumerate(cells)}
    coords = np.zeros((n_max, 2), dtype=np.float64)
    for i, (r, c) in enumerate(cells):
        coords[i, 0] = (c + 0.5) * grid.cell_size
        coords[i, 1] = (r + 0.5) * grid.cell_size
    if normalize:
        coords[:n_free, 0] /= grid.cols * grid.cell_size
        coords[:n_free, 1] /= grid.rows * grid.cell_size

    indicator = np.zeros((n_max, n_max), dtype=np.int8)
    dist = np.zeros((n_max, n_max), dtype=np.float64)
    for i, cell in enumerate(cells):
        indicator[i, i] = 2
        r, c = cell
        for dr, dc in neighbor_steps(connectivity):
            j = cell_slots.get((r + dr, c + dc))
            if j is not None:
                indicator[i, j] = 1
                dist[i, j] = float(np.hypot(*(coords[i] - coords[j])))

    coords.setflags(write=False)
    dist.setflags(write=False)
    indicator.setflags(write=False)
    return ScenarioGraph(n_max, n_free, coords, dist, indicator, tuple(cells), cell_slots)


def decode_node(graph: ScenarioGraph, slot: int) -> tuple[int, int]:
    """Map a real node slot back to its grid cell."""
    if not 0 <= slot < graph.n_free:
        raise OutOfRange(f"slot {slot} outside real range [0, {graph.n_free})")
    return graph.slot_cells[slot]
