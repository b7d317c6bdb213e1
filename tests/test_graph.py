import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cppnet.errors import CapacityExceeded
from cppnet.graph import encode
from cppnet.oracle import cost_matrix
from cppnet.scenario import GridMap, free_cell_edges, free_cells_connected, generate_scenario

from conftest import bfs_distances, flood_fill_free


def test_unit_grid_adjacent_distances():
    grid = generate_scenario(10, 10, 1.0, 0.0, seed=0)
    graph = encode(grid, 100)
    assert np.allclose(graph.edges[2], 1.0)


def test_eight_connected_diagonal_distance():
    grid = generate_scenario(3, 3, 1.0, 0.0, seed=0)
    graph = encode(grid, 9, connectivity=8)
    slot = {cell: s for s, cell in enumerate(graph.slot_cells)}
    i, j, length = graph.edges
    (k,) = np.flatnonzero((i == slot[(0, 0)]) & (j == slot[(1, 1)]))
    assert length[k] == pytest.approx(np.sqrt(2.0), abs=1e-12)


@pytest.mark.parametrize("connectivity", [4, 8])
def test_edges_come_in_strict_i_j_order(connectivity):
    # free_cell_edges fixes the pair order, and encode keeps it as it comes
    grid = generate_scenario(6, 6, 1.0, 0.3, seed=4, connectivity=connectivity)
    i, j, length = free_cell_edges(grid, connectivity)
    key = i * grid.n_free + j
    assert len(key) > 0 and np.all(np.diff(key) > 0)
    for got, want in zip(encode(grid, 36, connectivity).edges, (i, j, length)):
        assert np.array_equal(got, want)


def test_3x3_adjacency_count():
    # 3*2 horizontal + 2*3 vertical grid edges = 12 undirected adjacencies
    grid = generate_scenario(3, 3, 1.0, 0.0, seed=0)
    graph = encode(grid, 9)
    assert all(len(a) == 24 for a in graph.edges)
    assert np.all(graph.edges[2] > 0)


def test_indicator_row_sums_match_grid_degree():
    grid = generate_scenario(6, 6, 1.0, 0.25, seed=8)
    graph = encode(grid, 36)
    out_degree = np.bincount(graph.edges[0], minlength=graph.n_free)
    for slot in range(graph.n_free):
        cell = graph.slot_cells[slot]
        degree = sum(1 for _ in grid.neighbors(cell))
        assert out_degree[slot] == degree


def test_row_major_enumeration_and_decode_roundtrip():
    grid = generate_scenario(5, 5, 1.0, 0.2, seed=3)
    graph = encode(grid, 25)
    assert list(graph.slot_cells) == grid.free_cells()
    assert graph.slot_cells[grid.start_slot] == grid.start


def test_capacity_exceeded():
    grid = generate_scenario(5, 5, 1.0, 0.0, seed=0)
    with pytest.raises(CapacityExceeded):
        encode(grid, 24)


def test_padding_rows_inert():
    # capacity beyond the free cells adds no node and no edge
    grid = generate_scenario(3, 3, 1.0, 0.2, seed=5)
    graph = encode(grid, 12)
    tight = encode(grid, grid.n_free)
    n = graph.n_free
    assert graph.n_max == 12 and graph.coords.shape == (n, 2)
    i, j, _ = graph.edges
    assert i.max() < n and j.max() < n and np.all(i != j)
    for a, b in zip(graph.edges, tight.edges):
        assert np.array_equal(a, b)


def test_encode_deterministic():
    grid = generate_scenario(6, 6, 1.0, 0.3, seed=2)
    a = encode(grid, 40)
    b = encode(grid, 40)
    assert np.array_equal(a.coords, b.coords)
    for x, y in zip(a.edges, b.edges):
        assert np.array_equal(x, y)


def test_cell_size_scales_distances():
    grid = generate_scenario(3, 3, 2.5, 0.0, seed=0)
    graph = encode(grid, 9)
    assert np.allclose(graph.edges[2], 2.5)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    density=st.floats(0.0, 0.6),
    seed=st.integers(0, 2**31 - 1),
    connectivity=st.sampled_from([4, 8]),
    cell_size=st.sampled_from([1.0, 0.3, 2.5]),
)
def test_free_cell_graph_matches_oracles(rows, cols, density, seed, connectivity, cell_size):
    # random occupancy, not necessarily connected, start possibly blocked
    rng = np.random.default_rng(seed)
    start = (int(rng.integers(rows)), int(rng.integers(cols)))
    grid = GridMap(rows, cols, cell_size, rng.random((rows, cols)) < density, start)
    cells = grid.free_cells()
    connected = flood_fill_free(grid, connectivity) == set(cells)
    assert free_cells_connected(grid, connectivity) == connected
    if grid.is_free(start):
        assert cells[grid.start_slot] == start

    graph = encode(grid, len(cells) + 1, connectivity)
    src, dst, length = graph.edges
    # the edge list is sorted by (i, j), each pair at most once
    assert np.all(np.diff(src * len(cells) + dst) > 0)
    edge_length = dict(zip(zip(src.tolist(), dst.tolist()), length.tolist()))
    costs = cost_matrix(grid, connectivity) if connected else None
    # a neighbour is one step away; any two steps are longer than a diagonal
    one_step = cell_size * np.sqrt(2.0) * (1 + 1e-9)
    for i, cell in enumerate(cells):
        assert graph.coords[i] == pytest.approx([(cell[1] + 0.5) * cell_size,
                                                 (cell[0] + 0.5) * cell_size])
        reference = bfs_distances(grid, cell, connectivity)
        for j, other in enumerate(cells):
            d = reference.get(other, np.inf)
            adjacent = 0 < d <= one_step
            assert ((i, j) in edge_length) == adjacent
            if adjacent:
                assert edge_length[i, j] == pytest.approx(d, rel=1e-12)
            if costs is not None:
                assert costs.cost[i, j] == pytest.approx(d, rel=1e-12, abs=1e-12)
