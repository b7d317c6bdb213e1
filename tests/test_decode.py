import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cppnet import decode
from cppnet.decode import (
    astar,
    greedy_decode,
    load_trajectory,
    plan,
    save_trajectory,
    stitch,
    trajectory_from_text,
    trajectory_to_text,
)
from cppnet.errors import CapacityExceeded, FormatVersionMismatch, ParseError
from cppnet.graph import encode
from cppnet.model import ModelConfig, init_params
from cppnet.oracle import Tour, cost_matrix, label_pairs, pairs_to_matrix, two_opt
from cppnet.scenario import GridMap, generate_scenario

from conftest import bfs_distances


def grid_from_rows(rows_text, cell_size=1.0, start=(0, 0)):
    rows = len(rows_text)
    cols = len(rows_text[0])
    occ = np.array([[ch == "#" for ch in row] for row in rows_text])
    return GridMap(rows, cols, cell_size, occ, start)


def test_ground_truth_heat_reproduces_corridor_sweep():
    grid = grid_from_rows(["....."])
    graph = encode(grid, 5)
    costs = cost_matrix(grid)
    tour = two_opt(costs, 0)
    heat = pairs_to_matrix(label_pairs(tour), 5)
    decoded = greedy_decode(heat, graph, 0)
    assert decoded.order == (0, 1, 2, 3, 4)


def test_uniform_heat_2x2_tie_breaking():
    grid = grid_from_rows(["..", ".."])
    graph = encode(grid, 4)
    heat = np.full((4, 4), 0.5)
    tour = greedy_decode(heat, graph, 0)
    cells = [graph.slot_cells[s] for s in tour.order]
    assert cells == [(0, 0), (0, 1), (1, 1), (1, 0)]


def test_trapped_decode_expands_neighborhood():
    # heat pushes the walk into the lower arm; (0, 2) is then only reachable
    # by expanding the radius past the immediate neighbors
    grid = grid_from_rows(["..#..", "....."])
    graph = encode(grid, grid.n_free)
    n = graph.n_free
    heat = np.zeros((n, n))
    forced = [(0, 0), (0, 1), (1, 1), (1, 0)]
    slot = {cell: s for s, cell in enumerate(graph.slot_cells)}
    for a, b in zip(forced, forced[1:]):
        heat[slot[a], slot[b]] = 1.0
    tour = greedy_decode(heat, graph, slot[(0, 0)])
    assert sorted(tour.order) == list(range(n))
    cells = [graph.slot_cells[s] for s in tour.order]
    assert cells[:4] == forced


def test_greedy_covers_under_adversarial_heat():
    rng = np.random.default_rng(5)
    for seed in range(10):
        grid = generate_scenario(5, 5, 1.0, 0.3, seed=seed)
        graph = encode(grid, grid.n_free)
        n = grid.n_free
        heat = rng.uniform(size=(n, n))
        tour = greedy_decode(heat, graph, 0)
        assert sorted(tour.order) == list(range(n))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    map_seed=st.integers(0, 2**31 - 1),
    heat_seed=st.integers(0, 2**31 - 1),
    density=st.floats(0.0, 0.5),
)
def test_decode_and_stitch_always_cover(map_seed, heat_seed, density):
    grid = generate_scenario(4, 5, 1.0, density, seed=map_seed)
    graph = encode(grid, grid.n_free)
    n = grid.n_free
    heat = np.random.default_rng(heat_seed).uniform(size=(n, n))
    tour = greedy_decode(heat, graph, 0)
    assert sorted(tour.order) == list(range(n))
    traj = stitch(tour, grid)
    seen = set(traj.path)
    assert seen == set(grid.free_cells())
    for a, b in zip(traj.path, traj.path[1:]):
        assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


def test_stitch_adjacent_tour_needs_no_extra_cells():
    grid = grid_from_rows(["...", "..."])
    costs = cost_matrix(grid)
    tour = two_opt(costs, 0)
    traj = stitch(tour, grid)
    cells = grid.free_cells()
    assert list(traj.path) == [cells[s] for s in tour.order]
    assert traj.length == pytest.approx(5.0)


def test_stitch_bridges_distant_pair():
    grid = grid_from_rows(["....."])
    traj = stitch(Tour((0, 4)), grid)
    assert traj.length == pytest.approx(4.0)
    assert list(traj.path) == [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)]


def test_stitched_length_matches_cost_matrix():
    for seed in range(6):
        grid = generate_scenario(5, 5, 1.0, 0.25, seed=seed)
        costs = cost_matrix(grid)
        start = grid.free_cells().index((0, 0))
        tour = two_opt(costs, start)
        traj = stitch(tour, grid)
        expected = sum(
            costs.cost[tour.order[k], tour.order[k + 1]]
            for k in range(len(tour.order) - 1)
        )
        assert traj.length == pytest.approx(expected, abs=1e-9)
        for a, b in zip(traj.path, traj.path[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
            assert grid.is_free(a) and grid.is_free(b)


@pytest.mark.parametrize("connectivity", [4, 8])
def test_stitch_steps_directly_between_neighbours(connectivity, monkeypatch):
    # A* runs only for segments whose cells are not grid neighbours, and the
    # result equals joining every segment with A*
    calls = []
    monkeypatch.setattr(decode, "astar", lambda *a: calls.append(a) or astar(*a))
    rng = np.random.default_rng(connectivity)
    segments = direct = 0
    for seed in range(6):
        grid = generate_scenario(5, 6, 0.5 + seed, 0.3, seed=seed)
        cells = grid.free_cells()
        order = [grid.start_slot] + [int(s) for s in rng.permutation(grid.n_free)
                                     if s != grid.start_slot]
        calls.clear()
        traj = stitch(Tour(tuple(order)), grid, connectivity)
        path, length = [cells[order[0]]], 0.0
        far = 0
        for a, b in zip(order, order[1:]):
            seg, seg_len = astar(grid, cells[a], cells[b], connectivity)
            path += seg[1:]
            length += seg_len
            far += len(seg) > 2
        assert list(traj.path) == path
        assert traj.length == length
        assert len(calls) == far
        segments += len(order) - 1
        direct += len(order) - 1 - far
    assert 0 < direct < segments


def test_stitch_eight_connected():
    grid = grid_from_rows(["...", "...", "..."])
    traj = stitch(Tour((0, 8)), grid, connectivity=8)
    assert traj.length == pytest.approx(2 * np.sqrt(2.0))


def test_astar_matches_bfs_oracle():
    for seed in range(5):
        grid = generate_scenario(6, 6, 1.0, 0.3, seed=40 + seed)
        cells = grid.free_cells()
        oracle = bfs_distances(grid, cells[0])
        for goal in cells[:: max(1, len(cells) // 7)]:
            path, length = astar(grid, cells[0], goal)
            assert length == pytest.approx(oracle[goal], abs=1e-9)
            assert path[0] == cells[0] and path[-1] == goal


def test_astar_deterministic():
    grid = generate_scenario(6, 6, 1.0, 0.2, seed=3)
    cells = grid.free_cells()
    a = astar(grid, cells[0], cells[-1])
    b = astar(grid, cells[0], cells[-1])
    assert a == b


def test_plan_single_free_cell():
    grid = grid_from_rows([".#", "##"])
    params = init_params(ModelConfig(hidden=4, conv_layers=1, n_max=4), seed=0)
    traj = plan(grid, params)
    assert traj.length == 0.0
    assert list(traj.path) == [(0, 0)]
    assert traj.tour.order == (0,)


def test_plan_covers_and_is_deterministic():
    grid = generate_scenario(6, 6, 1.0, 0.25, seed=12)
    params = init_params(ModelConfig(hidden=8, conv_layers=2, n_max=36), seed=1)
    a = plan(grid, params)
    b = plan(grid, params)
    assert sorted(a.tour.order) == list(range(grid.n_free))
    assert a.tour.order == b.tour.order
    assert a.path == b.path
    assert a.length == b.length


def test_plan_capacity_guard():
    grid = generate_scenario(6, 6, 1.0, 0.0, seed=0)
    params = init_params(ModelConfig(hidden=4, conv_layers=1, n_max=16), seed=0)
    with pytest.raises(CapacityExceeded):
        plan(grid, params)


def test_trajectory_file_roundtrip(tmp_path):
    grid = generate_scenario(5, 5, 1.0, 0.2, seed=2)
    params = init_params(ModelConfig(hidden=4, conv_layers=1, n_max=25), seed=0)
    for connectivity in (4, 8):
        traj = plan(grid, params, connectivity)
        path = tmp_path / f"out{connectivity}.traj"
        save_trajectory(traj, grid.content_hash(), path)
        loaded, loaded_hash = load_trajectory(path)
        assert loaded_hash == grid.content_hash()
        assert loaded.tour.order == traj.tour.order
        assert loaded.path == traj.path
        assert loaded.length == traj.length
        assert loaded.inference_ms == traj.inference_ms
        # rewrite is byte-identical
        assert trajectory_to_text(loaded, loaded_hash) == path.read_text()


TRAJ_TEXT = "cpp-traj v1\nscenario x\ntour 0 1\npath 0,0 0,1\nlength_m 1.0\ninference_ms 2.0\n"


@pytest.mark.parametrize("extra, message", [("length_m 5.0\n", "'length_m' given twice"),
                                            ("speed 3\n", "unknown trajectory key 'speed'")],
                         ids=["repeated", "unknown"])
def test_trajectory_repeated_or_unknown_key_rejected(extra, message):
    assert trajectory_from_text(TRAJ_TEXT)[0].length == 1.0
    with pytest.raises(ParseError, match=message):
        trajectory_from_text(TRAJ_TEXT + extra)


def test_trajectory_bad_header():
    with pytest.raises(FormatVersionMismatch):
        trajectory_from_text("cpp-traj v2\nscenario x\n")
