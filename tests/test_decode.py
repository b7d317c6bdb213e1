import dataclasses
import hashlib
from heapq import heappop, heappush

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
from cppnet.errors import CapacityExceeded, Disconnected, FormatVersionMismatch, ParseError
from cppnet.graph import encode
from cppnet.model import ModelConfig, heat_for_graph, init_params, load_checkpoint
from cppnet.oracle import Tour, cost_matrix, label_pairs, nearest_neighbor_tour, pairs_to_matrix, two_opt
from cppnet.scenario import GridMap, dataset_build, generate_scenario, weighted_steps

from conftest import FIXTURE_CKPT, bfs_distances
from test_scenario import GOLDEN_SETS


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


def reference_greedy_decode(heat, graph, start, connectivity=4):
    """The ring-scan decoder that greedy_decode replaced: every step finds
    the smallest radius of an unvisited cell over all cells."""
    n = graph.n_free
    sym = (heat + heat.T) * 0.5
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    order = [start]
    cells = np.array(graph.slot_cells[:n])
    current = start
    for _ in range(n - 1):
        cur_cell = cells[current]
        dr = np.abs(cells[:, 0] - cur_cell[0])
        dc = np.abs(cells[:, 1] - cur_cell[1])
        radii = dr + dc if connectivity == 4 else np.maximum(dr, dc)
        unvisited = np.flatnonzero(~visited)
        near = unvisited[radii[unvisited] == radii[unvisited].min()]
        chosen = int(near[np.argmax(sym[current, near])])
        visited[chosen] = True
        order.append(chosen)
        current = chosen
    return Tour(tuple(order))


def reference_astar(grid, start_cell, goal_cell, connectivity=4):
    """The A* that astar replaced: a per-cell np.hypot heuristic and
    grid.is_free tests."""
    if start_cell == goal_cell:
        return [start_cell], 0.0
    size = grid.cell_size
    steps = weighted_steps(connectivity, size)

    def heuristic(cell):
        return size * float(np.hypot(cell[0] - goal_cell[0], cell[1] - goal_cell[1]))

    open_heap = [(heuristic(start_cell), -0.0, start_cell[0] * grid.cols + start_cell[1],
                  start_cell)]
    g_score = {start_cell: 0.0}
    came = {}
    closed = set()
    while open_heap:
        _, neg_g, _, cell = heappop(open_heap)
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
    raise AssertionError("no path")


def _trapped_steps(tour, graph, connectivity):
    """Steps whose next cell is not a radius-1 cell of the current one."""
    norm = (lambda d: d[0] + d[1]) if connectivity == 4 else max
    cells = [graph.slot_cells[s] for s in tour.order]
    return sum(norm((abs(a[0] - b[0]), abs(a[1] - b[1]))) > 1 for a, b in zip(cells, cells[1:]))


@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize("kind", ["ties", "uniform", "trapped", "large"])
def test_decode_and_stitch_match_reference(kind, connectivity, monkeypatch):
    # 200 random maps of up to 8x8 per case: heats in {0, 0.5, 1} tie often,
    # uniform heats (half of them float32) do not, and half-blocked
    # maze-like maps trap the walk in dead ends; 20 maps of 10x10 to 30x30
    # with uniform heats send the walk out over wider rings
    rng = np.random.default_rng(["ties", "uniform", "trapped", "large"].index(kind))
    large = kind == "large"
    trapped = steps = 0
    for seed in range(20 if large else 200):
        rows, cols = rng.integers(10, 31, size=2) if large else rng.integers(2, 9, size=2)
        density = 0.5 if kind == "trapped" else rng.uniform(0.0, 0.5 if large else 0.4)
        grid = generate_scenario(rows, cols, (0.5, 1.0, 1.7)[seed % 3], density, seed=seed,
                                 connectivity=connectivity)
        graph = encode(grid, grid.n_free, connectivity)
        n = grid.n_free
        if kind == "ties":
            heat = rng.integers(0, 3, size=(n, n)) * 0.5
        else:
            heat = rng.uniform(size=(n, n)).astype(np.float32 if seed % 2 else np.float64)
        tour = greedy_decode(heat, graph, grid.start_slot)
        assert tour.order == reference_greedy_decode(heat, graph, grid.start_slot,
                                                     connectivity).order
        traj = stitch(tour, grid, connectivity)
        with monkeypatch.context() as m:
            m.setattr(decode, "astar", reference_astar)
            ref = stitch(tour, grid, connectivity)
        assert (traj.path, traj.length) == (ref.path, ref.length)
        trapped += _trapped_steps(tour, graph, connectivity)
        steps += n - 1
    assert trapped > (steps // 10 if kind == "trapped" else 0)


def test_decode_radius_follows_the_encoded_connectivity():
    # encode records its connectivity, and the decoder's radius-1 set and
    # radius rule both follow it
    rng = np.random.default_rng(9)
    differ = 0
    for seed in range(20):
        grid = generate_scenario(6, 7, 1.0, 0.3, seed=seed)
        n = grid.n_free
        heat = rng.uniform(size=(n, n))
        orders = {}
        for connectivity in (4, 8):
            graph = encode(grid, n, connectivity)
            assert graph.connectivity == connectivity
            orders[connectivity] = greedy_decode(heat, graph, grid.start_slot).order
            assert orders[connectivity] == reference_greedy_decode(
                heat, graph, grid.start_slot, connectivity).order
        differ += orders[4] != orders[8]
    assert differ > 0


@pytest.mark.parametrize("connectivity", [4, 8])
def test_decode_walks_out_to_a_far_ring(connectivity):
    # a 1x25 corridor started midway, heat rising with the slot: the walk
    # runs right to the end, and the next unvisited cell is then 13 rings
    # back, past the start
    grid = grid_from_rows(["." * 25], start=(0, 12))
    graph = encode(grid, 25, connectivity)
    heat = np.tile(np.arange(25) / 25, (25, 1))
    tour = greedy_decode(heat, graph, grid.start_slot)
    assert tour.order == tuple(range(12, 25)) + tuple(range(11, -1, -1))
    assert tour.order == reference_greedy_decode(heat, graph, grid.start_slot, connectivity).order


def test_decode_nan_heat_picks_as_argmax():
    # np.argmax takes the first NaN; the ring walk does the same
    grid = grid_from_rows(["...", "...", "..."])
    graph = encode(grid, 9)
    heat = np.random.default_rng(3).uniform(size=(9, 9))
    heat[4, [1, 5]] = np.nan
    for start in (4, 0):
        assert greedy_decode(heat, graph, start).order == \
            reference_greedy_decode(heat, graph, start).order


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


def test_astar_between_disconnected_cells_raises_disconnected():
    grid = grid_from_rows([".#", "#."])
    assert astar(grid, (0, 0), (1, 1), 8)[1] == pytest.approx(np.sqrt(2.0))
    with pytest.raises(Disconnected):
        astar(grid, (0, 0), (1, 1), 4)


def test_astar_deterministic():
    grid = generate_scenario(6, 6, 1.0, 0.2, seed=3)
    cells = grid.free_cells()
    a = astar(grid, cells[0], cells[-1])
    b = astar(grid, cells[0], cells[-1])
    assert a == b


def test_paths_of_one_map_share_its_cell_tuples():
    grid = generate_scenario(8, 8, 1.0, 0.3, seed=5)
    params = init_params(ModelConfig(hidden=4, conv_layers=1, n_max=64), seed=0)
    learned = plan(grid, params)
    baseline = stitch(nearest_neighbor_tour(cost_matrix(grid), grid.start_slot), grid)
    # both paths take A* detours, whose cells come from the table too
    assert len(learned.path) > grid.n_free and len(baseline.path) > grid.n_free
    table = {id(cell) for cell in grid.cell_table}
    assert all(id(cell) in table for cell in learned.path + baseline.path)
    fresh = trajectory_from_text(trajectory_to_text(learned, grid.content_hash()))[0].path
    assert fresh == learned.path
    assert all(type(r) is int and type(c) is int for r, c in learned.path)


# sha256 of one line per map, the learned tour's order and the repr of its
# stitched length, planned with the trained fixture over the benchmark's map
# sets that test_scenario.GOLDEN_SETS pins; any change to a tour, or to a bit
# of its length, shows here
GOLDEN_PLANS = {
    "held-out 10x10, 4-connected": "36bb611b6387c96e2cb1d78cf51776245a336b273e1738b31de3b5e0a0f40d2a",
    "held-out 10x10, 8-connected": "eb47cc5fc48f8d27045992e63e1bcbf19a0e2a56977d5dcb5d6508c6f7ea741d",
    "held-out 20x20": "94ff711bb9babcb31f72c637bd60c99ae18df2084fee3808dfd015347a017eb2",
}


def fixture_for(rows, cols):
    """The trained fixture with room for every free cell of a rows x cols
    map: n_max is capacity only, and the 20x20 maps need more than the
    fixture's."""
    params = load_checkpoint(FIXTURE_CKPT)
    config = dataclasses.replace(params.config, n_max=max(params.config.n_max, rows * cols))
    return dataclasses.replace(params, config=config)


@pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
def test_learned_plans_are_unchanged(name):
    args = GOLDEN_SETS[name][0]
    rows, cols, connectivity = args[1], args[2], args[-1]
    params = fixture_for(rows, cols)
    text = ""
    for grid in dataset_build(*args).scenarios:
        traj = plan(grid, params, connectivity)
        text += " ".join(map(str, traj.tour.order)) + f" {traj.length!r}\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_PLANS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
def test_float32_copy_of_the_fixture_plans_the_same_tours(name):
    # training writes float32 checkpoints: the fixture's weights and
    # running statistics in float32 must plan every benchmark map as the
    # float64 fixture does, with heat within 5e-6 of the float64 heat
    args = GOLDEN_SETS[name][0]
    rows, cols, connectivity = args[1], args[2], args[-1]
    wide = fixture_for(rows, cols)
    assert wide.config.dtype == "float64"
    narrow = init_params(dataclasses.replace(wide.config, dtype="float32"), seed=0)
    for (_, dst), (_, src) in zip(narrow.named_trainable() + narrow.named_running(),
                                  wide.named_trainable() + wide.named_running()):
        dst[...] = src
    for grid in dataset_build(*args).scenarios:
        want, got = plan(grid, wide, connectivity), plan(grid, narrow, connectivity)
        assert got.tour == want.tour
        assert got.path == want.path
        assert got.length == want.length
        graph = encode(grid, grid.n_free, connectivity)
        heat = heat_for_graph(graph, narrow)
        assert heat.dtype == np.float32
        assert np.abs(heat - heat_for_graph(graph, wide)).max() <= 5e-6


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


@pytest.mark.parametrize("old, new, message", [
    ("length_m 1.0", "length_m nan", "must be finite and >= 0"),
    ("inference_ms 2.0", "inference_ms -inf", "must be finite and >= 0"),
    ("tour 0 1", "tour 0 -1", "slots and path cells must be >= 0"),
    ("path 0,0 0,1", "path 0,0 -1,1", "slots and path cells must be >= 0"),
], ids=["nan-length", "negative-inf-time", "negative-slot", "negative-cell"])
def test_trajectory_bad_value_rejected(old, new, message):
    with pytest.raises(ParseError, match=message):
        trajectory_from_text(TRAJ_TEXT.replace(old, new))


def test_trajectory_bad_header():
    with pytest.raises(FormatVersionMismatch):
        trajectory_from_text("cpp-traj v2\nscenario x\n")
