import hashlib
import itertools

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from cppnet import oracle
from cppnet.errors import FormatVersionMismatch, ParseError, TooLarge
from cppnet.oracle import (
    TWO_OPT_RESTARTS,
    LabelCache,
    brute_force,
    cost_matrix,
    label_pairs,
    labels_from_text,
    labels_to_text,
    _two_opt_descent,
    nearest_neighbor_tour,
    pairs_to_matrix,
    tour_length,
    two_opt,
    Tour,
    CostMatrix,
)
from cppnet.scenario import (
    GridMap,
    dataset_build,
    free_cell_edges,
    generate_scenario,
    scenario_from_text,
)

from conftest import bfs_distances, exhaustive_best_open_path
from test_scenario import GOLDEN_SETS


def corridor(n):
    return GridMap(1, n, 1.0, np.zeros((1, n), dtype=bool), (0, 0))


def blocked_center_3x3():
    occ = np.zeros((3, 3), dtype=bool)
    occ[1, 1] = True
    return GridMap(3, 3, 1.0, occ, (0, 0))


def test_cost_matrix_manhattan_on_free_map():
    grid = generate_scenario(10, 10, 1.0, 0.0, seed=0)
    costs = cost_matrix(grid)
    slots = {cell: i for i, cell in enumerate(grid.free_cells())}
    assert costs.cost[slots[(0, 0)], slots[(9, 9)]] == pytest.approx(18.0)
    assert np.allclose(np.diag(costs.cost), 0.0)


def test_cost_matrix_detours_around_obstacle():
    grid = blocked_center_3x3()
    costs = cost_matrix(grid)
    slots = {cell: i for i, cell in enumerate(grid.free_cells())}
    assert costs.cost[slots[(0, 1)], slots[(2, 1)]] == pytest.approx(4.0)


def test_cost_matrix_matches_bfs_oracle():
    grid = generate_scenario(6, 6, 1.0, 0.3, seed=17)
    costs = cost_matrix(grid)
    cells = grid.free_cells()
    for src_slot in (0, len(cells) // 2, len(cells) - 1):
        oracle = bfs_distances(grid, cells[src_slot])
        for j, cell in enumerate(cells):
            assert costs.cost[src_slot, j] == pytest.approx(oracle[cell], abs=1e-9)


def test_cost_matrix_eight_connected():
    grid = generate_scenario(4, 4, 1.0, 0.0, seed=0)
    costs = cost_matrix(grid, connectivity=8)
    slots = {cell: i for i, cell in enumerate(grid.free_cells())}
    assert costs.cost[slots[(0, 0)], slots[(3, 3)]] == pytest.approx(3 * np.sqrt(2.0))
    oracle = bfs_distances(grid, (0, 0), connectivity=8)
    for j, cell in enumerate(grid.free_cells()):
        assert costs.cost[slots[(0, 0)], j] == pytest.approx(oracle[cell], abs=1e-9)


def test_cost_matrix_symmetric():
    grid = generate_scenario(5, 5, 1.0, 0.25, seed=9)
    costs = cost_matrix(grid)
    assert np.allclose(costs.cost, costs.cost.T)


def reference_cost_matrix(grid, connectivity):
    """The edge list through a COO matrix and an undirected Dijkstra, as
    cost_matrix was built before it read the sorted edge list as CSR."""
    n = grid.n_free
    i, j, length = free_cell_edges(grid, connectivity)
    return dijkstra(csr_matrix((length, (i, j)), shape=(n, n)), directed=False)


def reference_nearest_neighbor_tour(costs, start, rng=None):
    """The whole-row scan that the ranked construction replaced: each step
    masks the visited slots of the current row and takes its cheapest."""
    cost = costs.cost
    visited = np.zeros(costs.n, dtype=bool)
    visited[start] = True
    order = [start]
    for _ in range(costs.n - 1):
        row = np.where(visited, np.inf, cost[order[-1]])
        best = row.min()
        ties = np.flatnonzero(row == best)
        if len(ties) > 1 and rng is not None:
            nxt = int(ties[rng.integers(len(ties))])
        else:
            nxt = int(ties[0])
        visited[nxt] = True
        order.append(nxt)
    length = float(sum(cost[order[k], order[k + 1]] for k in range(len(order) - 1)))
    return Tour(tuple(order), length)


def random_maps(connectivity, cell_size, count=30):
    """Seeded maps of 2x2 to 10x10 cells at obstacle densities up to 0.5."""
    rng = np.random.default_rng([connectivity, int(cell_size * 10)])
    for _ in range(count):
        rows, cols = (int(x) for x in rng.integers(2, 11, size=2))
        yield generate_scenario(rows, cols, cell_size, float(rng.uniform(0.0, 0.5)),
                                seed=int(rng.integers(2**31)), connectivity=connectivity)


class DrawLog:
    """A seeded numpy Generator that logs the bound of every integers draw
    (integers(1) consumes no bits, so the state alone cannot show it)."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.bounds = []

    def integers(self, bound):
        self.bounds.append(bound)
        return self.rng.integers(bound)


MAP_KINDS = pytest.mark.parametrize("connectivity, cell_size", [(4, 1.0), (8, 1.0), (4, 0.3), (8, 0.3)])


@MAP_KINDS
def test_cost_matrix_matches_reference(connectivity, cell_size):
    for grid in random_maps(connectivity, cell_size):
        cost = cost_matrix(grid, connectivity).cost
        assert cost.tobytes() == reference_cost_matrix(grid, connectivity).tobytes()


@MAP_KINDS
def test_nearest_neighbor_matches_reference(connectivity, cell_size):
    # equal orders and lengths, and the same draws in number and in bound
    for k, grid in enumerate(random_maps(connectivity, cell_size)):
        costs = cost_matrix(grid, connectivity)
        for start in {grid.start_slot, k % costs.n}:
            assert nearest_neighbor_tour(costs, start) == reference_nearest_neighbor_tour(costs, start)
            for r in range(1, 4):
                rng, twin = DrawLog([k, r]), DrawLog([k, r])
                tour = nearest_neighbor_tour(costs, start, rng)
                assert tour == reference_nearest_neighbor_tour(costs, start, twin)
                assert rng.bounds == twin.bounds
                assert rng.rng.bit_generator.state == twin.rng.bit_generator.state


def hub_costs(n):
    """Slot 0 at cost 1 from every other slot, which are at cost 2 from each other."""
    cost = np.full((n, n), 2.0)
    cost[0, :] = cost[:, 0] = 1.0
    np.fill_diagonal(cost, 0.0)
    return CostMatrix(n, cost)


def test_nearest_neighbor_tie_run_skips_visited_slots():
    # 3 -> 0, then from 0 the run of cost 1 is slots 1 2 3 4 with 3 visited
    costs = hub_costs(5)
    assert nearest_neighbor_tour(costs, 3).order == (3, 0, 1, 2, 4)
    for seed in range(8):
        rng = DrawLog(seed)
        order = nearest_neighbor_tour(costs, 3, rng).order
        assert order[2] == (1, 2, 4)[np.random.default_rng(seed).integers(3)]
        assert rng.bounds[0] == 3
        twin = DrawLog(seed)
        assert order == reference_nearest_neighbor_tour(costs, 3, twin).order
        assert rng.bounds == twin.bounds
        assert rng.rng.bit_generator.state == twin.rng.bit_generator.state


def test_nearest_neighbor_lone_unvisited_tie_draws_nothing():
    # 1 -> 0, then from 0 the run of cost 1 is slots 1 2 with 1 visited
    rng = DrawLog(0)
    assert nearest_neighbor_tour(hub_costs(3), 1, rng) == Tour((1, 0, 2), 2.0)
    assert rng.bounds == []


@pytest.mark.parametrize("n, start, expected", [(1, 0, Tour((0,), 0.0)), (2, 1, Tour((1, 0), 1.0))])
def test_nearest_neighbor_one_and_two_slots(n, start, expected):
    rng = DrawLog(0)
    assert nearest_neighbor_tour(hub_costs(n), start) == expected
    assert nearest_neighbor_tour(hub_costs(n), start, rng) == expected
    assert rng.bounds == []


def test_corridor_sweep_is_unique_optimum():
    grid = corridor(6)
    costs = cost_matrix(grid)
    tour = two_opt(costs, 0)
    assert tour.order == (0, 1, 2, 3, 4, 5)
    assert tour.length == pytest.approx(5.0)


def test_2x3_hand_computed_optimum():
    grid = generate_scenario(2, 3, 1.0, 0.0, seed=0)
    costs = cost_matrix(grid)
    # independent exhaustive oracle over all 5! open paths
    oracle_best = exhaustive_best_open_path(costs.cost, 0)
    assert oracle_best == pytest.approx(5.0)
    assert brute_force(costs, 0).length == pytest.approx(5.0)
    assert two_opt(costs, 0).length == pytest.approx(5.0)


def test_two_opt_never_worse_than_nearest_neighbor():
    for seed in range(6):
        grid = generate_scenario(6, 6, 1.0, 0.2 + 0.05 * (seed % 3), seed=seed)
        costs = cost_matrix(grid)
        start = grid.free_cells().index((0, 0))
        nn = nearest_neighbor_tour(costs, start)
        improved = two_opt(costs, start)
        assert improved.length <= nn.length + 1e-9


def reversal_deltas(order, cost):
    """Length change of reversing positions a..b of an open path, by (a, b)."""
    n = len(order)
    deltas = {}
    for a in range(1, n - 1):
        for b in range(a + 1, n):
            if b < n - 1:
                deltas[a, b] = (
                    cost[order[a - 1], order[b]]
                    + cost[order[a], order[b + 1]]
                    - cost[order[a - 1], order[a]]
                    - cost[order[b], order[b + 1]]
                )
            else:
                deltas[a, b] = cost[order[a - 1], order[b]] - cost[order[a - 1], order[a]]
    return deltas


def improving_moves(order, cost):
    return sorted(move for move, delta in reversal_deltas(order, cost).items() if delta < -1e-9)


def reversed_at(order, a, b):
    return order[:a] + order[a : b + 1][::-1] + order[b + 1 :]


def line_costs(x):
    """Cost matrix of nodes placed at the points x of a line."""
    x = np.asarray(x, dtype=float)
    return np.abs(x[:, None] - x[None, :])


def symmetric_costs(n, entries):
    cost = np.zeros((n, n))
    for (i, j), value in entries.items():
        cost[i, j] = cost[j, i] = value
    return cost


def test_two_opt_is_locally_optimal():
    for connectivity, seed in itertools.product((4, 8), (21, 5, 30)):
        grid = generate_scenario(5, 5, 1.0, 0.2, seed=seed, connectivity=connectivity)
        costs = cost_matrix(grid, connectivity)
        tour = two_opt(costs, grid.start_slot)
        left = improving_moves(list(tour.order), costs.cost)
        assert not left, f"improving reversals {left} left behind ({connectivity}, {seed})"


@pytest.mark.parametrize("x, expected", [
    ([0], [0]),
    ([0, 1], [0, 1]),
    ([1, 0], [0, 1]),  # position 0 never moves, so two nodes never change
    ([0, 1, 2], [0, 1, 2]),
    ([0, 2, 1], [0, 2, 1]),  # the one move, the tail reversal (1, 2)
])
def test_descent_on_one_to_three_nodes(x, expected):
    assert _two_opt_descent(list(range(len(x))), line_costs(x)) == expected


def test_descent_takes_the_only_improving_move_a_tail_reversal():
    # nodes at 0, 3, 2, 1 on a line: only reversing the whole tail helps
    cost = line_costs([0, 3, 2, 1])
    assert improving_moves([0, 1, 2, 3], cost) == [(1, 3)]
    assert _two_opt_descent([0, 1, 2, 3], cost) == [0, 3, 2, 1]


@pytest.mark.parametrize("n, entries", [
    # tail reversal (1, 2): delta = 0.0 - t
    (3, {(0, 1): "t", (1, 2): 1.0}),
    # inner reversal (1, 2): delta = ((1.0 + 1.0) - 2.0) - t, while
    # ((1.0 + 1.0) - t) - 2.0 would round below -t; both tail reversals
    # change nothing
    (4, {(0, 1): 2.0, (0, 2): 1.0, (0, 3): 2.0, (1, 2): 1.0, (1, 3): 1.0, (2, 3): "t"}),
], ids=["tail", "inner"])
@pytest.mark.parametrize("t, taken", [(1e-9, False), (2e-9, True)])
def test_descent_threshold_is_strict(n, entries, t, taken):
    cost = symmetric_costs(n, {k: t if v == "t" else v for k, v in entries.items()})
    assert reversal_deltas(list(range(n)), cost)[1, 2] == -t
    assert (_two_opt_descent(list(range(n)), cost) != list(range(n))) == taken


@pytest.mark.parametrize("x, later_move, expected", [
    ([1, 2, 0, 4, 3], (2, 4), [0, 2, 1, 4, 3]),  # the later move is on a later row
    ([1, 3, 2, 4, 0], (1, 4), [0, 2, 1, 3, 4]),  # ... on the same row
])
def test_descent_applies_the_first_improving_move_in_row_major_order(x, later_move, expected):
    cost = line_costs(x)
    order = [0, 1, 2, 3, 4]
    moves = improving_moves(order, cost)
    assert moves[0] == (1, 2) and later_move in moves
    # a descent keeps no state between scans: after its first move it goes on
    # as a descent started from the order that move made
    assert _two_opt_descent(list(order), cost) == expected
    assert _two_opt_descent(reversed_at(order, 1, 2), cost) == expected
    assert _two_opt_descent(reversed_at(order, *later_move), cost) != expected


# sha256 of one line per map, the 2-opt tour's order and the repr of its
# length, over the benchmark's map sets that test_scenario.GOLDEN_SETS pins;
# any change to a tour, or to a bit of its length, shows here
GOLDEN_TOURS = {
    "held-out 10x10, 4-connected": "879f8b92b46e26d8f6cc20c8b5d02a34da17aca1693a06bfce59c31c04775fe1",
    "held-out 10x10, 8-connected": "1893038c9204871158b7898c655843c94264e5c24bcc2640898289179f2dc424",
    "held-out 20x20": "fb281ddf8515ba228eca20c66960db09ad9f2efed2afff8c7d5bc718c4bf962d",
    "acceptance train set": "b4a6e691650bbe445194f5ba70a0758266d75e61c94482aa85d04d13fd07a741",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TOURS))
def test_two_opt_tours_are_unchanged(name):
    args = GOLDEN_SETS[name][0]
    connectivity = args[-1]
    text = ""
    for grid in dataset_build(*args).scenarios:
        tour = two_opt(cost_matrix(grid, connectivity), grid.start_slot)
        text += " ".join(map(str, tour.order)) + f" {tour.length!r}\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_TOURS[name]


def test_two_opt_tour_is_valid_permutation():
    grid = generate_scenario(6, 6, 1.0, 0.35, seed=4)
    costs = cost_matrix(grid)
    start = grid.free_cells().index((0, 0))
    tour = two_opt(costs, start)
    assert tour.order[0] == start
    assert sorted(tour.order) == list(range(costs.n))
    assert tour.length == pytest.approx(tour_length(costs, tour.order))


def test_two_opt_deterministic_given_seed():
    grid = generate_scenario(6, 6, 1.0, 0.3, seed=13)
    costs = cost_matrix(grid)
    assert two_opt(costs, 0).order == two_opt(costs, 0).order


def test_two_opt_runs_its_fixed_restarts(monkeypatch):
    calls = []
    descent = oracle._two_opt_descent

    def counted(order, cost):
        calls.append(tuple(order))
        return descent(order, cost)

    monkeypatch.setattr(oracle, "_two_opt_descent", counted)
    two_opt(cost_matrix(generate_scenario(6, 6, 1.0, 0.3, seed=13)), 0)
    assert len(calls) == TWO_OPT_RESTARTS == 8


def test_brute_force_bounds_two_opt():
    hits = 0
    total = 0
    for seed in range(20):
        grid = generate_scenario(3, 3, 1.0, 0.1 + 0.05 * (seed % 5), seed=seed)
        costs = cost_matrix(grid)
        if costs.n > 9:
            continue
        total += 1
        best = brute_force(costs, 0)
        heur = two_opt(costs, 0)
        assert best.length <= heur.length + 1e-9
        if abs(best.length - heur.length) < 1e-9:
            hits += 1
    assert total >= 10
    assert hits / total >= 0.8


def test_brute_force_two_nodes():
    grid = corridor(2)
    costs = cost_matrix(grid)
    tour = brute_force(costs, 0)
    assert tour.order == (0, 1)
    assert tour.length == pytest.approx(1.0)


def test_brute_force_size_guard():
    grid = generate_scenario(4, 4, 1.0, 0.0, seed=0)
    with pytest.raises(TooLarge):
        brute_force(cost_matrix(grid), 0)


def test_tour_to_labels_counts():
    tour = Tour((0, 1, 2, 3), 3.0)
    labels = pairs_to_matrix(label_pairs(tour), 6)
    assert labels.sum() == 6  # 3 undirected pairs, stored symmetrically
    assert np.array_equal(labels, labels.T)
    row_sums = labels[:4, :4].sum(axis=1)
    assert sorted(row_sums.tolist()) == [1.0, 1.0, 2.0, 2.0]


def test_tour_to_labels_degenerate():
    assert not pairs_to_matrix(label_pairs(Tour((0,), 0.0)), 4).any()


def test_label_file_roundtrip(tmp_path):
    grid = generate_scenario(4, 4, 1.0, 0.25, seed=6)
    costs = cost_matrix(grid)
    pairs = label_pairs(two_opt(costs, 0))
    text = labels_to_text(grid.content_hash(), pairs)
    loaded_hash, loaded_pairs = labels_from_text(text)
    assert loaded_hash == grid.content_hash()
    assert loaded_pairs == pairs
    assert labels_to_text(loaded_hash, loaded_pairs) == text


def test_label_file_bad_header():
    with pytest.raises(FormatVersionMismatch):
        labels_from_text("cpp-labels v2 deadbeef\n0 1\n")


def test_label_cache_reuses_disk(tmp_path):
    grid = generate_scenario(5, 5, 1.0, 0.2, seed=2)
    cache = LabelCache(tmp_path)
    pairs = cache.pairs_for(grid)
    path = tmp_path / f"{grid.content_hash()}.labels"
    assert path.is_file()
    fresh = LabelCache(tmp_path)
    assert fresh.pairs_for(grid) == pairs
    matrix = pairs_to_matrix(pairs, 30)
    assert matrix.sum() == 2 * len(pairs)


# the exact bytes of both connectivities' label files for one map; any
# change to the 2-opt oracle's settings or tours shows here
GOLDEN_LABELS = {
    4: "seed 0 connectivity 4 restarts 8\n0 4\n1 2\n2 3\n3 5\n4 7\n5 6\n6 11\n7 12\n"
       "8 9\n8 14\n9 10\n10 11\n12 13\n13 16\n14 15\n15 19\n16 17\n17 18\n18 19\n",
    8: "seed 0 connectivity 8 restarts 8\n0 1\n1 2\n2 3\n3 5\n4 7\n4 8\n5 6\n6 11\n7 12\n"
       "8 9\n9 10\n10 11\n12 13\n13 16\n14 15\n14 17\n15 18\n16 17\n18 19\n",
}


@pytest.mark.parametrize("connectivity", [4, 8])
def test_label_file_golden_bytes(tmp_path, connectivity):
    grid = generate_scenario(5, 5, 1.0, 0.2, seed=2)
    LabelCache(tmp_path, connectivity=connectivity).pairs_for(grid)
    text = (tmp_path / f"{grid.content_hash()}.labels").read_text()
    assert text == "cpp-labels v2 0c21e97059c624d0 " + GOLDEN_LABELS[connectivity]


def _rewrite_settings(path, settings):
    text = path.read_text()
    head, rest = text.split("\n", 1)
    path.write_text(" ".join(head.split()[:3] + settings.split()) + "\n" + rest)


def test_label_file_names_its_settings(tmp_path):
    grid = generate_scenario(5, 5, 1.0, 0.2, seed=2)
    LabelCache(tmp_path, connectivity=8).pairs_for(grid)
    path = tmp_path / f"{grid.content_hash()}.labels"
    head = path.read_text().splitlines()[0]
    assert head == f"cpp-labels v2 {grid.content_hash()} seed 0 connectivity 8 restarts 8"
    assert LabelCache(tmp_path, connectivity=8).pairs_for(grid)
    _rewrite_settings(path, "seed 3 connectivity 8 restarts 8")
    with pytest.raises(ParseError, match="made with seed 3 connectivity 8 restarts 8, not seed 0"):
        LabelCache(tmp_path, connectivity=8).pairs_for(grid)


@pytest.mark.parametrize("settings, connectivity", [
    ("seed 1 connectivity 4 restarts 8", 4),
    ("seed 0 connectivity 4 restarts 8", 8),
], ids=["seed", "connectivity"])
def test_label_cache_refuses_labels_of_other_settings(tmp_path, settings, connectivity):
    grid = generate_scenario(5, 5, 1.0, 0.2, seed=2)
    LabelCache(tmp_path).pairs_for(grid)
    _rewrite_settings(tmp_path / f"{grid.content_hash()}.labels", settings)
    with pytest.raises(ParseError, match=f"labels made with {settings}, not "):
        LabelCache(tmp_path, connectivity=connectivity).pairs_for(grid)


def test_label_file_of_other_restarts_refused():
    with pytest.raises(ParseError, match="restarts 2, not seed 0 connectivity 4 restarts 8"):
        labels_from_text("cpp-labels v2 deadbeef seed 0 connectivity 4 restarts 2\n0 1\n")


@pytest.mark.parametrize("head, connectivity, refused", [
    ("cpp-labels v1 {hash}", 4, FormatVersionMismatch),
    ("cpp-labels v2 {hash} seed 1 connectivity 4 restarts 8", 4, ParseError),
    ("cpp-labels v1 {hash}", 8, FormatVersionMismatch),
], ids=["defaults", "seed", "connectivity"])
def test_label_cache_reads_v1_only_under_its_settings(tmp_path, head, connectivity, refused):
    # a v1 file names no settings, so it is refused whatever the cache's
    # settings, and the file is left for its owner to delete
    grid = generate_scenario(5, 5, 1.0, 0.2, seed=2)
    pairs = label_pairs(two_opt(cost_matrix(grid), grid.start_slot))
    path = tmp_path / f"{grid.content_hash()}.labels"
    text = head.format(hash=grid.content_hash()) + "\n" + "".join(f"{i} {j}\n" for i, j in pairs)
    path.write_text(text)
    cache = LabelCache(tmp_path, connectivity=connectivity)
    with pytest.raises(refused) as info:
        cache.pairs_for(grid)
    if refused is FormatVersionMismatch:
        assert str(path) in str(info.value) and "delete the file" in str(info.value)
    else:
        assert type(info.value) is ParseError
    assert path.read_text() == text


@pytest.mark.parametrize("head", [
    "cpp-labels v2 deadbeef seed 0 connectivity 4",
    "cpp-labels v2 deadbeef seed 0 connectivity 4 restart 8",
    "cpp-labels v1 deadbeef seed 0 connectivity 4 restarts 8",
])
def test_label_file_malformed_v2_header(head):
    with pytest.raises(FormatVersionMismatch):
        labels_from_text(head + "\n0 1\n")


def _unused_pair(pairs, n):
    return next(p for p in itertools.combinations(range(n), 2) if p not in pairs)


def _cycle_plus_path(n, start):
    """n - 1 pairs: a 3-cycle on the three highest slots but the start, and
    a path from the start over the rest."""
    cycle = [k for k in range(n) if k != start][-3:]
    path = [start] + [k for k in range(n) if k != start and k not in cycle]
    edges = list(zip(path, path[1:])) + list(zip(cycle, cycle[1:] + cycle[:1]))
    return sorted(tuple(sorted(e)) for e in edges)


@pytest.mark.parametrize("edit", [
    lambda pairs, n, start: pairs[:-1] + [(0, 500)],
    lambda pairs, n, start: pairs[:-1] + [(-1, 3)],
    lambda pairs, n, start: pairs[:-1] + [pairs[-1][::-1]],
    lambda pairs, n, start: pairs[:-1] + [(2, 2)],
    lambda pairs, n, start: pairs[:-1] + [pairs[0]],
    lambda pairs, n, start: pairs[:-1],
    lambda pairs, n, start: pairs + [_unused_pair(pairs, n)],
    lambda pairs, n, start: sorted(tuple(sorted((start, k))) for k in range(n) if k != start),
    lambda pairs, n, start: _cycle_plus_path(n, start),
], ids=["index-past-n_free", "negative-index", "i-after-j", "i-equals-j",
        "duplicate", "too-few", "too-many", "star", "cycle-plus-path"])
def test_label_cache_rejects_bad_pairs(tmp_path, edit):
    grid = generate_scenario(5, 5, 1.0, 0.2, seed=2)
    pairs = LabelCache(tmp_path).pairs_for(grid)
    path = tmp_path / f"{grid.content_hash()}.labels"
    bad = edit(pairs, grid.n_free, grid.start_slot)
    path.write_text(labels_to_text(grid.content_hash(), bad))
    with pytest.raises(ParseError):
        LabelCache(tmp_path).pairs_for(grid)


def test_label_file_non_integer_pair():
    with pytest.raises(ParseError, match="bad label pair line: '0 x'"):
        labels_from_text("cpp-labels v2 deadbeef seed 0 connectivity 4 restarts 8\n0 x\n")


def test_labels_match_tour_consecutive_pairs():
    grid = generate_scenario(4, 5, 1.0, 0.15, seed=3)
    costs = cost_matrix(grid)
    tour = two_opt(costs, 0)
    labels = pairs_to_matrix(label_pairs(tour), costs.n)
    for k in range(len(tour.order) - 1):
        assert labels[tour.order[k], tour.order[k + 1]] == 1.0
    assert labels.sum() == 2 * (costs.n - 1)


def test_single_free_cell_scenario_labels(tmp_path):
    grid = scenario_from_text("cpp-scenario v1 2 2 1.0 0 0\n.#\n##\n")
    assert LabelCache(tmp_path).pairs_for(grid) == []
    # a fresh cache reads the empty label file back from disk
    assert LabelCache(tmp_path).pairs_for(grid) == []
    assert two_opt(cost_matrix(grid), 0) == Tour((0,), 0.0)
