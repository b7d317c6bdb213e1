import itertools

import numpy as np
import pytest

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
    nearest_neighbor_tour,
    pairs_to_matrix,
    tour_length,
    two_opt,
    Tour,
)
from cppnet.scenario import GridMap, generate_scenario, scenario_from_text

from conftest import bfs_distances, exhaustive_best_open_path


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


def test_two_opt_is_locally_optimal():
    grid = generate_scenario(5, 5, 1.0, 0.2, seed=21)
    costs = cost_matrix(grid)
    tour = two_opt(costs, 0)
    order = list(tour.order)
    cost = costs.cost
    n = len(order)
    for a in range(1, n - 1):
        for b in range(a + 1, n):
            if b < n - 1:
                delta = (
                    cost[order[a - 1], order[b]]
                    + cost[order[a], order[b + 1]]
                    - cost[order[a - 1], order[a]]
                    - cost[order[b], order[b + 1]]
                )
            else:
                delta = cost[order[a - 1], order[b]] - cost[order[a - 1], order[a]]
            assert delta >= -1e-9, f"improving reversal ({a}, {b}) left behind"


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
    ("cpp-labels v1 {hash}", 4, None),
    ("cpp-labels v2 {hash} seed 1 connectivity 4 restarts 8", 4, "seed 1 connectivity 4"),
    ("cpp-labels v1 {hash}", 8, "seed 0 connectivity 4"),
], ids=["defaults", "seed", "connectivity"])
def test_label_cache_reads_v1_only_under_its_settings(tmp_path, head, connectivity, refused):
    # a v1 file names no settings; it was written with seed 0,
    # 4-connectivity and 8 restarts, so it reads as the v2 file naming
    # them, and its pairs under a header naming seed 1 are refused
    grid = generate_scenario(5, 5, 1.0, 0.2, seed=2)
    pairs = label_pairs(two_opt(cost_matrix(grid), grid.start_slot))
    path = tmp_path / f"{grid.content_hash()}.labels"
    head = head.format(hash=grid.content_hash())
    path.write_text(head + "\n" + "".join(f"{i} {j}\n" for i, j in pairs))
    cache = LabelCache(tmp_path, connectivity=connectivity)
    if refused:
        with pytest.raises(ParseError, match=f"labels made with {refused}"):
            cache.pairs_for(grid)
    else:
        assert cache.pairs_for(grid) == pairs
    assert path.read_text().startswith(head + "\n")


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


@pytest.mark.parametrize("edit", [
    lambda pairs, n: pairs[:-1] + [(0, 500)],
    lambda pairs, n: pairs[:-1] + [(-1, 3)],
    lambda pairs, n: pairs[:-1] + [pairs[-1][::-1]],
    lambda pairs, n: pairs[:-1] + [(2, 2)],
    lambda pairs, n: pairs[:-1] + [pairs[0]],
    lambda pairs, n: pairs[:-1],
    lambda pairs, n: pairs + [_unused_pair(pairs, n)],
], ids=["index-past-n_free", "negative-index", "i-after-j", "i-equals-j",
        "duplicate", "too-few", "too-many"])
def test_label_cache_rejects_bad_pairs(tmp_path, edit):
    grid = generate_scenario(5, 5, 1.0, 0.2, seed=2)
    pairs = LabelCache(tmp_path).pairs_for(grid)
    path = tmp_path / f"{grid.content_hash()}.labels"
    path.write_text(labels_to_text(grid.content_hash(), edit(pairs, grid.n_free)))
    with pytest.raises(ParseError):
        LabelCache(tmp_path).pairs_for(grid)


def test_label_file_non_integer_pair():
    with pytest.raises(ParseError):
        labels_from_text("cpp-labels v1 deadbeef\n0 x\n")


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
