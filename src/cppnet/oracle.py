"""Ground-truth coverage tours.

The tour objective is the summed shortest collision-free grid-path
distance between consecutive cells (an open path from the start cell, no
return leg). 2-opt over that metric produces the training labels and the
benchmark baseline; an exhaustive solver covers small instances as an
independent optimum reference.
"""

import functools
import itertools
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import Disconnected, FormatVersionMismatch, ParseError, TooLarge
from .fileio import atomic_write_text, read_text
from .scenario import GridMap, free_cell_edges

LABELS_HEADER = "cpp-labels v2"
TWO_OPT_RESTARTS = 8
TWO_OPT_SEED = 0


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """All-pairs shortest grid-path distances between free cells (meters)."""

    n: int
    cost: np.ndarray

    def __post_init__(self):
        self.cost.setflags(write=False)


@dataclass(frozen=True)
class Tour:
    """Visit order over node slots; length is under the cost matrix used
    to build it (NaN until a length has been attached)."""

    order: tuple
    length: float = float("nan")


def cost_matrix(grid: GridMap, connectivity: int = 4) -> CostMatrix:
    """Shortest grid-path costs between all free cells; Disconnected if
    some free cell cannot reach another under the connectivity."""
    n = grid.n_free
    # free_cell_edges gives its pairs in (i, j) order and both directions of each
    i, j, length = free_cell_edges(grid, connectivity)
    adj = csr_matrix((length, j, np.searchsorted(i, np.arange(n + 1))), shape=(n, n))
    cost = dijkstra(adj, directed=True)
    if not np.all(np.isfinite(cost)):
        raise Disconnected(f"free cells unreachable under {connectivity}-connectivity")
    return CostMatrix(n, cost)


def tour_length(costs: CostMatrix, order) -> float:
    """Summed cost of consecutive slots, added left to right (sum() on
    Python floats compensates its rounding from Python 3.12 on)."""
    o = np.asarray(order)
    return functools.reduce(operator.add, costs.cost[o[:-1], o[1:]].tolist(), 0.0)


def _ranked_rows(cost: np.ndarray) -> tuple[list, list]:
    """Each row's slots in ascending cost, equal costs in ascending slot
    order, and those costs, as lists."""
    ranks = np.argsort(cost, axis=1, kind="stable")
    return ranks.tolist(), np.take_along_axis(cost, ranks, axis=1).tolist()


def _nearest_neighbor_order(ranked, start: int, rng) -> list:
    """Greedy nearest-unvisited order from the start slot over _ranked_rows.

    Each slot is the current one once, so each step scans its row from
    rank 0 past the visited slots: the first unvisited one is the lowest
    slot of the nearest cost. With an rng, the unvisited slots of that
    cost's run are collected and, when there are several, one is drawn.
    """
    ranks, sorted_costs = ranked
    n = len(ranks)
    visited = [False] * n
    visited[start] = True
    order = [start]
    cur = start
    for _ in range(n - 1):
        row = ranks[cur]
        k = 0
        while visited[row[k]]:
            k += 1
        nxt = row[k]
        if rng is not None:
            costs = sorted_costs[cur]
            best = costs[k]
            ties = [nxt]
            for k in range(k + 1, n):
                if costs[k] != best:
                    break
                if not visited[row[k]]:
                    ties.append(row[k])
            if len(ties) > 1:
                nxt = ties[rng.integers(len(ties))]
        visited[nxt] = True
        order.append(nxt)
        cur = nxt
    return order


def nearest_neighbor_tour(costs: CostMatrix, start: int, rng=None) -> Tour:
    """Greedy nearest-unvisited construction from the start slot.

    Exact cost ties resolve to the lowest slot index; with an rng, tied
    picks are drawn from it instead.
    """
    order = _nearest_neighbor_order(_ranked_rows(costs.cost), start, rng)
    return Tour(tuple(order), tour_length(costs, order))


def _two_opt_descent(order: list, cost: np.ndarray) -> list:
    """First-improvement 2-opt for an open path, rescanning from scratch
    after every applied reversal. Position 0 never moves; termination is
    guaranteed by strict length decrease over a finite move set.

    Each scan computes the length change of every reversal of positions
    a..b (1 <= a < b < n) at once with numpy, over the cost matrix p
    permuted into path order, and applies the first improving one in
    row-major (a, b) order. Each delta is summed in one fixed order,
    ((p[a-1, b] + p[a, b+1]) - p[a-1, a]) - p[b, b+1], or for the tail
    b = n - 1, p[a-1, b] - p[a-1, a], so the floats, and with them the
    moves, are those of a scalar double loop over (a, b).
    """
    n = len(order)
    if n < 3:
        return order
    o = np.array(order)
    p = cost.take(o, axis=0).take(o, axis=1)
    flat = p.reshape(-1)
    # delta[a - 1, b] is the change of reversing a..b; only b > a is a move
    delta = np.empty((n - 2, n))
    later = np.arange(n) > np.arange(1, n - 1)[:, None]
    link = np.diagonal(p, 1)  # a view: link[k] = p[k, k + 1] as p changes
    removed = link[: n - 2, None]
    exit_edge = np.zeros(n)  # p[b, b + 1], none for the tail b = n - 1
    while True:
        # p[a - 1, b] + p[a, b + 1] for all a and b < n - 1 at once: two
        # runs of p's memory one row and one column apart
        np.add(flat[: (n - 2) * n], flat[n + 1 : (n - 1) * n + 1], out=delta.reshape(-1))
        delta -= removed
        exit_edge[:-1] = link
        delta -= exit_edge
        # tail reversal: only the entry edge changes
        np.subtract(p[: n - 2, n - 1], link[: n - 2], out=delta[:, -1])
        hits = delta < -1e-9
        hits &= later
        first = int(hits.argmax())
        if not hits.flat[first]:
            return o.tolist()
        a, b = divmod(first, n)
        a += 1
        o[a : b + 1] = o[a : b + 1][::-1]
        p[a : b + 1] = p[a : b + 1][::-1]
        p[:, a : b + 1] = p[:, a : b + 1][:, ::-1]


def two_opt(costs: CostMatrix, start: int = 0) -> Tour:
    """Best of TWO_OPT_RESTARTS first-improvement 2-opt descents, open path.

    Nearest-neighbor cost ties pick the construction: the first descent
    breaks them toward the lowest slot index, the remaining descents
    perturb them with draws from TWO_OPT_SEED (grid cost matrices tie
    constantly, and the tie taken at a junction often decides which
    2-opt basin the descent lands in), so the tour is deterministic. A
    single node gives the tour (start,) of length 0.

    The constructions share one ranking of each cost row (_ranked_rows).
    Each scan of a descent is one numpy delta matrix over every reversal
    (_two_opt_descent), with the floats and moves of a scalar
    first-improvement loop; tests/test_oracle.py pins the tours of the
    benchmark's map sets.
    """
    cost = costs.cost
    ranked = _ranked_rows(cost)
    best_order = None
    best_len = np.inf
    for r in range(TWO_OPT_RESTARTS):
        rng = None if r == 0 else np.random.default_rng([TWO_OPT_SEED, r])
        order = _two_opt_descent(_nearest_neighbor_order(ranked, start, rng), cost)
        length = tour_length(costs, order)
        if length < best_len - 1e-9:
            best_len = length
            best_order = order
    return Tour(tuple(best_order), best_len)


def brute_force(costs: CostMatrix, start: int = 0) -> Tour:
    """Exact minimum open path from the start by exhaustive enumeration.

    Ties resolve to the lexicographically smallest order because
    permutations are generated in lexicographic order and only strict
    improvements replace the incumbent.
    """
    n = costs.n
    if n > 10:
        raise TooLarge(f"brute force capped at 10 nodes, got {n}")
    rest = [i for i in range(n) if i != start]
    cost = costs.cost
    best_order = None
    best_len = np.inf
    for perm in itertools.permutations(rest):
        total = cost[start, perm[0]] if perm else 0.0
        for k in range(len(perm) - 1):
            total += cost[perm[k], perm[k + 1]]
            if total >= best_len:
                break
        if total < best_len:
            best_len = total
            best_order = (start,) + perm
    return Tour(best_order, float(best_len))


def label_pairs(tour: Tour) -> list[tuple[int, int]]:
    """Sorted undirected consecutive pairs of a tour."""
    pairs = {tuple(sorted((tour.order[k], tour.order[k + 1]))) for k in range(len(tour.order) - 1)}
    return sorted(pairs)


def _settings(connectivity: int) -> list[str]:
    return f"seed {TWO_OPT_SEED} connectivity {connectivity} restarts {TWO_OPT_RESTARTS}".split()


def labels_to_text(scenario_hash: str, pairs, connectivity: int = 4) -> str:
    lines = [" ".join([LABELS_HEADER, scenario_hash, *_settings(connectivity)])]
    lines.extend(f"{i} {j}" for i, j in pairs)
    return "\n".join(lines) + "\n"


def labels_from_text(text: str, connectivity: int = 4) -> tuple[str, list[tuple[int, int]]]:
    """Scenario hash and pairs; labels made under other settings are a ParseError."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty labels file")
    head = lines[0].split()
    want = _settings(connectivity)
    if " ".join(head[:2]) != LABELS_HEADER or len(head) != 9 or head[3::2] != want[::2]:
        raise FormatVersionMismatch(f"bad labels header: {lines[0]!r} (only {LABELS_HEADER} "
                                    "is read; delete the file to relabel its map)")
    if head[3:] != want:
        raise ParseError(f"labels made with {' '.join(head[3:])}, not {' '.join(want)}")
    pairs = []
    for line in lines[1:]:
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"bad label pair line: {line!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ParseError(f"bad label pair line: {line!r}") from exc
    return head[2], pairs


def _check_label_pairs(pairs, n_free: int, start: int, source: str) -> None:
    """Label pairs of a tour over n_free slots from the start slot: exactly
    n_free - 1 distinct pairs i < j, every index in [0, n_free), that form
    one open path over every slot with the start at one end. Any defect is
    a ParseError."""
    if len(pairs) != n_free - 1:
        raise ParseError(f"{source}: {len(pairs)} pairs for {n_free} free cells")
    if len(set(pairs)) != len(pairs):
        raise ParseError(f"{source}: duplicate pair")
    neighbours = [[] for _ in range(n_free)]
    for i, j in pairs:
        if not 0 <= i < j < n_free:
            raise ParseError(f"{source}: pair {i} {j} breaks 0 <= i < j < {n_free}")
        neighbours[i].append(j)
        neighbours[j].append(i)
    if n_free > 1 and len(neighbours[start]) != 1:
        raise ParseError(f"{source}: start slot {start} is not an end of the labelled path")
    # walk the path from the start until it ends or branches
    prev, cur, walked = -1, start, 1
    while True:
        nxt = [k for k in neighbours[cur] if k != prev]
        if len(nxt) != 1:
            break
        prev, cur = cur, nxt[0]
        walked += 1
    if walked != n_free:
        raise ParseError(f"{source}: pairs do not form one path over all {n_free} slots")


def pairs_to_matrix(pairs, n_max: int) -> np.ndarray:
    labels = np.zeros((n_max, n_max), dtype=np.float64)
    for i, j in pairs:
        labels[i, j] = 1.0
        labels[j, i] = 1.0
    return labels


class LabelCache:
    """Disk cache of 2-opt label pairs by scenario hash; a file names its settings."""

    def __init__(self, cache_dir, connectivity: int = 4):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.connectivity = connectivity
        self._memory: dict[str, list[tuple[int, int]]] = {}

    def _path(self, scenario_hash: str) -> Path:
        return self.cache_dir / f"{scenario_hash}.labels"

    def pairs_for(self, grid: GridMap) -> list[tuple[int, int]]:
        key = grid.content_hash()
        if key in self._memory:
            return self._memory[key]
        path = self._path(key) if self.cache_dir is not None else None
        if path is not None and path.is_file():
            try:
                stored_hash, pairs = labels_from_text(read_text(path), self.connectivity)
            except FormatVersionMismatch as exc:
                raise FormatVersionMismatch(f"label cache {path}: {exc}") from exc
            if stored_hash != key:
                raise ParseError(f"label cache {path} keyed for {stored_hash}, not {key}")
            _check_label_pairs(pairs, grid.n_free, grid.start_slot, f"label cache {path}")
        else:
            pairs = label_pairs(two_opt(cost_matrix(grid, self.connectivity), grid.start_slot))
            if path is not None:
                atomic_write_text(path, labels_to_text(key, pairs, self.connectivity))
        self._memory[key] = pairs
        return pairs
