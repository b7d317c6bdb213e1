"""Shared test oracles, deliberately independent of package internals."""

import itertools
from collections import deque
from pathlib import Path

import numpy as np
import pytest

# the trained checkpoint the benchmark plans with
FIXTURE_CKPT = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "acceptance.ckpt"


def bfs_distances(grid, source, connectivity=4):
    """Reference shortest-path distances over free cells (plain BFS/Dijkstra
    on the cell graph, written independently of the package's cost code)."""
    steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    if connectivity == 8:
        steps += [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    dist = {source: 0.0}
    # uniform-cost search; fine for the small test maps
    frontier = deque([source])
    order = []
    while frontier:
        cell = frontier.popleft()
        order.append(cell)
        for dr, dc in steps:
            nxt = (cell[0] + dr, cell[1] + dc)
            if not grid.is_free(nxt):
                continue
            w = grid.cell_size * (np.sqrt(2.0) if dr and dc else 1.0)
            nd = dist[cell] + w
            if nd < dist.get(nxt, np.inf) - 1e-12:
                dist[nxt] = nd
                frontier.append(nxt)
    return dist


def flood_fill_free(grid, connectivity=4):
    """Set of free cells reachable from the start (independent oracle)."""
    steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    if connectivity == 8:
        steps += [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    seen = {grid.start}
    queue = deque([grid.start])
    while queue:
        r, c = queue.popleft()
        for dr, dc in steps:
            nxt = (r + dr, c + dc)
            if grid.is_free(nxt) and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def exhaustive_best_open_path(cost, start):
    """Minimum open-path length from start by enumerating all permutations."""
    n = cost.shape[0]
    rest = [i for i in range(n) if i != start]
    best = np.inf
    for perm in itertools.permutations(rest):
        total = 0.0
        cur = start
        for nxt in perm:
            total += cost[cur, nxt]
            cur = nxt
        best = min(best, total)
    return best


def finite_difference_check(params, loss_fn, grads, tol=1e-4):
    """Compare analytic grads against central differences for every entry.

    Central differences are only trustworthy at a step matched to the
    local landscape: tiny steps suffer round-off for near-zero gradients,
    large steps cross ReLU kinks. Each parameter is checked over a step
    ladder and accepted at the first trustworthy match; a wrong analytic
    value fails at every step. Returns the worst relative error
    |analytic - fd| / (|analytic| + 1e-8) over all parameters.
    """
    worst = 0.0
    worst_at = None
    for (name, arr), (_, garr) in zip(params.named_trainable(), grads.named_trainable()):
        flat = arr.reshape(-1)
        gflat = garr.reshape(-1)
        for k in range(flat.size):
            analytic = gflat[k]
            best_rel = np.inf
            for scale in (1e-6, 1e-5, 1e-4, 4e-3):
                orig = flat[k]
                step = scale * max(1.0, abs(orig))
                flat[k] = orig + step
                lp = loss_fn()
                flat[k] = orig - step
                lm = loss_fn()
                flat[k] = orig
                fd = (lp - lm) / (2.0 * step)
                best_rel = min(best_rel, abs(analytic - fd) / (abs(analytic) + 1e-8))
                if best_rel < tol:
                    break
            if best_rel > worst:
                worst = best_rel
                worst_at = f"{name}[{k}]"
    return worst, worst_at


def randomize_params(params, rng, scale=0.05):
    """Shift every trainable array by small uniform noise.

    Gradient checks need genuinely random parameters: the structured
    initialization (batch-norm shift exactly 0) combined with mirror-
    symmetric maps can place relu inputs exactly at the kink, where the
    loss is not differentiable and central differences are meaningless.
    """
    for _, arr in params.named_trainable():
        arr += rng.uniform(-scale, scale, size=arr.shape)
    return params


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
