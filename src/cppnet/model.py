"""Edge-probability graph network with hand-written exact gradients.

Architecture: a linear input embedding of node coordinates and of edge
(step length, indicator) pairs, a stack of residual gated graph-convolution
layers with batch normalization, and an MLP head that maps each final
edge feature to the probability of that edge belonging to the optimal
coverage tour.

Everything is plain numpy. The backward pass is derived by hand and is
exact reverse-mode differentiation of the forward, including the batch
normalization statistics and the neighbor-gating quotient; finite
differences validate it to 1e-4 relative error in the test suite.

Conventions:
  - Batches stack graphs of equal capacity n; graph b's real slots are
    0..n_b-1 and its free-cell edge list is the adjacency.
  - The model computes on real slots only, one block per graph: node
    features are (N, h) rows and edge features (P, h) rows, graph b
    owning n_b node rows and its (n_b, n_b) edge block. Padding slots are
    never computed; their heat is 0.
  - The first conv layer is held in closed form (FirstEdges) in both
    modes: its input rows are the bias row but on the adjacency, so its
    centred edge pre-activation is u_i + r_j, plus d_q on adjacency row q.
    It keeps no (P, h) array, only the (A, h) adjacency pre-activations,
    formed once per pass; each reader builds its tiles (_input_tile).
  - In training mode, batch-norm statistics are pooled over all blocks:
    over real nodes and over real ordered pairs (i != j); the first
    layer's follow from per-block node sums. Every later layer sums
    cache-sized edge tiles into one (P, h) edge buffer for the whole
    forward: the second layer builds the first layer's rows into it, and
    each layer adds relu(k t_c + beta) to it in place, so it ends as the
    final edge rows. The cache holds, per such layer, the centred edge
    pre-activations t_c and the edge ReLU mask; its input rows are
    described (HeldEdges) as the closed form plus the layers below it, and
    its backward rebuilds them tile by tile (_input_tile). The MLP
    backward computes each tile's hidden rows again and writes the edge
    gradient over the final rows in the buffer.
  - In eval mode, under the running statistics, the forward is depth-first
    and holds no (P, h) array: the conv layers run on the (A, h) adjacency
    rows only, which are all the node features read, and each past the
    first keeps its folded edge terms (the last computes nothing else,
    since only edge rows reach the head); the MLP head then builds each
    edge tile from the closed form and runs it through every folded edge
    update and the MLP.
"""

import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import (
    CacheConsumed,
    DegenerateBatch,
    FormatVersionMismatch,
    NonFiniteActivation,
    ParseError,
    ShapeMismatch,
)
from .fileio import atomic_write_bytes
from .graph import ScenarioGraph

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
GATE_EPS = 1e-20
PROB_CLAMP = 1e-7
# pair rows per eval-mode edge tile: 0.8 MB of float64 features at h = 50,
# so a tile and its scratch rows stay in a core's L2 cache (2 MB on the
# machine measured, where 1024-2048 rows ran up to 7% faster than 4096)
EDGE_TILE_ROWS = 2048
CHECKPOINT_HEADER = "cpp-checkpoint v1"


@dataclass(frozen=True)
class ModelConfig:
    hidden: int = 50
    conv_layers: int = 3
    mlp_layers: int = 2
    n_max: int = 100
    dtype: str = "float32"

    def __post_init__(self):
        if self.hidden < 2 or self.hidden % 2:
            raise ValueError("hidden width must be an even number >= 2")
        if self.conv_layers < 1:
            raise ValueError("need at least one conv layer")
        if self.mlp_layers < 1:
            raise ValueError("need at least one MLP layer")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.dtype not in ("float64", "float32"):
            raise ValueError("dtype must be float64 or float32")

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32


@dataclass
class BatchNorm:
    gamma: np.ndarray
    beta: np.ndarray
    run_mean: np.ndarray
    run_var: np.ndarray


@dataclass
class ConvLayer:
    w_self: np.ndarray       # node transform of the node itself
    w_neighbor: np.ndarray   # node transform of aggregated neighbors
    w_edge: np.ndarray       # edge transform of the edge feature
    w_source: np.ndarray     # edge transform of the source node
    w_target: np.ndarray     # edge transform of the target node
    bn_node: BatchNorm
    bn_edge: BatchNorm


@dataclass
class ModelParams:
    config: ModelConfig
    node_weight: np.ndarray        # (h, 2)
    node_bias: np.ndarray          # (h,)
    dist_weight: np.ndarray        # (h/2,)
    dist_bias: np.ndarray          # (h/2,)
    indicator_weight: np.ndarray   # (h/2,)
    layers: list[ConvLayer] = field(default_factory=list)
    mlp_weights: list[np.ndarray] = field(default_factory=list)
    mlp_biases: list[np.ndarray] = field(default_factory=list)

    def named_trainable(self):
        """(name, array) pairs in the declared parameter order."""
        out = [
            ("input.node_weight", self.node_weight),
            ("input.node_bias", self.node_bias),
            ("input.dist_weight", self.dist_weight),
            ("input.dist_bias", self.dist_bias),
            ("input.indicator_weight", self.indicator_weight),
        ]
        for idx, layer in enumerate(self.layers):
            prefix = f"conv{idx}"
            out.extend(
                [
                    (f"{prefix}.w_self", layer.w_self),
                    (f"{prefix}.w_neighbor", layer.w_neighbor),
                    (f"{prefix}.w_edge", layer.w_edge),
                    (f"{prefix}.w_source", layer.w_source),
                    (f"{prefix}.w_target", layer.w_target),
                    (f"{prefix}.bn_node.gamma", layer.bn_node.gamma),
                    (f"{prefix}.bn_node.beta", layer.bn_node.beta),
                    (f"{prefix}.bn_edge.gamma", layer.bn_edge.gamma),
                    (f"{prefix}.bn_edge.beta", layer.bn_edge.beta),
                ]
            )
        for idx, (w, b) in enumerate(zip(self.mlp_weights, self.mlp_biases)):
            out.append((f"mlp{idx}.weight", w))
            out.append((f"mlp{idx}.bias", b))
        return out

    def named_running(self):
        out = []
        for idx, layer in enumerate(self.layers):
            prefix = f"conv{idx}"
            out.extend(
                [
                    (f"{prefix}.bn_node.run_mean", layer.bn_node.run_mean),
                    (f"{prefix}.bn_node.run_var", layer.bn_node.run_var),
                    (f"{prefix}.bn_edge.run_mean", layer.bn_edge.run_mean),
                    (f"{prefix}.bn_edge.run_var", layer.bn_edge.run_var),
                ]
            )
        return out

    def trainable_arrays(self) -> list[np.ndarray]:
        return [arr for _, arr in self.named_trainable()]


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Fan-in scaled uniform initialization; batch-norm scale 1, shift 0."""
    rng = np.random.default_rng(seed)
    dt = config.np_dtype
    h = config.hidden
    half = h // 2

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape).astype(dt)

    def bn():
        return BatchNorm(
            np.ones(h, dtype=dt),
            np.zeros(h, dtype=dt),
            np.zeros(h, dtype=dt),
            np.ones(h, dtype=dt),
        )

    layers = [ConvLayer(*(uniform((h, h), h) for _ in range(5)), bn(), bn())
              for _ in range(config.conv_layers)]
    mlp_w, mlp_b = [], []
    for k in range(config.mlp_layers):
        out_dim = 1 if k == config.mlp_layers - 1 else h
        mlp_w.append(uniform((out_dim, h), h))
        mlp_b.append(uniform((out_dim,), h))
    return ModelParams(config, uniform((h, 2), 2), uniform((h,), 2),
                       *(uniform((half,), 1) for _ in range(3)), layers, mlp_w, mlp_b)


@dataclass(frozen=True, eq=False)
class GraphBatch:
    """Stacked scenario graphs, laid out as one block per graph.

    real and pair_mask keep the padded slot layout (B, n) and (B, n, n)
    that labels and heat maps use. The model computes on real slots only:
    node features are the rows of one (N, h) array, N = sum of n_b, and
    edge features the rows of one (P, h) array, P = sum of n_b^2, where
    graph b owns node rows blocks[b][1] and edge rows blocks[b][2], its
    (n_b, n_b) block in row-major order. block_mask (B, n, n) marks the
    padded slots of those edge rows, in the same order.
    """

    real: np.ndarray         # (B, n) bool
    pair_mask: np.ndarray    # (B, n, n) bool: both real, i != j
    block_mask: np.ndarray   # (B, n, n) bool: both real
    blocks: tuple            # per graph: (n_b, node row slice, edge row slice)
    coords: np.ndarray       # (N, 2)
    adj_idx: tuple           # (edge row, source node row, target node row) per free-cell edge
    adj_len: np.ndarray      # (A,) step length per free-cell edge
    row_starts: np.ndarray   # reduceat boundaries grouping adj_idx by source node
    row_ids: np.ndarray      # source node row per boundary group
    col_perm: np.ndarray     # permutation sorting adj_idx by target node

    @property
    def n(self):
        return self.real.shape[1]

    @property
    def n_pairs(self):
        return self.blocks[-1][2].stop

    @property
    def real_pairs(self):
        """The real ordered pairs i != j, pair_mask's count: the entries the
        edge batch statistics pool over."""
        return sum(nb * (nb - 1) for nb, _, _ in self.blocks)


def stack_graphs(graphs: list[ScenarioGraph], dtype=ModelConfig().np_dtype) -> GraphBatch:
    n = graphs[0].n_max
    for g in graphs:
        if g.n_max != n:
            raise ShapeMismatch("all graphs in a batch must share n_max")
    sizes = np.array([g.n_free for g in graphs])
    real = np.arange(n) < sizes[:, None]
    block_mask = real[:, :, None] & real[:, None, :]
    pair_mask = block_mask & ~np.eye(n, dtype=bool)
    node_starts = np.concatenate([[0], np.cumsum(sizes)])
    edge_starts = np.concatenate([[0], np.cumsum(sizes * sizes)])
    blocks = tuple(
        (int(nb), slice(node_starts[b], node_starts[b + 1]),
         slice(edge_starts[b], edge_starts[b + 1]))
        for b, nb in enumerate(sizes)
    )

    b_idx = np.repeat(np.arange(len(graphs)), [len(g.edges[0]) for g in graphs])
    i_idx, j_idx, length = (np.concatenate(parts) for parts in zip(*(g.edges for g in graphs)))
    src = node_starts[b_idx] + i_idx
    dst = node_starts[b_idx] + j_idx
    edge = edge_starts[b_idx] + i_idx * sizes[b_idx] + j_idx
    # keys are >= 0, so prepending -1 opens a group at the first entry
    row_starts = np.flatnonzero(np.diff(src, prepend=-1))
    return GraphBatch(
        real,
        pair_mask,
        block_mask,
        blocks,
        np.concatenate([g.coords for g in graphs]).astype(dtype),
        (edge, src, dst),
        length.astype(dtype),
        row_starts,
        src[row_starts],
        np.argsort(dst, kind="stable"),
    )


def _segment_scatter(values, starts, ids, out_rows):
    """Sum contiguous segments of values and scatter them to row ids."""
    h = values.shape[-1]
    out = np.zeros((out_rows, h), dtype=values.dtype)
    if len(values):
        out[ids] = np.add.reduceat(values, starts, axis=0)
    return out


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _pair_bias(params: ModelParams):
    """The input embedding of every pair off the adjacency, the diagonal
    (i, i) included: step length 0 and indicator 0, the bias alone."""
    return np.concatenate([params.dist_bias, np.zeros_like(params.dist_bias)])


def _tile_adjacency(tile_nodes, rows, batch: GraphBatch):
    """The adjacency entries of an edge tile from _edge_tiles: their run of
    adj_idx and their rows in the tile. The adjacency is sorted by source
    node row, so a tile's edges are a run."""
    edge, src, _ = batch.adj_idx
    lo, hi = np.searchsorted(src, (tile_nodes.start, tile_nodes.stop))
    return slice(lo, hi), edge[lo:hi] - rows.start


def embed_input(batch: GraphBatch, params: ModelParams):
    """Linear embeddings of node coordinates and (step length, indicator)
    edges: the (N, h) node rows and the (A, h) edge rows (length * w_dist
    + b, w_ind) of the adjacency, in adj_idx order. Every other pair row
    embeds the bias alone (_pair_bias), which the first conv layer takes
    in closed form."""
    h = params.config.hidden
    if params.node_weight.shape != (h, 2):
        raise ShapeMismatch(f"node weight shape {params.node_weight.shape} != ({h}, 2)")
    x0 = batch.coords @ params.node_weight.T + params.node_bias
    steps = batch.adj_len[:, None] * params.dist_weight + params.dist_bias
    return x0, np.concatenate([steps, np.broadcast_to(params.indicator_weight, steps.shape)],
                              axis=1)


def _running_update(bn: BatchNorm, mean, var, m: int):
    """The momentum update of bn's running mean and variance from the batch
    mean and biased variance over m entries, as (mean, variance)."""
    unbiased = var * (m / (m - 1)) if m > 1 else var
    return ((1 - BN_MOMENTUM) * bn.run_mean + BN_MOMENTUM * mean,
            (1 - BN_MOMENTUM) * bn.run_var + BN_MOMENTUM * unbiased)


def _gate_forward(e_adj, x, layer: ConvLayer, batch: GraphBatch):
    """Neighbor aggregation sum_j eta_ij * (W_neighbor x_j) from the (A, h)
    adjacency edge rows."""
    v = x @ layer.w_neighbor.T
    dst = batch.adj_idx[2]
    sg_vals = _sigmoid(e_adj)
    den = _segment_scatter(sg_vals, batch.row_starts, batch.row_ids, len(x)) + GATE_EPS
    raw = _segment_scatter(sg_vals * v[dst], batch.row_starts, batch.row_ids, len(x))
    agg = raw / den
    return sg_vals, den, raw, v, agg


def _edge_tiles(batch: GraphBatch):
    """Cache-sized row tiles of the edge blocks: whole source rows of one
    block, about EDGE_TILE_ROWS pair rows each. Yields the tile's source
    node rows, its block's node rows and its edge rows."""
    for nb, nodes, edges in batch.blocks:
        step = max(1, EDGE_TILE_ROWS // nb)
        for i in range(0, nb, step):
            k = min(i + step, nb)
            yield (slice(nodes.start + i, nodes.start + k), nodes,
                   slice(edges.start + i * nb, edges.start + k * nb))


def _tile_rows(batch: GraphBatch):
    """Rows of the largest edge tile from _edge_tiles."""
    return min(batch.n_pairs, max(EDGE_TILE_ROWS, batch.n))


def _tile_buffers(batch: GraphBatch, count: int, h: int, dtype):
    """count blocks of scratch rows for the largest edge tile, in one
    allocation: glibc's malloc handed two separate 0.8 MB blocks back to the
    system after every call, so each 10x10 heat took about 370 page faults."""
    return np.empty((count, _tile_rows(batch), h), dtype=dtype)


def _tile_ones(batch: GraphBatch, dtype):
    """A ones vector as long as the largest edge tile: the training sweeps
    take their column sums as products with it, a matrix-vector product
    about 3.5x faster than ndarray.sum(axis=0) on a 2000 x 50 tile."""
    return np.ones(_tile_rows(batch), dtype=dtype)


@dataclass(frozen=True, eq=False)
class FirstEdges:
    """The (P, h) output edge rows of the first conv layer, held in closed
    form. That layer's input rows are base but on the adjacency, where row
    q is base + lift_q, so its centred edge pre-activation of pair (i, j)
    is u_i + r_j, plus d_q on adjacency row q, and its output row is the
    input row plus relu(k * (u_i + r_j [+ d_q]) + beta). t_adj holds the
    adjacency rows' pre-activations u_i + r_j + d_q, formed once per pass
    (_first_edge_forward). Whatever reads these rows builds each tile where
    it reads it (_input_tile)."""

    u: np.ndarray      # (N, h) source terms
    r: np.ndarray      # (N, h) target terms
    d: np.ndarray      # (A, h) adjacency terms, in adj_idx order
    t_adj: np.ndarray  # (A, h) adjacency pre-activations, in adj_idx order
    k: np.ndarray      # (h,) batch-norm scale gamma / sqrt(var + eps)
    beta: np.ndarray   # (h,) batch-norm shift
    base: np.ndarray   # (h,) input row of every pair off the adjacency
    lift: np.ndarray   # (A, h) adjacency input rows minus base

    @property
    def dtype(self):
        return self.u.dtype


@dataclass(frozen=True, eq=False)
class HeldEdges:
    """The (P, h) output edge rows of a training conv layer past the first.
    rows is the forward's one edge buffer, which holds them until the next
    layer updates it in place. start and held describe them for a rebuild:
    they are the rows of start (FirstEdges, or an array a caller passed
    in, never written) plus relu(k * t_c + beta) for each (t_c, k, beta)
    in held, one per layer since, added in that order (_input_tile)."""

    rows: np.ndarray
    start: object
    held: tuple


def _edge_relu(t_c, k, beta, out):
    """relu(k * t_c + beta) of centred pre-activation rows, into out."""
    y = np.multiply(t_c, k, out=out)
    y += beta
    return np.maximum(y, 0.0, out=y)


def _first_preactivation(first: FirstEdges, tile, tile_nodes, nodes, rows, batch: GraphBatch):
    """Write the centred pre-activations of an edge tile from _edge_tiles
    into tile; returns the tile's adjacency entries (_tile_adjacency)."""
    block = tile.reshape(tile_nodes.stop - tile_nodes.start, -1, tile.shape[1])
    np.add(first.u[tile_nodes, None], first.r[None, nodes], out=block)
    run, local = _tile_adjacency(tile_nodes, rows, batch)
    tile[local] = first.t_adj[run]
    return run, local


def _first_output(first: FirstEdges, t, run, local, out):
    """The output rows of centred pre-activation rows t, whose adjacency
    entries run sit at rows local, into out."""
    y = _edge_relu(t, first.k, first.beta, out)
    y += first.base
    y[local] += first.lift[run]
    return y


def _input_tile(e, tile_nodes, nodes, rows, out, batch: GraphBatch, work=None):
    """An edge tile from _edge_tiles of (P, h) edge rows: the rows of the
    array e; when e is the first layer's FirstEdges, the tile built into
    out; when e is HeldEdges, the tile rebuilt into out from its start and
    its held layers, each relu term computed in work, in the operations
    and order of the forward, so the rows are the buffer's bit for bit."""
    if isinstance(e, HeldEdges):
        tile = _input_tile(e.start, tile_nodes, nodes, rows, out, batch)
        for t_c, k, beta in e.held:
            tile = np.add(tile, _edge_relu(t_c[rows], k, beta, work[: len(out)]), out=out)
        return tile
    if not isinstance(e, FirstEdges):
        return e[rows]
    run, local = _first_preactivation(e, out, tile_nodes, nodes, rows, batch)
    return _first_output(e, out, run, local, out)


def _adjacent_rows(e, batch: GraphBatch):
    """The (A, h) adjacency rows of (P, h) edge rows: of the array e, or of
    FirstEdges, as its tiles hold them."""
    if not isinstance(e, FirstEdges):
        return e[batch.adj_idx[0]]
    return _first_output(e, e.t_adj, slice(None), slice(None), np.empty_like(e.t_adj))


def _node_pairs(batch: GraphBatch, dtype):
    """Per node row of block b, n_b - 1: its pairs i != j as source, and
    as target."""
    sizes = np.array([nb for nb, _, _ in batch.blocks])
    return np.repeat(sizes - 1, sizes).astype(dtype)[:, None]


def _block_sums(values, batch: GraphBatch):
    """Per node row, the sum of values over the node rows of its block."""
    sums = np.add.reduceat(values, [nodes.start for _, nodes, _ in batch.blocks], axis=0)
    return np.repeat(sums, [nb for nb, _, _ in batch.blocks], axis=0)


def _first_edge_forward(x, e, layer: ConvLayer, batch: GraphBatch, base, m_e=None):
    """The first layer's edge branch in closed form, from its (A, h)
    adjacency embedding e and base, the input row of every other pair.
    Without m_e (eval) the mean and variance are the running statistics.
    With it, each term is centred over the m_e pairs, the pre-activation
    of pair (i, j) less the batch mean is u_i + r_j (+ d_q), and the mean
    and variance come from sums over the node rows: over the pairs i != j
    of a block, sum (u_i + r_j)^2 = (n_b - 1)(sum u^2 + sum r^2) + 2 (sum u
    sum r - sum u_i r_i), and the adjacency adds sum d_q (2 (u_i + r_j) +
    d_q). Returns FirstEdges, the mean and the variance."""
    lift = e - base
    d = lift @ layer.w_edge.T
    s = x @ layer.w_source.T + base @ layer.w_edge.T
    r = x @ layer.w_target.T
    bn_e = layer.bn_edge
    if m_e is None:
        mean, var_e = bn_e.run_mean, bn_e.run_var
        u = s - mean
    else:
        pairs = _node_pairs(batch, x.dtype)
        mean_s = (pairs * s).sum(axis=0) / m_e
        mean_r = (pairs * r).sum(axis=0) / m_e
        mean_d = d.sum(axis=0) / m_e
        u = s - (mean_s + mean_d)
        r -= mean_r
        mean = mean_s + mean_r + mean_d
    _, src, dst = batch.adj_idx
    t_adj = u[src] + r[dst]
    if m_e is not None:
        var_e = ((pairs * (u * u + r * r)).sum(axis=0)
                 + 2 * np.einsum("ij,ij->j", _block_sums(u, batch) - u, r)
                 + np.einsum("ij,ij->j", d, 2 * t_adj + d)) / m_e
    t_adj += d
    k = bn_e.gamma / np.sqrt(var_e + BN_EPS)
    return FirstEdges(u, r, d, t_adj, k, bn_e.beta, base, lift), mean, var_e


def _diagonal(tile, tile_nodes, nodes):
    """View of the (i, i) rows of an edge tile from _edge_tiles."""
    return tile[tile_nodes.start - nodes.start :: nodes.stop - nodes.start + 1]


def _fold_edge_bn(x, layer: ConvLayer):
    """Eval-mode edge terms with batch norm folded in: under running
    statistics it is the fixed affine map k * t + c, k = gamma / sqrt(var +
    eps), c = beta - k * mean, so it scales the edge weight and the source
    and target terms, and c joins the source term. Returns (W', s', r')."""
    bn = layer.bn_edge
    k = bn.gamma / np.sqrt(bn.run_var + BN_EPS)
    return (layer.w_edge.T * k,
            x @ (layer.w_source.T * k) + (bn.beta - k * bn.run_mean),
            x @ (layer.w_target.T * k))


def _edge_update(e, w_edge, source, target, out=None):
    """Folded eval edge update in place, e += relu(e W' + s' + r'). The rows
    of e are k runs of m rows: source is (k, 1, h), one term per run, and
    target (1, m, h) or (k, m, h)."""
    t = np.matmul(e, w_edge, out=out)
    view = t.reshape(len(source), target.shape[1], t.shape[1])
    view += source
    view += target
    np.maximum(t, 0.0, out=t)
    e += t


def conv_forward(x, e, layer: ConvLayer, batch: GraphBatch, training: bool,
                 fold_only: bool = False, base=None):
    """One residual gated graph-convolution layer on (N, h) node rows and
    edge rows: all (P, h) pair rows in training mode, the (A, h) adjacency
    rows in eval mode. The first layer passes base, the input row of every
    pair off the adjacency (_pair_bias): its e is then embed_input's (A, h)
    adjacency embedding, and its edge rows are held in closed form, as
    FirstEdges, in training its next e. A later training layer returns
    HeldEdges: its output rows in the forward's one edge buffer, which it
    updates in place when e is HeldEdges and otherwise allocates, building
    a FirstEdges e into it; an array e is read, never written.

    Returns the next node and edge features plus, in training mode, the
    cache conv_backward reads: the node inputs, the gate terms, the
    centred node pre-activations, the batch means and variances and, for
    the edges, the closed form or the layer input e, from which
    _input_tile rebuilds the input rows, the centred pre-activations and
    the ReLU mask; forward moves the running statistics by the batch
    statistics once its checks pass. In eval mode the first layer builds
    its adjacency rows from its FirstEdges, later layers update them in
    place, and the cache, from which mlp_head builds every pair, is the
    FirstEdges or the folded edge terms (W', s', r'). An eval layer whose
    node and adjacency outputs nothing reads (the last one) passes
    fold_only: it computes only its cache and returns x and e as they
    came.
    """
    if not training:
        terms = (_fold_edge_bn(x, layer) if base is None
                 else _first_edge_forward(x, e, layer, batch, base)[0])
        if fold_only:
            return x, e, terms
    elif not batch.real_pairs:
        raise DegenerateBatch("no real pair for the edge batch statistics")
    e_in_rows = e.rows if isinstance(e, HeldEdges) else e
    adjacent = _adjacent_rows(e_in_rows, batch) if training and base is None else e
    sg_vals, den, raw, v, agg = _gate_forward(adjacent, x, layer, batch)

    s = x @ layer.w_self.T + agg
    bn_n = layer.bn_node
    mu_n, var_n = (s.mean(axis=0), s.var(axis=0)) if training else (bn_n.run_mean, bn_n.run_var)
    s_c = s - mu_n
    y_n = bn_n.gamma * (s_c / np.sqrt(var_n + BN_EPS)) + bn_n.beta
    x_next = x + np.maximum(y_n, 0.0)
    if not training:
        if base is not None:
            return x_next, _adjacent_rows(terms, batch), terms
        _, src, dst = batch.adj_idx
        _edge_update(e, terms[0], terms[1][src, None], terms[2][dst, None])
        return x_next, e, terms

    m_e = batch.real_pairs
    bn_e = layer.bn_edge
    if base is not None:
        e_next, mu_e, var_e = _first_edge_forward(x, e, layer, batch, base, m_e)
        cache = {"first": e_next}
    else:
        # t = e W_edge^T + s_i + r_j in three tile sweeps (sum, centred
        # squares, output); the diagonal (i == j) rows are left out of the
        # sums. The output rows go to the forward's one edge buffer: a
        # HeldEdges input's, updated in place, or a new one into which the
        # first sweep builds a FirstEdges input; a caller's array is read,
        # never written.
        h = x.shape[1]
        source = x @ layer.w_source.T
        target = x @ layer.w_target.T
        t = np.empty((batch.n_pairs, h), dtype=x.dtype)
        edges = e_in_rows if isinstance(e, HeldEdges) else np.empty_like(t)
        residual = edges if isinstance(e, FirstEdges) else e_in_rows
        buf, = _tile_buffers(batch, 1, h, x.dtype)
        ones = _tile_ones(batch, x.dtype)
        total = np.zeros(h, dtype=x.dtype)
        for tile_nodes, nodes, rows in _edge_tiles(batch):
            e_in = _input_tile(e_in_rows, tile_nodes, nodes, rows, edges[rows], batch)
            tile = np.matmul(e_in, layer.w_edge.T, out=t[rows])
            block = tile.reshape(tile_nodes.stop - tile_nodes.start, -1, h)
            block += source[tile_nodes, None, :]
            block += target[None, nodes, :]
            total += ones[: len(tile)] @ tile - _diagonal(tile, tile_nodes, nodes).sum(axis=0)
        mu_e = total / m_e
        squares = np.zeros(h, dtype=x.dtype)
        for tile_nodes, nodes, rows in _edge_tiles(batch):
            tile = t[rows]
            tile -= mu_e
            diag = _diagonal(tile, tile_nodes, nodes)
            squares += np.einsum("ij,ij->j", tile, tile) - np.einsum("ij,ij->j", diag, diag)
        var_e = squares / m_e
        k = bn_e.gamma / np.sqrt(var_e + BN_EPS)
        relu_e = np.empty(t.shape, dtype=bool)
        for _, _, rows in _edge_tiles(batch):
            y = _edge_relu(t[rows], k, bn_e.beta, buf[: rows.stop - rows.start])
            np.greater(y, 0.0, out=relu_e[rows])
            np.add(residual[rows], y, out=edges[rows])
        start, held = (e.start, e.held) if isinstance(e, HeldEdges) else (e, ())
        e_next = HeldEdges(edges, start, held + ((t, k, bn_e.beta),))
        cache = {"e": e, "t_c": t, "relu_e": relu_e}

    cache.update(x=x, gate=(sg_vals, den, raw, v), mu_n=mu_n, var_n=var_n, s_c=s_c,
                 relu_n=y_n > 0, mu_e=mu_e, var_e=var_e)
    return x_next, e_next, cache


def _bn_backward_terms(bn: BatchNorm, var, g_sum, gc_sum, m: int):
    """Batch norm y = k * x_c + beta over m entries, x_c centred, k = gamma /
    sqrt(var + eps). From the sums of g = dL/dy and of g * x_c, the input
    gradient is k * g - (a + c * x_c); returns k, a, c and dL/dgamma."""
    std = np.sqrt(var + BN_EPS)
    k = bn.gamma / std
    return k, k * g_sum / m, k * gc_sum / (m * (var + BN_EPS)), gc_sum / std


def _source_target_sums(tile, tile_nodes, ones):
    """An edge tile's sums per source row, over its targets, and per
    target, over its source rows, as products with the ones vector."""
    n_src, h = tile_nodes.stop - tile_nodes.start, tile.shape[1]
    block = tile.reshape(n_src, -1, h)
    return ones[: block.shape[1]] @ block, (ones[:n_src] @ tile.reshape(n_src, -1)).reshape(-1, h)


def _first_edge_backward(de_next, layer: ConvLayer, batch: GraphBatch, first: FirstEdges,
                         var_e, m_e: int):
    """Edge branch of the first layer's backward, from its closed form. One
    sweep over de_next rebuilds each tile's centred pre-activations t0 and
    takes, of ge = de_next where the ReLU passed, the sum of ge * t0 and the
    row and column sums per node; ge's adjacency rows follow from t_adj and
    de_next's adjacency rows. The pre-activation gradient dt = k ge - a - c
    t0 off the diagonal then has row, column and adjacency sums in O(N h +
    A h), and the input rows, base plus lift on the adjacency, give the
    weight and input gradients. Returns the input gradient as (its sum over
    all pair rows, its (A, h) adjacency rows), the row and column sums of
    dt, dL/dW_edge and the batch-norm gradient."""
    u, r, d, t_adj = first.u, first.r, first.d, first.t_adj
    h = u.shape[1]
    t_buf, ge_buf = _tile_buffers(batch, 2, h, u.dtype)
    ones = _tile_ones(batch, u.dtype)
    ge_i = np.empty_like(u)
    ge_j = np.zeros_like(u)
    gc_sum = np.zeros(h, dtype=u.dtype)
    de_sum = np.zeros(h, dtype=u.dtype)
    for tile_nodes, nodes, rows in _edge_tiles(batch):
        n_rows = rows.stop - rows.start
        t0 = t_buf[:n_rows]
        _first_preactivation(first, t0, tile_nodes, nodes, rows, batch)
        de_rows = de_next[rows]
        y = _edge_relu(t0, first.k, first.beta, ge_buf[:n_rows])
        ge = np.multiply(de_rows, y > 0.0, out=y)
        gc_sum += np.einsum("ij,ij->j", ge, t0)
        ge_i[tile_nodes], by_target = _source_target_sums(ge, tile_nodes, ones)
        ge_j[nodes] += by_target
        de_sum += ones[:n_rows] @ de_rows
    de_adj = de_next[batch.adj_idx[0]]
    ge_adj = de_adj * (_edge_relu(t_adj, first.k, first.beta, np.empty_like(t_adj)) > 0.0)
    # the diagonal rows of de_next are 0, so ge's sums are over i != j
    g_sum = ge_i.sum(axis=0)
    k, a, c, d_gamma = _bn_backward_terms(layer.bn_edge, var_e, g_sum, gc_sum, m_e)

    # sums of t0 over j != i (row i) and over i != j (column j)
    pairs = _node_pairs(batch, u.dtype)
    rows_t = pairs * u + (_block_sums(r, batch) - r) \
        + _segment_scatter(d, batch.row_starts, batch.row_ids, len(u))
    cols_t = (_block_sums(u, batch) - u) + pairs * r \
        + _segment_scatter(d[batch.col_perm], batch.row_starts, batch.row_ids, len(u))
    dt_i = k * ge_i - pairs * a - c * rows_t
    dt_j = k * ge_j - pairs * a - c * cols_t
    dt_adj = k * ge_adj - a - c * t_adj
    dt_sum = dt_i.sum(axis=0)
    d_w_edge = np.outer(dt_sum, first.base) + dt_adj.T @ first.lift
    de = (de_sum + dt_sum @ layer.w_edge, de_adj + dt_adj @ layer.w_edge)
    return de, dt_i, dt_j, d_w_edge, BatchNorm(d_gamma, g_sum, np.zeros(h), np.zeros(h))


def conv_backward(dx_next, de_next, layer: ConvLayer, batch: GraphBatch, cache):
    """Exact gradients of one conv layer from its training-mode cache, as a
    ConvLayer whose batch-norm running fields are 0. The edge gradient
    accumulates in the rows of de_next; the first layer, held in closed
    form, returns it as (its sum over all pair rows, its (A, h) adjacency
    rows), all the input embedding's backward reads. A later layer reads
    its input rows for dL/dW_edge as _input_tile rebuilds them from the
    cache's description, tile by tile."""
    x = cache["x"]
    sg_vals, den, raw, v = cache["gate"]
    h = x.shape[1]
    m_e = batch.real_pairs
    first = cache.get("first")

    if first is not None:
        de, dt_i, dt_j, d_w_edge, d_bn_edge = _first_edge_backward(
            de_next, layer, batch, first, cache["var_e"], m_e)
    else:
        # edge branch: e_next = e + relu(k * t_c + beta); the pooled sums
        # come first, over every row (the diagonal rows of de_next are 0)
        e, t_c, relu_e = cache["e"], cache["t_c"], cache["relu_e"]
        ge_buf, work, rebuild = _tile_buffers(batch, 3, h, x.dtype)
        ones = _tile_ones(batch, x.dtype)
        g_sum = np.zeros(h, dtype=x.dtype)
        gc_sum = np.zeros(h, dtype=x.dtype)
        for _, _, rows in _edge_tiles(batch):
            ge = np.multiply(de_next[rows], relu_e[rows], out=ge_buf[: rows.stop - rows.start])
            g_sum += ones[: len(ge)] @ ge
            gc_sum += np.einsum("ij,ij->j", ge, t_c[rows])
        k, a, c, d_gamma = _bn_backward_terms(layer.bn_edge, cache["var_e"], g_sum, gc_sum, m_e)
        d_bn_edge = BatchNorm(d_gamma, g_sum, np.zeros(h), np.zeros(h))
        dt_i = np.empty_like(x)
        dt_j = np.zeros_like(x)
        d_w_edge = np.zeros((h, h), dtype=x.dtype)
        for tile_nodes, nodes, rows in _edge_tiles(batch):
            n_rows = rows.stop - rows.start
            dt = np.multiply(de_next[rows], relu_e[rows], out=ge_buf[:n_rows])
            dt *= k
            dt -= a
            dt -= np.multiply(t_c[rows], c, out=work[:n_rows])
            _diagonal(dt, tile_nodes, nodes)[...] = 0.0
            d_w_edge += dt.T @ _input_tile(e, tile_nodes, nodes, rows, work[:n_rows], batch,
                                           rebuild)
            de_rows = de_next[rows]   # de = de_next + dt W_edge, in place
            de_rows += np.matmul(dt, layer.w_edge, out=work[:n_rows])
            dt_i[tile_nodes], by_target = _source_target_sums(dt, tile_nodes, ones)
            dt_j[nodes] += by_target
        de = de_next
    dx = dx_next + dt_i @ layer.w_source + dt_j @ layer.w_target

    # node branch: x_next = x + relu(y_n)
    gn = dx_next * cache["relu_n"]
    s_c = cache["s_c"]
    g_sum = gn.sum(axis=0)
    k, a, c, d_gamma = _bn_backward_terms(
        layer.bn_node, cache["var_n"], g_sum, np.einsum("ij,ij->j", gn, s_c), len(x))
    d_bn_node = BatchNorm(d_gamma, g_sum, np.zeros(h), np.zeros(h))
    ds = k * gn - (a + c * s_c)
    dx += ds @ layer.w_self

    # gated aggregation: agg = raw / den, raw = sum_j sg * v_j; the free-cell
    # graph is symmetric, so grouped by target its adjacency has the source groups
    edge, src, dst = batch.adj_idx
    draw = ds / den
    dden = -ds * raw / (den * den)
    dv_vals = sg_vals * draw[src]
    dv = _segment_scatter(dv_vals[batch.col_perm], batch.row_starts, batch.row_ids, len(x))
    dsg_vals = draw[src] * v[dst] + dden[src]
    d_adjacent = dsg_vals * sg_vals * (1.0 - sg_vals)
    if first is not None:
        de = (de[0] + d_adjacent.sum(axis=0), de[1] + d_adjacent)
    else:
        de[edge] += d_adjacent
    dx += dv @ layer.w_neighbor

    grads = ConvLayer(ds.T @ x, dv.T @ x, d_w_edge, dt_i.T @ x, dt_j.T @ x, d_bn_node, d_bn_edge)
    return dx, de, grads


def _mlp_hidden(z, params: ModelParams, hidden):
    """Every MLP layer's input for the edge tile z: z, then each hidden
    layer's ReLU output, written to the next scratch tile of hidden."""
    inputs = [z]
    for k, out in enumerate(hidden):
        z = np.matmul(z, params.mlp_weights[k].T, out=out[: len(z)])
        z += params.mlp_biases[k]
        np.maximum(z, 0.0, out=z)
        inputs.append(z)
    return inputs


def mlp_head(e_final, params: ModelParams, batch: GraphBatch, folded=()):
    """Per-edge probability via the MLP over final edge rows, in edge tiles.

    e_final is the (P, h) final edge rows of a training forward or, in
    eval or for a one-layer model, the first layer's FirstEdges; folded
    holds the (W', s', r') of every eval layer after the first. Each tile
    is an _input_tile of e_final, run through each folded edge update and
    the MLP in two scratch buffers. Returns the (P,) probabilities; no
    hidden row is kept: _mlp_backward computes them again.
    """
    last = len(params.mlp_weights) - 1
    heat = np.empty(batch.n_pairs, dtype=e_final.dtype)
    tile_buf, buf = _tile_buffers(batch, 2, params.config.hidden, e_final.dtype)
    for tile_nodes, nodes, rows in _edge_tiles(batch):
        z = _input_tile(e_final, tile_nodes, nodes, rows, tile_buf[: rows.stop - rows.start], batch)
        for w_edge, source, target in folded:
            _edge_update(z, w_edge, source[tile_nodes, None], target[None, nodes],
                         out=buf[: len(z)])
        z = _mlp_hidden(z, params, [buf] * last)[-1]
        z = z @ params.mlp_weights[last].T
        z += params.mlp_biases[last]
        heat[rows] = _sigmoid(z[:, 0])
    return heat


def _mlp_backward(dlogits, e_final, params: ModelParams, batch: GraphBatch):
    """Gradients through the MLP head, tile by tile. Each tile's hidden rows
    are computed again from e_final, as mlp_head computed them, and every
    product of the backward pass is written over the layer input it follows
    from: a hidden tile, or the final edge rows, which nothing reads after:
    those of e_final or, from a one-layer model's FirstEdges, built into a
    new array. Returns the final edge rows, which then hold their gradient."""
    weights = params.mlp_weights
    last = len(weights) - 1
    grads_w = [np.zeros_like(w) for w in weights]
    grads_b = [np.zeros_like(b) for b in params.mlp_biases]
    h = params.config.hidden
    hidden = _tile_buffers(batch, last, h, e_final.dtype)
    rows_out = np.empty((batch.n_pairs, h), dtype=e_final.dtype) \
        if isinstance(e_final, FirstEdges) else e_final
    for tile_nodes, nodes, rows in _edge_tiles(batch):
        z = _input_tile(e_final, tile_nodes, nodes, rows, rows_out[rows], batch)
        inputs = _mlp_hidden(z, params, hidden)
        dz = dlogits[rows, None]
        for k in reversed(range(last + 1)):
            a_in = inputs[k]
            grads_w[k] += dz.T @ a_in
            grads_b[k] += dz.sum(axis=0)
            active = a_in > 0 if k > 0 else None
            # the last weight is one row: dz @ w is the broadcast product
            dz = (np.multiply if k == last else np.matmul)(dz, weights[k], out=a_in)
            if k > 0:
                dz *= active
    return rows_out, grads_w, grads_b


@contextmanager
def _trapped(pass_name: str):
    """The model's one non-finite rule: an overflow, invalid operation or
    division by zero in the pass raises NonFiniteActivation naming it."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise NonFiniteActivation(f"{pass_name}: {exc}") from exc


def forward(batch: GraphBatch, params: ModelParams, training: bool = False):
    """Full forward pass: embeddings, conv stack, MLP head.

    Returns the heat graph (B, n, n) of edge probabilities, 0 on padding
    slots, and, in training mode, the cache that loss_and_grads consumes;
    in eval mode the cache is None. Trapped arithmetic (_trapped) raises
    NonFiniteActivation, and so does a heat entry or an updated running
    statistic that is not finite, as a NaN parameter gives without
    trapping. A training forward moves the running statistics only once
    all of these checks have passed. A batch stacked in another dtype than
    the parameters' is a ShapeMismatch.
    """
    if batch.n > params.config.n_max:
        raise ShapeMismatch(
            f"batch capacity {batch.n} exceeds model n_max {params.config.n_max}"
        )
    dtype = params.config.np_dtype
    if batch.coords.dtype != dtype or batch.adj_len.dtype != dtype:
        raise ShapeMismatch(f"batch stacked in {batch.coords.dtype}, model is {params.config.dtype}")
    with _trapped("forward"):
        x, e = embed_input(batch, params)
        layer_caches = []
        last = len(params.layers) - 1
        for k, layer in enumerate(params.layers):
            # the first layer is computed in closed form; in eval the MLP
            # head reads only the last layer's folded edge terms
            x, e, cache = conv_forward(x, e, layer, batch, training,
                                       fold_only=not training and k == last,
                                       base=_pair_bias(params) if k == 0 else None)
            layer_caches.append(cache)
        if training:
            edges = e.rows if isinstance(e, HeldEdges) else e
            rows = mlp_head(edges, params, batch)
            m_e = batch.real_pairs
            running = []
            for layer, lc in zip(params.layers, layer_caches):
                bn_n, bn_e = layer.bn_node, layer.bn_edge
                running.append((bn_n, _running_update(bn_n, lc["mu_n"], lc["var_n"], len(lc["x"]))))
                running.append((bn_e, _running_update(bn_e, lc["mu_e"], lc["var_e"], m_e)))
        else:
            rows = mlp_head(layer_caches[0], params, batch, layer_caches[1:])
    if not np.isfinite(rows).all():
        raise NonFiniteActivation("forward: a heat entry is not finite")
    heat = np.zeros(batch.block_mask.shape, dtype=rows.dtype)
    heat[batch.block_mask] = rows
    if not training:
        return heat, None
    if not all(np.isfinite(a).all() for _, update in running for a in update):
        raise NonFiniteActivation("forward: a running batch-norm statistic is not finite")
    for bn, (run_mean, run_var) in running:
        bn.run_mean[...] = run_mean
        bn.run_var[...] = run_var
    return heat, {"batch": batch, "layers": layer_caches, "edges": edges}


def weighted_bce(heat, labels, mask):
    """Class-balanced BCE over masked entries; returns loss and weights."""
    m = int(mask.sum())
    if m == 0:
        raise DegenerateBatch("empty mask")
    y = labels[mask]
    m1 = float(y.sum())
    m0 = m - m1
    if m1 == 0 or m0 == 0:
        raise DegenerateBatch(f"single-class batch (positives={int(m1)}, total={m})")
    w1 = m / (2.0 * m1)
    w0 = m / (2.0 * m0)
    p = np.clip(heat[mask], PROB_CLAMP, 1.0 - PROB_CLAMP)
    loss = -(w1 * y * np.log(p) + w0 * (1.0 - y) * np.log1p(-p)).sum() / m
    return float(loss), w1, w0


def loss_and_grads(heat, labels, mask, params: ModelParams, cache):
    """Weighted BCE and exact gradients for every trainable parameter.

    labels and mask are (B, n, n); mask marks ordered real pairs i != j,
    and one that marks any entry outside the batch's pair_mask is a
    ShapeMismatch, raised before the cache is consumed.
    cache is the training-mode cache of the forward that produced heat;
    it is consumed, so it serves one call: the call writes the gradient of
    the final edge rows over them, and a second call raises CacheConsumed.
    Returns (loss, grads) where grads is a ModelParams-shaped container
    aligned with params.named_trainable(). Trapped arithmetic (_trapped)
    raises NonFiniteActivation.
    """
    if "edges" not in cache:
        raise CacheConsumed("forward cache already consumed by loss_and_grads; run forward again")
    batch: GraphBatch = cache["batch"]
    # the backward takes the diagonal rows' edge gradient to be 0
    if mask.shape != batch.pair_mask.shape or (mask & ~batch.pair_mask).any():
        raise ShapeMismatch("loss mask marks entries outside the batch's pair_mask")
    with _trapped("backward"):
        loss, w1, w0 = weighted_bce(heat, labels, mask)

        p = heat
        inside = mask & (p > PROB_CLAMP) & (p < 1.0 - PROB_CLAMP)
        m = int(mask.sum())
        dlogits = np.where(inside, (w0 * (1.0 - labels) * p - w1 * labels * (1.0 - p)) / m, 0.0)

        # popping the activations frees each one as soon as its gradient is taken
        de, mlp_gw, mlp_gb = _mlp_backward(
            dlogits[batch.block_mask], cache.pop("edges"), params, batch
        )
        layer_caches = cache.pop("layers")
        dx = np.zeros_like(layer_caches[-1]["x"])
        layer_grads = []
        for layer in reversed(params.layers):
            dx, de, grads = conv_backward(dx, de, layer, batch, layer_caches.pop())
            layer_grads.append(grads)
        layer_grads.reverse()

        # input embedding backward: lengths and indicators are 0 off the
        # adjacency, so the first layer's edge gradient comes as its sum over
        # all pair rows and its adjacency rows
        half = params.config.hidden // 2
        de_sum, de_adj = de
        g_node_w = dx.T @ batch.coords
        g_node_b = dx.sum(axis=0)
        g_dist_w = batch.adj_len @ de_adj[:, :half]
        g_dist_b = de_sum[:half]
        g_ind_w = de_adj[:, half:].sum(axis=0)

        grads = ModelParams(params.config, g_node_w, g_node_b, g_dist_w, g_dist_b, g_ind_w,
                            layer_grads, mlp_gw, mlp_gb)
        return loss, grads


def heat_for_graph(graph: ScenarioGraph, params: ModelParams) -> np.ndarray:
    """Eval-mode heat graph for a single scenario graph."""
    batch = stack_graphs([graph], dtype=params.config.np_dtype)
    heat, _ = forward(batch, params, training=False)
    return heat[0]


def save_checkpoint(params: ModelParams, path) -> None:
    """Versioned binary container: config, then all tensors in declared
    order with shape headers. Byte-deterministic for identical params."""
    chunks = [f"{CHECKPOINT_HEADER}\n".encode()]
    chunks.append((json.dumps(asdict(params.config), sort_keys=True) + "\n").encode())
    for name, arr in params.named_trainable() + params.named_running():
        arr = np.ascontiguousarray(arr)
        shape = ",".join(str(d) for d in arr.shape) or "-"
        raw = arr.tobytes()
        chunks.append(f"tensor {name} {arr.dtype.str} {shape} {len(raw)}\n".encode())
        chunks.append(raw)
        chunks.append(b"\n")
    atomic_write_bytes(path, b"".join(chunks))


def field_kinds(config_class) -> dict:
    """Each field of a config dataclass and the type of its default."""
    return {f.name: type(f.default) for f in fields(config_class)}


def _config_from_line(line: bytes) -> ModelConfig:
    """The checkpoint's JSON config: exactly the ModelConfig fields, each of
    its declared type and valid. Any defect is a ParseError."""
    try:
        cfg = json.loads(line)
    except ValueError as exc:
        raise ParseError(f"bad checkpoint config: {exc}") from exc
    kinds = field_kinds(ModelConfig)
    if not isinstance(cfg, dict) or set(cfg) != set(kinds):
        raise ParseError(f"checkpoint config needs exactly the keys {sorted(kinds)}: {line!r}")
    for key, kind in kinds.items():
        if type(cfg[key]) is not kind:
            raise ParseError(f"checkpoint config {key} must be {kind.__name__}: {cfg[key]!r}")
    try:
        return ModelConfig(**cfg)
    except ValueError as exc:
        raise ParseError(f"invalid checkpoint config: {exc}") from exc


def _element_count(config: ModelConfig) -> int:
    """Elements of all the tensors init_params allocates for config."""
    h = config.hidden
    mlp = (config.mlp_layers - 1) * (h * h + h) + h + 1
    return 3 * h + 3 * (h // 2) + config.conv_layers * (5 * h * h + 8 * h) + mlp


def load_checkpoint(path) -> ModelParams:
    """Parameters of a checkpoint file. Any defect is a ParseError: an
    undecodable byte becomes U+FFFD, which no header field accepts, every
    tensor must be of the config's dtype, and a value must be finite, a
    running variance also non-negative. A config whose tensors need more
    than the file's bytes is refused before anything is allocated."""
    with open(path, "rb") as fh:
        header = fh.readline().decode(errors="replace").strip()
        if header != CHECKPOINT_HEADER:
            raise FormatVersionMismatch(f"bad checkpoint header: {header!r}")
        config = _config_from_line(fh.readline())
        itemsize = np.dtype(config.np_dtype).itemsize
        need, left = itemsize * _element_count(config), os.fstat(fh.fileno()).st_size - fh.tell()
        if need > left:
            raise ParseError(f"checkpoint config needs >= {need} tensor bytes, file has {left}")
        params = init_params(config, seed=0)
        expected = params.named_trainable() + params.named_running()
        for name, arr in expected:
            line = fh.readline().decode(errors="replace")
            parts = line.split()
            if len(parts) != 5 or parts[0] != "tensor":
                raise ParseError(f"bad tensor header: {line!r}")
            if parts[1] != name:
                raise ParseError(f"expected tensor {name}, found {parts[1]}")
            try:
                dtype = np.dtype(parts[2])
                shape = () if parts[3] == "-" else tuple(int(d) for d in parts[3].split(","))
                nbytes = int(parts[4])
            except (TypeError, ValueError) as exc:
                raise ParseError(f"bad tensor header for {name}: {exc}") from exc
            if dtype != arr.dtype or shape != arr.shape or nbytes != arr.nbytes:
                raise ParseError(f"tensor header {line!r}: not a {config.dtype} tensor "
                                 f"of shape {arr.shape}")
            raw = fh.read(nbytes)
            if len(raw) != nbytes:
                raise ParseError(f"tensor {name} truncated")
            if fh.read(1) != b"\n":
                raise ParseError(f"tensor {name} missing terminator")
            arr[...] = np.frombuffer(raw, dtype=dtype).reshape(shape)
            if not np.isfinite(arr).all():
                raise ParseError(f"tensor {name} holds a non-finite value")
            if name.endswith(".run_var") and (arr < 0).any():
                raise ParseError(f"tensor {name} holds a negative variance")
    return params
