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
  - In training mode, batch-norm statistics are pooled over all blocks:
    over real nodes and over real ordered pairs (i != j), summed over
    cache-sized edge tiles; the cache keeps the centred pre-activations.
  - In eval mode the forward is depth-first and holds no (P, h) array: the
    conv layers run on the (A, h) adjacency rows only, which are all the
    node features read, and keep their folded edge terms (the last layer
    computes nothing else, since only edge rows reach the head); the MLP
    head then runs each edge tile from its embedding through every folded
    edge update and the MLP.
"""

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    CheckpointWriteFailure,
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
    dtype: str = "float64"

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

    layers = [
        ConvLayer(
            uniform((h, h), h),
            uniform((h, h), h),
            uniform((h, h), h),
            uniform((h, h), h),
            uniform((h, h), h),
            bn(),
            bn(),
        )
        for _ in range(config.conv_layers)
    ]
    mlp_w, mlp_b = [], []
    for k in range(config.mlp_layers):
        out_dim = 1 if k == config.mlp_layers - 1 else h
        mlp_w.append(uniform((out_dim, h), h))
        mlp_b.append(uniform((out_dim,), h))
    return ModelParams(
        config,
        uniform((h, 2), 2),
        uniform((h,), 2),
        uniform((half,), 1),
        uniform((half,), 1),
        uniform((half,), 1),
        layers,
        mlp_w,
        mlp_b,
    )


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


def stack_graphs(graphs: list[ScenarioGraph], dtype=np.float64) -> GraphBatch:
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


def _adjacency_embedding(batch: GraphBatch, params: ModelParams):
    """(A, h) embedding rows (length * w_dist + b, w_ind) of the adjacency."""
    steps = batch.adj_len[:, None] * params.dist_weight + params.dist_bias
    return np.concatenate([steps, np.broadcast_to(params.indicator_weight, steps.shape)], axis=1)


def _embed_tile(tile, tile_nodes, rows, adj_rows, batch: GraphBatch, params: ModelParams):
    """Fill an edge tile from _edge_tiles with its input embedding, taking
    its adjacency rows from adj_rows. Every other row, the diagonal (i, i)
    included, has step length 0 and indicator 0: the bias alone."""
    # whole rows: two half-row fills took 1.6x as long on a training batch
    tile[...] = np.concatenate([params.dist_bias, np.zeros_like(params.dist_bias)])
    edge, src, _ = batch.adj_idx
    # the adjacency is sorted by source node row, so the tile's edges are a run
    lo, hi = np.searchsorted(src, (tile_nodes.start, tile_nodes.stop))
    tile[edge[lo:hi] - rows.start] = adj_rows[lo:hi]


def embed_input(batch: GraphBatch, params: ModelParams, training: bool = True):
    """Linear embeddings of node coordinates and (step length, indicator)
    edges: (N, h) node rows and, in training mode, the (P, h) edge rows; in
    eval mode only the (A, h) rows of the adjacency, in adj_idx order."""
    h = params.config.hidden
    if params.node_weight.shape != (h, 2):
        raise ShapeMismatch(f"node weight shape {params.node_weight.shape} != ({h}, 2)")
    x0 = batch.coords @ params.node_weight.T + params.node_bias
    adj_rows = _adjacency_embedding(batch, params)
    if not training:
        return x0, adj_rows
    e0 = np.empty((batch.n_pairs, h), dtype=x0.dtype)
    for _, nodes, edges in batch.blocks:
        _embed_tile(e0[edges], nodes, edges, adj_rows, batch, params)
    return x0, e0


def _update_running(bn: BatchNorm, mean, var, m: int) -> None:
    """Momentum update from the batch mean and biased variance over m entries."""
    bn.run_mean[...] = (1 - BN_MOMENTUM) * bn.run_mean + BN_MOMENTUM * mean
    unbiased = var * (m / (m - 1)) if m > 1 else var
    bn.run_var[...] = (1 - BN_MOMENTUM) * bn.run_var + BN_MOMENTUM * unbiased


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


def _tile_buffers(batch: GraphBatch, count: int, h: int, dtype):
    """count blocks of scratch rows for the largest edge tile, in one
    allocation: glibc's malloc handed two separate 0.8 MB blocks back to the
    system after every call, so each 10x10 heat took about 370 page faults."""
    return np.empty((count, min(batch.n_pairs, max(EDGE_TILE_ROWS, batch.n)), h), dtype=dtype)


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
                 fold_only: bool = False):
    """One residual gated graph-convolution layer on (N, h) node rows and
    edge rows: all (P, h) pair rows in training mode, the (A, h) adjacency
    rows in eval mode.

    Returns the next node and edge features plus, in training mode, the
    cache conv_backward reads: the layer inputs, the gate terms, the
    centred pre-activations, the ReLU masks and the batch variances; a
    non-finite value raises NonFiniteActivation. In eval mode the adjacency
    rows are updated in place and returned, and the cache is the layer's
    folded edge terms (W', s', r'), from which mlp_head builds every pair.
    An eval layer whose node and adjacency outputs nothing reads (the last
    one) passes fold_only: it computes only the folded terms and returns x
    and e as they came.
    """
    if fold_only:
        return x, e, _fold_edge_bn(x, layer)
    if training and not batch.pair_mask.any():
        raise DegenerateBatch("no real pair for the edge batch statistics")
    sg_vals, den, raw, v, agg = _gate_forward(e[batch.adj_idx[0]] if training else e,
                                              x, layer, batch)

    s = x @ layer.w_self.T + agg
    bn_n = layer.bn_node
    mu_n, var_n = (s.mean(axis=0), s.var(axis=0)) if training else (bn_n.run_mean, bn_n.run_var)
    s_c = s - mu_n
    y_n = bn_n.gamma * (s_c / np.sqrt(var_n + BN_EPS)) + bn_n.beta
    x_next = x + np.maximum(y_n, 0.0)
    if not training:
        folded = _fold_edge_bn(x, layer)
        _, src, dst = batch.adj_idx
        _edge_update(e, folded[0], folded[1][src, None], folded[2][dst, None])
        return x_next, e, folded

    # training: t = e W_edge^T + s_i + r_j in three tile sweeps (sum, centred
    # squares, output); the diagonal (i == j) rows are left out of the sums
    h = x.shape[1]
    m_e = int(batch.pair_mask.sum())
    source = x @ layer.w_source.T
    target = x @ layer.w_target.T
    t = np.empty_like(e)
    total = np.zeros(h, dtype=e.dtype)
    for tile_nodes, nodes, rows in _edge_tiles(batch):
        tile = np.matmul(e[rows], layer.w_edge.T, out=t[rows])
        block = tile.reshape(tile_nodes.stop - tile_nodes.start, -1, h)
        block += source[tile_nodes, None, :]
        block += target[None, nodes, :]
        total += tile.sum(axis=0) - _diagonal(tile, tile_nodes, nodes).sum(axis=0)
    mu_e = total / m_e
    squares = np.zeros(h, dtype=e.dtype)
    for tile_nodes, nodes, rows in _edge_tiles(batch):
        tile = t[rows]
        tile -= mu_e
        diag = _diagonal(tile, tile_nodes, nodes)
        squares += np.einsum("ij,ij->j", tile, tile) - np.einsum("ij,ij->j", diag, diag)
    var_e = squares / m_e
    bn_e = layer.bn_edge
    k = bn_e.gamma / np.sqrt(var_e + BN_EPS)
    # a non-finite t shows in its sums; past this only an overflow can stop e_next
    if not all(np.isfinite(a).all() for a in (x_next, mu_e, var_e, k, bn_e.beta)):
        raise NonFiniteActivation("non-finite activation in conv layer")
    e_next = np.empty_like(e)
    relu_e = np.empty(e.shape, dtype=bool)
    try:
        with np.errstate(over="raise"):
            for _, _, rows in _edge_tiles(batch):
                y = np.multiply(t[rows], k, out=e_next[rows])
                y += bn_e.beta
                np.greater(y, 0.0, out=relu_e[rows])
                np.maximum(y, 0.0, out=y)
                y += e[rows]
    except FloatingPointError as exc:
        raise NonFiniteActivation(f"conv layer edge update: {exc}") from exc
    _update_running(bn_n, mu_n, var_n, len(s))
    _update_running(bn_e, mu_e, var_e, m_e)

    cache = {
        "x": x, "e": e, "gate": (sg_vals, den, raw, v),
        "mu_n": mu_n, "var_n": var_n, "s_c": s_c, "relu_n": y_n > 0,
        "var_e": var_e, "t_c": t, "relu_e": relu_e,
    }
    return x_next, e_next, cache


def _bn_backward_terms(bn: BatchNorm, var, g_sum, gc_sum, m: int):
    """Batch norm y = k * x_c + beta over m entries, x_c centred, k = gamma /
    sqrt(var + eps). From the sums of g = dL/dy and of g * x_c, the input
    gradient is k * g - (a + c * x_c); returns k, a, c and dL/dgamma."""
    std = np.sqrt(var + BN_EPS)
    k = bn.gamma / std
    return k, k * g_sum / m, k * gc_sum / (m * (var + BN_EPS)), gc_sum / std


def conv_backward(dx_next, de_next, layer: ConvLayer, batch: GraphBatch, cache):
    """Exact gradients of one conv layer from its training-mode cache, as a
    ConvLayer whose batch-norm running fields are 0; the edge gradient
    accumulates in the rows of de_next."""
    x, e = cache["x"], cache["e"]
    sg_vals, den, raw, v = cache["gate"]
    t_c, relu_e = cache["t_c"], cache["relu_e"]
    h = x.shape[1]

    # edge branch: e_next = e + relu(k * t_c + beta); the pooled sums come
    # first, over every row (the diagonal rows of de_next are 0)
    ge_buf, work = _tile_buffers(batch, 2, h, x.dtype)
    g_sum = np.zeros(h, dtype=x.dtype)
    gc_sum = np.zeros(h, dtype=x.dtype)
    for _, _, rows in _edge_tiles(batch):
        ge = np.multiply(de_next[rows], relu_e[rows], out=ge_buf[: rows.stop - rows.start])
        g_sum += ge.sum(axis=0)
        gc_sum += np.einsum("ij,ij->j", ge, t_c[rows])
    k, a, c, d_gamma = _bn_backward_terms(
        layer.bn_edge, cache["var_e"], g_sum, gc_sum, int(batch.pair_mask.sum()))
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
        d_w_edge += dt.T @ e[rows]
        de_rows = de_next[rows]   # de = de_next + dt W_edge, in place
        de_rows += np.matmul(dt, layer.w_edge, out=work[:n_rows])
        block = dt.reshape(tile_nodes.stop - tile_nodes.start, -1, h)
        dt_i[tile_nodes] = block.sum(axis=1)
        dt_j[nodes] += block.sum(axis=0)
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
    de_next[edge] += dsg_vals * sg_vals * (1.0 - sg_vals)
    dx += dv @ layer.w_neighbor

    grads = ConvLayer(ds.T @ x, dv.T @ x, d_w_edge, dt_i.T @ x, dt_j.T @ x, d_bn_node, d_bn_edge)
    return dx, de_next, grads


def mlp_head(e_final, params: ModelParams, batch: GraphBatch, training: bool, folded=()):
    """Per-edge probability via the MLP over final edge rows, in edge tiles.

    Returns the (P,) probabilities and, in training mode, the input of
    every MLP layer, which _mlp_backward reads. In eval mode e_final, the
    adjacency rows, gives only the dtype: each tile's pair rows are
    embedded, run through every layer's folded edge update (folded holds
    one (W', s', r') per conv layer) and the MLP in two scratch buffers,
    and the inputs are None.
    """
    last = len(params.mlp_weights) - 1
    heat = np.empty(batch.n_pairs, dtype=e_final.dtype)
    if training:
        inputs = [e_final] + [np.empty_like(e_final) for _ in range(last)]
    else:
        inputs = None
        tile_buf, buf = _tile_buffers(batch, 2, e_final.shape[1], e_final.dtype)
        adj_rows = _adjacency_embedding(batch, params)
    for tile_nodes, nodes, rows in _edge_tiles(batch):
        if training:
            z = e_final[rows]
        else:
            z = tile_buf[: rows.stop - rows.start]
            _embed_tile(z, tile_nodes, rows, adj_rows, batch, params)
            for w_edge, source, target in folded:
                _edge_update(z, w_edge, source[tile_nodes, None], target[None, nodes],
                             out=buf[: len(z)])
        for k in range(last):
            out = inputs[k + 1][rows] if training else buf[: len(z)]
            z = np.matmul(z, params.mlp_weights[k].T, out=out)
            z += params.mlp_biases[k]
            np.maximum(z, 0.0, out=z)
        z = z @ params.mlp_weights[last].T
        z += params.mlp_biases[last]
        heat[rows] = _sigmoid(z[:, 0])
    return heat, inputs


def _mlp_backward(dlogits, inputs, params: ModelParams, batch: GraphBatch):
    """Gradients through the MLP head from the layer inputs mlp_head kept,
    tile by tile; returns the gradient of the final edge rows."""
    grads_w = [np.zeros_like(w) for w in params.mlp_weights]
    grads_b = [np.zeros_like(b) for b in params.mlp_biases]
    de = np.empty_like(inputs[0])
    buf, = _tile_buffers(batch, 1, de.shape[1], de.dtype)
    for _, _, rows in _edge_tiles(batch):
        dz = dlogits[rows, None]
        for k in reversed(range(len(params.mlp_weights))):
            a_in = inputs[k][rows]
            grads_w[k] += dz.T @ a_in
            grads_b[k] += dz.sum(axis=0)
            # products alternate between buf and de, so the last lands in de
            out = de[rows] if k % 2 == 0 else buf[: len(a_in)]
            dz = np.matmul(dz, params.mlp_weights[k], out=out)
            if k > 0:
                dz *= a_in > 0
    return de, grads_w, grads_b


def forward(batch: GraphBatch, params: ModelParams, training: bool = False):
    """Full forward pass: embeddings, conv stack, MLP head.

    Returns the heat graph (B, n, n) of edge probabilities, 0 on padding
    slots, and, in training mode, the cache that loss_and_grads consumes;
    in eval mode the cache is None.
    """
    if batch.n > params.config.n_max:
        raise ShapeMismatch(
            f"batch capacity {batch.n} exceeds model n_max {params.config.n_max}"
        )
    x, e = embed_input(batch, params, training)
    layer_caches = []
    last = len(params.layers) - 1
    for k, layer in enumerate(params.layers):
        # in eval the MLP head reads only the last layer's folded edge terms
        x, e, cache = conv_forward(x, e, layer, batch, training,
                                   fold_only=not training and k == last)
        layer_caches.append(cache)
    rows, mlp_inputs = mlp_head(e, params, batch, training, () if training else layer_caches)
    heat = np.zeros(batch.block_mask.shape, dtype=rows.dtype)
    heat[batch.block_mask] = rows
    if not training:
        return heat, None
    return heat, {"batch": batch, "layers": layer_caches, "mlp_inputs": mlp_inputs}


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

    labels and mask are (B, n, n); mask marks ordered real pairs i != j.
    cache is the training-mode cache of the forward that produced heat;
    it is consumed, so it serves one call. Returns (loss, grads) where
    grads is a ModelParams-shaped container aligned with
    params.named_trainable().
    """
    loss, w1, w0 = weighted_bce(heat, labels, mask)
    batch: GraphBatch = cache["batch"]

    p = heat
    inside = mask & (p > PROB_CLAMP) & (p < 1.0 - PROB_CLAMP)
    m = int(mask.sum())
    dlogits = np.where(inside, (w0 * (1.0 - labels) * p - w1 * labels * (1.0 - p)) / m, 0.0)

    # popping the activations frees each one as soon as its gradient is taken
    de, mlp_gw, mlp_gb = _mlp_backward(
        dlogits[batch.block_mask], cache.pop("mlp_inputs"), params, batch
    )
    layer_caches = cache.pop("layers")
    dx = np.zeros_like(layer_caches[-1]["x"])
    layer_grads = []
    for layer in reversed(params.layers):
        dx, de, grads = conv_backward(dx, de, layer, batch, layer_caches.pop())
        layer_grads.append(grads)
    layer_grads.reverse()

    # input embedding backward: lengths and indicators are 0 off the adjacency
    half = params.config.hidden // 2
    edge = batch.adj_idx[0]
    g_node_w = dx.T @ batch.coords
    g_node_b = dx.sum(axis=0)
    g_dist_w = batch.adj_len @ de[edge, :half]
    g_dist_b = de[:, :half].sum(axis=0)
    g_ind_w = de[edge, half:].sum(axis=0)

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
    cfg = {
        "hidden": params.config.hidden,
        "conv_layers": params.config.conv_layers,
        "mlp_layers": params.config.mlp_layers,
        "n_max": params.config.n_max,
        "dtype": params.config.dtype,
    }
    chunks.append((json.dumps(cfg, sort_keys=True) + "\n").encode())
    for name, arr in params.named_trainable() + params.named_running():
        arr = np.ascontiguousarray(arr)
        shape = ",".join(str(d) for d in arr.shape) or "-"
        raw = arr.tobytes()
        chunks.append(f"tensor {name} {arr.dtype.str} {shape} {len(raw)}\n".encode())
        chunks.append(raw)
        chunks.append(b"\n")
    try:
        atomic_write_bytes(path, b"".join(chunks))
    except OSError as exc:
        raise CheckpointWriteFailure(str(exc)) from exc


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


def load_checkpoint(path) -> ModelParams:
    """Parameters of a checkpoint file. Any defect is a ParseError: an
    undecodable byte becomes U+FFFD, which no header field accepts."""
    with open(path, "rb") as fh:
        header = fh.readline().decode(errors="replace").strip()
        if header != CHECKPOINT_HEADER:
            raise FormatVersionMismatch(f"bad checkpoint header: {header!r}")
        config = _config_from_line(fh.readline())
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
            if dtype.kind != "f" or shape != arr.shape or nbytes != arr.size * dtype.itemsize:
                raise ParseError(f"tensor header {line!r}: not a float tensor of shape {arr.shape}")
            raw = fh.read(nbytes)
            if len(raw) != nbytes:
                raise ParseError(f"tensor {name} truncated")
            if fh.read(1) != b"\n":
                raise ParseError(f"tensor {name} missing terminator")
            arr[...] = np.frombuffer(raw, dtype=dtype).reshape(shape)
    return params
