"""Edge-probability graph network with hand-written exact gradients.

Architecture: a linear input embedding of node coordinates and of edge
(distance, indicator) pairs, a stack of residual gated graph-convolution
layers with batch normalization, and an MLP head that maps each final
edge feature to the probability of that edge belonging to the optimal
coverage tour.

Everything is plain numpy. The backward pass is derived by hand and is
exact reverse-mode differentiation of the forward, including the batch
normalization statistics and the neighbor-gating quotient; finite
differences validate it to 1e-4 relative error in the test suite.

Conventions:
  - Batches stack graphs of equal capacity n: arrays are (B, n, ...),
    edge tensors (B, n, n, h).
  - Real slots are identified by indicator diagonal == 2; adjacency by
    indicator == 1. Padding slots never influence real outputs.
  - Batch-norm statistics are computed over real nodes and over real
    ordered pairs (i != j) only, so padding is inert in train mode too.
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
    """Stacked scenario graphs plus precomputed adjacency gather plans."""

    coords: np.ndarray       # (B, n, 2)
    dist: np.ndarray         # (B, n, n)
    indicator: np.ndarray    # (B, n, n) float
    real: np.ndarray         # (B, n) bool
    pair_mask: np.ndarray    # (B, n, n) bool: both real, i != j
    adj_idx: tuple           # (b, i, j) arrays of adjacency entries
    row_starts: np.ndarray   # reduceat boundaries grouping adj_idx by (b, i)
    row_ids: np.ndarray      # flat b*n+i id per boundary group
    col_perm: np.ndarray     # permutation sorting adj_idx by (b, j)
    col_starts: np.ndarray
    col_ids: np.ndarray

    @property
    def batch_size(self):
        return self.coords.shape[0]

    @property
    def n(self):
        return self.coords.shape[1]


def stack_graphs(graphs: list[ScenarioGraph], dtype=np.float64) -> GraphBatch:
    n = graphs[0].n_max
    for g in graphs:
        if g.n_max != n:
            raise ShapeMismatch("all graphs in a batch must share n_max")
    coords = np.stack([g.coords for g in graphs]).astype(dtype)
    dist = np.stack([g.dist for g in graphs]).astype(dtype)
    indicator = np.stack([g.indicator for g in graphs]).astype(dtype)
    real = indicator.diagonal(axis1=1, axis2=2) == 2
    eye = np.eye(n, dtype=bool)
    pair_mask = real[:, :, None] & real[:, None, :] & ~eye

    b_idx, i_idx, j_idx = np.nonzero(indicator == 1)
    # keys are >= 0, so prepending -1 opens a group at the first entry
    row_key = b_idx * n + i_idx
    row_starts = np.flatnonzero(np.diff(row_key, prepend=-1))
    row_ids = row_key[row_starts]
    col_perm = np.argsort(b_idx * n + j_idx, kind="stable")
    col_key = (b_idx * n + j_idx)[col_perm]
    col_starts = np.flatnonzero(np.diff(col_key, prepend=-1))
    col_ids = col_key[col_starts]
    return GraphBatch(
        coords,
        dist,
        indicator,
        real,
        pair_mask,
        (b_idx, i_idx, j_idx),
        row_starts,
        row_ids,
        col_perm,
        col_starts,
        col_ids,
    )


def _segment_scatter(values, starts, ids, out_rows):
    """Sum contiguous segments of values and scatter them to flat row ids."""
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


def embed_input(batch: GraphBatch, params: ModelParams):
    """Linear embeddings of node coordinates and (distance, indicator) edges."""
    h = params.config.hidden
    half = h // 2
    if params.node_weight.shape != (h, 2):
        raise ShapeMismatch(f"node weight shape {params.node_weight.shape} != ({h}, 2)")
    x0 = batch.coords @ params.node_weight.T + params.node_bias
    B, n = batch.coords.shape[:2]
    e0 = np.empty((B, n, n, h), dtype=x0.dtype)
    e0[..., :half] = batch.dist[..., None] * params.dist_weight + params.dist_bias
    e0[..., half:] = batch.indicator[..., None] * params.indicator_weight
    return x0, e0


def _bn_stats(values, mask, bn: BatchNorm, training: bool, update_stats: bool):
    """Mean/variance over masked entries (train) or running stats (eval)."""
    if not training:
        return bn.run_mean, bn.run_var
    pop = values[mask]
    m = pop.shape[0]
    mu = pop.mean(axis=0)
    var = pop.var(axis=0)
    if update_stats:
        bn.run_mean[...] = (1 - BN_MOMENTUM) * bn.run_mean + BN_MOMENTUM * mu
        unbiased = var * (m / (m - 1)) if m > 1 else var
        bn.run_var[...] = (1 - BN_MOMENTUM) * bn.run_var + BN_MOMENTUM * unbiased
    return mu, var


def _gate_forward(e, x, layer: ConvLayer, batch: GraphBatch):
    """Neighbor aggregation sum_j eta_ij * (W_neighbor x_j) on adjacency entries."""
    B, n = batch.real.shape
    h = x.shape[-1]
    v = x @ layer.w_neighbor.T
    b_arr, _, j_arr = batch.adj_idx
    sg_vals = _sigmoid(e[batch.adj_idx])
    den = _segment_scatter(sg_vals, batch.row_starts, batch.row_ids, B * n)
    den = den.reshape(B, n, h) + GATE_EPS
    raw = _segment_scatter(
        sg_vals * v[b_arr, j_arr], batch.row_starts, batch.row_ids, B * n
    ).reshape(B, n, h)
    agg = raw / den
    return sg_vals, den, raw, v, agg


def conv_forward(x, e, layer: ConvLayer, batch: GraphBatch, training: bool,
                 update_stats: bool | None = None):
    """One residual gated graph-convolution layer.

    Returns the next node and edge features plus, in training mode, the
    cache conv_backward reads: the layer inputs, the gate terms, the
    normalized pre-activations, the ReLU masks and the batch variances.
    In eval mode the cache is None.
    """
    if update_stats is None:
        update_stats = training
    sg_vals, den, raw, v, agg = _gate_forward(e, x, layer, batch)

    s = x @ layer.w_self.T + agg
    mu_n, var_n = _bn_stats(s, batch.real, layer.bn_node, training, update_stats)
    s_hat = (s - mu_n) / np.sqrt(var_n + BN_EPS)
    y_n = layer.bn_node.gamma * s_hat + layer.bn_node.beta
    x_next = x + np.maximum(y_n, 0.0)

    t = e @ layer.w_edge.T
    t += (x @ layer.w_source.T)[:, :, None, :]
    t += (x @ layer.w_target.T)[:, None, :, :]
    mu_e, var_e = _bn_stats(t, batch.pair_mask, layer.bn_edge, training, update_stats)
    # normalize in place: t_hat is the largest tensor the cache keeps
    t -= mu_e
    t /= np.sqrt(var_e + BN_EPS)
    y_e = layer.bn_edge.gamma * t + layer.bn_edge.beta
    e_next = e + np.maximum(y_e, 0.0)

    if not training:
        return x_next, e_next, None
    cache = {
        "x": x, "e": e, "gate": (sg_vals, den, raw, v),
        "mu_n": mu_n, "var_n": var_n, "s_hat": s_hat, "relu_n": y_n > 0,
        "var_e": var_e, "t_hat": t, "relu_e": y_e > 0,
    }
    return x_next, e_next, cache


def _bn_backward(g, x_hat, var, mask, gamma):
    """Gradient through y = gamma * x_hat + beta with batch statistics over mask.

    g must be zero outside the mask (no loss path exists there); returns
    (dx, dgamma, dbeta) with dx zeroed outside the mask.
    """
    axes = tuple(range(g.ndim - 1))
    dgamma = (g * x_hat).sum(axis=axes)
    dbeta = g.sum(axis=axes)
    dxh = g * gamma
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    m = int(mask.sum())
    sum1 = dxh.sum(axis=axes)
    sum2 = (dxh * x_hat).sum(axis=axes)
    dx = (dxh - sum1 / m - x_hat * (sum2 / m)) * inv_std
    return dx * mask[..., None], dgamma, dbeta


def conv_backward(dx_next, de_next, layer: ConvLayer, batch: GraphBatch, cache):
    """Exact gradients of one conv layer from its training-mode cache."""
    x, e = cache["x"], cache["e"]
    sg_vals, den, raw, v = cache["gate"]
    B, n = batch.real.shape
    h = x.shape[-1]
    flat_x = x.reshape(-1, h)

    grads = {}
    dx = dx_next.copy()
    de = de_next.copy()

    # edge branch: e_next = e + relu(y_e)
    ge = de_next * cache["relu_e"]
    dt, dg_e, db_e = _bn_backward(
        ge, cache["t_hat"], cache["var_e"], batch.pair_mask, layer.bn_edge.gamma
    )
    grads["bn_edge.gamma"] = dg_e
    grads["bn_edge.beta"] = db_e
    flat_dt = dt.reshape(-1, h)
    grads["w_edge"] = flat_dt.T @ e.reshape(-1, h)
    de += dt @ layer.w_edge
    dt_i = dt.sum(axis=2)
    dt_j = dt.sum(axis=1)
    grads["w_source"] = dt_i.reshape(-1, h).T @ flat_x
    grads["w_target"] = dt_j.reshape(-1, h).T @ flat_x
    dx += dt_i @ layer.w_source
    dx += dt_j @ layer.w_target

    # node branch: x_next = x + relu(y_n)
    gn = dx_next * cache["relu_n"]
    ds, dg_n, db_n = _bn_backward(
        gn, cache["s_hat"], cache["var_n"], batch.real, layer.bn_node.gamma
    )
    grads["bn_node.gamma"] = dg_n
    grads["bn_node.beta"] = db_n
    grads["w_self"] = ds.reshape(-1, h).T @ flat_x
    dx += ds @ layer.w_self

    # gated aggregation: agg = raw / den, raw = sum_j sg * v_j
    dagg = ds
    b_arr, i_arr, j_arr = batch.adj_idx
    draw = dagg / den
    dden = -dagg * raw / (den * den)
    flat_draw = draw.reshape(-1, h)
    flat_dden = dden.reshape(-1, h)
    row_flat = b_arr * n + i_arr
    col_flat = b_arr * n + j_arr
    dv_vals = sg_vals * flat_draw[row_flat]
    dv = _segment_scatter(
        dv_vals[batch.col_perm], batch.col_starts, batch.col_ids, B * n
    ).reshape(B, n, h)
    dsg_vals = flat_draw[row_flat] * v.reshape(-1, h)[col_flat] + flat_dden[row_flat]
    de_vals = dsg_vals * sg_vals * (1.0 - sg_vals)
    de[batch.adj_idx] += de_vals
    grads["w_neighbor"] = dv.reshape(-1, h).T @ flat_x
    dx += dv @ layer.w_neighbor

    return dx, de, grads


def mlp_head(e_final, params: ModelParams):
    """Per-edge probability via the MLP over final edge features.

    Returns the heat graph and the input of every MLP layer, which
    _mlp_backward reads.
    """
    inputs = []
    z = e_final
    for k, (w, b) in enumerate(zip(params.mlp_weights, params.mlp_biases)):
        inputs.append(z)
        z = z @ w.T + b
        if k < len(params.mlp_weights) - 1:
            z = np.maximum(z, 0.0)
    return _sigmoid(z[..., 0]), inputs


def _mlp_backward(dlogits, inputs, params: ModelParams):
    """Gradients through the MLP head from the layer inputs mlp_head kept.

    Pops each input off the list once its layer is done, so the edge-sized
    activations are freed before the conv layers are differentiated.
    """
    h = params.config.hidden
    grads_w, grads_b = [], []
    dz = dlogits[..., None]
    for k in reversed(range(len(params.mlp_weights))):
        a_in = inputs.pop()
        out_dim = params.mlp_weights[k].shape[0]
        flat_dz = dz.reshape(-1, out_dim)
        grads_w.append(flat_dz.T @ a_in.reshape(-1, h))
        grads_b.append(flat_dz.sum(axis=0))
        dz = dz @ params.mlp_weights[k]
        if k > 0:
            dz = dz * (a_in > 0)
    return dz, grads_w[::-1], grads_b[::-1]


def forward(batch: GraphBatch, params: ModelParams, training: bool = False,
            update_stats: bool | None = None):
    """Full forward pass: embeddings, conv stack, MLP head.

    Returns the heat graph (B, n, n) of edge probabilities and, in training
    mode, the cache that loss_and_grads consumes; in eval mode the cache is
    None.
    """
    if batch.n > params.config.n_max:
        raise ShapeMismatch(
            f"batch capacity {batch.n} exceeds model n_max {params.config.n_max}"
        )
    x, e = embed_input(batch, params)
    layer_caches = []
    for layer in params.layers:
        x, e, cache = conv_forward(x, e, layer, batch, training, update_stats)
        if training and not (np.isfinite(x).all() and np.isfinite(e).all()):
            raise NonFiniteActivation("non-finite activation in conv layer")
        layer_caches.append(cache)
    heat, mlp_inputs = mlp_head(e, params)
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
    de, mlp_gw, mlp_gb = _mlp_backward(dlogits, cache.pop("mlp_inputs"), params)
    layer_caches = cache.pop("layers")
    dx = np.zeros_like(layer_caches[-1]["x"])
    layer_grads = []
    for layer in reversed(params.layers):
        dx, de, grads = conv_backward(dx, de, layer, batch, layer_caches.pop())
        layer_grads.append(grads)
    layer_grads.reverse()

    # input embedding backward
    h = params.config.hidden
    half = h // 2
    g_node_w = dx.reshape(-1, h).T @ batch.coords.reshape(-1, 2)
    g_node_b = dx.reshape(-1, h).sum(axis=0)
    de_dist = de[..., :half]
    g_dist_w = np.einsum("bijh,bij->h", de_dist, batch.dist)
    g_dist_b = de_dist.sum(axis=(0, 1, 2))
    g_ind_w = np.einsum("bijh,bij->h", de[..., half:], batch.indicator)

    grads = ModelParams(
        params.config,
        g_node_w,
        g_node_b,
        g_dist_w,
        g_dist_b,
        g_ind_w,
        [
            ConvLayer(
                lg["w_self"],
                lg["w_neighbor"],
                lg["w_edge"],
                lg["w_source"],
                lg["w_target"],
                BatchNorm(lg["bn_node.gamma"], lg["bn_node.beta"],
                          np.zeros(h), np.zeros(h)),
                BatchNorm(lg["bn_edge.gamma"], lg["bn_edge.beta"],
                          np.zeros(h), np.zeros(h)),
            )
            for lg in layer_grads
        ],
        mlp_gw,
        mlp_gb,
    )
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


def _config_from_line(line: bytes) -> ModelConfig:
    """The checkpoint's JSON config: exactly the ModelConfig fields, each of
    its declared type and valid. Any defect is a ParseError."""
    try:
        cfg = json.loads(line)
    except ValueError as exc:
        raise ParseError(f"bad checkpoint config: {exc}") from exc
    kinds = {f.name: type(f.default) for f in fields(ModelConfig)}
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
    with open(path, "rb") as fh:
        header = fh.readline().decode().strip()
        if header != CHECKPOINT_HEADER:
            raise FormatVersionMismatch(f"bad checkpoint header: {header!r}")
        config = _config_from_line(fh.readline())
        params = init_params(config, seed=0)
        expected = params.named_trainable() + params.named_running()
        for name, arr in expected:
            line = fh.readline().decode()
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
            raw = fh.read(nbytes)
            if len(raw) != nbytes:
                raise ParseError(f"tensor {name} truncated")
            if fh.read(1) != b"\n":
                raise ParseError(f"tensor {name} missing terminator")
            loaded = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
            if loaded.shape != arr.shape:
                raise ParseError(f"tensor {name} shape {loaded.shape} != {arr.shape}")
            arr[...] = loaded
    return params
