import copy
import dataclasses
import hashlib
import json
import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from cppnet import model
from cppnet.errors import (
    CacheConsumed,
    DegenerateBatch,
    NonFiniteActivation,
    ParseError,
    ShapeMismatch,
)
from cppnet.graph import encode
from cppnet.model import (
    BN_EPS,
    ModelConfig,
    conv_forward,
    embed_input,
    forward,
    heat_for_graph,
    init_params,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
    stack_graphs,
    weighted_bce,
)
from cppnet.oracle import cost_matrix, label_pairs, pairs_to_matrix, two_opt
from cppnet.scenario import generate_scenario, scenario_from_text
from cppnet.train import Adam

from conftest import FIXTURE_CKPT, finite_difference_check, randomize_params


def small_setup(map_seed=3, param_seed=1, hidden=6, layers=2, density=0.2, pad=2,
                mlp_layers=2, dtype=ModelConfig.dtype):
    grid = generate_scenario(3, 3, 1.0, density, seed=map_seed)
    n_max = grid.n_free + pad
    graph = encode(grid, n_max)
    config = ModelConfig(hidden=hidden, conv_layers=layers, mlp_layers=mlp_layers, n_max=n_max,
                         dtype=dtype)
    params = init_params(config, seed=param_seed)
    batch = stack_graphs([graph], dtype=config.np_dtype)
    costs = cost_matrix(grid)
    labels = pairs_to_matrix(label_pairs(two_opt(costs, 0)), n_max)[None].astype(config.np_dtype)
    return grid, graph, config, params, batch, labels


def pair_embedding(batch, base, adj_rows):
    """The (P, h) input edge rows of every pair, which the model never holds:
    base, the embedding of step length 0 and indicator 0, but on the
    adjacency."""
    e0 = np.tile(base, (batch.n_pairs, 1))
    e0[batch.adj_idx[0]] = adj_rows
    return e0


def test_init_deterministic():
    config = ModelConfig(hidden=8, conv_layers=2, mlp_layers=2, n_max=16)
    a = init_params(config, seed=4)
    b = init_params(config, seed=4)
    for (_, x), (_, y) in zip(a.named_trainable(), b.named_trainable()):
        assert np.array_equal(x, y)
    c = init_params(config, seed=5)
    assert not np.array_equal(a.node_weight, c.node_weight)


def test_init_paper_shapes():
    params = init_params(ModelConfig(), seed=0)
    assert params.node_weight.shape == (50, 2)
    assert params.node_weight.size == 100
    assert params.dist_weight.shape == (25,)
    assert params.indicator_weight.shape == (25,)
    assert len(params.layers) == 3
    assert params.layers[0].w_self.shape == (50, 50)
    assert params.mlp_weights[0].shape == (50, 50)
    assert params.mlp_weights[1].shape == (1, 50)


def test_init_fan_in_bounds():
    params = init_params(ModelConfig(hidden=10, n_max=8), seed=2)
    assert np.abs(params.node_weight).max() <= 1 / np.sqrt(2)
    assert np.abs(params.layers[0].w_self).max() <= 1 / np.sqrt(10)
    assert np.abs(params.dist_weight).max() <= 1.0
    assert np.all(params.layers[0].bn_node.gamma == 1.0)
    assert np.all(params.layers[0].bn_node.beta == 0.0)


def test_config_invariants():
    with pytest.raises(ValueError):
        ModelConfig(hidden=7)
    with pytest.raises(ValueError):
        ModelConfig(conv_layers=0)
    with pytest.raises(ValueError):
        ModelConfig(mlp_layers=0)


def test_embed_zero_cases():
    _, _, _, params, batch, _ = small_setup()
    params.node_bias[:] = 0.0
    params.dist_bias[:] = 0.0
    x0, adj_rows = embed_input(batch, params)
    e0 = pair_embedding(batch, model._pair_bias(params), adj_rows)
    assert np.array_equal(e0[batch.adj_idx[0]], adj_rows)
    # zero bias: every real node embeds its coordinates and nothing else
    assert x0.shape == (batch.real.sum(), params.config.hidden)
    assert np.allclose(x0, batch.coords @ params.node_weight.T, rtol=0.0, atol=1e-15)
    # every non-adjacent pair, the diagonal (i, i) included, has zero
    # distance and zero indicator -> zero edge embedding
    apart = np.ones(len(e0), dtype=bool)
    apart[batch.adj_idx[0]] = False
    assert apart.sum() > (~batch.pair_mask[batch.block_mask]).sum() > 0
    assert np.all(e0[apart] == 0.0)
    # an adjacent pair embeds (step length, 1)
    half = params.config.hidden // 2
    adjacent = e0[batch.adj_idx[0]]
    assert np.array_equal(adjacent[:, :half], batch.adj_len[:, None] * params.dist_weight)
    assert np.all(adjacent[:, half:] == params.indicator_weight)


def test_embed_linearity():
    _, _, _, params, batch, _ = small_setup()
    x0, _ = embed_input(batch, params)
    params.node_bias[:] = 0.0
    base, _ = embed_input(batch, params)
    params.node_weight[...] *= 2.0
    doubled, _ = embed_input(batch, params)
    assert np.allclose(doubled, 2.0 * base)


def test_conv_zero_features_stay_zero():
    _, _, _, params, batch, _ = small_setup()
    x0, _ = embed_input(batch, params)
    x, e = np.zeros_like(x0), np.zeros((batch.n_pairs, params.config.hidden))
    x1, held, _ = conv_forward(x, e, params.layers[0], batch, training=True)
    # the outputs hold exactly the real nodes and the real block; the edge
    # rows are in the forward's buffer, not in the caller's array
    e1 = held.rows
    assert e1 is not e
    assert x1.shape == x0.shape and e1.shape == e.shape
    assert e1.shape[0] == batch.block_mask.sum()
    assert np.allclose(x1, 0.0)
    assert np.allclose(e1, 0.0)


def test_conv_isolated_node_reduces_to_self_term():
    # the node of a one-free-cell map has no neighbors: its update is
    # x + relu(BN(W_self x)), with statistics pooled over the whole batch
    _, graph, _, params, _, _ = small_setup()
    params.layers[0].bn_node.beta[:] = 0.3
    lone = scenario_from_text("cpp-scenario v1 2 2 1.0 0 0\n.#\n##\n")
    batch = stack_graphs([encode(lone, graph.n_max), graph])
    x0, e0 = embed_input(batch, params)
    x1, _, cache = conv_forward(x0, e0, params.layers[0], batch, training=True,
                                base=model._pair_bias(params))
    layer = params.layers[0]
    s = x0[0] @ layer.w_self.T  # aggregation is zero for the isolated node
    s_hat = (s - cache["mu_n"]) / np.sqrt(cache["var_n"] + BN_EPS)
    expected = x0[0] + np.maximum(layer.bn_node.gamma * s_hat + layer.bn_node.beta, 0.0)
    assert not np.allclose(expected, x0[0])
    assert np.allclose(x1[0], expected, atol=1e-12)


def test_forward_eval_deterministic():
    _, graph, _, params, _, _ = small_setup()
    a = heat_for_graph(graph, params)
    b = heat_for_graph(graph, params)
    assert np.array_equal(a, b)


def test_heat_strictly_inside_unit_interval():
    _, _, _, params, batch, _ = small_setup()
    heat, _ = forward(batch, params, training=False)
    real = heat[batch.block_mask]
    assert real.min() > 0.0
    assert real.max() < 1.0
    assert np.all(heat[~batch.block_mask] == 0.0)


def test_mlp_zero_final_layer_gives_half():
    _, _, _, params, batch, _ = small_setup()
    params.mlp_weights[-1][...] = 0.0
    params.mlp_biases[-1][...] = 0.0
    heat, _ = forward(batch, params, training=False)
    assert np.allclose(heat[batch.block_mask], 0.5)
    assert np.all(heat[~batch.block_mask] == 0.0)


def test_mlp_head_directed_probabilities():
    # the conv stack mixes distinct source/target node terms into each edge,
    # so p_ij != p_ji in general; symmetry appears only by explicit averaging
    _, _, _, params, batch, _ = small_setup()
    heat, _ = forward(batch, params, training=False)
    assert heat.shape == (1, batch.n, batch.n)
    assert not np.allclose(heat, np.swapaxes(heat, 1, 2))
    sym = (heat + np.swapaxes(heat, 1, 2)) / 2
    assert np.allclose(sym, np.swapaxes(sym, 1, 2))


def masked_sigmoid(x):
    """The logistic function by boolean masks, each half in its stable form."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype, big", [(np.float64, 1e300), (np.float32, 3e38)])
def test_sigmoid_matches_masked_formula_bit_for_bit(dtype, big):
    edges = [0.0, 1e-30, 0.5, 80.0, 700.0, big, np.inf]
    x = np.array(edges + [-v for v in edges] + [np.nan], dtype=dtype)
    x = np.concatenate([x, np.random.default_rng(0).normal(0, 20, 1000).astype(dtype)])
    with model._trapped("forward"):
        got = model._sigmoid(x)
    want = masked_sigmoid(x)
    # a NaN stays NaN; -abs sets its sign bit, which nothing reads
    nan = np.isnan(want)
    assert got.dtype == dtype and np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_weighted_bce_perfect_prediction():
    labels = np.zeros((1, 4, 4))
    labels[0, 0, 1] = labels[0, 1, 0] = 1.0
    mask = np.ones((1, 4, 4), dtype=bool) & ~np.eye(4, dtype=bool)
    heat = np.clip(labels, 1e-7, 1 - 1e-7)
    loss, _, _ = weighted_bce(heat, labels, mask)
    assert loss == pytest.approx(0.0, abs=1e-5)


def test_weighted_bce_balanced_weights():
    labels = np.zeros((1, 3, 3))
    labels[0, 0, 1] = labels[0, 0, 2] = labels[0, 1, 0] = 1.0
    mask = np.ones((1, 3, 3), dtype=bool) & ~np.eye(3, dtype=bool)
    # 3 positives of 6 masked entries
    _, w1, w0 = weighted_bce(np.full((1, 3, 3), 0.5), labels, mask)
    assert w1 == pytest.approx(1.0)
    assert w0 == pytest.approx(1.0)


def test_degenerate_batch_raises():
    labels = np.zeros((1, 3, 3))
    mask = np.ones((1, 3, 3), dtype=bool) & ~np.eye(3, dtype=bool)
    with pytest.raises(DegenerateBatch):
        weighted_bce(np.full((1, 3, 3), 0.5), labels, mask)


def assert_gradients_match(batch, labels, params):
    """loss_and_grads agrees with central differences of the training loss."""
    heat, cache = forward(batch, params, training=True)
    loss, grads = loss_and_grads(heat, labels, batch.pair_mask, params, cache)
    assert np.isfinite(loss)

    def loss_fn():
        h, _ = forward(batch, params, training=True)
        return weighted_bce(h, labels, batch.pair_mask)[0]

    worst, where = finite_difference_check(params, loss_fn, grads)
    assert worst < 1e-4, f"gradient mismatch {worst:.2e} at {where}"


def test_gradients_match_finite_differences():
    _, _, _, params, batch, labels = small_setup(dtype="float64")
    assert_gradients_match(batch, labels, randomize_params(params, np.random.default_rng(0)))


@pytest.mark.parametrize("conv_layers, mlp_layers", [(2, 1), (2, 3), (3, 2), (4, 2)])
def test_gradients_match_finite_differences_at_depth(conv_layers, mlp_layers):
    # the MLP backward writes each product over the layer input it follows
    # from, the last one over the final edge rows: a one-layer head (the
    # rank-1 product is the whole backward), a three-layer head and a third
    # conv layer must all still give the exact gradient; a fourth conv
    # layer's backward rebuilds its input rows from two held layers
    _, _, _, params, batch, labels = small_setup(layers=conv_layers, mlp_layers=mlp_layers,
                                                 dtype="float64")
    assert_gradients_match(batch, labels, randomize_params(params, np.random.default_rng(0)))


def test_second_loss_and_grads_on_a_cache_is_refused():
    # the first call leaves the gradient of the final edge rows where those
    # rows were, so the cache must never serve a second call
    _, _, _, params, batch, labels = small_setup()
    heat, cache = forward(batch, params, training=True)
    loss_and_grads(heat, labels, batch.pair_mask, params, cache)
    with pytest.raises(CacheConsumed):
        loss_and_grads(heat, labels, batch.pair_mask, params, cache)


def test_loss_mask_outside_pair_mask_refused_before_the_cache_is_consumed():
    # the backward takes the diagonal rows' edge gradient to be 0, so a mask
    # marking (i, i) would give wrong gradients; the refused call leaves the
    # cache to serve a call with pair_mask
    _, _, _, params, batch, labels = small_setup()
    heat, cache = forward(batch, params, training=True)
    for bad in (batch.block_mask, batch.pair_mask[:, :-1]):
        with pytest.raises(ShapeMismatch):
            loss_and_grads(heat, labels, bad, params, cache)
    loss, _ = loss_and_grads(heat, labels, batch.pair_mask, params, cache)
    assert np.isfinite(loss)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_forward_refuses_batch_of_another_dtype(dtype):
    # a batch stacked in the other dtype would run the whole pass, and a
    # training step's gradients, in the batch's precision
    _, graph, config, params, batch, _ = small_setup(dtype=dtype)
    other = np.float64 if dtype == "float32" else np.float32
    for training in (False, True):
        with pytest.raises(ShapeMismatch):
            forward(stack_graphs([graph], dtype=other), params, training=training)
        heat, _ = forward(batch, params, training=training)
        assert heat.dtype == config.np_dtype


def test_gradients_match_on_eight_connected_graph():
    grid = generate_scenario(3, 3, 1.0, 0.2, seed=11)
    graph = encode(grid, grid.n_free + 1, connectivity=8)
    config = ModelConfig(hidden=4, conv_layers=1, mlp_layers=2, n_max=grid.n_free + 1,
                         dtype="float64")
    params = randomize_params(init_params(config, seed=6), np.random.default_rng(1))
    batch = stack_graphs([graph], dtype=np.float64)
    labels = pairs_to_matrix(label_pairs(two_opt(cost_matrix(grid, 8), 0)), batch.n)[None]
    assert_gradients_match(batch, labels, params)


def mixed_grids():
    """Three maps of different free-cell counts."""
    return [generate_scenario(3, 3, 1.0, 0.4, seed=2),
            generate_scenario(3, 3, 1.0, 0.2, seed=3),
            generate_scenario(3, 4, 1.0, 0.3, seed=5)]


def mixed_batch(connectivity, n_max=None, dtype=np.float64):
    """The mixed_grids maps, padded to one capacity (the largest count
    unless n_max is given), with their 2-opt labels."""
    grids = mixed_grids()
    sizes = [g.n_free for g in grids]
    assert len(set(sizes)) == 3
    n = n_max or max(sizes)
    batch = stack_graphs([encode(g, n, connectivity) for g in grids], dtype=dtype)
    labels = np.stack([
        pairs_to_matrix(label_pairs(two_opt(cost_matrix(g, connectivity), g.start_slot)), n)
        for g in grids
    ])
    return batch, labels.astype(dtype)


def test_incidence_products_sum_the_adjacency(monkeypatch):
    # a batch of 4- and 8-connected maps with a one-free-cell map, whose
    # node row has no adjacency entry and sums to zero
    lone = scenario_from_text("cpp-scenario v1 2 2 1.0 0 0\n.#\n##\n")
    a, b, c = mixed_grids()
    n = c.n_free + 1
    graphs = [encode(a, n, 4), encode(lone, n, 8), encode(b, n, 8), encode(c, n, 4),
              encode(c, n, 8)]
    batch = stack_graphs(graphs, dtype=np.float64)
    edge, src, dst = batch.adj_idx
    values = np.random.default_rng(0).standard_normal((len(edge), 3))
    lone_row = batch.blocks[1][1].start
    for incidence, nodes in ((batch.by_source, src), (batch.by_target, dst)):
        want = np.zeros((len(batch.coords), 3))
        np.add.at(want, nodes, values)
        got = incidence @ values
        assert got.dtype == np.float64 and np.array_equal(got, want)
        assert not got[lone_row].any()
    single = stack_graphs(graphs, dtype=np.float32)
    assert (single.by_target @ values.astype(np.float32)).dtype == np.float32

    # each tile's run of the adjacency, as a search of the sorted sources finds it
    for tile_rows in (1, 20, model.EDGE_TILE_ROWS):
        monkeypatch.setattr(model, "EDGE_TILE_ROWS", tile_rows)
        for tile_nodes, _, rows in model._edge_tiles(batch):
            lo, hi = np.searchsorted(src, (tile_nodes.start, tile_nodes.stop))
            run, local = model._tile_adjacency(tile_nodes, rows, batch)
            assert (run.start, run.stop) == (lo, hi), tile_rows
            assert np.array_equal(local, edge[lo:hi] - rows.start), tile_rows


@pytest.mark.parametrize("connectivity", [4, 8])
def test_gradients_match_on_mixed_size_batch(connectivity):
    # batch norm pools its statistics over blocks of unequal size
    batch, labels = mixed_batch(connectivity)
    config = ModelConfig(hidden=4, conv_layers=2, mlp_layers=2, n_max=batch.n, dtype="float64")
    params = randomize_params(init_params(config, seed=2), np.random.default_rng(3))
    assert_gradients_match(batch, labels, params)


@pytest.mark.parametrize("connectivity", [4, 8])
def test_mixed_size_batch_independent_of_capacity(connectivity):
    tight, tight_labels = mixed_batch(connectivity)
    wide, wide_labels = mixed_batch(connectivity, n_max=2 * tight.n)
    config = ModelConfig(hidden=6, conv_layers=2, mlp_layers=2, n_max=wide.n, dtype="float64")
    params = randomize_params(init_params(config, seed=4), np.random.default_rng(5))
    results = []
    for batch, labels in ((tight, tight_labels), (wide, wide_labels)):
        heat, cache = forward(batch, params, training=True)
        loss, grads = loss_and_grads(heat, labels, batch.pair_mask, params, cache)
        results.append((heat[batch.block_mask], loss, grads))
    (heat_a, loss_a, grads_a), (heat_b, loss_b, grads_b) = results
    assert np.max(np.abs(heat_a - heat_b)) < 1e-10
    assert abs(loss_a - loss_b) < 1e-10
    for (name, ga), (_, gb) in zip(grads_a.named_trainable(), grads_b.named_trainable()):
        assert np.max(np.abs(ga - gb)) < 1e-10, name


@pytest.mark.parametrize("connectivity, conv_layers, dtype", [
    pytest.param(4, 2, "float64", id="4"), pytest.param(8, 2, "float64", id="8"),
    pytest.param(4, 3, "float64", id="4-3"), pytest.param(8, 3, "float64", id="8-3"),
    pytest.param(4, 4, "float64", id="4-4"), pytest.param(8, 4, "float64", id="8-4"),
    pytest.param(4, 3, "float32", id="4-3-float32"),
    pytest.param(8, 4, "float32", id="8-4-float32"),
])
def test_training_step_independent_of_tile_size(connectivity, conv_layers, dtype, monkeypatch):
    # tiles of one source row, ragged tiles (20 rows: 4 of the 5-node
    # block's rows, 2 of the 7-node block's) and one tile per block must
    # give the same loss, gradients and running statistics; past two conv
    # layers the backward rebuilds each layer's input tiles from the held
    # layers below it. float32 sums its tiles in its own precision.
    batch, labels = mixed_batch(connectivity, dtype=dtype)
    sizes = sorted(nb for nb, _, _ in batch.blocks)
    assert sizes == [5, 7, 8]
    config = ModelConfig(hidden=6, conv_layers=conv_layers, mlp_layers=2, n_max=batch.n,
                         dtype=dtype)
    seeded = randomize_params(init_params(config, seed=4), np.random.default_rng(5))

    def step(tile_rows):
        monkeypatch.setattr(model, "EDGE_TILE_ROWS", tile_rows)
        params = copy.deepcopy(seeded)
        heat, cache = forward(batch, params, training=True)
        loss, grads = loss_and_grads(heat, labels, batch.pair_mask, params, cache)
        return heat, loss, grads.named_trainable(), params.named_running()

    ref_heat, ref_loss, ref_grads, ref_running = step(model.EDGE_TILE_ROWS)
    rel = 1e-12 if dtype == "float64" else 5e-5
    for tile_rows in (1, 20, 10**6):
        heat, loss, grads, running = step(tile_rows)
        assert np.abs(heat - ref_heat).max() <= rel
        assert abs(loss - ref_loss) <= rel * abs(ref_loss)
        for (name, got), (_, want) in zip(grads + running, ref_grads + ref_running):
            assert got.dtype == config.np_dtype, name
            assert np.abs(got - want).max() <= rel * max(np.abs(want).max(), 1e-3), \
                (tile_rows, name)


def reference_first_layer(monkeypatch):
    """Make forward and loss_and_grads run the first training conv layer
    the way the model ran it before its closed form: on its (P, h) input
    rows, through the tile path that every later layer takes."""
    conv_forward, conv_backward = model.conv_forward, model.conv_backward

    def forward_layer(x, e, layer, batch, training, fold_only=False, base=None):
        if base is None:
            return conv_forward(x, e, layer, batch, training, fold_only)
        x, e, cache = conv_forward(x, pair_embedding(batch, base, e), layer, batch, training)
        cache["reference"] = True
        return x, e, cache

    def backward_layer(dx, de, layer, batch, cache):
        dx, de, grads = conv_backward(dx, de, layer, batch, cache)
        if cache.get("reference"):
            de = (de.sum(axis=0), de[batch.adj_idx[0]])
        return dx, de, grads

    monkeypatch.setattr(model, "conv_forward", forward_layer)
    monkeypatch.setattr(model, "conv_backward", backward_layer)


@pytest.mark.parametrize("tile_rows", [1, 20, 10**6])
@pytest.mark.parametrize("connectivity, conv_layers, dtype", [
    (4, 1, "float64"), (4, 3, "float64"), (8, 1, "float64"), (8, 3, "float64"),
    (4, 3, "float32"),
])
def test_first_layer_closed_form_matches_tile_path(connectivity, conv_layers, dtype,
                                                    tile_rows, monkeypatch):
    # blocks of 5, 7 and 8 nodes; a one-layer model builds the first
    # layer's rows in the MLP head and its backward, a three-layer one in
    # the second layer's tiles. float32 keeps its dtype, to its own
    # precision.
    batch, labels = mixed_batch(connectivity, dtype=dtype)
    config = ModelConfig(hidden=6, conv_layers=conv_layers, mlp_layers=2, n_max=batch.n,
                         dtype=dtype)
    seeded = randomize_params(init_params(config, seed=4), np.random.default_rng(5))
    monkeypatch.setattr(model, "EDGE_TILE_ROWS", tile_rows)

    def step():
        params = copy.deepcopy(seeded)
        heat, cache = forward(batch, params, training=True)
        loss, grads = loss_and_grads(heat, labels, batch.pair_mask, params, cache)
        return loss, grads.named_trainable() + params.named_running()

    loss, got = step()
    with monkeypatch.context() as patched:
        reference_first_layer(patched)
        want_loss, want = step()
    rel = 1e-12 if dtype == "float64" else 5e-5
    assert abs(loss - want_loss) <= rel * abs(want_loss)
    for (name, g), (_, w) in zip(got, want):
        assert g.dtype == w.dtype == config.np_dtype, name
        assert np.abs(g - w).max() <= rel * max(np.abs(w).max(), 1e-3), name


@pytest.mark.parametrize("tile_rows", [1, 20, 10**6])
@pytest.mark.parametrize("connectivity", [4, 8])
def test_backward_rebuilds_layer_inputs_bit_for_bit(connectivity, tile_rows, monkeypatch):
    # the forward keeps one edge buffer, so the backward of the third and
    # fourth conv layers rebuilds each of their input tiles from the first
    # layer's closed form and the one or two held layers after it. Every
    # rebuilt tile must equal, byte for byte, the output rows that a forward
    # keeping each layer's output array gave the layer below.
    batch, labels = mixed_batch(connectivity)
    config = ModelConfig(hidden=6, conv_layers=4, mlp_layers=2, n_max=batch.n, dtype="float64")
    params = randomize_params(init_params(config, seed=4), np.random.default_rng(5))
    monkeypatch.setattr(model, "EDGE_TILE_ROWS", tile_rows)
    conv_forward, input_tile = model.conv_forward, model._input_tile
    outputs, rebuilt = {}, []

    def keeping_forward(*args, **kwargs):
        x, e, cache = conv_forward(*args, **kwargs)
        if isinstance(e, model.HeldEdges):
            outputs[len(e.held)] = e.rows.copy()
        return x, e, cache

    def recording_tile(e, tile_nodes, nodes, rows, out, batch, work=None):
        tile = input_tile(e, tile_nodes, nodes, rows, out, batch, work)
        if isinstance(e, model.HeldEdges):
            rebuilt.append((len(e.held), rows, tile.copy()))
        return tile

    monkeypatch.setattr(model, "conv_forward", keeping_forward)
    heat, cache = forward(batch, params, training=True)
    monkeypatch.setattr(model, "_input_tile", recording_tile)
    loss_and_grads(heat, labels, batch.pair_mask, params, cache)
    assert sorted(outputs) == [1, 2, 3]
    assert sorted({held for held, _, _ in rebuilt}) == [1, 2]
    for held in (1, 2):
        covered = np.zeros(batch.n_pairs, dtype=int)
        for count, rows, tile in rebuilt:
            if count == held:
                assert tile.tobytes() == outputs[held][rows].tobytes(), (held, rows)
                covered[rows] += 1
        assert np.all(covered == 1), held


def test_eval_batch_norm_folds_running_statistics():
    # with the running statistics set to the batch statistics a training
    # forward used, the folded eval forward must give the training heat
    tight, _ = mixed_batch(4)
    batch, _ = mixed_batch(4, n_max=tight.n + 3)
    config = ModelConfig(hidden=6, conv_layers=2, mlp_layers=2, n_max=batch.n, dtype="float64")
    params = randomize_params(init_params(config, seed=4), np.random.default_rng(5))
    train_heat, cache = forward(batch, params, training=True)
    for layer, lc in zip(params.layers, cache["layers"]):
        layer.bn_node.run_mean[...] = lc["mu_n"]
        layer.bn_node.run_var[...] = lc["var_n"]
        x = lc["x"]
        if layer is params.layers[0]:
            # the first layer keeps no input: its pair rows are the embedding
            e = pair_embedding(batch, model._pair_bias(params), embed_input(batch, params)[1])
        else:
            # the second layer reads the first layer's rows in closed form
            e = np.empty((batch.n_pairs, config.hidden))
            for tile_nodes, nodes, rows in model._edge_tiles(batch):
                model._input_tile(lc["e"], tile_nodes, nodes, rows, e[rows], batch)
        pairs = []
        for nb, nodes, edges in batch.blocks:
            t = (e[edges] @ layer.w_edge.T).reshape(nb, nb, -1) \
                + (x[nodes] @ layer.w_source.T)[:, None] + (x[nodes] @ layer.w_target.T)[None]
            pairs.append(t[~np.eye(nb, dtype=bool)])
        pairs = np.concatenate(pairs)
        layer.bn_edge.run_mean[...] = pairs.mean(axis=0)
        layer.bn_edge.run_var[...] = pairs.var(axis=0)
        assert np.allclose(layer.bn_edge.run_var, lc["var_e"], rtol=1e-12, atol=0.0)
    eval_heat, _ = forward(batch, params, training=False)
    diff = np.abs(eval_heat - train_heat)[batch.block_mask]
    assert diff.max() < 1e-12


def reference_eval_heat(batch, params):
    """The eval heat as the model computed it before its first layer took
    the closed form: every (P, h) pair row embedded, then run through each
    conv layer's folded edge update (_fold_edge_bn), then the MLP, one
    whole block at a time."""
    x, adj_rows = embed_input(batch, params)
    e = pair_embedding(batch, model._pair_bias(params), adj_rows)
    folded = []
    for layer in params.layers:
        folded.append(model._fold_edge_bn(x, layer))
        x, adj_rows, _ = conv_forward(x, adj_rows, layer, batch, training=False)
    heat = np.zeros(batch.block_mask.shape, dtype=e.dtype)
    for b, (nb, nodes, edges) in enumerate(batch.blocks):
        z = e[edges].reshape(nb, nb, -1)
        for w_edge, source, target in folded:
            z = z + np.maximum(z @ w_edge + source[nodes, None] + target[None, nodes], 0.0)
        for w, bias in zip(params.mlp_weights[:-1], params.mlp_biases[:-1]):
            z = np.maximum(z @ w.T + bias, 0.0)
        logits = (z @ params.mlp_weights[-1].T + params.mlp_biases[-1])[..., 0]
        heat[b, :nb, :nb] = 1.0 / (1.0 + np.exp(-logits))
    return heat


@pytest.mark.parametrize("tile_rows", [1, 20, 10**6])
@pytest.mark.parametrize("connectivity, conv_layers, dtype", [
    (4, 1, "float64"), (4, 3, "float64"), (8, 1, "float64"), (8, 3, "float64"),
    (4, 3, "float32"),
])
def test_eval_first_layer_closed_form_matches_folded_chain(connectivity, conv_layers, dtype,
                                                           tile_rows, monkeypatch):
    # the eval forward builds each tile from the first layer's closed form;
    # the chain it replaced ran every pair from its embedding through all
    # folded edge updates. Blocks of 1, 5, 7 and 8 nodes; float32 keeps
    # its dtype, to its own precision.
    lone = scenario_from_text("cpp-scenario v1 2 2 1.0 0 0\n.#\n##\n")
    grids = mixed_grids() + [lone]
    n = max(g.n_free for g in grids) + 2
    batch = stack_graphs([encode(g, n, connectivity) for g in grids], dtype=dtype)
    config = ModelConfig(hidden=6, conv_layers=conv_layers, mlp_layers=2, n_max=n, dtype=dtype)
    params = randomize_params(init_params(config, seed=4), np.random.default_rng(5))
    for _, arr in params.named_running():
        arr += np.random.default_rng(6).uniform(0.0, 0.5, size=arr.shape).astype(dtype)
    monkeypatch.setattr(model, "EDGE_TILE_ROWS", tile_rows)
    heat, _ = forward(batch, params, training=False)
    want = reference_eval_heat(batch, params)
    assert heat.dtype == config.np_dtype
    assert np.all(heat[~batch.block_mask] == 0.0)
    assert np.abs(heat - want).max() <= (1e-12 if dtype == "float64" else 1e-6)


def test_eval_forward_peak_memory_is_about_one_edge_array():
    # the eval forward updates the edge rows in place, tile by tile, and the
    # MLP head keeps no layer input: its peak stays near one (P, h) array
    grid = generate_scenario(12, 12, 1.0, 0.0, seed=0)
    config = ModelConfig(n_max=grid.n_free)
    params = init_params(config, seed=0)
    graph = encode(grid, grid.n_free)
    edge_bytes = grid.n_free ** 2 * config.hidden * np.dtype(config.np_dtype).itemsize
    tracemalloc.start()
    try:
        heat_for_graph(graph, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * edge_bytes, f"peak {peak / edge_bytes:.2f} edge arrays"


@pytest.mark.parametrize("connectivity", [4, 8])
def test_eval_heat_independent_of_tile_size(connectivity, monkeypatch):
    # each pair tile rebuilds its edge chains from the first layer's closed
    # form and the node features of every later layer: tiles of one source
    # row, ragged tiles and one tile per block give one heat, also for a
    # one-free-cell map
    lone = scenario_from_text("cpp-scenario v1 2 2 1.0 0 0\n.#\n##\n")
    grids = [generate_scenario(3, 3, 1.0, 0.4, seed=2), lone,
             generate_scenario(3, 4, 1.0, 0.3, seed=5)]
    n = max(g.n_free for g in grids) + 3
    batch = stack_graphs([encode(g, n, connectivity) for g in grids], dtype=np.float64)
    config = ModelConfig(hidden=6, conv_layers=2, mlp_layers=2, n_max=n, dtype="float64")
    params = randomize_params(init_params(config, seed=4), np.random.default_rng(5))
    ref, _ = forward(batch, params, training=False)
    for tile_rows in (1, 20, 10**6):
        monkeypatch.setattr(model, "EDGE_TILE_ROWS", tile_rows)
        heat, _ = forward(batch, params, training=False)
        assert np.abs(heat - ref).max() <= 1e-12, tile_rows
        assert np.all(heat[~batch.block_mask] == 0.0)


def training_step_peak(dtype):
    """The tracemalloc peak of one training step over two 12x12 maps, in
    (P, h) edge arrays of dtype."""
    grids = [generate_scenario(12, 12, 1.0, 0.0, seed=0),
             generate_scenario(12, 12, 1.0, 0.2, seed=1)]
    n = max(g.n_free for g in grids)
    config = ModelConfig(n_max=n, dtype=dtype)
    params = init_params(config, seed=0)
    batch = stack_graphs([encode(g, n) for g in grids], dtype=config.np_dtype)
    labels = np.stack([pairs_to_matrix(zip(range(g.n_free - 1), range(1, g.n_free)), n)
                       for g in grids]).astype(config.np_dtype)
    edge_bytes = batch.n_pairs * config.hidden * np.dtype(config.np_dtype).itemsize
    tracemalloc.start()
    try:
        heat, cache = forward(batch, params, training=True)
        loss_and_grads(heat, labels, batch.pair_mask, params, cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / edge_bytes


def test_training_step_peak_memory_is_about_four_edge_arrays():
    # a training step holds one edge buffer, which every conv layer past
    # the first, whose rows are held in closed form, updates in place, and,
    # per such layer, its centred pre-activations and its ReLU mask; the
    # backward rebuilds each layer's input rows tile by tile from these,
    # the final edge rows become their own gradient and the MLP head keeps
    # no hidden row. Two 12x12 maps, about 34 000 pair rows (13.6 MB per
    # float64 (P, h) array), make the edge arrays the whole footprint: 3.92
    # arrays at the peak, against 4.86 when each layer kept its output rows.
    peak = training_step_peak("float64")
    assert peak <= 4.25, f"peak {peak:.2f} edge arrays"


def test_float32_training_step_peak_memory_is_about_four_edge_arrays():
    # half the bytes of the float64 step: 4.21 float32 edge arrays at the
    # peak, as each layer's ReLU mask (one byte an entry) weighs twice as
    # much against a float32 array as against a float64 one
    peak = training_step_peak("float32")
    assert peak <= 4.5, f"peak {peak:.2f} edge arrays"


def test_eval_forward_keeps_no_edge_array():
    # only the adjacency rows run through the conv stack; every pair is
    # built in a cache-sized tile, so the peak is a fraction of one (P, h)
    # array (64 MB here)
    grid = generate_scenario(20, 20, 1.0, 0.0, seed=0)
    config = ModelConfig(n_max=grid.n_free)
    params = init_params(config, seed=0)
    graph = encode(grid, grid.n_free)
    edge_bytes = grid.n_free ** 2 * config.hidden * np.dtype(config.np_dtype).itemsize
    tracemalloc.start()
    try:
        heat_for_graph(graph, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * edge_bytes, f"peak {peak / edge_bytes:.2f} edge arrays"


def test_permutation_equivariance_eval_mode():
    grid, graph, config, params, batch, _ = small_setup(pad=0, dtype="float64")
    heat, _ = forward(batch, params, training=False)
    rng = np.random.default_rng(0)
    perm = rng.permutation(batch.n)
    # slot a of the permuted graph is slot perm[a] of the original
    i, j, length = graph.edges
    inv = np.argsort(perm)
    order = np.lexsort((inv[j], inv[i]))

    class Permuted:
        n_max = graph.n_max
        n_free = graph.n_free
        coords = graph.coords[perm]
        edges = (inv[i][order], inv[j][order], length[order])

    pbatch = stack_graphs([Permuted()], dtype=config.np_dtype)
    pheat, _ = forward(pbatch, params, training=False)
    assert np.allclose(pheat[0], heat[0][np.ix_(perm, perm)], atol=1e-12)


def test_padding_inertness_eval_mode():
    grid = generate_scenario(4, 4, 1.0, 0.25, seed=9)
    config = ModelConfig(hidden=8, conv_layers=2, mlp_layers=2, n_max=2 * grid.n_free)
    params = init_params(config, seed=3)
    n = grid.n_free
    tight = heat_for_graph(encode(grid, n), params)
    padded = heat_for_graph(encode(grid, 2 * n), params)
    assert np.max(np.abs(padded[:n, :n] - tight)) < 1e-10


def test_training_mode_padding_inert_too():
    # masked batch-norm statistics exclude padding, so train-mode heat on
    # real pairs is unchanged by extra padding slots as well
    grid = generate_scenario(3, 3, 1.0, 0.2, seed=4)
    config = ModelConfig(hidden=6, conv_layers=1, mlp_layers=2, n_max=3 * grid.n_free,
                         dtype="float64")
    params = init_params(config, seed=8)
    n = grid.n_free
    b1 = stack_graphs([encode(grid, n)], dtype=config.np_dtype)
    b2 = stack_graphs([encode(grid, 3 * n)], dtype=config.np_dtype)
    h1, _ = forward(b1, params, training=True)
    h2, _ = forward(b2, params, training=True)
    assert np.max(np.abs(h2[0, :n, :n] - h1[0])) < 1e-10


def test_real_pairs_count_the_pair_mask():
    # a one-free-cell map adds a block but no pair
    lone = encode(scenario_from_text("cpp-scenario v1 2 2 1.0 0 0\n.#\n##\n"), 12)
    batch = stack_graphs([lone] + [encode(g, 12) for g in mixed_grids()])
    assert batch.blocks[0][0] == 1
    assert batch.real_pairs == batch.pair_mask.sum()
    assert stack_graphs([lone, lone]).real_pairs == 0


def test_default_batch_and_model_precision_agree():
    _, graph, _, _, _, _ = small_setup()
    params = init_params(ModelConfig(hidden=4, conv_layers=2, n_max=graph.n_max), seed=0)
    for training in (False, True):
        heat, _ = forward(stack_graphs([graph]), params, training=training)
        assert heat.dtype == ModelConfig().np_dtype


def test_training_forward_without_pairs_is_degenerate():
    # one-free-cell maps have no pair to take edge statistics over; the
    # batch is refused before any running statistic moves
    lone = encode(scenario_from_text("cpp-scenario v1 2 2 1.0 0 0\n.#\n##\n"), 4)
    params = init_params(ModelConfig(hidden=4, conv_layers=1, n_max=4, dtype="float64"), seed=0)
    before = [arr.copy() for _, arr in params.named_running()]
    with pytest.raises(DegenerateBatch):
        forward(stack_graphs([lone, lone], dtype=np.float64), params, training=True)
    for (name, arr), old in zip(params.named_running(), before):
        assert np.array_equal(arr, old), name
    heat, _ = forward(stack_graphs([lone], dtype=np.float64), params, training=False)
    assert 0.0 < heat[0, 0, 0] < 1.0


@pytest.mark.parametrize("layers, where", [
    pytest.param(2, "conv0", id="nan-weight"),
    pytest.param(3, "mlp0", id="mlp-overflow"),
    pytest.param(2, "conv1", id="nan-last-node-weight"),
])
def test_failed_training_forward_leaves_running_statistics(layers, where):
    # the running statistics move only once the forward has passed its
    # checks: a NaN node weight in the first layer reaches the heat quietly,
    # the first MLP layer overflows after every conv layer has taken its
    # batch statistics, and a NaN node weight in the last layer reaches
    # only that layer's node statistics, never the heat
    _, _, _, params, batch, _ = small_setup(layers=layers, dtype="float64")
    if where == "mlp0":
        params.mlp_weights[0][:] = 1e307
        params.mlp_biases[0][:] = 1.7e308
    else:
        params.layers[int(where[-1])].w_self[0, 0] = np.nan
    before = [arr.tobytes() for _, arr in params.named_running()]
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NonFiniteActivation, match="^forward: "):
            forward(batch, params, training=True)
    for (name, arr), old in zip(params.named_running(), before):
        assert arr.tobytes() == old, name


def test_forward_rejects_overcapacity_batch():
    grid = generate_scenario(4, 4, 1.0, 0.0, seed=0)
    graph = encode(grid, 16)
    params = init_params(ModelConfig(hidden=4, conv_layers=1, n_max=8), seed=0)
    with pytest.raises(ShapeMismatch):
        forward(stack_graphs([graph]), params, training=False)


def test_non_finite_activation_detected():
    _, _, _, params, batch, _ = small_setup()
    params.layers[0].w_self[0, 0] = np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NonFiniteActivation):
            forward(batch, params, training=True)


@pytest.mark.parametrize("where, training", [
    pytest.param("w_edge", True, id="w_edge"),
    pytest.param("conv2.bn_edge", True, id="overflow"),
    pytest.param("conv2.bn_edge", False, id="conv2-edge-eval"),
    pytest.param("conv1.bn_edge", True, id="conv1-edge"),
    pytest.param("conv1.bn_edge", False, id="conv1-edge-eval"),
    pytest.param("conv1.bn_node", True, id="conv1-node"),
    pytest.param("conv1.bn_node", False, id="conv1-node-eval"),
    pytest.param("mlp0", True, id="mlp0"),
    pytest.param("mlp0", False, id="mlp0-eval"),
    pytest.param("mlp_bias_nan", True, id="nan-bias"),
    pytest.param("mlp_bias_nan", False, id="nan-bias-eval"),
    pytest.param("edges", True, id="scaled-cache"),
])
def test_non_finite_edge_activation_detected(where, training):
    # an infinite edge weight in the last layer; finite batch-norm
    # parameters whose output overflows: k * t_c reaches 1e307 where t_c
    # passes one standard deviation, and beta + 1e307 exceeds the float64
    # range (in eval a running mean of -1 lifts every centred pre-activation
    # by 1); the same scale and shift as the first MLP layer's weights and
    # bias; a NaN output bias, which propagates quietly to the heat; and a
    # training cache whose final edge rows are scaled past the float64
    # range, which only the backward reads (scaled by 1e300 they still give
    # finite gradients).
    _, _, _, params, batch, labels = small_setup(layers=3, dtype="float64")
    if where == "w_edge":
        params.layers[-1].w_edge[0, 0] = np.inf
    elif where == "mlp0":
        params.mlp_weights[0][:] = 1e307
        params.mlp_biases[0][:] = 1.7e308
    elif where == "mlp_bias_nan":
        params.mlp_biases[-1][0] = np.nan
    elif where.startswith("conv"):
        layer, part = where.split(".")
        bn = getattr(params.layers[int(layer[-1])], part)
        bn.gamma[:] = 1e307
        bn.beta[:] = 1.7e308
        bn.run_mean[:] = -1.0
    with np.errstate(invalid="ignore", over="ignore"):
        if where == "edges":
            heat, cache = forward(batch, params, training=True)
            cache["edges"] *= 1e308
            with pytest.raises(NonFiniteActivation, match="^backward: "):
                loss_and_grads(heat, labels, batch.pair_mask, params, cache)
        else:
            with pytest.raises(NonFiniteActivation, match="^forward: "):
                forward(batch, params, training=training)


@pytest.mark.parametrize("layers, training", [
    pytest.param(1, True, id="1"), pytest.param(2, True, id="2"),
    pytest.param(1, False, id="1-eval"), pytest.param(2, False, id="2-eval"),
])
def test_overflow_in_first_layer_rows_detected(layers, training):
    # the first layer's rows are built where they are read: in the second
    # layer's gate (and, in training, its tiles), or, in a one-layer model
    # and in every eval forward, for the MLP head. Finite batch-norm
    # parameters make each build overflow, as in
    # test_non_finite_edge_activation_detected; in eval a running mean of
    # -1 lifts every pre-activation by 1, past the overflow threshold.
    _, _, _, params, batch, _ = small_setup(layers=layers, dtype="float64")
    params.layers[0].bn_edge.gamma[:] = 1e307
    params.layers[0].bn_edge.beta[:] = 1.7e308
    params.layers[0].bn_edge.run_mean[:] = -1.0
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NonFiniteActivation, match="overflow"):
            forward(batch, params, training=training)


def test_checkpoint_roundtrip(tmp_path):
    _, _, _, params, batch, _ = small_setup(param_seed=7)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    for (name, a), (_, b) in zip(
        params.named_trainable() + params.named_running(),
        loaded.named_trainable() + loaded.named_running(),
    ):
        assert np.array_equal(a, b), name
    heat_a, _ = forward(batch, params, training=False)
    heat_b, _ = forward(batch, loaded, training=False)
    assert np.array_equal(heat_a, heat_b)


def test_checkpoint_bytes_stable(tmp_path):
    _, _, _, params, _, _ = small_setup(param_seed=2)
    save_checkpoint(params, tmp_path / "a.ckpt")
    save_checkpoint(load_checkpoint(tmp_path / "a.ckpt"), tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_fixture_checkpoint_rewrites_to_its_own_bytes(tmp_path):
    # the config line comes from the ModelConfig fields themselves
    save_checkpoint(load_checkpoint(FIXTURE_CKPT), tmp_path / "copy.ckpt")
    written = (tmp_path / "copy.ckpt").read_bytes()
    assert written == FIXTURE_CKPT.read_bytes()
    assert hashlib.sha256(written).hexdigest() == \
        "670b2aecc82bee33faef437f18c4ae088916cd438b5912eed88da91f19b59ebe"


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint\n")
    with pytest.raises(ParseError):
        load_checkpoint(bad)


@pytest.mark.parametrize("old, new", [
    (b" <f8 ", b" zz! "),                            # unparsable tensor dtype
    (b'"dtype"', b'"dtypo"'),                         # unknown config key
    (b'"dtype": "float64", ', b""),                   # missing config key
    (rb"\{.*\}", b"[6]"),                              # config not an object
    (b'"hidden": 6', b'"hidden": 3'),                 # ModelConfig rejects it
    (b'"hidden": 6', b'"hidden": "6"'),               # wrong value type
    (b"checkpoint v1", b"checkpoint v\xff1"),        # file header not UTF-8
    (b"tensor input.node_bias", b"tensor input.node_b\xe9ias"),  # tensor header not UTF-8
    (b" <f8 ", b" |O "),                              # object dtype of the same size
    (b" <f8 6,2 ", b" <f8 6,3 "),                     # shape does not fit the byte count
    (b'"dtype": "float64"', b'"dtype": "float32"'),   # tensors not of the config's dtype
])
def test_checkpoint_malformed_is_parse_error(tmp_path, old, new):
    _, _, _, params, _, _ = small_setup(dtype="float64")
    good = tmp_path / "good.ckpt"
    save_checkpoint(params, good)
    data, found = re.subn(old, new, good.read_bytes(), count=1)
    assert found
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(data)
    with pytest.raises(ParseError):
        load_checkpoint(bad)


@pytest.mark.parametrize("name, index, value, reason", [
    ("conv0.w_edge", (0, 0), np.nan, "non-finite value"),
    ("mlp1.bias", (0,), -np.inf, "non-finite value"),
    ("conv1.bn_edge.run_var", (0,), -1.0, "negative variance"),
])
def test_checkpoint_bad_value_is_parse_error(tmp_path, name, index, value, reason):
    # such a file is well formed, but a forward on it would give NaN heat
    _, _, _, params, _, _ = small_setup()
    dict(params.named_trainable() + params.named_running())[name][index] = value
    path = tmp_path / "bad.ckpt"
    save_checkpoint(params, path)
    with pytest.raises(ParseError, match=rf"tensor {re.escape(name)} holds a {reason}"):
        load_checkpoint(path)


def test_checkpoint_config_wider_than_its_file_refused_before_allocating(tmp_path):
    # a header-only file whose config line asks for 600-wide float32
    # layers: 23.1 MB of tensors, which the file would have to hold
    config = ModelConfig(hidden=600)
    path = tmp_path / "wide.ckpt"
    path.write_bytes(f"{model.CHECKPOINT_HEADER}\n".encode()
                     + json.dumps(asdict(config), sort_keys=True).encode() + b"\n")
    assert path.stat().st_size == 103
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="needs >= 23113204 tensor bytes, file has 0"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    for config in (config, ModelConfig(hidden=4, conv_layers=1, mlp_layers=1),
                   ModelConfig(hidden=8, conv_layers=4, mlp_layers=3)):
        params = init_params(config, seed=0)
        assert model._element_count(config) == \
            sum(arr.size for _, arr in params.named_trainable() + params.named_running())


def test_float32_mode_same_api():
    grid = generate_scenario(3, 3, 1.0, 0.1, seed=5)
    config = ModelConfig(hidden=6, conv_layers=1, mlp_layers=2, n_max=grid.n_free,
                         dtype="float32")
    params = init_params(config, seed=1)
    assert params.node_weight.dtype == np.float32
    heat = heat_for_graph(encode(grid, grid.n_free), params)
    assert heat.dtype == np.float32
    assert 0.0 < heat.min() and heat.max() < 1.0


def float_arrays(obj, name):
    """(name, array) for every float array reachable from obj through
    dicts, lists, tuples and dataclass fields."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            yield name, obj
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from float_arrays(value, f"{name}.{key}")
    elif isinstance(obj, (list, tuple)):
        for k, value in enumerate(obj):
            yield from float_arrays(value, f"{name}[{k}]")
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from float_arrays(getattr(obj, f.name), f"{name}.{f.name}")


def test_float32_training_step_stays_float32():
    # a float64 temporary that reaches a cache array, a gradient or an Adam
    # moment silently doubles a step's memory, and every step after it
    batch, labels = mixed_batch(8, dtype="float32")
    config = ModelConfig(hidden=6, conv_layers=4, mlp_layers=2, n_max=batch.n, dtype="float32")
    params = randomize_params(init_params(config, seed=4), np.random.default_rng(5))
    optimizer = Adam(params.trainable_arrays(), 1e-3)
    heat, cache = forward(batch, params, training=True)
    assert heat.dtype == np.float32
    held = list(float_arrays(cache, "cache"))
    # the batch's coordinates and step lengths, every layer's terms, and
    # the held layers' centred pre-activations inside the edge buffer's
    # description
    assert len(held) > 40 and any(".held[" in name for name, _ in held)
    for name, arr in held:
        assert arr.dtype == np.float32, name
    loss, grads = loss_and_grads(heat, labels, batch.pair_mask, params, cache)
    assert np.isfinite(loss)
    optimizer.step(grads.trainable_arrays())
    named = grads.named_trainable() + params.named_trainable() + params.named_running()
    moments = [(f"m[{k}]", m) for k, m in enumerate(optimizer.m)] \
        + [(f"v[{k}]", v) for k, v in enumerate(optimizer.v)]
    for name, arr in named + moments:
        assert arr.dtype == np.float32, name
