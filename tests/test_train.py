import numpy as np
import pytest

from cppnet.errors import EmptyEvalSet, ParseError
from cppnet.graph import encode
from cppnet.model import (
    ModelConfig,
    forward,
    init_params,
    load_checkpoint,
    loss_and_grads,
    stack_graphs,
    weighted_bce,
)
from cppnet.oracle import LabelCache, pairs_to_matrix
from cppnet.scenario import dataset_build
from cppnet.train import (
    Adam,
    ModelParams,
    TrainConfig,
    evaluate,
    parse_config_text,
    train,
)

import cppnet.oracle as oracle
import cppnet.train as train_mod


def tiny_dataset(count=12, seed=3):
    return dataset_build(count, 4, 4, 1.0, (0.0, 0.3), (0.6, 0.2, 0.2), seed=seed)


def tiny_model_config(n_max=16):
    return ModelConfig(hidden=6, conv_layers=1, mlp_layers=2, n_max=n_max)


def test_adam_first_step_closed_form():
    lr = 0.001
    theta = np.array([1.0])
    opt = Adam([theta], lr)
    opt.step([np.array([1.0])])
    # bias-corrected m_hat / sqrt(v_hat) is exactly 1 at t=1
    assert theta[0] == pytest.approx(1.0 - lr, abs=lr * 1e-6)


def test_adam_accumulates_momentum():
    theta = np.zeros(3)
    opt = Adam([theta], lr=0.1)
    for _ in range(5):
        opt.step([np.ones(3)])
    assert np.all(theta < 0.0)
    assert opt.t == 5


def test_zero_learning_rate_is_null_update(tmp_path):
    sset = tiny_dataset()
    config = TrainConfig(learning_rate=0.0, batch_size=4, max_epochs=1, seed=1)
    params, _ = train(sset, config, tiny_model_config())
    reference = init_params(tiny_model_config(), seed=1)
    for (name, a), (_, b) in zip(params.named_trainable(), reference.named_trainable()):
        assert np.array_equal(a, b), name


def test_training_is_deterministic():
    sset = tiny_dataset()
    config = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=2, seed=9)
    _, report_a = train(sset, config, tiny_model_config())
    _, report_b = train(sset, config, tiny_model_config())
    for ea, eb in zip(report_a.epochs, report_b.epochs):
        assert ea.train_loss == eb.train_loss
        assert ea.val_loss == eb.val_loss
        assert ea.val_f1 == eb.val_f1


def test_training_reduces_loss_from_first_batch():
    sset = dataset_build(20, 5, 5, 1.0, (0.0, 0.3), (0.75, 0.25, 0.0), seed=6)
    model_config = ModelConfig(hidden=10, conv_layers=2, mlp_layers=2, n_max=25, dtype="float32")
    config = TrainConfig(learning_rate=1e-3, batch_size=5, max_epochs=2, seed=2)
    params, report = train(sset, config, model_config)

    # loss of the very first batch at the untrained initialization
    train_maps = sset.split("train")
    cache = LabelCache(None)
    order = np.random.default_rng([config.seed, 1]).permutation(len(train_maps))
    first = [train_maps[i] for i in order[: config.batch_size]]
    batch = stack_graphs([encode(g, 25) for g in first], dtype=model_config.np_dtype)
    labels = np.stack([pairs_to_matrix(cache.pairs_for(g), 25) for g in first])
    init = init_params(model_config, config.seed)
    heat, _ = forward(batch, init, training=True)
    first_batch_loss, _, _ = weighted_bce(heat, labels, batch.pair_mask)

    assert report.epochs[-1].train_loss < first_batch_loss


def recipe_step_losses(dtype):
    """The losses of the first three steps of the acceptance recipe's
    training, as the benchmark's train-10x10 workload runs them: the
    250-map set of seed 101, epoch 1's batch order under
    TrainConfig(seed=0), the initial weights and Adam, in dtype."""
    maps = dataset_build(250, 10, 10, 1.0, (0.0, 0.5), (0.8, 0.2, 0.0), seed=101).split("train")
    config, model_config = TrainConfig(seed=0), ModelConfig(dtype=dtype)
    order = np.random.default_rng([config.seed, 1]).permutation(len(maps))
    params = init_params(model_config, config.seed)
    optimizer = Adam(params.trainable_arrays(), config.learning_rate, config.beta1,
                     config.beta2, config.eps)
    cache = LabelCache(None)
    losses = []
    for step in range(3):
        grids = [maps[i] for i in order[step * config.batch_size:(step + 1) * config.batch_size]]
        batch, labels = train_mod._batch_tensors(
            [encode(g, model_config.n_max) for g in grids],
            train_mod.prepare_labels(grids, cache), model_config.n_max, model_config.np_dtype)
        heat, fwd_cache = forward(batch, params, training=True)
        loss, grads = loss_and_grads(heat, labels, batch.pair_mask, params, fwd_cache)
        optimizer.step(grads.trainable_arrays())
        losses.append(loss)
    return losses


def test_acceptance_recipe_first_steps_keep_their_losses():
    # a change to the arithmetic of a step shows here, at the precision
    # the finite-difference tests check
    assert recipe_step_losses("float64") == pytest.approx(
        [0.7236685491283066, 0.6740780582581305, 0.636100773714214], rel=1e-10, abs=0.0)


def test_acceptance_recipe_first_float32_steps_keep_their_losses():
    # the recipe's own precision; float32 sgemm kernels may round
    # differently on another CPU
    assert recipe_step_losses("float32") == pytest.approx(
        [0.7236685752868652, 0.6740780472755432, 0.6361008286476135], rel=1e-6, abs=0.0)


def test_train_requires_validation_split():
    sset = dataset_build(6, 4, 4, 1.0, (0.0, 0.2), (1.0, 0.0, 0.0), seed=1)
    with pytest.raises(ValueError):
        train(sset, TrainConfig(max_epochs=1), tiny_model_config())


def test_evaluate_perfect_predictor_f1(monkeypatch):
    sset = tiny_dataset(count=6)
    maps = sset.scenarios[:3]
    cache = LabelCache(None)
    params = init_params(tiny_model_config(), seed=0)

    def fake_forward(batch, p, training=False):
        labels = pairs_to_matrix(cache.pairs_for(maps[fake_forward.i]), batch.n)
        fake_forward.i += 1
        return np.clip(labels[None], 1e-7, 1 - 1e-7), None

    fake_forward.i = 0
    monkeypatch.setattr(train_mod, "forward", fake_forward)
    metrics = evaluate(params, maps, label_cache=cache)
    assert metrics["f1"] == pytest.approx(1.0)
    assert metrics["precision"] == pytest.approx(1.0)
    assert metrics["recall"] == pytest.approx(1.0)
    assert metrics["loss"] == pytest.approx(0.0, abs=1e-5)


def test_evaluate_constant_half_ties_predict_positive(monkeypatch):
    sset = tiny_dataset(count=6)
    maps = sset.scenarios[:2]
    params = init_params(tiny_model_config(), seed=0)

    def half_forward(batch, p, training=False):
        return np.full((1, batch.n, batch.n), 0.5), None

    monkeypatch.setattr(train_mod, "forward", half_forward)
    metrics = evaluate(params, maps)
    assert metrics["recall"] == pytest.approx(1.0)
    assert metrics["precision"] < 0.5


@pytest.mark.parametrize("connectivity", [4, 8])
def test_evaluate_encodes_under_its_cache_connectivity(connectivity, monkeypatch):
    maps = tiny_dataset(count=6).scenarios[:2]
    params = init_params(tiny_model_config(), seed=0)
    encoded = []

    def recording_encode(grid, n_max, conn):
        encoded.append(conn)
        return encode(grid, n_max, conn)

    monkeypatch.setattr(train_mod, "encode", recording_encode)
    evaluate(params, maps, label_cache=LabelCache(None, connectivity=connectivity))
    assert encoded == [connectivity] * len(maps)


def test_evaluate_empty_set():
    params = init_params(tiny_model_config(), seed=0)
    with pytest.raises(EmptyEvalSet):
        evaluate(params, [])


def test_checkpoints_and_report_written(tmp_path):
    sset = tiny_dataset()
    config = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=2, seed=4)
    params, report = train(sset, config, tiny_model_config(), checkpoint_dir=str(tmp_path))
    assert (tmp_path / "best.ckpt").is_file()
    assert (tmp_path / "final.ckpt").is_file()
    csv = (tmp_path / "report.csv").read_text()
    assert csv.splitlines()[0] == "epoch,train_loss,val_loss,val_f1,seconds"
    assert len(csv.splitlines()) == 3

    # loading the final checkpoint reproduces evaluation bit-for-bit
    loaded = load_checkpoint(tmp_path / "final.ckpt")
    val = sset.split("validation")
    a = evaluate(params, val)
    b = evaluate(loaded, val)
    assert a == b


def test_label_cache_shared_across_runs(tmp_path):
    sset = tiny_dataset(count=8)
    config = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=1, seed=4)
    train(sset, config, tiny_model_config(), label_cache_dir=tmp_path)
    labeled = sset.split("train") + sset.split("validation")
    expected = {g.content_hash() for g in labeled}
    files = list(tmp_path.glob("*.labels"))
    assert {f.stem for f in files} == expected
    before = {f.name: f.read_bytes() for f in files}
    # a second run must reuse the cache byte-for-byte
    train(sset, config, tiny_model_config(), label_cache_dir=tmp_path)
    after = {f.name: f.read_bytes() for f in tmp_path.glob("*.labels")}
    assert before == after


def test_prepare_labels_fills_the_cache_in_order(tmp_path, monkeypatch):
    # 20 maps, one of them twice: the size of one training batch
    maps = dataset_build(19, 5, 5, 1.0, (0.0, 0.3), (1.0, 0.0, 0.0), seed=8).scenarios
    maps = maps + [maps[3]]
    pairs = train_mod.prepare_labels(maps, LabelCache(tmp_path))
    reference = LabelCache(None)
    assert pairs == [reference.pairs_for(g) for g in maps]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{h}.labels" for h in {g.content_hash() for g in maps})

    def no_solver(*args):
        raise AssertionError("label cache missed")

    monkeypatch.setattr(oracle, "two_opt", no_solver)
    fresh = LabelCache(tmp_path)
    assert [fresh.pairs_for(g) for g in maps] == pairs


def test_parse_config_defaults_match_paper():
    config = TrainConfig()
    assert config.learning_rate == pytest.approx(0.001)
    assert config.batch_size == 20
    assert config.max_epochs == 6
    assert config.beta1 == pytest.approx(0.9)
    assert config.beta2 == pytest.approx(0.999)
    model = ModelConfig()
    assert model.hidden == 50
    assert model.conv_layers == 3
    assert model.mlp_layers == 2


def test_parse_config_text():
    text = """
    # training setup
    learning_rate = 0.01
    batch_size = 4
    max_epochs = 2
    seed = 11
    hidden = 8
    conv_layers = 1
    n_max = 30
    """
    tc, mc = parse_config_text(text)
    assert tc.learning_rate == pytest.approx(0.01)
    assert tc.batch_size == 4
    assert tc.seed == 11
    assert mc.hidden == 8
    assert mc.conv_layers == 1
    assert mc.n_max == 30


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ParseError):
        parse_config_text("learning_rte = 0.1\n")
    with pytest.raises(ParseError):
        parse_config_text("just some words\n")
    # the CLI's required --out names the checkpoint directory, not the config
    with pytest.raises(ParseError, match="line 1: unknown config key 'checkpoint_dir'"):
        parse_config_text("checkpoint_dir = out\n")


def test_parse_config_rejects_a_repeated_key():
    # a second value would silently win over the first
    text = "# a config\nbatch_size = 4\nseed = 1\nbatch_size = 8\n"
    with pytest.raises(ParseError, match="line 4: batch_size is already set on line 2"):
        parse_config_text(text)


@pytest.mark.parametrize("line", ["batch_size = x", "n_max = 1.5", "dtype = float16",
                                  "batch_size = 0", "hidden = 7", "learning_rate = -1",
                                  "learning_rate = nan", "max_epochs = 0", "beta1 = 1",
                                  "beta2 = -0.5", "eps = inf", "eps = 0", "n_max = 0"])
def test_parse_config_bad_value_names_line_and_key(line):
    key = line.split()[0]
    with pytest.raises(ParseError, match=f"line 3: bad {key} value"):
        parse_config_text(f"# a config\nseed = 1\n{line}\n")


def test_parse_config_refuses_a_negative_seed():
    # init_params would refuse it only once every map was labelled, and
    # without naming the config line
    with pytest.raises(ParseError, match="line 2: bad seed value '-1': seed must be >= 0"):
        parse_config_text("batch_size = 4\nseed = -1\n")


def test_grads_shape_matches_params():
    sset = tiny_dataset(count=6)
    config = TrainConfig(learning_rate=1e-3, batch_size=3, max_epochs=1, seed=0)
    params, _ = train(sset, config, tiny_model_config())
    assert isinstance(params, ModelParams)
