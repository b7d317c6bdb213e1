"""Mini-batch training with Adam, validation tracking, and checkpoints.

Labels come from the 2-opt oracle, cached by scenario content hash so the
solver runs once per map across experiments. Batch order is a
deterministic per-epoch shuffle of the master seed, so identical
configurations reproduce identical loss curves.
"""

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DegenerateBatch, EmptyEvalSet, ParseError
from .fileio import atomic_write_text, read_text
from .graph import encode
from .model import (
    ModelConfig,
    ModelParams,
    field_kinds,
    forward,
    init_params,
    loss_and_grads,
    save_checkpoint,
    stack_graphs,
    weighted_bce,
)
from .oracle import LabelCache, pairs_to_matrix
from .scenario import GridMap, ScenarioSet


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 20
    max_epochs: int = 6
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning_rate must be finite and >= 0")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1)")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError("eps must be finite and > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_f1: float
    seconds: float


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    skipped_batches: int = 0

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,val_loss,val_f1,seconds"]
        for e in self.epochs:
            lines.append(f"{e.epoch},{e.train_loss!r},{e.val_loss!r},{e.val_f1!r},{e.seconds!r}")
        return "\n".join(lines) + "\n"


class Adam:
    """Standard Adam with bias correction over a list of parameter arrays."""

    def __init__(self, arrays, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.arrays = arrays
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]

    def step(self, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, (arr, g) in enumerate(zip(self.arrays, grads)):
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1**self.t)
            v_hat = self.v[i] / (1 - b2**self.t)
            arr -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def prepare_labels(scenarios: list[GridMap], cache: LabelCache) -> list[list[tuple[int, int]]]:
    """Label pairs for every scenario, one after another in this process."""
    return [cache.pairs_for(g) for g in scenarios]


def _batch_tensors(graphs, pair_lists, n_max, dtype):
    batch = stack_graphs(graphs, dtype=dtype)
    labels = np.stack([pairs_to_matrix(p, n_max) for p in pair_lists]).astype(dtype)
    return batch, labels


def evaluate(params: ModelParams, scenarios: list[GridMap],
             label_cache: LabelCache | None = None):
    """Eval-mode loss and edge precision/recall/F1 over masked pairs.

    Graphs are encoded under the label cache's connectivity (4 without a
    cache). A heat of 0.5 or more predicts an edge. Metrics pool every
    masked edge across the whole scenario list.
    """
    if not scenarios:
        raise EmptyEvalSet("no scenarios to evaluate")
    cache = label_cache or LabelCache(None)
    n_max = params.config.n_max
    dtype = params.config.np_dtype
    tp = fp = fn = tn = 0
    losses = []
    weights = []
    for grid in scenarios:
        graph = encode(grid, n_max, cache.connectivity)
        batch = stack_graphs([graph], dtype=dtype)
        heat, _ = forward(batch, params, training=False)
        labels = pairs_to_matrix(cache.pairs_for(grid), n_max)[None].astype(dtype)
        mask = batch.pair_mask
        try:
            loss, _, _ = weighted_bce(heat, labels, mask)
            losses.append(loss)
            weights.append(int(mask.sum()))
        except DegenerateBatch:
            pass
        pred = heat[mask] >= 0.5
        truth = labels[mask] > 0.5
        tp += int(np.sum(pred & truth))
        fp += int(np.sum(pred & ~truth))
        fn += int(np.sum(~pred & truth))
        tn += int(np.sum(~pred & ~truth))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    loss = float(np.average(losses, weights=weights)) if losses else float("nan")
    return {"loss": loss, "precision": precision, "recall": recall, "f1": f1}


def train(sset: ScenarioSet, config: TrainConfig, model_config: ModelConfig,
          label_cache_dir=None, checkpoint_dir=None, connectivity: int = 4, log=None):
    """Train on the set's train split, validating per epoch.

    Returns (params, report). The best-validation-loss checkpoint, the
    final checkpoint and report.csv are written to checkpoint_dir when set.
    """
    train_maps = sset.split("train")
    val_maps = sset.split("validation")
    if not train_maps or not val_maps:
        raise ValueError("need nonempty train and validation splits")

    # labels are canonical (tie-breaks independent of the training seed) so
    # cache files stay valid across experiments
    cache = LabelCache(label_cache_dir, connectivity=connectivity)
    train_pairs = prepare_labels(train_maps, cache)
    prepare_labels(val_maps, cache)

    n_max = model_config.n_max
    dtype = model_config.np_dtype
    train_graphs = [encode(g, n_max, connectivity) for g in train_maps]

    params = init_params(model_config, config.seed)
    optimizer = Adam(
        params.trainable_arrays(), config.learning_rate, config.beta1, config.beta2, config.eps
    )
    report = TrainReport()
    ckpt_dir = Path(checkpoint_dir) if checkpoint_dir else None
    best_val = np.inf

    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        order = np.random.default_rng([config.seed, epoch]).permutation(len(train_maps))
        batch_losses = []
        for lo in range(0, len(order), config.batch_size):
            idx = order[lo : lo + config.batch_size]
            batch, labels = _batch_tensors(
                [train_graphs[i] for i in idx], [train_pairs[i] for i in idx], n_max, dtype
            )
            try:
                heat, fwd_cache = forward(batch, params, training=True)
                loss, grads = loss_and_grads(heat, labels, batch.pair_mask, params, fwd_cache)
            except DegenerateBatch:
                report.skipped_batches += 1
                continue
            optimizer.step(grads.trainable_arrays())
            batch_losses.append(loss)
        val = evaluate(params, val_maps, label_cache=cache)
        stats = EpochStats(
            epoch,
            float(np.mean(batch_losses)) if batch_losses else float("nan"),
            val["loss"],
            val["f1"],
            time.perf_counter() - t0,
        )
        report.epochs.append(stats)
        if log:
            log(
                f"epoch {epoch}: train_loss={stats.train_loss:.4f} "
                f"val_loss={stats.val_loss:.4f} val_f1={stats.val_f1:.3f} "
                f"({stats.seconds:.1f}s)"
            )
        if ckpt_dir is not None and val["loss"] < best_val:
            best_val = val["loss"]
            save_checkpoint(params, ckpt_dir / "best.ckpt")
    if ckpt_dir is not None:
        save_checkpoint(params, ckpt_dir / "final.ckpt")
        atomic_write_text(ckpt_dir / "report.csv", report.to_csv())
    return params, report


# --- key = value config files -------------------------------------------------

def parse_config_text(text: str) -> tuple[TrainConfig, ModelConfig]:
    """Parse a key = value config covering TrainConfig and ModelConfig. An
    unknown key, a key given twice or a value its config refuses is a
    ParseError naming the line."""
    sections = [(config, field_kinds(config), {}) for config in (TrainConfig, ModelConfig)]
    first_line = {}     # key -> the line that set it
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        section = next((s for s in sections if key in s[1]), None)
        if section is None:
            raise ParseError(f"line {lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ParseError(f"line {lineno}: {key} is already set on line {first_line[key]}")
        first_line[key] = lineno
        config, kinds, kwargs = section
        try:
            kwargs[key] = kinds[key](value)
            config(**{key: kwargs[key]})  # each field is checked on its own
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad {key} value {value!r}: {exc}") from exc
    return tuple(config(**kwargs) for config, _, kwargs in sections)


def load_config(path) -> tuple[TrainConfig, ModelConfig]:
    return parse_config_text(read_text(path))
