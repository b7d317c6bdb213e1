"""The workloads: inputs, the measured loop, output checks and metrics.

Each workload drives the program closed-loop from one process, one call
at a time. The map sets are pinned by the acceptance recipe's seeds, so
the quality figures stay equal to what the acceptance suite reports and
comparable between commits; a run's `--seed` sets the order of the calls.
"""

import dataclasses
import hashlib
import math
import statistics
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from cppnet import bench, decode, graph, model, oracle, scenario, train

import checks
import tracing

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "fixtures" / "acceptance.ckpt"

DENSITY = (0.0, 0.5)
HELDOUT_SEED = 777
# acceptance recipe (criteria 4-6): 250 maps, 0.8/0.2 train/validation split
TRAIN_SET_ARGS = (250, 10, 10, 1.0, DENSITY, (0.8, 0.2, 0.0))
TRAIN_SET_SEED = 101
CONNECTIVITY = 4


def recipe_train_config() -> train.TrainConfig:
    return train.TrainConfig(seed=0)


def recipe_model_config() -> model.ModelConfig:
    return model.ModelConfig()


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# --- metric names and units ---------------------------------------------------

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "maps_per_s": "maps/s",
    "oracle.p50_ms": "ms",
    "quality": "score",
}

CONV_LAYERS = recipe_model_config().conv_layers

PER_LAYER = {
    "scenario.build_s": "s",
    "model.load_ckpt_ms": "ms",
    "graph.encode_ms": "ms",
    "model.forward_ms": "ms",
    "model.embed_ms": "ms",
    "model.conv_ms": "ms",
    **{f"model.conv{k}_ms": "ms" for k in range(CONV_LAYERS)},
    "model.mlp_ms": "ms",
    "model.forward_train_s": "s",
    "model.backward_s": "s",
    "model.conv_backward_s": "s",
    "model.pad_share": "ratio",
    "model.edge_mb": "MB",
    "train.stack_ms": "ms",
    "train.adam_ms": "ms",
    "decode.greedy_ms": "ms",
    "decode.stitch_ms": "ms",
    "decode.astar_calls": "count",
    "decode.radius_grow_share": "ratio",
    "decode.detour_m": "m",
    "oracle.cost_matrix_ms": "ms",
    "oracle.two_opt_ms": "ms",
    **{
        f"{layer}.{field}": unit
        for layer in tracing.LAYERS
        for field, unit in (("calls", "count"), ("self_s", "s"), ("failures", "count"))
    },
    "trace.overhead_ms": "ms",
    "trace.overhead_share": "ratio",
}


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, int]:
    """The highest whole percentile with at least 10 samples beyond it, and
    that percentile; with 10 samples or fewer, the maximum (percentile 100)."""
    n = len(values)
    if n <= 10:
        return (float(max(values)) if values else 0.0), 100
    pct = 100 * (n - 10) // n
    return float(np.percentile(values, pct)), pct


def forward_counts(batch, params, training=False, update_stats=None) -> dict:
    """Pair slots, real pair slots and edge-tensor bytes of one forward."""
    real = batch.real.sum(axis=1).astype(np.int64)
    size, n = batch.real.shape
    itemsize = np.dtype(params.config.np_dtype).itemsize
    return {
        "training": training,
        "slots": size * n * n,
        "real_slots": int((real ** 2).sum()),
        "edge_bytes": size * n * n * params.config.hidden * itemsize,
    }


COUNTERS = {"model.forward": forward_counts}


class Run:
    """Wall time per call, outputs and failed operations of one loop.

    With a tracer, every call is made twice, untraced and traced, so
    the tracing overhead is measured call by call and each traced output
    is compared with the untraced one. `twin_args` give the traced call
    its own copy of any state the call changes.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = defaultdict(list)          # call kind -> untraced seconds per call
        self.traced_seconds = defaultdict(list)   # call kind -> traced seconds per call
        self.outputs = []                         # (kind, key, result) in call order
        self.attempted = 0
        self.problems = []                        # one entry per failed operation
        self.passes = 0
        self._traced_first = defaultdict(bool)    # call kind -> next call runs traced first

    def _timed(self, kind, fn, args, seconds, tracer):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with tracer.span(f"perfbench.{kind}"):
                result = fn(*args)
        except Exception:
            self.problems.append(f"{kind} raised:\n{traceback.format_exc()}")
            return None
        seconds[kind].append(time.perf_counter() - t0)
        return result

    def call(self, kind, fn, *args, twin_args=None):
        """Time one call; an exception is a failed operation, not a crash.
        `fn` must look the program's functions up when it runs, so that the
        tracer's patches apply to it."""
        if self.tracer is None:
            return self._timed(kind, fn, args, self.seconds, tracing.NULL_TRACER)

        def traced_call():
            with self.tracer.installed():
                return self._timed(kind, fn, twin_args or args, self.traced_seconds, self.tracer)

        # alternate, per call kind, which twin goes first, so neither
        # always finds warm caches
        traced_first = self._traced_first[kind]
        self._traced_first[kind] = not traced_first
        traced = traced_call() if traced_first else None
        result = self._timed(kind, fn, args, self.seconds, tracing.NULL_TRACER)
        if not traced_first:
            traced = traced_call()
        if result is not None and traced is not None and not checks.same_output(result, traced):
            self.problems.append(f"traced {kind} output differs from the untraced one")
        return result

    def fail(self, what: str, problems: list[str]) -> None:
        if problems:
            self.problems.append(f"{what}: " + "; ".join(problems))


# --- plan workloads -----------------------------------------------------------


@dataclasses.dataclass
class PlanState:
    maps: list
    params: model.ModelParams
    order: np.ndarray


@dataclasses.dataclass(frozen=True)
class PlanWorkload:
    """`plan` on each map of a held-out set, then the workload's oracle call:
    the 2-opt baseline (the `cppnet bench` sweep), or, on maps too large for
    2-opt, only the cost matrix that the length check sums."""

    name: str
    rows: int
    cols: int
    count: int
    n_max: int          # capacity only: plan trims each graph to n_free
    baseline: bool

    def setup(self, seed: int) -> PlanState:
        maps = scenario.dataset_build(
            self.count, self.rows, self.cols, 1.0, DENSITY, (0.0, 0.0, 1.0), seed=HELDOUT_SEED
        ).split("test")
        params = model.load_checkpoint(CHECKPOINT)
        params = dataclasses.replace(
            params, config=dataclasses.replace(params.config, n_max=self.n_max)
        )
        warm = min(maps, key=lambda g: g.n_free)
        self._plan(warm, params)
        self._oracle(warm)
        return PlanState(maps, params, np.random.default_rng(seed).permutation(len(maps)))

    @staticmethod
    def _plan(grid, params):
        return decode.plan(grid, params, CONNECTIVITY)

    def _oracle(self, grid):
        if self.baseline:
            return bench.solve_two_opt(grid, CONNECTIVITY)
        return oracle.cost_matrix(grid, CONNECTIVITY)

    def measure(self, state: PlanState, seconds: float, run: Run) -> None:
        """Whole passes over the maps until `seconds` have gone by, at least one."""
        deadline = time.perf_counter() + seconds
        while run.passes == 0 or time.perf_counter() < deadline:
            for i in state.order:
                grid = state.maps[i]
                run.outputs.append(("plan", int(i), run.call("plan", self._plan, grid, state.params)))
                run.outputs.append(("oracle", int(i), run.call("oracle", self._oracle, grid)))
            run.passes += 1

    def check(self, state: PlanState, run: Run, refs: checks.References) -> None:
        for kind, i, result in run.outputs:
            if result is None:
                continue
            grid = state.maps[i]
            if kind == "plan" or self.baseline:
                problems = checks.check_trajectory(result, grid, refs.costs(i, grid), CONNECTIVITY)
            else:
                problems = checks.check_cost_matrix(result, grid, CONNECTIVITY)
            run.fail(f"{kind} on map {i}", problems)

    def _first_pass(self, state: PlanState, run: Run) -> list:
        """(grid, learned trajectory, oracle result) once per map."""
        rows = run.outputs[: 2 * len(state.order)]
        return [
            (state.maps[i], traj, ref)
            for (_, i, traj), (_, _, ref) in zip(rows[::2], rows[1::2])
            if traj is not None and ref is not None
        ]

    def quality(self, state: PlanState, run: Run) -> float:
        """Median over maps of the learned length over the 2-opt length
        (criterion 5), or over the (n_free - 1) cell-size lower bound."""
        if self.baseline:
            ratios = [t.length / r.length for _, t, r in self._first_pass(state, run)]
        else:
            ratios = [
                t.length / ((g.n_free - 1) * g.cell_size) for g, t, _ in self._first_pass(state, run)
            ]
        return median(ratios)

    def end_to_end(self, state: PlanState, run: Run) -> tuple[dict, list[str]]:
        plan_s = run.seconds["plan"]
        oracle_s = run.seconds["oracle"]
        p50 = 1e3 * median(plan_s)
        tail_s, pct = tail(plan_s)
        oracle_p50 = 1e3 * median(oracle_s)
        quality = self.quality(state, run)
        metrics = {
            "p50_ms": p50,
            "tail_ms": 1e3 * tail_s,
            "maps_per_s": len(plan_s) / sum(plan_s) if plan_s else 0.0,
            "oracle.p50_ms": oracle_p50,
            "quality": quality,
        }
        lines = [
            f"plan.p50_ms          {p50:.3f} ms over {len(plan_s)} calls",
            f"plan.tail_ms         {1e3 * tail_s:.3f} ms (p{pct} of {len(plan_s)} calls)",
        ]
        if self.baseline:
            lines += [
                f"plan.length_ratio    {quality!r} ratio (median learned / 2-opt length)",
                f"baseline.p50_ms      {oracle_p50:.3f} ms over {len(oracle_s)} calls",
                f"speedup_vs_2opt      {oracle_p50 / p50 if p50 else 0.0:.3f} x (not gated)",
            ]
        else:
            lines += [
                f"plan.bound_ratio     {quality!r} ratio (median length / (n_free - 1) cells)",
                f"cost_matrix.p50_ms   {oracle_p50:.3f} ms over {len(oracle_s)} calls",
            ]
        return metrics, lines

    def learned_trajectories(self, state: PlanState, run: Run) -> list:
        return [(g, t) for g, t, _ in self._first_pass(state, run)]


# --- training workload --------------------------------------------------------


@dataclasses.dataclass
class TrainState:
    maps: list
    graphs: dict
    batches: list
    label_orders: list     # per batch: its maps in the order they are labelled


@dataclasses.dataclass(frozen=True)
class TrainWorkload:
    """The acceptance training recipe cut to its first `steps` steps:
    2-opt labels for those batches, then the steps from the initial weights."""

    name: str
    steps: int

    def setup(self, seed: int) -> TrainState:
        cfg, mcfg = recipe_train_config(), recipe_model_config()
        maps = scenario.dataset_build(*TRAIN_SET_ARGS, seed=TRAIN_SET_SEED).split("train")
        # epoch 1 batch order, drawn the way train() draws it
        order = np.random.default_rng([cfg.seed, 1]).permutation(len(maps))
        size = cfg.batch_size
        batches = [[int(i) for i in order[k * size:(k + 1) * size]] for k in range(self.steps)]
        chosen = sorted({i for b in batches for i in b})
        graphs = {i: graph.encode(maps[i], mcfg.n_max, CONNECTIVITY) for i in chosen}

        warm = batches[0][0]
        pairs = [self._label(maps[warm], oracle.LabelCache(None, connectivity=CONNECTIVITY))]
        params = model.init_params(mcfg, cfg.seed)
        batch, labels = self._batch([graphs[warm]], pairs, mcfg)
        heat, cache = model.forward(batch, params, training=True)
        model.loss_and_grads(heat, labels, batch.pair_mask, params, cache)
        rng = np.random.default_rng(seed)
        label_orders = [[int(i) for i in rng.permutation(b)] for b in batches]
        return TrainState(maps, graphs, batches, label_orders)

    @staticmethod
    def _batch(graphs, pair_lists, mcfg):
        batch = model.stack_graphs(graphs, dtype=mcfg.np_dtype)
        labels = np.stack([oracle.pairs_to_matrix(p, mcfg.n_max) for p in pair_lists])
        return batch, labels.astype(mcfg.np_dtype)

    @staticmethod
    def _label(grid, cache):
        return train.prepare_labels([grid], cache)[0]

    @staticmethod
    def _step(batch, labels, params, optimizer):
        heat, cache = model.forward(batch, params, training=True)
        loss, grads = model.loss_and_grads(heat, labels, batch.pair_mask, params, cache)
        optimizer.step(grads.trainable_arrays())
        return loss

    def _label_batch(self, state: TrainState, k: int, run: Run, caches) -> dict:
        pairs = {}
        for i in state.label_orders[k]:
            grid = state.maps[i]
            pairs[i] = run.call("label", self._label, grid, caches[0], twin_args=(grid, caches[1]))
            run.outputs.append(("label", i, pairs[i]))
        return pairs

    def measure(self, state: TrainState, seconds: float, run: Run) -> None:
        """Fixed work first, so the loss after the last step stays
        comparable: for each batch, one label per map, then its step. Label
        passes over the same maps, each with fresh caches, fill the rest of
        `seconds`. Label calls are thus spread over the whole run, as the
        steps are, so a few seconds of machine drift do not set their
        median. The traced twin of each call gets its own label caches,
        weights and optimizer."""
        deadline = time.perf_counter() + seconds
        cfg, mcfg = recipe_train_config(), recipe_model_config()

        def fresh_caches():
            return [oracle.LabelCache(None, connectivity=CONNECTIVITY) for _ in range(2)]

        caches = fresh_caches()
        models = []
        for _ in range(2):
            params = model.init_params(mcfg, cfg.seed)
            models.append((params, train.Adam(
                params.trainable_arrays(), cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps
            )))
        for k, idx in enumerate(state.batches):
            pairs = self._label_batch(state, k, run, caches)
            if any(pairs[i] is None for i in idx):
                run.attempted += 1
                run.problems.append(f"step {k}: labels missing")
                continue
            made = run.call("stack", self._batch, [state.graphs[i] for i in idx],
                            [pairs[i] for i in idx], mcfg)
            if made is None:
                continue
            loss = run.call("step", self._step, *made, *models[0], twin_args=(*made, *models[1]))
            run.outputs.append(("step", k, loss))
        while time.perf_counter() < deadline:
            caches = fresh_caches()
            for k in range(len(state.batches)):
                self._label_batch(state, k, run, caches)

    def check(self, state: TrainState, run: Run, refs: checks.References) -> None:
        for kind, key, result in run.outputs:
            if result is None:
                continue
            if kind == "label":
                run.fail(f"labels for map {key}", checks.check_label_pairs(result, state.maps[key]))
            else:
                run.fail(f"step {key}", checks.check_loss(result))

    def end_to_end(self, state: TrainState, run: Run) -> tuple[dict, list[str]]:
        step_s = run.seconds["step"]
        label_s = run.seconds["label"]
        tail_s, pct = tail(step_s)
        maps_per_s = len(step_s) * recipe_train_config().batch_size / sum(step_s) if step_s else 0.0
        losses = [r for kind, _, r in run.outputs if kind == "step"]
        loss = losses[-1] if losses and losses[-1] is not None else math.nan
        label_p50 = 1e3 * median(label_s)
        metrics = {
            "p50_ms": 1e3 * median(step_s),
            "tail_ms": 1e3 * tail_s,
            "maps_per_s": maps_per_s,
            "oracle.p50_ms": label_p50,
            "quality": loss,
        }
        label_rate = len(label_s) / sum(label_s) if label_s else 0.0
        lines = [
            f"train.maps_per_s     {maps_per_s:.4f} maps/s over {len(step_s)} steps",
            f"train.step_ms        p50 {metrics['p50_ms']:.1f} ms, p{pct} {1e3 * tail_s:.1f} ms",
            f"train.loss           {loss!r} after step {len(losses)}",
            f"label.maps_per_s     {label_rate:.4f} maps/s over {len(label_s)} maps",
            f"label.p50_ms         {label_p50:.3f} ms",
        ]
        return metrics, lines

    def learned_trajectories(self, state, run) -> list:
        return []


WORKLOADS = {
    w.name: w
    for w in (
        PlanWorkload("plan-10x10", 10, 10, 110, 100, baseline=True),
        PlanWorkload("plan-20x20", 20, 20, 12, 400, baseline=False),
        TrainWorkload("train-10x10", steps=3),
    )
}


# --- per-layer metrics from spans ---------------------------------------------


def decode_diagnostics(trajectories) -> tuple[float, float]:
    """Share of greedy steps that went beyond radius 1 (the next tour cell
    is not a grid neighbour), and the median stitch detour in metres."""
    grown = steps = 0
    detours = []
    for grid, traj in trajectories:
        cells = grid.free_cells()
        order = traj.tour.order
        for a, b in zip(order, order[1:]):
            (r1, c1), (r2, c2) = cells[a], cells[b]
            grown += abs(r1 - r2) + abs(c1 - c2) > 1
            steps += 1
        detours.append(traj.length - (len(cells) - 1) * grid.cell_size)
    return (grown / steps if steps else 0.0), median(detours)


def per_layer(setup_spans, spans, trajectories, run: Run) -> dict:
    def ms(values):
        return 1e3 * median(values)

    def per(outer, inner):
        return [total for total, _ in tracing.totals_within(spans, outer, inner)]

    def durations(name, source=spans):
        return [s.duration for s in source if s.name == name]

    forwards = [s for s in spans if s.name == "model.forward"]
    convs = defaultdict(list)
    for s in spans:
        if s.name == "model.conv_forward" and s.parent is not None \
                and spans[s.parent].name == "model.forward":
            convs[s.parent].append(s.duration)
    slots = sum(s.attrs["slots"] for s in forwards)
    real = sum(s.attrs["real_slots"] for s in forwards)
    grow_share, detour = decode_diagnostics(trajectories)

    m = {
        "scenario.build_s": median(durations("scenario.dataset_build", setup_spans)),
        "model.load_ckpt_ms": ms(durations("model.load_checkpoint", setup_spans)),
        "graph.encode_ms": ms(per("perfbench.plan", "graph.encode")),
        "model.forward_ms": ms(per("perfbench.plan", "model.forward")),
        "model.embed_ms": ms(per("model.forward", "model.embed_input")),
        "model.conv_ms": ms(per("model.forward", "model.conv_forward")),
        **{
            f"model.conv{k}_ms": ms([d[k] for d in convs.values() if len(d) > k])
            for k in range(CONV_LAYERS)
        },
        "model.mlp_ms": ms(per("model.forward", "model.mlp_head")),
        "model.forward_train_s": median(per("perfbench.step", "model.forward")),
        "model.backward_s": median(per("perfbench.step", "model.loss_and_grads")),
        "model.conv_backward_s": median(per("perfbench.step", "model.conv_backward")),
        "model.pad_share": 1.0 - real / slots if slots else 0.0,
        "model.edge_mb": max((s.attrs["edge_bytes"] for s in forwards), default=0) / 1e6,
        "train.stack_ms": ms(durations("perfbench.stack")),
        "train.adam_ms": ms(per("perfbench.step", "train.Adam.step")),
        "decode.greedy_ms": ms(per("perfbench.plan", "decode.greedy_decode")),
        "decode.stitch_ms": ms(per("perfbench.plan", "decode.stitch")),
        "decode.astar_calls": median(
            [count for _, count in tracing.totals_within(spans, "perfbench.plan", "decode.astar")]
        ),
        "decode.radius_grow_share": grow_share,
        "decode.detour_m": detour,
        "oracle.cost_matrix_ms": ms(durations("oracle.cost_matrix")),
        "oracle.two_opt_ms": ms(durations("oracle.two_opt")),
    }
    setup_rows = tracing.layer_summary(setup_spans)
    for layer, row in tracing.layer_summary(spans).items():
        for field in ("calls", "self_s", "failures"):
            m[f"{layer}.{field}"] = row[field] + setup_rows[layer][field]
    plain = sum(sum(v) for v in run.seconds.values())
    extra = sum(sum(v) for v in run.traced_seconds.values()) - plain
    calls = sum(len(v) for v in run.seconds.values())
    m["trace.overhead_ms"] = 1e3 * extra / calls if calls else 0.0
    m["trace.overhead_share"] = extra / plain if plain else 0.0
    return m
