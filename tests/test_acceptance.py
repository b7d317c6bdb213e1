"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale training
fixture (criteria 4-6) takes about a minute; everything else is fast.
Criterion 6 documents a known negative result: with the pinned baseline
design (precomputed cost matrix + nearest-neighbor init +
first-improvement 2-opt) the baseline converges in about 5 ms on 10x10
maps, so the tenfold speed advantage over it is not attainable;
the measured distribution is printed either way.
"""

import time

import numpy as np
import pytest

from cppnet.bench import METHOD_LEARNED, METHOD_TWO_OPT, run_benchmark, save_records, load_records
from cppnet.decode import greedy_decode, load_trajectory, plan, save_trajectory, stitch
from cppnet.graph import encode
from cppnet.model import (
    ModelConfig,
    forward,
    init_params,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
    stack_graphs,
    weighted_bce,
)
from cppnet.oracle import (
    LabelCache,
    brute_force,
    cost_matrix,
    label_pairs,
    labels_from_text,
    labels_to_text,
    pairs_to_matrix,
    two_opt,
)
from cppnet.scenario import dataset_build, generate_scenario, load_scenarios, save_scenarios
from cppnet.train import TrainConfig, evaluate, train

from conftest import finite_difference_check, randomize_params

GRAD_TOL = 1e-4
ORACLE_EQUALITY_FLOOR = 0.80
ORACLE_GAP_CEILING = 0.10
QUALITY_MEDIAN_CEILING = 1.35
SPEED_RATIO_FLOOR = 10.0


def criterion(number, name, ok, detail):
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def small_scenarios(count, rng, min_free=2, max_free=9):
    shapes = [(2, 2), (2, 3), (3, 3), (2, 4)]
    out = []
    while len(out) < count:
        rows, cols = shapes[rng.integers(len(shapes))]
        density = float(rng.uniform(0.0, 0.5))
        grid = generate_scenario(rows, cols, 1.0, density, seed=int(rng.integers(2**31)))
        if min_free <= grid.n_free <= max_free:
            out.append(grid)
    return out


# --- desk-scale training shared by criteria 4-6 --------------------------------

@pytest.fixture(scope="module")
def desk_run():
    model_config = ModelConfig()  # paper setup: h=50, 3 conv layers, 2 MLP layers
    train_config = TrainConfig(seed=0)  # lr 0.001, batch 20, 6 epochs
    sset = dataset_build(250, 10, 10, 1.0, (0.0, 0.5), (0.8, 0.2, 0.0), seed=101)
    untrained = evaluate(
        init_params(model_config, train_config.seed), sset.split("validation")
    )
    t0 = time.perf_counter()
    params, report = train(sset, train_config, model_config)
    seconds = time.perf_counter() - t0
    return {
        "params": params,
        "report": report,
        "untrained": untrained,
        "seconds": seconds,
        "val": sset.split("validation"),
    }


@pytest.fixture(scope="module")
def heldout_records(desk_run):
    test_set = dataset_build(110, 10, 10, 1.0, (0.0, 0.5), (0.0, 0.0, 1.0), seed=777)
    return run_benchmark(test_set, desk_run["params"])


def test_criterion_1_gradient_correctness(rng):
    t0 = time.perf_counter()
    worst_overall = 0.0
    worst_at = None
    pairs = 0
    while pairs < 20:
        # need both label classes present, hence at least 3 free cells
        grid = small_scenarios(1, rng, min_free=3)[0]
        pad = int(rng.integers(0, 3))
        n_max = grid.n_free + pad
        config = ModelConfig(
            hidden=int(rng.choice([4, 6])),
            conv_layers=int(rng.integers(1, 3)),
            mlp_layers=2,
            n_max=n_max,
            dtype="float64",
        )
        params = randomize_params(
            init_params(config, seed=int(rng.integers(2**31))), rng
        )
        graph = encode(grid, n_max)
        batch = stack_graphs([graph])
        start = grid.free_cells().index(grid.start)
        labels = pairs_to_matrix(label_pairs(two_opt(cost_matrix(grid), start)), n_max)[None]
        heat, cache = forward(batch, params, training=True)
        _, grads = loss_and_grads(heat, labels, batch.pair_mask, params, cache)

        def loss_fn():
            h, _ = forward(batch, params, training=True)
            return weighted_bce(h, labels, batch.pair_mask)[0]

        worst, where = finite_difference_check(params, loss_fn, grads, tol=GRAD_TOL)
        if worst > worst_overall:
            worst_overall = worst
            worst_at = where
        pairs += 1
    elapsed = time.perf_counter() - t0
    criterion(
        1,
        "gradient correctness",
        worst_overall < GRAD_TOL and elapsed < 120,
        f"{pairs} (params, scenario) pairs, worst relative error "
        f"{worst_overall:.2e} at {worst_at}, {elapsed:.0f}s",
    )


def test_criterion_2_oracle_equivalence(rng):
    t0 = time.perf_counter()
    # hand-computed anchor: 2x3 obstacle-free optimum is 5.0 m
    anchor = generate_scenario(2, 3, 1.0, 0.0, seed=0)
    anchor_len = brute_force(cost_matrix(anchor), 0).length
    assert anchor_len == pytest.approx(5.0, abs=1e-9)

    equal = 0
    worst_gap = 0.0
    maps = small_scenarios(100, rng)
    for grid in maps:
        costs = cost_matrix(grid)
        start = grid.free_cells().index(grid.start)
        exact = brute_force(costs, start)
        heur = two_opt(costs, start)
        assert heur.length >= exact.length - 1e-9
        gap = heur.length / exact.length - 1.0
        worst_gap = max(worst_gap, gap)
        equal += abs(heur.length - exact.length) < 1e-9
    elapsed = time.perf_counter() - t0
    rate = equal / len(maps)
    criterion(
        2,
        "oracle equivalence",
        rate >= ORACLE_EQUALITY_FLOOR and worst_gap <= ORACLE_GAP_CEILING and elapsed < 60,
        f"equality {equal}/{len(maps)} ({rate:.0%}), worst gap {worst_gap:.1%}, "
        f"2x3 anchor {anchor_len:.1f} m, {elapsed:.0f}s",
    )


def test_criterion_3_coverage_completeness(rng):
    violations = 0
    checked = 0
    while checked < 1000:
        rows = int(rng.integers(3, 9))
        cols = int(rng.integers(3, 9))
        density = float(rng.uniform(0.0, 0.5))
        grid = generate_scenario(rows, cols, 1.0, density, seed=int(rng.integers(2**31)))
        graph = encode(grid, grid.n_free)
        n = grid.n_free
        start = grid.start_slot
        labels = pairs_to_matrix(label_pairs(two_opt(cost_matrix(grid), start)), n)
        heats = [
            np.full((n, n), 0.5),
            np.zeros((n, n)),
            np.ones((n, n)),
            rng.uniform(size=(n, n)),
            1.0 - labels,  # adversarial: push away from the true tour
        ]
        for heat in heats:
            if checked >= 1000:
                break
            tour = greedy_decode(heat, graph, start)
            traj = stitch(tour, grid)
            ok = sorted(tour.order) == list(range(n)) and tour.order[0] == start
            for a, b in zip(traj.path, traj.path[1:]):
                if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1 or not grid.is_free(b):
                    ok = False
                    break
            if not grid.is_free(traj.path[0]):
                ok = False
            violations += not ok
            checked += 1
    criterion(
        3,
        "coverage completeness",
        violations == 0,
        f"{checked} (map, heat) pairs including uniform/adversarial heats, "
        f"{violations} violations",
    )


def test_criterion_4_learning_signal(desk_run):
    trained_val = desk_run["report"].epochs[-1]
    untrained_loss = desk_run["untrained"]["loss"]
    ok = (
        trained_val.val_loss < untrained_loss
        and trained_val.val_f1 > 0.5
        and desk_run["seconds"] < 3600
    )
    criterion(
        4,
        "learning signal at desk scale",
        ok,
        f"val loss {trained_val.val_loss:.4f} < untrained {untrained_loss:.4f}, "
        f"val F1 {trained_val.val_f1:.3f} > 0.5, "
        f"trained 200 scenarios in {desk_run['seconds'] / 60:.1f} min",
    )


def _paired_by_scenario(records):
    lengths = {}
    times = {}
    for r in records:
        lengths.setdefault(r.scenario_hash, {})[r.method] = r.length_m
        times.setdefault(r.scenario_hash, {})[r.method] = r.wall_time_s
    ratios = [
        row[METHOD_LEARNED] / row[METHOD_TWO_OPT]
        for row in lengths.values()
        if len(row) == 2
    ]
    learned_t = [row[METHOD_LEARNED] for row in times.values() if len(row) == 2]
    baseline_t = [row[METHOD_TWO_OPT] for row in times.values() if len(row) == 2]
    return ratios, learned_t, baseline_t


def test_criterion_5_solution_quality(heldout_records):
    ratios, _, _ = _paired_by_scenario(heldout_records)
    q = np.percentile(ratios, [0, 25, 50, 75, 100])
    detail = (
        f"{len(ratios)} held-out scenarios, length(learned)/length(2-opt): "
        f"min {q[0]:.3f}, q1 {q[1]:.3f}, median {q[2]:.3f}, q3 {q[3]:.3f}, max {q[4]:.3f}"
    )
    criterion(5, "solution quality", q[2] <= QUALITY_MEDIAN_CEILING, detail)


def test_criterion_6_speed_ratio(heldout_records):
    _, learned_t, baseline_t = _paired_by_scenario(heldout_records)
    med_learned = float(np.median(learned_t))
    med_baseline = float(np.median(baseline_t))
    ratio = med_baseline / med_learned
    detail = (
        f"median learned {med_learned * 1e3:.1f} ms vs median 2-opt "
        f"{med_baseline * 1e3:.1f} ms, ratio {ratio:.2f}x (needs >= {SPEED_RATIO_FLOOR}x); "
        "known negative result: the pinned cost-matrix 2-opt baseline converges in "
        "milliseconds at this scale, see README \"Known negative result\""
    )
    criterion(6, "speed ratio", ratio >= SPEED_RATIO_FLOOR, detail)


def test_criterion_7_determinism_and_roundtrips(tmp_path, rng):
    # scenario files
    sset = dataset_build(8, 6, 6, 1.0, (0.0, 0.4), (0.5, 0.25, 0.25), seed=55)
    save_scenarios(sset, tmp_path / "set")
    save_scenarios(load_scenarios(tmp_path / "set"), tmp_path / "set2")
    scenario_ok = all(
        (tmp_path / "set" / p.name).read_bytes() == (tmp_path / "set2" / p.name).read_bytes()
        for p in (tmp_path / "set").iterdir()
    )

    # label cache files
    cache = LabelCache(tmp_path / "labels")
    grid = sset.scenarios[0]
    pairs = cache.pairs_for(grid)
    label_file = tmp_path / "labels" / f"{grid.content_hash()}.labels"
    reread_hash, reread_pairs = labels_from_text(label_file.read_text())
    labels_ok = (
        reread_pairs == pairs
        and labels_to_text(reread_hash, reread_pairs) == label_file.read_text()
    )

    # checkpoints
    params = init_params(ModelConfig(hidden=8, conv_layers=2, n_max=36), seed=9)
    save_checkpoint(params, tmp_path / "a.ckpt")
    save_checkpoint(load_checkpoint(tmp_path / "a.ckpt"), tmp_path / "b.ckpt")
    ckpt_ok = (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    # trajectory files
    traj = plan(grid, params)
    save_trajectory(traj, grid.content_hash(), tmp_path / "a.traj")
    loaded, loaded_hash = load_trajectory(tmp_path / "a.traj")
    save_trajectory(loaded, loaded_hash, tmp_path / "b.traj")
    traj_ok = (tmp_path / "a.traj").read_bytes() == (tmp_path / "b.traj").read_bytes()

    # serial pipeline rerun: identical records modulo wall-clock columns
    def pipeline(out_dir):
        data = dataset_build(10, 5, 5, 1.0, (0.0, 0.4), (0.5, 0.2, 0.3), seed=21)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=2, seed=13)
        model_cfg = ModelConfig(hidden=6, conv_layers=1, mlp_layers=2, n_max=25)
        trained, _ = train(data, cfg, model_cfg)
        records = run_benchmark(data, trained)
        save_records(records, out_dir / "records.csv", "0" * 64)
        return [
            (r.scenario_hash, r.density, r.method, r.length_m)
            for r in load_records(out_dir / "records.csv")
        ]

    (tmp_path / "runA").mkdir()
    (tmp_path / "runB").mkdir()
    rerun_ok = pipeline(tmp_path / "runA") == pipeline(tmp_path / "runB")

    ok = scenario_ok and labels_ok and ckpt_ok and traj_ok and rerun_ok
    criterion(
        7,
        "determinism and round-trips",
        ok,
        f"scenario files {scenario_ok}, label cache {labels_ok}, checkpoint {ckpt_ok}, "
        f"trajectory {traj_ok}, pipeline rerun (wall-time columns excluded) {rerun_ok}",
    )
