"""Tests of the benchmark's own code: output schema, checks and span arithmetic.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import checks
import launch
import run
import tracing
import workloads
from cppnet import bench, decode
from cppnet.decode import Trajectory
from cppnet.model import load_checkpoint
from cppnet.oracle import Tour, cost_matrix, label_pairs, two_opt
from cppnet.scenario import generate_scenario

BENCHMARK_JSON = launch.ROOT / "BENCHMARK.json"
TINY = workloads.PlanWorkload("tiny-5x5", 5, 5, 6, 25, baseline=True)


def benchmark_spec():
    return json.loads(BENCHMARK_JSON.read_text())


def checkpoint_digest():
    command = benchmark_spec()["command"]
    return command[command.index("--ckpt-sha256") + 1]


# --- BENCHMARK.json and the printed result ------------------------------------


def test_benchmark_json_matches_the_code():
    spec = benchmark_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert checkpoint_digest() == workloads.file_sha256(workloads.CHECKPOINT)


def run_main(capsys, monkeypatch, tmp_path, trace, digest=None):
    monkeypatch.setitem(workloads.WORKLOADS, TINY.name, TINY)
    monkeypatch.setattr(workloads, "HERE", tmp_path)
    code = run.main([
        "--workload", TINY.name, "--seed", "3", "--seconds", "0", "--trace", str(trace),
        "--ckpt-sha256", digest or checkpoint_digest(),
    ])
    return code, capsys.readouterr()


@pytest.mark.parametrize("trace, units", [(0, workloads.END_TO_END), (1, workloads.PER_LAYER)])
def test_result_line_names_every_metric(capsys, monkeypatch, tmp_path, trace, units):
    code, out = run_main(capsys, monkeypatch, tmp_path, trace)
    assert code == 0, out.err
    result = json.loads(out.out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["model.pad_share"]["value"] == 0.0
        assert result["metrics"]["decode.astar_calls"]["value"] > 0
        assert (tmp_path / "out" / f"trace-{TINY.name}-seed3.json").is_file()
    else:
        assert "plan.tail_ms" in out.out and "of 6 calls" in out.out


def test_wrong_checkpoint_is_refused(capsys, monkeypatch, tmp_path):
    code, out = run_main(capsys, monkeypatch, tmp_path, 0, digest="0" * 64)
    assert code == 2
    assert "refusing checkpoint" in out.err
    assert out.out == ""


def test_missing_source_is_refused(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(launch, "SRC", tmp_path / "src")
    code, out = run_main(capsys, monkeypatch, tmp_path, 0)
    assert code == 2
    assert "no cppnet package" in out.err


def test_pinning_applies_when_src_is_already_on_the_path():
    """PYTHONPATH=src and editable installs put src/ on the path first."""
    probe = (
        "import json, os, sys, launch; launch.pin_environment(); "
        "print(json.dumps([sys.path[0], launch.environment_record()]))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(launch.SRC), str(launch.ROOT / "perfbench")]),
           **{key: "7" for key in launch.PINNED_ENV}}
    out = subprocess.run([sys.executable, "-c", probe], cwd=launch.ROOT, env=env,
                         capture_output=True, text=True, check=True)
    first, record = json.loads(out.stdout.strip().splitlines()[-1])
    assert first == str(launch.SRC)
    assert {key: record[key] for key in launch.PINNED_ENV} == launch.PINNED_ENV


def test_tail_keeps_ten_samples_beyond():
    for n, pct in ((110, 90), (24, 58), (11, 9)):
        values = list(range(n))
        value, got = workloads.tail(values)
        assert got == pct
        assert sum(v > value for v in values) >= 10
    assert workloads.tail([3.0, 1.0, 2.0]) == (3.0, 100)


# --- correctness checks -------------------------------------------------------


@pytest.fixture
def open_grid_solution():
    """An obstacle-free 3x4 map, whose 2-opt path steps to a neighbour every time."""
    grid = generate_scenario(3, 4, 1.0, 0.0, seed=0)
    traj = bench.solve_two_opt(grid)
    assert traj.length == grid.n_free - 1
    return grid, traj, cost_matrix(grid)


def test_correct_trajectory_passes(open_grid_solution):
    grid, traj, costs = open_grid_solution
    assert checks.check_trajectory(traj, grid, costs) == []


def test_dropped_cell_is_rejected(open_grid_solution):
    grid, traj, costs = open_grid_solution
    short = Trajectory(Tour(traj.tour.order[:-1]), traj.path[:-1], traj.length - 1.0)
    problems = checks.check_trajectory(short, grid, costs)
    assert any("permutation" in p for p in problems)
    assert any("never visited" in p for p in problems)


def test_non_adjacent_step_is_rejected(open_grid_solution):
    grid, traj, costs = open_grid_solution
    jumpy = Trajectory(traj.tour, traj.path[:3] + traj.path[4:], traj.length)
    problems = checks.check_trajectory(jumpy, grid, costs)
    assert any("not a move to a free neighbour" in p for p in problems)


def test_wrong_length_is_rejected(open_grid_solution):
    grid, traj, costs = open_grid_solution
    longer = dataclasses.replace(traj, length=traj.length + 0.5)
    problems = checks.check_trajectory(longer, grid, costs)
    assert any("cost-matrix sum" in p for p in problems)
    assert any("walked path" in p for p in problems)


def test_label_and_loss_checks():
    grid = generate_scenario(3, 3, 1.0, 0.2, seed=4)
    start = grid.free_cells().index(grid.start)
    pairs = label_pairs(two_opt(cost_matrix(grid), start))
    assert checks.check_label_pairs(pairs, grid) == []
    assert checks.check_label_pairs(pairs[:-1], grid)
    assert checks.check_label_pairs(pairs[:-1] + [pairs[0]], grid)
    assert checks.check_loss(0.5) == []
    assert checks.check_loss(float("nan"))


def test_wrong_cost_matrix_is_rejected():
    grid = generate_scenario(6, 6, 1.0, 0.3, seed=5)
    costs = cost_matrix(grid)
    assert checks.check_cost_matrix(costs, grid) == []
    n = costs.n
    bumped = costs.cost.copy()
    bumped[n - 1, 0] += 1.0
    bumped[0, n - 1] += 1.0
    for wrong in (bumped, 2 * costs.cost, np.zeros_like(costs.cost), costs.cost[:-1, :-1]):
        problems = checks.check_cost_matrix(dataclasses.replace(costs, cost=wrong), grid)
        assert problems, wrong


# --- spans --------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        tracing.Span("model.forward", 0.0, 10.0, None),
        tracing.Span("model.conv_forward", 1.0, 3.0, 0),
        tracing.Span("model.conv_forward", 2.0, 5.0, 0),   # overlaps its sibling
        tracing.Span("model.mlp_head", 8.0, 12.0, 0),      # runs past its parent
        tracing.Span("graph.encode", 1.5, 2.5, 1, ok=False),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])
    summary = tracing.layer_summary(spans)
    assert summary["model"] == {"calls": 4, "self_s": pytest.approx(12.0), "failures": 0}
    assert summary["graph"] == {"calls": 1, "self_s": pytest.approx(1.0), "failures": 1}
    assert tracing.totals_within(spans, "model.forward", "graph.encode") == [(1.0, 1)]


def test_traced_calls_nest_and_originals_come_back():
    grid = generate_scenario(4, 4, 1.0, 0.2, seed=7)
    params = load_checkpoint(workloads.CHECKPOINT)
    original = decode.plan
    plain = decode.plan(grid, params)
    tracer = tracing.Tracer(workloads.COUNTERS)
    with tracer.installed():
        assert decode.plan is not original
        traced = decode.plan(grid, params)
    assert decode.plan is original
    assert checks.same_output(plain, traced)
    spans = tracer.take()
    names = {s.name for s in spans}
    assert {"decode.plan", "graph.encode", "model.forward", "model.conv_forward",
            "decode.greedy_decode", "decode.stitch", "decode.astar"} <= names
    root = spans[0]
    assert root.name == "decode.plan" and root.parent is None
    encode = next(s for s in spans if s.name == "graph.encode")
    assert spans[encode.parent] is root
    forward = next(s for s in spans if s.name == "model.forward")
    assert forward.attrs["slots"] == grid.n_free ** 2 == forward.attrs["real_slots"]
    assert sum(s.name == "model.conv_forward" for s in spans) == params.config.conv_layers
    assert np.isclose(sum(tracing.self_times(spans)), root.duration)


def test_twin_order_alternates_within_each_call_kind():
    tracer = tracing.Tracer(workloads.COUNTERS)
    run = workloads.Run(tracer)
    traced_first = {"plan": [], "oracle": []}

    def record(kind):
        # the traced twin runs inside its perfbench span
        calls = traced_first[kind]
        calls.append(bool(tracer._open))
        return 0

    for _ in range(4):
        run.call("plan", record, "plan")
        run.call("oracle", record, "oracle")
    tracer.take()
    for kind, calls in traced_first.items():
        pairs = {tuple(calls[k:k + 2]) for k in range(0, len(calls), 2)}
        assert pairs == {(True, False), (False, True)}, kind
    assert run.problems == []
