import numpy as np
import pytest

from cppnet.bench import (
    BenchRecord,
    load_records,
    records_from_csv,
    records_to_csv,
    resume_records,
    run_benchmark,
    save_records,
    solve_two_opt,
    summarize,
)
from cppnet.decode import Trajectory, stitch
from cppnet.errors import EmptyRecords, ParseError
from cppnet.model import ModelConfig, init_params
from cppnet.oracle import Tour
from cppnet.scenario import GridMap, dataset_build, generate_scenario
from cppnet.svg import render_boxplot, render_trajectory


def record(value, method="two_opt", h="abc", t=0.1):
    return BenchRecord(h, 0.1, method, value, t)


def test_summarize_single_record():
    stats = summarize([record(7.0)])["two_opt"]["length_m"]
    assert stats == {"min": 7.0, "q1": 7.0, "median": 7.0, "q3": 7.0, "max": 7.0}


def test_summarize_textbook_quartiles():
    records = [record(v) for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
    stats = summarize(records)["two_opt"]["length_m"]
    assert stats == {"min": 1.0, "q1": 2.0, "median": 3.0, "q3": 4.0, "max": 5.0}


def test_summarize_permutation_invariant(rng):
    values = list(rng.uniform(1, 100, size=9))
    records = [record(v) for v in values]
    shuffled = list(records)
    rng.shuffle(shuffled)
    assert summarize(records) == summarize(shuffled)


def test_summarize_empty():
    with pytest.raises(EmptyRecords):
        summarize([])


MODEL_A = "a" * 64
MODEL_B = "b" * 64
ROWS = ["scenario_hash,density,method,length_m,wall_time_s",
        "a1,0.1,two_opt,12.5,0.003", "a1,0.1,learned,13.0,0.04"]


def test_records_csv_roundtrip(tmp_path):
    records = [
        BenchRecord("a1", 0.1, "two_opt", 12.5, 0.003),
        BenchRecord("a1", 0.1, "learned", 13.0, 0.04),
    ]
    save_records(records, tmp_path / "r.csv", MODEL_A)
    loaded = load_records(tmp_path / "r.csv")
    assert loaded == records
    assert records_to_csv(loaded, MODEL_A) == (tmp_path / "r.csv").read_text()
    assert (tmp_path / "r.csv").read_text().splitlines() == [
        f"cpp-bench-records v2 model_sha256 {MODEL_A}"] + ROWS
    assert resume_records(tmp_path / "r.csv", MODEL_A) == records


def test_records_csv_rejects_garbage():
    with pytest.raises(ParseError):
        records_from_csv("not,a,header\n")


def test_records_v1_is_read_but_never_resumed(tmp_path):
    # a file without the v2 header line names no model: neither reader takes it
    (tmp_path / "v1.csv").write_text("\n".join(ROWS) + "\n")
    with pytest.raises(ParseError, match="bad records header"):
        load_records(tmp_path / "v1.csv")
    with pytest.raises(ParseError, match="bad records header"):
        resume_records(tmp_path / "v1.csv", MODEL_A)


def test_records_of_another_model_are_not_resumed(tmp_path):
    save_records([record(1.0)], tmp_path / "r.csv", MODEL_B)
    with pytest.raises(ParseError, match=MODEL_B):
        resume_records(tmp_path / "r.csv", MODEL_A)


@pytest.mark.parametrize("header", [
    "cpp-bench-records v2",                                   # no model
    "cpp-bench-records v2 model_sha256 xyz",                  # not a sha256
    f"cpp-bench-records v2 model {'a' * 64}",                 # wrong key
    f"cpp-bench-records v2 model_sha256 {'a' * 64} extra",
])
def test_records_bad_v2_header(header):
    with pytest.raises(ParseError):
        records_from_csv("\n".join([header] + ROWS) + "\n")


@pytest.mark.parametrize("row", [
    "a1,0.1,two_opt,nan,0.003",
    "a1,0.1,two_opt,inf,0.003",
    "a1,0.1,two_opt,12.5,-0.003",
    "a1,-0.1,two_opt,12.5,0.003",
    "a1,1.5,two_opt,12.5,0.003",
    "a1,0.1,two_opt,12.5,nan",
    "a1,0.1,two_opt,twelve,0.003",
    "a1,0.1,greedy,12.5,0.003",                               # unknown method
    ",0.1,two_opt,12.5,0.003",                                # no scenario
    "a1,0.1,two_opt,12.5",
    "a1,0.1,learned,13.0,0.04",                               # duplicate pair
])
def test_records_reject_bad_rows(row):
    text = "\n".join([f"cpp-bench-records v2 model_sha256 {MODEL_A}"] + ROWS + [row]) + "\n"
    with pytest.raises(ParseError):
        records_from_csv(text)


def test_run_benchmark_produces_both_methods():
    sset = dataset_build(6, 4, 4, 1.0, (0.0, 0.3), (0.4, 0.2, 0.4), seed=8)
    params = init_params(ModelConfig(hidden=6, conv_layers=1, n_max=16), seed=0)
    records = run_benchmark(sset, params)
    test_maps = sset.split("test")
    assert len(records) == 2 * len(test_maps)
    by_method = {r.method for r in records}
    assert by_method == {"two_opt", "learned"}
    for r in records:
        assert r.length_m > 0
        assert r.wall_time_s >= 0


def test_run_benchmark_resumes_without_duplicates():
    sset = dataset_build(6, 4, 4, 1.0, (0.0, 0.3), (0.4, 0.2, 0.4), seed=8)
    params = init_params(ModelConfig(hidden=6, conv_layers=1, n_max=16), seed=0)
    first = run_benchmark(sset, params)
    resumed = run_benchmark(sset, params, prior_records=first)
    assert len(resumed) == len(first)
    assert {(r.scenario_hash, r.method) for r in resumed} == {
        (r.scenario_hash, r.method) for r in first
    }
    # lengths identical on resume (wall times belong to the original run)
    assert [r.length_m for r in resumed] == [r.length_m for r in first]


def test_lengths_respect_counting_bound():
    grid = generate_scenario(5, 5, 1.0, 0.0, seed=0)
    baseline = solve_two_opt(grid)
    assert baseline.length >= grid.n_free - 1


def test_render_trajectory_structure():
    occ = np.zeros((2, 2), dtype=bool)
    grid = GridMap(2, 2, 1.0, occ, (0, 0))
    traj = stitch(Tour((0, 1, 3, 2)), grid)
    svg = render_trajectory(traj, grid)
    assert svg.count("<polyline") == 1
    points = svg.split('points="')[1].split('"')[0]
    assert len(points.split()) == 4
    assert svg.count('class="start"') == 1
    assert svg.count('class="obstacle"') == 0


def test_render_marks_obstacles():
    occ = np.zeros((2, 2), dtype=bool)
    occ[0, 1] = True
    grid = GridMap(2, 2, 1.0, occ, (0, 0))
    traj = stitch(Tour((0, 1, 2)), grid)
    svg = render_trajectory(traj, grid)
    assert svg.count('class="obstacle"') == 1


def test_render_deterministic_bytes():
    grid = generate_scenario(4, 4, 1.0, 0.25, seed=3)
    traj = solve_two_opt(grid)
    assert render_trajectory(traj, grid) == render_trajectory(traj, grid)
    records = [record(v) for v in (1.0, 2.0, 3.0)] + [
        record(v, method="learned") for v in (1.5, 2.5, 3.5)
    ]
    assert render_boxplot(records) == render_boxplot(records)


def test_boxplot_contains_each_method():
    records = [record(v) for v in (1.0, 2.0)] + [record(v, "learned") for v in (3.0, 4.0)]
    svg = render_boxplot(records)
    assert ">two_opt<" in svg
    assert ">learned<" in svg
    assert svg.count('class="box"') == 4  # 2 methods x 2 metrics
