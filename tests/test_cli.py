import numpy as np
import pytest

from cppnet.cli import main
from cppnet.model import ModelConfig, init_params, save_checkpoint
from cppnet.scenario import load_scenarios


def run(*argv):
    return main(list(argv))


TINY_CONFIG = """
learning_rate = 0.001
batch_size = 4
max_epochs = 2
seed = 3
hidden = 6
conv_layers = 1
mlp_layers = 2
n_max = 16
"""


def test_generate_writes_files_and_manifest(tmp_path, capsys):
    out = tmp_path / "data"
    code = run(
        "generate", "--count", "3", "--rows", "10", "--cols", "10",
        "--cell-size", "1", "--density-min", "0", "--density-max", "0.5",
        "--seed", "7", "--out", str(out),
    )
    assert code == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == [
        "manifest.txt",
        "scenario_00000.txt",
        "scenario_00001.txt",
        "scenario_00002.txt",
    ]


def test_unknown_verb_usage_error(capsys):
    assert run("conquer") == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_missing_required_flag_usage_error(capsys):
    assert run("generate", "--count", "3") == 1


def test_version_flag(capsys):
    assert run("--version") == 0
    out = capsys.readouterr().out
    assert "cppnet" in out
    assert "cpp-scenario v1" in out


def test_runtime_failure_exit_code(tmp_path, capsys):
    assert run("label", "--scenarios", str(tmp_path / "nope"), "--out", str(tmp_path / "l")) == 2


def test_solve_degenerate_single_cell(tmp_path, capsys):
    scenario = tmp_path / "tiny.txt"
    scenario.write_text("cpp-scenario v1 2 2 1.0 0 0\n.#\n##\n")
    # train a throwaway model on a real dataset first
    data = tmp_path / "data"
    assert run(
        "generate", "--count", "8", "--rows", "4", "--cols", "4",
        "--cell-size", "1", "--density-min", "0", "--density-max", "0.3",
        "--seed", "5", "--ratios", "0.5,0.25,0.25", "--out", str(data),
    ) == 0
    config = tmp_path / "train.cfg"
    config.write_text(TINY_CONFIG)
    ckpt = tmp_path / "ckpt"
    assert run(
        "train", "--scenarios", str(data), "--config", str(config), "--out", str(ckpt)
    ) == 0
    out_traj = tmp_path / "tiny.traj"
    assert run(
        "solve", "--scenario", str(scenario), "--model", str(ckpt / "final.ckpt"),
        "--out", str(out_traj),
    ) == 0
    text = out_traj.read_text()
    assert "length_m 0.0" in text


def test_full_pipeline_reproducible(tmp_path, capsys):
    data = tmp_path / "data"
    labels = tmp_path / "labels"
    ckpt = tmp_path / "ckpt"
    config = tmp_path / "train.cfg"
    config.write_text(TINY_CONFIG)

    assert run(
        "generate", "--count", "10", "--rows", "4", "--cols", "4",
        "--cell-size", "1", "--density-min", "0", "--density-max", "0.3",
        "--seed", "11", "--ratios", "0.5,0.2,0.3", "--out", str(data),
    ) == 0
    assert run("label", "--scenarios", str(data), "--out", str(labels)) == 0
    assert run(
        "train", "--scenarios", str(data), "--config", str(config),
        "--labels", str(labels), "--out", str(ckpt),
    ) == 0
    assert (ckpt / "best.ckpt").is_file()
    assert (ckpt / "report.csv").is_file()

    sset = load_scenarios(data)
    scenario_file = sorted(data.glob("scenario_*.txt"))[0]
    traj_file = tmp_path / "one.traj"
    svg_file = tmp_path / "one.svg"
    assert run(
        "solve", "--scenario", str(scenario_file), "--model", str(ckpt / "final.ckpt"),
        "--out", str(traj_file), "--svg", str(svg_file),
    ) == 0
    assert svg_file.read_text().startswith("<?xml")

    records = tmp_path / "records.csv"
    assert run(
        "bench", "--scenarios", str(data), "--model", str(ckpt / "final.ckpt"),
        "--out", str(records),
    ) == 0
    body = records.read_text().splitlines()
    assert body[0] == "scenario_hash,density,method,length_m,wall_time_s"
    assert len(body) == 1 + 2 * len(sset.split("test"))

    # a rerun into a fresh file reproduces everything but wall times
    records2 = tmp_path / "records2.csv"
    assert run(
        "bench", "--scenarios", str(data), "--model", str(ckpt / "final.ckpt"),
        "--out", str(records2),
    ) == 0

    def stable_fields(path):
        rows = path.read_text().splitlines()[1:]
        return [row.split(",")[:4] for row in rows]

    assert stable_fields(records) == stable_fields(records2)

    plot = tmp_path / "box.svg"
    assert run("plot", "--records", str(records), "--out", str(plot)) == 0
    assert plot.read_text().startswith("<?xml")

    traj_plot = tmp_path / "traj.svg"
    assert run(
        "plot", "--trajectory", str(traj_file), "--scenario", str(scenario_file),
        "--out", str(traj_plot),
    ) == 0
    assert traj_plot.read_text() == svg_file.read_text()


def test_plot_rejects_mismatched_scenario(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(
        "generate", "--count", "4", "--rows", "4", "--cols", "4",
        "--cell-size", "1", "--density-min", "0.1", "--density-max", "0.3",
        "--seed", "2", "--ratios", "0.5,0.25,0.25", "--out", str(data),
    ) == 0
    config = tmp_path / "cfg"
    config.write_text(TINY_CONFIG)
    ckpt = tmp_path / "ckpt"
    assert run("train", "--scenarios", str(data), "--config", str(config),
               "--out", str(ckpt)) == 0
    files = sorted(data.glob("scenario_*.txt"))
    traj = tmp_path / "a.traj"
    assert run("solve", "--scenario", str(files[0]), "--model",
               str(ckpt / "final.ckpt"), "--out", str(traj)) == 0
    assert run("plot", "--trajectory", str(traj), "--scenario", str(files[1]),
               "--out", str(tmp_path / "x.svg")) == 2


def test_plot_requires_exactly_one_source(tmp_path, capsys):
    assert run("plot", "--out", str(tmp_path / "x.svg")) == 1



@pytest.mark.parametrize("grid_rows, reason", [
    ("#..\n...\n...\n", "obstacle"),       # start cell blocked
    (".#.\n##.\n...\n", "connected"),      # start cut off from the rest
])
def test_solve_invalid_scenario_is_runtime_failure(tmp_path, capsys, grid_rows, reason):
    scenario = tmp_path / "bad.txt"
    scenario.write_text("cpp-scenario v1 3 3 1.0 0 0\n" + grid_rows)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(init_params(ModelConfig(hidden=4, conv_layers=1, n_max=16), seed=0), ckpt)
    code = run("solve", "--scenario", str(scenario), "--model", str(ckpt),
               "--out", str(tmp_path / "t.traj"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and reason in err
    assert "Traceback" not in err
    assert not (tmp_path / "t.traj").exists()
