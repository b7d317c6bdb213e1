import hashlib

import numpy as np
import pytest

from cppnet.bench import load_records
from cppnet.cli import main
from cppnet.model import ModelConfig, init_params, load_checkpoint, save_checkpoint
from cppnet.scenario import load_scenarios

from conftest import FIXTURE_CKPT


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


@pytest.mark.parametrize("ratios, reason", [
    ("a,b,c", "could not convert"),
    ("1.2,-0.1,-0.1", "split ratio 1.2 outside"),
    ("0.5,0.3,0.1", "sum to 1"),
    ("0.5,0.5", "expected 3, got 2"),
], ids=["not-a-number", "out-of-range", "sum-not-1", "two-fractions"])
def test_generate_bad_ratios_usage_error(tmp_path, capsys, ratios, reason):
    out = tmp_path / "data"
    code = run(
        "generate", "--count", "3", "--rows", "4", "--cols", "4",
        "--cell-size", "1", "--density-min", "0", "--density-max", "0.2",
        "--seed", "7", "--ratios", ratios, "--out", str(out),
    )
    assert code == 1
    assert reason in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cell_size", ["0", "-1", "nan", "inf"])
def test_generate_bad_cell_size_writes_nothing(tmp_path, capsys, cell_size):
    # `cppnet label` refuses such a map, so `generate` must not write it
    out = tmp_path / "data"
    code = run(
        "generate", "--count", "3", "--rows", "4", "--cols", "4",
        f"--cell-size={cell_size}", "--density-min", "0", "--density-max", "0.2",
        "--seed", "7", "--out", str(out),
    )
    assert code == 2
    assert "cell_size must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_verb_usage_error(capsys):
    assert run("conquer") == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_missing_required_flag_usage_error(capsys):
    assert run("generate", "--count", "3") == 1


def test_version_flag(capsys):
    assert run("--version") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("cppnet ")
    assert out.splitlines()[1] == (
        "formats: cpp-scenario v1, cpp-scenario-set v1, cpp-labels v2, cpp-traj v1, "
        "cpp-checkpoint v1, cpp-bench-records v2"
    )


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
    digest = hashlib.sha256((ckpt / "final.ckpt").read_bytes()).hexdigest()
    assert body[0] == f"cpp-bench-records v2 model_sha256 {digest}"
    assert body[1] == "scenario_hash,density,method,length_m,wall_time_s"
    assert len(body) == 2 + 2 * len(sset.split("test"))

    # a rerun into a fresh file reproduces everything but wall times
    records2 = tmp_path / "records2.csv"
    assert run(
        "bench", "--scenarios", str(data), "--model", str(ckpt / "final.ckpt"),
        "--out", str(records2),
    ) == 0

    def stable_fields(path):
        rows = path.read_text().splitlines()[2:]
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


@pytest.mark.parametrize("old, new", [
    (b" <f8 ", b" zz! "),
    (b'"dtype"', b'"dtypo"'),
    (b'"dtype": "float64"', b'"dtype": "float32"'),   # float64 tensors under a float32 config
])
def test_solve_malformed_checkpoint_is_runtime_failure(tmp_path, capsys, old, new):
    scenario = tmp_path / "s.txt"
    scenario.write_text("cpp-scenario v1 2 2 1.0 0 0\n..\n..\n")
    ckpt = tmp_path / "m.ckpt"
    config = ModelConfig(hidden=4, conv_layers=1, n_max=16, dtype="float64")
    save_checkpoint(init_params(config, seed=0), ckpt)
    data = ckpt.read_bytes()
    assert old in data
    ckpt.write_bytes(data.replace(old, new, 1))
    code = run("solve", "--scenario", str(scenario), "--model", str(ckpt),
               "--out", str(tmp_path / "t.traj"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not (tmp_path / "t.traj").exists()


@pytest.mark.parametrize("name, index, value", [
    ("conv0.w_edge", (0, 0), np.nan),
    ("conv1.bn_edge.run_var", (0,), -1.0),
])
def test_solve_checkpoint_with_bad_value_is_runtime_failure(tmp_path, capsys, name, index,
                                                            value):
    # a NaN weight or a negative running variance would plan on NaN heat
    scenario = tmp_path / "s.txt"
    scenario.write_text("cpp-scenario v1 2 2 1.0 0 0\n..\n..\n")
    params = init_params(ModelConfig(hidden=4, conv_layers=2, n_max=16), seed=0)
    dict(params.named_trainable() + params.named_running())[name][index] = value
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(params, ckpt)
    code = run("solve", "--scenario", str(scenario), "--model", str(ckpt),
               "--out", str(tmp_path / "t.traj"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and name in err
    assert "Traceback" not in err
    assert not (tmp_path / "t.traj").exists()


def test_solve_checkpoint_wider_than_its_file_is_runtime_failure(tmp_path, capsys):
    # a header-only file whose config line asks for 600-wide layers
    scenario = tmp_path / "s.txt"
    scenario.write_text("cpp-scenario v1 2 2 1.0 0 0\n..\n..\n")
    ckpt = tmp_path / "m.ckpt"
    ckpt.write_text('cpp-checkpoint v1\n{"conv_layers": 3, "dtype": "float64", "hidden": 600, '
                    '"mlp_layers": 2, "n_max": 100}\n')
    code = run("solve", "--scenario", str(scenario), "--model", str(ckpt),
               "--out", str(tmp_path / "t.traj"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: checkpoint config needs")
    assert not (tmp_path / "t.traj").exists()


@pytest.fixture
def overflowing_ckpt(tmp_path):
    """A copy of the fixture checkpoint whose conv1 edge batch norm
    overflows: every value is finite, so load_checkpoint accepts it."""
    params = load_checkpoint(FIXTURE_CKPT)
    params.layers[1].bn_edge.gamma[:] = 1e307
    params.layers[1].bn_edge.beta[:] = 1.7e308
    path = tmp_path / "overflow.ckpt"
    save_checkpoint(params, path)
    return path


def test_solve_overflowing_checkpoint_is_runtime_failure(tmp_path, capsys, overflowing_ckpt):
    # a forward on it would give NaN heat, and the planner would fall back
    # on its tie-break rules
    scenario = tmp_path / "s.txt"
    scenario.write_text("cpp-scenario v1 3 3 1.0 0 0\n...\n.#.\n...\n")
    code = run("solve", "--scenario", str(scenario), "--model", str(overflowing_ckpt),
               "--out", str(tmp_path / "t.traj"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: forward: overflow")
    assert "Traceback" not in err
    assert not (tmp_path / "t.traj").exists()


def test_bench_overflowing_checkpoint_saves_only_baseline_rows(tmp_path, capsys,
                                                               overflowing_ckpt):
    data = tmp_path / "data"
    assert run(
        "generate", "--count", "3", "--rows", "4", "--cols", "4", "--cell-size", "1",
        "--density-min", "0", "--density-max", "0.3", "--seed", "1",
        "--ratios", "0,0,1", "--out", str(data),
    ) == 0
    records = tmp_path / "records.csv"
    capsys.readouterr()
    code = run("bench", "--scenarios", str(data), "--model", str(overflowing_ckpt),
               "--out", str(records))
    err = capsys.readouterr().err
    assert code == 2
    keys = sorted(grid.content_hash() for grid in load_scenarios(data).split("test"))
    failures = sorted(line.split()[2] for line in err.splitlines()
                      if line.startswith("error: scenario") and "forward: overflow" in line)
    assert failures == keys
    assert "Traceback" not in err
    assert [r.method for r in load_records(records)] == ["two_opt"] * 3


@pytest.mark.parametrize("bad_pair", ["0 500", "-1 3"])
def test_train_bad_label_cache_is_runtime_failure(tmp_path, capsys, bad_pair):
    data, labels = tmp_path / "data", tmp_path / "labels"
    config = tmp_path / "train.cfg"
    config.write_text(TINY_CONFIG)
    assert run(
        "generate", "--count", "4", "--rows", "3", "--cols", "3",
        "--cell-size", "1", "--density-min", "0", "--density-max", "0.2",
        "--seed", "5", "--ratios", "0.5,0.5,0", "--out", str(data),
    ) == 0
    assert run("label", "--scenarios", str(data), "--out", str(labels)) == 0
    victim = sorted(labels.glob("*.labels"))[0]
    lines = victim.read_text().splitlines()
    victim.write_text("\n".join(lines[:-1] + [bad_pair]) + "\n")
    capsys.readouterr()
    code = run("train", "--scenarios", str(data), "--config", str(config),
               "--labels", str(labels), "--out", str(tmp_path / "ckpt"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and bad_pair in err
    assert "Traceback" not in err


def test_bench_resumes_only_its_own_checkpoints_records(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(
        "generate", "--count", "6", "--rows", "4", "--cols", "4", "--cell-size", "1",
        "--density-min", "0", "--density-max", "0.3", "--seed", "8",
        "--ratios", "0.4,0.2,0.4", "--out", str(data),
    ) == 0
    models = []
    for seed in (0, 1):
        models.append(tmp_path / f"model{seed}.ckpt")
        config = ModelConfig(hidden=6, conv_layers=1, n_max=16)
        save_checkpoint(init_params(config, seed=seed), models[-1])

    def bench(model, out):
        return run("bench", "--scenarios", str(data), "--model", str(model), "--out", str(out))

    records = tmp_path / "records.csv"
    assert bench(models[0], records) == 0
    first = records.read_text()
    assert bench(models[0], records) == 0      # resumed: nothing left to run
    assert records.read_text() == first
    capsys.readouterr()
    # another checkpoint would inherit the first one's lengths and times
    assert bench(models[1], records) == 2
    assert "refusing to resume" in capsys.readouterr().err
    assert records.read_text() == first
    # without its header line the file names no checkpoint: it is neither
    # resumed nor plotted, and it is left as it was
    v1 = tmp_path / "v1.csv"
    headerless = "\n".join(first.splitlines()[1:]) + "\n"
    v1.write_text(headerless)
    assert bench(models[0], v1) == 2
    assert "bad records header" in capsys.readouterr().err
    assert run("plot", "--records", str(v1), "--out", str(tmp_path / "v1.svg")) == 2
    assert "bad records header" in capsys.readouterr().err
    assert not (tmp_path / "v1.svg").exists()
    assert v1.read_text() == headerless


def test_bench_reports_failed_scenarios(tmp_path, capsys):
    # 5x5 maps of at most 20% obstacles have 20 or more free cells, more
    # than the checkpoint's n_max of 16: every learned plan fails
    data = tmp_path / "data"
    assert run(
        "generate", "--count", "3", "--rows", "5", "--cols", "5", "--cell-size", "1",
        "--density-min", "0", "--density-max", "0.2", "--seed", "4",
        "--ratios", "0,0,1", "--out", str(data),
    ) == 0
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(init_params(ModelConfig(hidden=4, conv_layers=1, n_max=16), seed=0), ckpt)
    records = tmp_path / "records.csv"
    capsys.readouterr()
    code = run("bench", "--scenarios", str(data), "--model", str(ckpt), "--out", str(records))
    captured = capsys.readouterr()
    assert code == 2
    failures = [line for line in captured.err.splitlines() if line.startswith("error: scenario")]
    assert len(failures) == 3 and all("capacity 16" in line for line in failures)
    assert "Traceback" not in captured.err
    # the baseline rows that succeeded are saved
    assert [r.method for r in load_records(records)] == ["two_opt"] * 3


@pytest.mark.parametrize("row", ["a1,0.1,two_opt,nan,0.003", "a1,0.1,two_opt,12.5,-1.0",
                                 "a1,0.1,greedy,12.5,0.003"])
def test_plot_rejects_bad_records(tmp_path, capsys, row):
    records = tmp_path / "records.csv"
    records.write_text(f"cpp-bench-records v2 model_sha256 {'a' * 64}\n"
                       f"scenario_hash,density,method,length_m,wall_time_s\n{row}\n")
    assert run("plot", "--records", str(records), "--out", str(tmp_path / "box.svg")) == 2
    assert "records row" in capsys.readouterr().err
    assert not (tmp_path / "box.svg").exists()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Inputs for every verb: a dataset, a config, an untrained checkpoint,
    a scenario file, its trajectory and a records file."""
    root = tmp_path_factory.mktemp("workspace")
    data = root / "data"
    assert run(
        "generate", "--count", "4", "--rows", "3", "--cols", "3", "--cell-size", "1",
        "--density-min", "0", "--density-max", "0.2", "--seed", "5",
        "--ratios", "0.5,0.25,0.25", "--out", str(data),
    ) == 0
    (root / "train.cfg").write_text(TINY_CONFIG)
    (root / "bad.cfg").write_text("batch_size = 0\n")
    model = root / "m.ckpt"
    save_checkpoint(init_params(ModelConfig(hidden=4, conv_layers=1, n_max=16), seed=0), model)
    scenario = sorted(data.glob("scenario_*.txt"))[0]
    assert run("solve", "--scenario", str(scenario), "--model", str(model),
               "--out", str(root / "one.traj")) == 0
    assert run("bench", "--scenarios", str(data), "--model", str(model),
               "--out", str(root / "records.csv")) == 0
    return root


# per verb: arguments that succeed, then the same verb with a usage error
# (1) and with a runtime failure (2); {w} is the workspace, {out} the output
EXIT_CODE_ARGS = {
    "generate": (
        "--count 3 --rows 3 --cols 3 --cell-size 1 --density-min 0 --density-max 0.2 "
        "--seed 1 --out {out}",
        "--count 3 --rows 3 --cols 3 --out {out}",
        "--count 3 --rows 3 --cols 3 --cell-size 1 --density-min 0.8 --density-max 0.9 "
        "--seed 1 --out {out}",
    ),
    "label": (
        "--scenarios {w}/data --out {out}",
        "--scenarios {w}/data",
        "--scenarios {w}/missing --out {out}",
    ),
    "train": (
        "--scenarios {w}/data --config {w}/train.cfg --out {out}",
        "--scenarios {w}/data --config {w}/train.cfg",
        "--scenarios {w}/data --config {w}/bad.cfg --out {out}",
    ),
    "solve": (
        "--scenario {w}/data/scenario_00000.txt --model {w}/m.ckpt --out {out}",
        "--scenario {w}/data/scenario_00000.txt --out {out}",
        "--scenario {w}/data/scenario_00000.txt --model {w}/data/manifest.txt --out {out}",
    ),
    "bench": (
        "--scenarios {w}/data --model {w}/m.ckpt --out {out}",
        "--scenarios {w}/data --model {w}/m.ckpt",
        "--scenarios {w}/data --model {w}/missing.ckpt --out {out}",
    ),
    "plot": (
        "--records {w}/records.csv --out {out}",
        "--records {w}/records.csv --trajectory {w}/one.traj --out {out}",
        "--trajectory {w}/one.traj --scenario {w}/data/manifest.txt --out {out}",
    ),
}


@pytest.mark.parametrize("verb", sorted(EXIT_CODE_ARGS))
def test_exit_codes_per_verb(verb, workspace, tmp_path, capsys):
    for code, args in enumerate(EXIT_CODE_ARGS[verb]):
        out = tmp_path / f"out{code}"
        argv = args.format(w=workspace, out=out).split()
        capsys.readouterr()
        assert run(verb, *argv) == code, (code, argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert err.startswith("error:")
            assert not out.exists()
