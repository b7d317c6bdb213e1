"""Every reader of an input file, fed arbitrary bytes, returns a valid
object or raises ParseError: never another exception."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cppnet.bench import BenchRecord, load_records, records_from_csv, records_to_csv, resume_records
from cppnet.cli import _scenario_for_file
from cppnet.decode import Trajectory, load_trajectory, trajectory_from_text, trajectory_to_text
from cppnet.errors import ParseError
from cppnet.model import ModelConfig, ModelParams, init_params, load_checkpoint, save_checkpoint
from cppnet.oracle import LabelCache, Tour, labels_from_text, labels_to_text
from cppnet.scenario import (
    ScenarioSet,
    dataset_build,
    generate_scenario,
    load_scenarios,
    save_scenarios,
)
from cppnet.train import TrainConfig, load_config, parse_config_text

HASH = "0123456789abcdef"


def text(raw: bytes) -> str:
    return raw.decode("utf-8", errors="replace")


def load_checkpoint_bytes(raw: bytes, path):
    path.write_bytes(raw)
    return load_checkpoint(path)


def load_manifest_bytes(raw: bytes, path):
    """The set in directory path, which holds the sample set's scenario
    files, read under raw as its manifest."""
    (path / "manifest.txt").write_bytes(raw)
    return load_scenarios(path)


def is_pair_list(pairs):
    return isinstance(pairs, list) and all(
        isinstance(i, int) and isinstance(j, int) for i, j in pairs)


# name: (sample file, or the name of one the scratch fixture writes; reader
# of (bytes, its scratch path); check of its result)
READERS = {
    "labels": (
        labels_to_text(HASH, [(0, 1), (1, 2), (2, 3)]).encode(),
        lambda raw, _: labels_from_text(text(raw)),
        lambda out: isinstance(out[0], str) and is_pair_list(out[1]),
    ),
    "trajectory": (
        trajectory_to_text(
            Trajectory(Tour((0, 1, 2), 2.0), ((0, 0), (0, 1), (0, 2)), 2.0, 1.5), HASH
        ).encode(),
        lambda raw, _: trajectory_from_text(text(raw)),
        lambda out: isinstance(out[0], Trajectory) and isinstance(out[1], str),
    ),
    "records": (
        records_to_csv([BenchRecord(HASH, 0.25, "two_opt", 12.5, 0.003),
                        BenchRecord(HASH, 0.25, "learned", 13.0, 0.001)], "0" * 64).encode(),
        lambda raw, _: records_from_csv(text(raw)),
        lambda out: isinstance(out, list) and all(isinstance(r, BenchRecord) for r in out),
    ),
    "config": (
        b"learning_rate = 0.01\nbatch_size = 4\nhidden = 8\ndtype = float32\n",
        lambda raw, _: parse_config_text(text(raw)),
        lambda out: isinstance(out[0], TrainConfig) and isinstance(out[1], ModelConfig),
    ),
    "checkpoint": (
        "sample.ckpt",
        load_checkpoint_bytes,
        lambda out: isinstance(out, ModelParams),
    ),
    "manifest": (
        "sample.manifest",
        load_manifest_bytes,
        lambda out: isinstance(out, ScenarioSet),
    ),
}


def spliced(sample: bytes):
    """Arbitrary bytes, or the sample with a run of its bytes replaced by
    arbitrary ones (which also truncates or extends it)."""
    n = len(sample)
    return st.one_of(
        st.binary(max_size=2 * n),
        st.builds(lambda a, b, junk: sample[: min(a, b)] + junk + sample[max(a, b):],
                  st.integers(0, n), st.integers(0, n), st.binary(max_size=16)),
    )


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    config = ModelConfig(hidden=2, conv_layers=1, mlp_layers=1, n_max=4)
    save_checkpoint(init_params(config, seed=0), root / "sample.ckpt")
    save_scenarios(dataset_build(3, 3, 3, 1.0, (0.0, 0.3), (0.4, 0.3, 0.3), seed=0),
                   root / "manifest")
    (root / "sample.manifest").write_bytes((root / "manifest" / "manifest.txt").read_bytes())
    return root


def sample_bytes(sample, scratch) -> bytes:
    return sample if isinstance(sample, bytes) else (scratch / sample).read_bytes()


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_sample_is_valid(name, scratch):
    sample, read, valid = READERS[name]
    assert valid(read(sample_bytes(sample, scratch), scratch / name))


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_reader_gives_valid_object_or_parse_error(name, scratch, data):
    sample, read, valid = READERS[name]
    raw = data.draw(spliced(sample_bytes(sample, scratch)))
    try:
        out = read(raw, scratch / name)
    except ParseError:
        return
    assert valid(out)


def load_set_with(path, manifest: bool):
    """A one-map set whose manifest, or whose one scenario file, is path."""
    if manifest:
        path.rename(path.with_name("manifest.txt"))
    else:
        (path.parent / "manifest.txt").write_text(f"cpp-scenario-set v1 0\n{path.name} train\n")
    return load_scenarios(path.parent)


def load_label_file(path):
    grid = generate_scenario(3, 3, 1.0, 0.0, seed=0)
    path.rename(path.with_name(f"{grid.content_hash()}.labels"))
    return LabelCache(path.parent).pairs_for(grid)


@pytest.mark.parametrize("read", [
    _scenario_for_file, load_trajectory, load_records, load_config, load_label_file,
    lambda path: load_set_with(path, manifest=True),
    lambda path: load_set_with(path, manifest=False),
    lambda path: resume_records(path, "0" * 64),
], ids=["scenario", "trajectory", "records", "config", "labels", "manifest", "set-member",
        "resume"])
def test_text_file_that_is_not_utf8_is_parse_error(read, tmp_path):
    path = tmp_path / "input.txt"
    path.write_bytes(b"cpp-\xff v1\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        read(path)
