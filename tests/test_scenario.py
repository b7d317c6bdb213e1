import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cppnet import scenario
from cppnet.errors import FormatVersionMismatch, InvalidDensity, ParseError
from cppnet.scenario import (
    GridMap,
    ScenarioSet,
    dataset_build,
    generate_scenario,
    load_scenarios,
    save_scenarios,
    scenario_from_text,
    split_sizes,
)

from conftest import flood_fill_free


def test_zero_density_all_free():
    grid = generate_scenario(10, 10, 1.0, 0.0, seed=31)
    assert grid.n_free == 100
    assert not grid.occupancy.any()


def test_exact_obstacle_count_and_connectivity():
    grid = generate_scenario(10, 10, 1.0, 0.10, seed=7)
    assert int(grid.occupancy.sum()) == 10
    assert grid.is_free((0, 0))
    assert flood_fill_free(grid) == set(grid.free_cells())


def test_2x2_half_density_exhaustive():
    # of the three 2-obstacle placements on a 2x2 grid with free (0,0),
    # only the two leaving an orthogonally adjacent free pair are valid
    grid = generate_scenario(2, 2, 1.0, 0.5, seed=1)
    assert int(grid.occupancy.sum()) == 2
    free = set(grid.free_cells())
    assert (0, 0) in free
    assert free in ({(0, 0), (0, 1)}, {(0, 0), (1, 0)})


def test_generation_is_pure_function():
    a = generate_scenario(8, 8, 0.5, 0.25, seed=99)
    b = generate_scenario(8, 8, 0.5, 0.25, seed=99)
    assert a == b
    assert a != generate_scenario(8, 8, 0.5, 0.25, seed=100)


def test_invalid_density_rejected():
    with pytest.raises(InvalidDensity):
        generate_scenario(10, 10, 1.0, 0.6, seed=0)
    with pytest.raises(InvalidDensity):
        generate_scenario(10, 10, 1.0, -0.1, seed=0)


def test_high_density_still_connected():
    for seed in range(3):
        grid = generate_scenario(10, 10, 1.0, 0.5, seed=seed)
        assert int(grid.occupancy.sum()) == 50
        assert flood_fill_free(grid) == set(grid.free_cells())


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    density=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(3, 9),
    cols=st.integers(3, 9),
)
def test_flood_fill_reaches_every_free_cell(density, seed, rows, cols):
    grid = generate_scenario(rows, cols, 1.0, density, seed=seed)
    assert int(grid.occupancy.sum()) == round(density * rows * cols)
    assert flood_fill_free(grid) == set(grid.free_cells())


def test_split_sizes_paper_ratios():
    assert split_sizes(1384, (1024 / 1384, 200 / 1384, 160 / 1384)) == (1024, 200, 160)
    assert split_sizes(3, (1 / 3, 1 / 3, 1 / 3)) == (1, 1, 1)
    # remainder rounds toward train
    assert split_sizes(10, (0.5, 0.25, 0.25)) == (6, 2, 2)


@pytest.mark.parametrize("ratios, named", [
    ((1.2, -0.1, -0.1), "1.2"),
    ((0.5, 0.5 + 1e-12, -1e-12), "-1e-12"),
    ((float("nan"), 0.5, 0.5), "nan"),
])
def test_split_sizes_rejects_ratio_outside_unit_interval(ratios, named):
    with pytest.raises(ValueError, match=f"split ratio {named} outside"):
        split_sizes(5, ratios)


def test_dataset_checks_ratios_before_generating(monkeypatch):
    def generate(*args):
        raise AssertionError("a map was generated")

    monkeypatch.setattr(scenario, "generate_scenario", generate)
    with pytest.raises(ValueError, match="split ratio 1.2"):
        dataset_build(5, 4, 4, 1.0, (0.0, 0.2), (1.2, -0.1, -0.1), seed=0)
    with pytest.raises(ValueError, match="sum to 1"):
        dataset_build(5, 4, 4, 1.0, (0.0, 0.2), (0.5, 0.2, 0.2), seed=0)


def test_dataset_paper_scale_split_sizes():
    sset = dataset_build(
        1384, 10, 10, 1.0, (0.0, 0.5), (1024 / 1384, 200 / 1384, 160 / 1384), seed=5
    )
    counts = {tag: sset.splits.count(tag) for tag in ("train", "validation", "test")}
    assert counts == {"train": 1024, "validation": 200, "test": 160}
    assert all(g.is_free((0, 0)) for g in sset.scenarios)


def test_dataset_zero_density_degenerate():
    sset = dataset_build(3, 10, 10, 1.0, (0.0, 0.0), (1 / 3, 1 / 3, 1 / 3), seed=2)
    assert len(sset) == 3
    assert sorted(sset.splits) == ["test", "train", "validation"]
    assert all(g.n_free == 100 for g in sset.scenarios)


def test_dataset_determinism(tmp_path):
    a = dataset_build(12, 6, 6, 1.0, (0.0, 0.4), (0.5, 0.25, 0.25), seed=77)
    b = dataset_build(12, 6, 6, 1.0, (0.0, 0.4), (0.5, 0.25, 0.25), seed=77)
    assert a == b
    save_scenarios(a, tmp_path / "a")
    save_scenarios(b, tmp_path / "b")
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_roundtrip_identity(tmp_path):
    sset = dataset_build(6, 5, 7, 0.5, (0.1, 0.3), (0.5, 0.3, 0.2), seed=4)
    save_scenarios(sset, tmp_path / "set")
    assert load_scenarios(tmp_path / "set") == sset


def test_roundtrip_bytes_stable(tmp_path):
    sset = dataset_build(4, 4, 4, 1.0, (0.0, 0.3), (0.5, 0.25, 0.25), seed=11)
    save_scenarios(sset, tmp_path / "one")
    save_scenarios(load_scenarios(tmp_path / "one"), tmp_path / "two")
    for name in sorted(p.name for p in (tmp_path / "one").iterdir()):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_truncated_scenario_rejected(tmp_path):
    grid = generate_scenario(6, 6, 1.0, 0.2, seed=0)
    text = grid.to_text()
    with pytest.raises(ParseError):
        scenario_from_text("\n".join(text.splitlines()[:-2]))


def test_rows_beyond_the_declared_count_rejected():
    # a third row on a 2-row map is refused, not dropped; trailing blank lines pass
    with pytest.raises(ParseError, match="after the 2 grid rows"):
        scenario_from_text("cpp-scenario v1 2 3 1.0 0 0\n...\n...\n.#.\n")
    assert scenario_from_text("cpp-scenario v1 2 3 1.0 0 0\n...\n...\n\n").rows == 2


def test_bad_header_rejected():
    with pytest.raises(FormatVersionMismatch):
        scenario_from_text("cpp-scenario v9 2 2 1.0 0 0\n..\n..\n")
    with pytest.raises(FormatVersionMismatch):
        scenario_from_text("something else\n")


def test_manifest_bad_seed_is_parse_error(tmp_path):
    save_scenarios(ScenarioSet([], [], seed=3), tmp_path / "set")
    manifest = tmp_path / "set" / "manifest.txt"
    manifest.write_text(manifest.read_text().replace(" 3\n", " abc\n", 1))
    with pytest.raises(ParseError, match="manifest line 1: bad seed 'abc'"):
        load_scenarios(tmp_path / "set")


def test_manifest_repeated_file_is_parse_error(tmp_path):
    sset = dataset_build(3, 4, 4, 1.0, (0.0, 0.2), (0.5, 0.5, 0.0), seed=3)
    save_scenarios(sset, tmp_path / "set")
    manifest = tmp_path / "set" / "manifest.txt"
    manifest.write_text(manifest.read_text() + "scenario_00000.txt test\n")
    with pytest.raises(ParseError, match="manifest line 5: 'scenario_00000.txt' is already "
                                         "named on line 2"):
        load_scenarios(tmp_path / "set")


def test_truncated_set_never_partial(tmp_path):
    sset = dataset_build(4, 4, 4, 1.0, (0.0, 0.2), (0.5, 0.25, 0.25), seed=3)
    save_scenarios(sset, tmp_path / "set")
    victim = tmp_path / "set" / "scenario_00002.txt"
    victim.write_text(victim.read_text()[:20])
    with pytest.raises(ParseError):
        load_scenarios(tmp_path / "set")


def test_empty_set_roundtrip(tmp_path):
    empty = ScenarioSet([], [], seed=9)
    save_scenarios(empty, tmp_path / "empty")
    loaded = load_scenarios(tmp_path / "empty")
    assert loaded == empty
    assert len(loaded) == 0


def test_nonfinite_cell_size_rejected():
    for size in ("nan", "inf", "-inf", "0", "-1"):
        with pytest.raises(ParseError):
            scenario_from_text(f"cpp-scenario v1 2 2 {size} 0 0\n..\n..\n")


def _mutated_body(text, at, ch):
    head, _, body = text.partition("\n")
    at %= len(body)
    return head + "\n" + body[:at] + ch + body[at + 1:]


HEADER_FIELD = st.one_of(
    st.integers(-2, 5).map(str),
    st.sampled_from(["1.0", "0.5", "nan", "inf", "1e400", "1_0", "x", "\u0663"]),
    st.text(max_size=3),
)

SCENARIO_TEXT = st.one_of(
    st.text(),
    # well-formed headers with arbitrary fields and bodies
    st.builds(
        lambda fields, body: "\n".join(["cpp-scenario v1 " + " ".join(fields)] + body) + "\n",
        st.lists(HEADER_FIELD, min_size=5, max_size=5),
        st.lists(st.text(alphabet=".#x ", max_size=5), max_size=6),
    ),
    # valid files with one character replaced: blocked starts, split maps
    st.builds(
        lambda seed, at, ch: _mutated_body(
            generate_scenario(4, 4, 1.0, 0.25, seed=seed).to_text(), at, ch
        ),
        st.integers(0, 20),
        st.integers(0, 24),
        st.sampled_from([".", "#", "x", "\n"]),
    ),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=SCENARIO_TEXT)
def test_scenario_from_text_gives_valid_grid_or_parse_error(text):
    try:
        grid = scenario_from_text(text)
    except ParseError:
        return
    grid.validate()
    assert scenario_from_text(grid.to_text()) == grid


def test_gridmap_rejects_blocked_start():
    occ = np.zeros((3, 3), dtype=bool)
    occ[0, 0] = True
    grid = GridMap(3, 3, 1.0, occ, (0, 0))
    with pytest.raises(ValueError):
        grid.validate()


def test_content_hash_tracks_content():
    a = generate_scenario(5, 5, 1.0, 0.2, seed=1)
    b = generate_scenario(5, 5, 1.0, 0.2, seed=2)
    assert a.content_hash() != b.content_hash()
    assert a.content_hash() == generate_scenario(5, 5, 1.0, 0.2, seed=1).content_hash()
