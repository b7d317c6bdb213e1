import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cppnet import scenario
from cppnet.errors import FormatVersionMismatch, InvalidDensity, ParseError
from cppnet.scenario import (
    REJECTION_TRIES,
    START_CELL,
    GridMap,
    ScenarioSet,
    dataset_build,
    free_cells_connected,
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


@pytest.mark.parametrize("cell_size", [0.0, -1.0, math.nan, math.inf])
def test_bad_cell_size_rejected_before_drawing(cell_size):
    with pytest.raises(ValueError, match="cell_size must be positive and finite"):
        generate_scenario(4, 4, cell_size, 0.2, seed=0)
    with pytest.raises(ValueError, match="cell_size must be positive and finite"):
        dataset_build(3, 4, 4, cell_size, (0.0, 0.2), (1 / 3, 1 / 3, 1 / 3), seed=0)


def _reference_articulation_cells(free: set, start, connectivity: int) -> set:
    """Articulation points of the free-cell graph over (r, c) tuples: the
    search the generator ran before it moved to integer cell ids."""
    steps = scenario.neighbor_steps(connectivity)
    disc, low = {}, {}
    parent = {start: None}
    articulation = set()
    timer = 0
    root_children = 0
    stack = [(start, iter(steps))]
    disc[start] = low[start] = timer
    timer += 1
    while stack:
        cell, it = stack[-1]
        advanced = False
        for dr, dc in it:
            nxt = (cell[0] + dr, cell[1] + dc)
            if nxt not in free:
                continue
            if nxt not in disc:
                parent[nxt] = cell
                if cell == start:
                    root_children += 1
                disc[nxt] = low[nxt] = timer
                timer += 1
                stack.append((nxt, iter(steps)))
                advanced = True
                break
            if nxt != parent[cell]:
                low[cell] = min(low[cell], disc[nxt])
        if not advanced:
            stack.pop()
            p = parent[cell]
            if p is not None:
                low[p] = min(low[p], low[cell])
                if p != start and low[cell] >= disc[p]:
                    articulation.add(p)
    if root_children > 1:
        articulation.add(start)
    return articulation


def reference_connected_placement(rows, cols, n_obstacles, connectivity, rng) -> np.ndarray:
    """The tuple-based connectivity-preserving draw the generator replaced."""
    free = {(r, c) for r in range(rows) for c in range(cols)}
    occ = np.zeros((rows, cols), dtype=bool)
    for _ in range(n_obstacles):
        blocked = _reference_articulation_cells(free, START_CELL, connectivity)
        candidates = sorted(free - blocked - {START_CELL})
        cell = candidates[int(rng.integers(len(candidates)))]
        free.remove(cell)
        occ[cell] = True
    return occ


@pytest.mark.parametrize("connectivity", [4, 8])
def test_placement_matches_tuple_reference(connectivity):
    draws = 0
    for rows, cols in [(2, 2), (2, 9), (9, 2), (7, 7), (12, 12)]:
        for density in (0.1, 0.2, 0.3, 0.4, 0.5):
            n_obstacles = round(density * rows * cols)
            for seed in range(5):
                # the generator's own seeding of its connectivity-preserving draw
                ours, theirs = (np.random.default_rng([seed, REJECTION_TRIES]) for _ in range(2))
                occ = scenario._connected_placement(rows, cols, n_obstacles, connectivity, ours)
                assert np.array_equal(
                    occ,
                    reference_connected_placement(rows, cols, n_obstacles, connectivity, theirs),
                ), (rows, cols, density, seed)
                assert int(occ.sum()) == n_obstacles
                draws += 1
    assert draws > 100


@pytest.mark.parametrize("connectivity", [4, 8])
def test_safe_cells_match_brute_force(connectivity):
    """A cell is safe exactly when the free cells stay connected without it."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        rows, cols = (int(x) for x in rng.integers(2, 7, size=2))
        grid = generate_scenario(rows, cols, 1.0, float(rng.uniform(0, 0.5)), seed, connectivity)
        # neighbour lists by row-major cell id; an obstacle cell has none
        ids = np.flatnonzero(~grid.occupancy)
        neighbours = [[] for _ in range(rows * cols)]
        for i, j in zip(*scenario.free_cell_edges(grid, connectivity)[:2]):
            neighbours[ids[i]].append(int(ids[j]))
        safe = scenario._safe_cells(neighbours, START_CELL[0] * cols + START_CELL[1])
        brute = []
        for r, c in grid.free_cells():
            occ = grid.occupancy.copy()
            occ[r, c] = True
            if free_cells_connected(GridMap(rows, cols, 1.0, occ, START_CELL), connectivity):
                brute.append(r * cols + c)
        assert safe == brute, (seed, grid.to_text())


# sha256 of the concatenated to_text() of the benchmark's map sets; label
# caches, bench records and acceptance criteria 4-6 are keyed on these maps
GOLDEN_SETS = {
    "held-out 10x10, 4-connected": (
        (110, 10, 10, 1.0, (0.0, 0.5), (0.0, 0.0, 1.0), 777, 4),
        "8b194f9838cfbddc18adca8c0821268bb7295d548948ced23b403d52350ce945",
    ),
    "held-out 10x10, 8-connected": (
        (110, 10, 10, 1.0, (0.0, 0.5), (0.0, 0.0, 1.0), 777, 8),
        "bb2ebc92629f4c10807631146e94939a711fa259f1c5ee66e3aa6f22a0160042",
    ),
    "held-out 20x20": (
        (12, 20, 20, 1.0, (0.0, 0.5), (0.0, 0.0, 1.0), 777, 4),
        "e7d4c4bd907251c0f5c3ea7295831b9bb232fb7bfe5eab880d432b24f895a14c",
    ),
    "acceptance train set": (
        (250, 10, 10, 1.0, (0.0, 0.5), (0.8, 0.2, 0.0), 101, 4),
        "d01f1af392460cc6f0061e1ea23042ce5430775a5738257ee82b649e96efaa7e",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SETS))
def test_benchmark_map_sets_are_unchanged(name):
    args, digest = GOLDEN_SETS[name]
    sset = dataset_build(*args)
    text = "".join(grid.to_text() for grid in sset.scenarios)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


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


def test_save_refuses_a_set_that_load_would_refuse(tmp_path):
    # an 8-connected build need not be 4-connected, and files are read under 4
    sset = dataset_build(4, 6, 6, 1.0, (0.4, 0.5), (0.5, 0.25, 0.25), seed=0, connectivity=8)
    out = tmp_path / "set"
    out.mkdir()
    with pytest.raises(ValueError, match="scenario 0: free cells are not a single connected"):
        save_scenarios(sset, out)
    assert list(out.iterdir()) == []


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
