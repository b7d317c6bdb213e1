"""Length and wall-time comparison of the learned planner against 2-opt.

Both methods are measured on identical scenarios under the identical
length metric (shortest grid-path costs), so length ratios are apples to
apples. Timing covers encode + forward + decode + stitch for the learned
method and cost-matrix + nearest-neighbor + 2-opt + stitch for the
baseline. Sweeps are resumable: records are keyed by scenario hash and
existing ones are skipped. A records file names the sha256 of the
checkpoint it measured, and only a sweep with that checkpoint resumes it.
"""

import math
import re
import time
from dataclasses import dataclass

import numpy as np

from .decode import Trajectory, plan, stitch
from .errors import CppnetError, EmptyRecords, ParseError
from .fileio import atomic_write_text, read_text
from .model import ModelParams
from .oracle import cost_matrix, two_opt
from .scenario import GridMap, ScenarioSet

RECORDS_HEADER = "cpp-bench-records v2"
RECORDS_CSV_HEADER = "scenario_hash,density,method,length_m,wall_time_s"
SHA256_HEX = re.compile(r"[0-9a-f]{64}")

METHOD_TWO_OPT = "two_opt"
METHOD_LEARNED = "learned"
METHODS = (METHOD_TWO_OPT, METHOD_LEARNED)


@dataclass(frozen=True)
class BenchRecord:
    scenario_hash: str
    density: float
    method: str
    length_m: float
    wall_time_s: float


def solve_two_opt(grid: GridMap, connectivity: int = 4) -> Trajectory:
    """Baseline pipeline: cost matrix, nearest-neighbor init, 2-opt, stitch."""
    costs = cost_matrix(grid, connectivity)
    tour = two_opt(costs, grid.start_slot)
    return stitch(tour, grid, connectivity)


def run_benchmark(sset: ScenarioSet, params: ModelParams, connectivity: int = 4,
                  prior_records=(), on_failure=None) -> list[BenchRecord]:
    """Both methods on every test-split scenario, skipping recorded hashes.

    A CppnetError ends that scenario's turn and goes to
    on_failure(scenario_hash, exc); the records made so far are kept and
    the sweep carries on.
    """
    records = list(prior_records)
    done = {(r.scenario_hash, r.method) for r in records}
    for grid in sset.split("test"):
        key = grid.content_hash()
        density = grid.density()
        try:
            if (key, METHOD_TWO_OPT) not in done:
                t0 = time.perf_counter()
                traj = solve_two_opt(grid, connectivity)
                elapsed = time.perf_counter() - t0
                records.append(BenchRecord(key, density, METHOD_TWO_OPT, traj.length, elapsed))
            if (key, METHOD_LEARNED) not in done:
                traj = plan(grid, params, connectivity)
                records.append(
                    BenchRecord(key, density, METHOD_LEARNED, traj.length, traj.inference_ms / 1e3)
                )
        except CppnetError as exc:
            if on_failure:
                on_failure(key, exc)
    return records


def summarize(records) -> dict:
    """Five-number summaries (linear-interpolation quartiles) per method."""
    records = list(records)
    if not records:
        raise EmptyRecords("no benchmark records")
    out = {}
    for method in sorted({r.method for r in records}):
        rows = [r for r in records if r.method == method]
        out[method] = {}
        for metric, values in (
            ("length_m", [r.length_m for r in rows]),
            ("wall_time_s", [r.wall_time_s for r in rows]),
        ):
            q = np.percentile(values, [0, 25, 50, 75, 100], method="linear")
            out[method][metric] = {
                "min": float(q[0]),
                "q1": float(q[1]),
                "median": float(q[2]),
                "q3": float(q[3]),
                "max": float(q[4]),
            }
    return out


def records_to_csv(records, model_sha256: str) -> str:
    lines = [f"{RECORDS_HEADER} model_sha256 {model_sha256}", RECORDS_CSV_HEADER]
    for r in records:
        lines.append(f"{r.scenario_hash},{r.density!r},{r.method},{r.length_m!r},{r.wall_time_s!r}")
    return "\n".join(lines) + "\n"


def _record_from_row(line: str) -> BenchRecord:
    parts = line.split(",")
    if len(parts) != 5 or not parts[0]:
        raise ParseError(f"bad records row: {line!r}")
    key, density, method, length_m, wall_time_s = parts
    if method not in METHODS:
        raise ParseError(f"unknown method {method!r} in records row: {line!r}")
    try:
        values = [float(v) for v in (density, length_m, wall_time_s)]
    except ValueError as exc:
        raise ParseError(f"bad number in records row: {line!r}") from exc
    if not all(math.isfinite(v) and v >= 0.0 for v in values) or values[0] > 1.0:
        raise ParseError(f"records row out of range (a density in [0, 1], "
                         f"lengths and times finite and >= 0): {line!r}")
    return BenchRecord(key, values[0], method, values[1], values[2])


def _parse_records(text: str) -> tuple[str | None, list[BenchRecord]]:
    """The model sha256 of a v2 file (None for a v1 file, which names no
    model) and the records, each (scenario, method) at most once."""
    lines = text.splitlines()
    model = None
    if lines and lines[0].split()[:2] == RECORDS_HEADER.split():
        parts = lines[0].split()
        if len(parts) != 4 or parts[2] != "model_sha256" or not SHA256_HEX.fullmatch(parts[3]):
            raise ParseError(f"bad records header: {lines[0]!r}")
        model, lines = parts[3], lines[1:]
    if not lines or lines[0] != RECORDS_CSV_HEADER:
        raise ParseError("bad records CSV header")
    records = [_record_from_row(line) for line in lines[1:] if line.strip()]
    if len({(r.scenario_hash, r.method) for r in records}) != len(records):
        raise ParseError("records name a (scenario, method) pair twice")
    return model, records


def records_from_csv(text: str) -> list[BenchRecord]:
    """Records of a v2 or a v1 file."""
    return _parse_records(text)[1]


def save_records(records, path, model_sha256: str) -> None:
    atomic_write_text(path, records_to_csv(records, model_sha256))


def load_records(path) -> list[BenchRecord]:
    return records_from_csv(read_text(path))


def resume_records(path, model_sha256: str) -> list[BenchRecord]:
    """The records of an earlier sweep with the same checkpoint. A v1 file
    names no model and a v2 file of another checkpoint would pass its
    lengths and times off as this one's, so both are refused."""
    model, records = _parse_records(read_text(path))
    if model is None:
        raise ParseError(f"{path} is a v1 records file and names no model; "
                         "refusing to resume it")
    if model != model_sha256:
        raise ParseError(f"{path} holds records of checkpoint sha256 {model}, "
                         f"not {model_sha256}; refusing to resume it")
    return records
