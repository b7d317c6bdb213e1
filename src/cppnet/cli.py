"""Command-line entry point wiring the toolkit together.

Verbs: generate, label, train, solve, bench, plot. Every verb is a thin
wrapper over the module APIs; output files are written atomically.
Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

import argparse
import hashlib
import sys
from pathlib import Path

from . import __version__
from .bench import (
    RECORDS_HEADER,
    load_records,
    render_boxplot,
    render_trajectory,
    resume_records,
    run_benchmark,
    save_records,
)
from .decode import TRAJ_HEADER, load_trajectory, plan, save_trajectory
from .errors import CppnetError
from .fileio import atomic_write_text, read_text
from .model import CHECKPOINT_HEADER, ModelConfig, load_checkpoint
from .oracle import LABELS_HEADER, LabelCache
from .scenario import (
    MANIFEST_HEADER,
    SCENARIO_HEADER,
    dataset_build,
    load_scenarios,
    save_scenarios,
    split_sizes,
)
from .train import TrainConfig, load_config, prepare_labels, train

FORMAT_VERSIONS = "formats: " + ", ".join([
    SCENARIO_HEADER, MANIFEST_HEADER, LABELS_HEADER, TRAJ_HEADER, CHECKPOINT_HEADER, RECORDS_HEADER,
])

PAPER_RATIOS = (1024 / 1384, 200 / 1384, 160 / 1384)


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> Parser:
    parser = Parser(prog="cppnet", description=__doc__)
    parser.add_argument("--version", action="store_true", help="print versions and exit")
    sub = parser.add_subparsers(dest="verb")

    p = sub.add_parser("generate", help="build a random scenario dataset")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--cell-size", type=float, required=True)
    p.add_argument("--density-min", type=float, required=True)
    p.add_argument("--density-max", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ratios", default=None,
                   help="train,val,test fractions (default: 1024:200:160 proportions)")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("label", help="compute 2-opt label caches for a dataset")
    p.add_argument("--scenarios", required=True, help="scenario directory")
    p.add_argument("--out", required=True, help="label cache directory")

    p = sub.add_parser("train", help="train the edge-probability model")
    p.add_argument("--scenarios", required=True)
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--labels", default=None, help="label cache directory")
    p.add_argument("--out", required=True, help="checkpoint directory")

    p = sub.add_parser("solve", help="plan a coverage trajectory with a trained model")
    p.add_argument("--scenario", required=True, help="scenario file")
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("--out", required=True, help="trajectory output file")
    p.add_argument("--svg", default=None, help="also render the trajectory to this SVG")

    p = sub.add_parser("bench", help="compare learned planner and 2-opt on the test split")
    p.add_argument("--scenarios", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="records CSV (resumed if present and written with the same checkpoint)")

    p = sub.add_parser("plot", help="render records or a trajectory to SVG")
    p.add_argument("--records", default=None, help="records CSV for a box plot")
    p.add_argument("--trajectory", default=None, help="trajectory file")
    p.add_argument("--scenario", default=None, help="scenario file (with --trajectory)")
    p.add_argument("--out", required=True)
    return parser


def _parse_ratios(text, count):
    """The --ratios fractions; any value split_sizes refuses is a usage error."""
    if text is None:
        return PAPER_RATIOS
    try:
        ratios = tuple(float(x) for x in text.split(","))
        split_sizes(count, ratios)
    except ValueError as exc:
        raise UsageError(f"--ratios {text}: {exc}") from exc
    return ratios


def _scenario_for_file(path):
    from .scenario import scenario_from_text

    return scenario_from_text(read_text(path))


def cmd_generate(args) -> int:
    sset = dataset_build(
        args.count,
        args.rows,
        args.cols,
        args.cell_size,
        (args.density_min, args.density_max),
        _parse_ratios(args.ratios, args.count),
        args.seed,
    )
    save_scenarios(sset, args.out)
    print(f"wrote {len(sset)} scenarios to {args.out}")
    return 0


def cmd_label(args) -> int:
    sset = load_scenarios(args.scenarios)
    cache = LabelCache(args.out)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    prepare_labels(sset.scenarios, cache)
    print(f"labeled {len(sset)} scenarios into {args.out}")
    return 0


def cmd_train(args) -> int:
    sset = load_scenarios(args.scenarios)
    if args.config:
        train_config, model_config = load_config(args.config)
    else:
        train_config, model_config = TrainConfig(), ModelConfig()
    _, report = train(
        sset, train_config, model_config, label_cache_dir=args.labels, checkpoint_dir=args.out,
        log=lambda msg: print(msg),
    )
    print(f"checkpoints and report.csv in {args.out}")
    if report.skipped_batches:
        print(f"skipped {report.skipped_batches} degenerate batches")
    return 0


def cmd_solve(args) -> int:
    grid = _scenario_for_file(args.scenario)
    params = load_checkpoint(args.model)
    traj = plan(grid, params)
    save_trajectory(traj, grid.content_hash(), args.out)
    print(f"length {traj.length:.3f} m in {traj.inference_ms:.1f} ms -> {args.out}")
    if args.svg:
        atomic_write_text(args.svg, render_trajectory(traj, grid))
    return 0


def cmd_bench(args) -> int:
    sset = load_scenarios(args.scenarios)
    params = load_checkpoint(args.model)
    digest = hashlib.sha256(Path(args.model).read_bytes()).hexdigest()
    prior = resume_records(args.out, digest) if Path(args.out).is_file() else ()
    failed = []
    records = run_benchmark(sset, params, prior_records=prior,
                            on_failure=lambda key, exc: failed.append((key, exc)))
    save_records(records, args.out, digest)
    print(f"{len(records)} records -> {args.out}")
    for key, exc in failed:
        print(f"error: scenario {key} failed: {exc}", file=sys.stderr)
    return 2 if failed else 0


def cmd_plot(args) -> int:
    if (args.records is None) == (args.trajectory is None):
        raise UsageError("plot needs exactly one of --records or --trajectory")
    if args.records:
        svg = render_boxplot(load_records(args.records))
    else:
        if not args.scenario:
            raise UsageError("--trajectory plotting needs --scenario")
        traj, traj_hash = load_trajectory(args.trajectory)
        grid = _scenario_for_file(args.scenario)
        if grid.content_hash() != traj_hash:
            raise CppnetError(
                f"trajectory was planned for {traj_hash}, scenario is {grid.content_hash()}"
            )
        svg = render_trajectory(traj, grid)
    atomic_write_text(args.out, svg)
    print(f"wrote {args.out}")
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "label": cmd_label,
    "train": cmd_train,
    "solve": cmd_solve,
    "bench": cmd_bench,
    "plot": cmd_plot,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.version:
            print(f"cppnet {__version__}")
            print(FORMAT_VERSIONS)
            return 0
        if not args.verb:
            raise UsageError("a verb is required")
        return COMMANDS[args.verb](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (CppnetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
