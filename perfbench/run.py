"""cppnet benchmark: one workload, measured untraced or traced.

Run from the repository root:

    python3 perfbench/run.py --ckpt-sha256 <hex> --workload plan-10x10 \
        --seed 1 --seconds 10 --trace 0

The checkpoint digest is the one in BENCHMARK.json's command. The run
prints its environment and a report, then, as its last line, one JSON
object: correct, attempted, failed and metrics. `--trace 0` gives the
end-to-end metrics; `--trace 1` makes every call twice, untraced and
traced, checks that both give the same output, and gives the per-layer
metrics and the tracing overhead; it writes the spans to perfbench/out/.
Exit code 2: the checkout has no src/cppnet, or the checkpoint fixture is
missing or does not match the digest.
"""

import argparse
import json
import resource
import sys
import time

import launch

# Set-ups timed before the measurement, and, in untraced runs, after it.
# The machine's speed drifts over seconds, so set-ups at both ends of the
# run make their median less a sample of one moment.
SETUP_BEFORE = 3
SETUP_AFTER = 4
SHOWN_PROBLEMS = 20


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ckpt-sha256", required=True,
                        help="sha256 the checkpoint fixture must have")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def set_up(workload, seed, tracer, times: list, repeats: int):
    """Set the workload up `repeats` times, appending each wall time to
    `times`; returns the last state (all are equal)."""
    with tracer.installed():
        for _ in range(repeats):
            t0 = time.perf_counter()
            with tracer.span("perfbench.setup"):
                state = workload.setup(seed)
            times.append(time.perf_counter() - t0)
    return state


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        launch.pin_environment()
    except launch.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        digest = workloads.file_sha256(workloads.CHECKPOINT)
    except OSError as exc:
        print(f"perfbench: cannot read the checkpoint fixture: {exc}", file=sys.stderr)
        return 2
    if digest != args.ckpt_sha256:
        print(f"perfbench: refusing checkpoint {workloads.CHECKPOINT} with sha256 {digest}; "
              f"expected {args.ckpt_sha256} (regenerate it with perfbench/make_checkpoint.py)",
              file=sys.stderr)
        return 2

    env = launch.environment_record()
    print("env " + json.dumps(env, sort_keys=True))
    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer(workloads.COUNTERS) if args.trace else tracing.NULL_TRACER

    setup_s = []
    state = set_up(workload, args.seed, tracer, setup_s, SETUP_BEFORE)
    if args.trace:
        setup_spans = tracer.take()
    run = workloads.Run(tracer if args.trace else None)
    workload.measure(state, args.seconds, run)
    workload.check(state, run, checks.References(workloads.CONNECTIVITY))
    attempted = run.attempted
    failed = len(run.problems)
    for problem in run.problems[:SHOWN_PROBLEMS]:
        print(f"FAILED {problem}", file=sys.stderr)

    if args.trace:
        spans = tracer.take()
        trajectories = workload.learned_trajectories(state, run)
        metrics = workloads.per_layer(setup_spans, spans, trajectories, run)
        units = workloads.PER_LAYER
        out_dir = workloads.HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "env": env,
            "setup": tracing.to_rows(setup_spans),
            "measure": tracing.to_rows(spans),
        }))
        print(f"spans                {len(setup_spans) + len(spans)} written to {trace_file}")
    else:
        metrics, lines = workload.end_to_end(state, run)
        metrics["peak_rss_mb"] = peak_rss_mb()
        del state
        set_up(workload, args.seed, tracer, setup_s, SETUP_AFTER)
        metrics["setup_s"] = workloads.median(setup_s)
        lines.append(f"setup_s              {metrics['setup_s']:.4f} s, median of "
                     + ", ".join(f"{t:.4f}" for t in setup_s))
        metrics["ok_share"] = (attempted - failed) / attempted
        units = workloads.END_TO_END
        for line in lines:
            print(line)
        print(f"fail_share           {failed / attempted:.4f} ratio ({failed} of {attempted} operations)")

    for name, unit in units.items():
        print(f"{name:<28} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
