"""Spans recorded from outside the program, around calls into its layers.

A `Tracer` replaces module-level functions with timing wrappers, at the
name each caller looks the function up by (`cppnet.decode.encode` for the
`encode` that `plan` calls), and puts the originals back afterwards. Spans
stay in memory until the run writes them out. A span's layer is the first
part of its name; the benchmark's own spans use the `perfbench` prefix.
"""

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

# (owner, attribute, span name): owner is a module, or "module:Class" for a
# method. Several owners may name the same function when several callers
# import it.
TARGETS = (
    ("cppnet.scenario", "dataset_build", "scenario.dataset_build"),
    ("cppnet.graph", "encode", "graph.encode"),
    ("cppnet.decode", "encode", "graph.encode"),
    ("cppnet.model", "load_checkpoint", "model.load_checkpoint"),
    ("cppnet.model", "stack_graphs", "model.stack_graphs"),
    ("cppnet.model", "forward", "model.forward"),
    ("cppnet.model", "embed_input", "model.embed_input"),
    ("cppnet.model", "conv_forward", "model.conv_forward"),
    ("cppnet.model", "mlp_head", "model.mlp_head"),
    ("cppnet.model", "loss_and_grads", "model.loss_and_grads"),
    ("cppnet.model", "conv_backward", "model.conv_backward"),
    ("cppnet.train:Adam", "step", "train.Adam.step"),
    ("cppnet.train", "prepare_labels", "train.prepare_labels"),
    ("cppnet.oracle", "cost_matrix", "oracle.cost_matrix"),
    ("cppnet.oracle", "two_opt", "oracle.two_opt"),
    ("cppnet.bench", "cost_matrix", "oracle.cost_matrix"),
    ("cppnet.bench", "two_opt", "oracle.two_opt"),
    ("cppnet.decode", "plan", "decode.plan"),
    ("cppnet.decode", "greedy_decode", "decode.greedy_decode"),
    ("cppnet.decode", "stitch", "decode.stitch"),
    ("cppnet.bench", "stitch", "decode.stitch"),
    ("cppnet.decode", "astar", "decode.astar"),
    ("cppnet.bench", "solve_two_opt", "bench.solve_two_opt"),
)

LAYERS = ("scenario", "graph", "model", "train", "oracle", "decode", "bench")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span in the same list
    ok: bool = True
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """Records nested spans; `installed()` patches TARGETS for its duration."""

    def __init__(self, counters: dict):
        self.spans: list[Span] = []
        self._open: list[int] = []
        # span name -> f(*args, **kwargs) -> attrs recorded on the span
        self.counters = counters

    @contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), 0.0, parent, False, attrs)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield span
            span.ok = True
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        counter = self.counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = counter(*args, **kwargs) if counter else {}
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        patched = []
        try:
            for owner_name, attr, name in TARGETS:
                owner = _resolve(owner_name)
                original = getattr(owner, attr)
                setattr(owner, attr, self.wrap(name, original))
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Hand over the finished spans and start a fresh list."""
        if self._open:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans


class NullTracer:
    """Stand-in for untraced runs: spans cost one no-op context manager."""

    def span(self, name, **attrs):
        return nullcontext()

    def installed(self):
        return nullcontext()


NULL_TRACER = NullTracer()


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [s.duration - covered(s.start, s.end, children[i]) for i, s in enumerate(spans)]


def layer_summary(spans: list[Span]) -> dict:
    """calls, self seconds and failed calls per program layer."""
    out = {layer: {"calls": 0, "self_s": 0.0, "failures": 0} for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        if span.layer in out:
            row = out[span.layer]
            row["calls"] += 1
            row["self_s"] += own
            row["failures"] += not span.ok
    return out


def totals_within(spans: list[Span], outer: str, inner: str) -> list[tuple[float, int]]:
    """For each span named `outer`: summed duration and count of the spans
    named `inner` nested anywhere inside it."""
    sums = {i: [0.0, 0] for i, s in enumerate(spans) if s.name == outer}
    for span in spans:
        if span.name != inner:
            continue
        p = span.parent
        while p is not None and p not in sums:
            p = spans[p].parent
        if p is not None:
            sums[p][0] += span.duration
            sums[p][1] += 1
    return [(total, count) for total, count in sums.values()]


def to_rows(spans: list[Span]) -> list[list]:
    """Compact form for the trace file: name, start, end, parent, ok."""
    return [[s.name, s.start, s.end, s.parent, s.ok] for s in spans]
