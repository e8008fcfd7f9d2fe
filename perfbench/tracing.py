"""Outside-in span tracing of `pie`, from the benchmark's side only.

`Tracer.install` swaps wrappers in for the public functions `pie.runner`
looks up at call time, for `ObservationSet.take` and
`PartitionPlan.shard_indices`, for `pie.rng.stream`, and for the three calls
`pie run` makes (`pie.load_config`, `pie.run_experiment`,
`pie.emit_report`).  No file of the package changes.  `Tracer.uninstall`
puts the originals back.

Every span records its name, layer, start, end, parent span, replicate id
and thread.  Parents come from a per-thread stack; a span opened on a pool
thread with nothing open on that thread takes as parent the innermost span
open on the main thread (`run_experiment` while shards are sampled).
Counts derived from call arguments are labelled *computed*: they are sizes
the call implies, not measurements.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import statistics
import threading
import time
from dataclasses import dataclass, field

# Layer of every wrapped callable, by name.  Runner names are patched on `pie.runner`, which resolves them from its globals at call time.
RUNNER_NAMES = {
    "simulate_univariate": "data",
    "simulate_linear": "data",
    "load_csv": "data",
    "partition": "models",
    "apply_functional": "models",
    "sample_poisson_gamma": "samplers",
    "sample_exponential_gamma": "samplers",
    "sample_bernoulli_beta": "samplers",
    "sample_normal_linear_nig": "samplers",
    "sample_metropolis": "samplers",
    "quantile_table": "combine",
    "average_quantile_tables": "combine",
    "pie_interval": "combine",
    "sample_from_table": "combine",
    "combine_multidim": "multidim",
    "accuracy": "metrics",
    "w2_from_tables": "metrics",
}
PACKAGE_NAMES = {
    "load_config": "config",
    "run_experiment": "runner",
    "emit_report": "runner",
}
LAYERS = ("config", "data", "models", "rng", "samplers", "combine", "multidim",
          "metrics", "runner")
# layers below run_experiment whose self times account for runner.run_s
INNER_LAYERS = ("data", "models", "rng", "samplers", "combine", "multidim", "metrics")
EXACT_SAMPLERS = ("sample_poisson_gamma", "sample_exponential_gamma",
                  "sample_bernoulli_beta", "sample_normal_linear_nig")
KDE_GRID = 1024  # points of the shared grid `pie.metrics.accuracy` evaluates on
FLOAT_BYTES = 8


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    parent: int | None
    replicate: int | None
    thread: int
    thread_root: bool
    end: float = 0.0
    error: bool = False
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_row(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent,
                self.replicate, self.thread, self.error, self.info]


def _computed_counts(name: str, args: dict, result) -> dict:
    """Counts implied by one call's arguments (and, for sizes, its result)."""
    if name == "PartitionPlan.shard_indices":
        return {"rows_scanned": int(args["self"].assignments.size)}
    if name == "ObservationSet.take":
        m = len(args["indices"])
        # fancy indexing copies the rows once and ObservationSet copies them again
        return {"bytes_copied": 2 * m * FLOAT_BYTES * (1 + args["self"].p)}
    if name in ("simulate_univariate", "simulate_linear"):
        return {"rows": int(args["n"])}
    if name == "load_csv":
        return {"rows": result.n, "bytes_read": os.path.getsize(args["path"])}
    if name in EXACT_SAMPLERS:
        return {"shard_id": args.get("shard_id")}
    if name == "sample_metropolis":
        return {"shard_id": args.get("shard_id"), "steps": args["cfg"].T_total,
                "accept_rate": result.accept_rate}
    if name == "accuracy":
        size = len(args["q_samples"]) + len(args["pi_samples"])
        return {"kernel_evals": size * KDE_GRID}
    if name == "emit_report":
        return {"files": len(result),
                "bytes": sum(os.path.getsize(p) for p in result)}
    if name == "run_experiment":
        return {"timings_sum": sum(result.timings.values())}
    return {}


class Tracer:
    """Records spans in memory while installed; see the module docstring."""

    def __init__(self, pie_module):
        self._pie = pie_module
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []
        self.replicate: int | None = None
        self.origin = time.perf_counter()

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        pie = self._pie
        targets = [(pie.runner, name, name, layer) for name, layer in RUNNER_NAMES.items()]
        targets += [(pie, name, name, layer) for name, layer in PACKAGE_NAMES.items()]
        targets += [
            (pie.rng, "stream", "rng.stream", "rng"),
            (pie.models.ObservationSet, "take", "ObservationSet.take", "models"),
            (pie.models.PartitionPlan, "shard_indices", "PartitionPlan.shard_indices",
             "models"),
        ]
        for owner, attr, span_name, layer in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name, layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, layer: str):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                tracer._close(span)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.info = _computed_counts(name, bound.arguments, result)
            return result

        return traced

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        on_main = stack is self._main_stack
        if stack:
            parent = stack[-1].id
        elif not on_main and self._main_stack:
            parent = self._main_stack[-1].id
        else:
            parent = None
        span = Span(id=next(self._ids), name=name, layer=layer,
                    start=time.perf_counter() - self.origin, parent=parent,
                    replicate=self.replicate, thread=threading.get_ident(),
                    thread_root=not on_main and not stack)
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter() - self.origin
        self._stack().pop()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [(max(a, s.start), min(b, s.end))
                   for a, b in children.get(s.id, ()) if b > s.start and a < s.end]
        out[s.id] = s.duration - _union_length(clipped)
    return out


def layer_metrics(spans: list[Span], workers: int) -> dict:
    """Every per-layer metric of one traced replicate."""
    def busy(*names):
        return sum(s.duration for s in spans if s.name in names)

    def calls(*names):
        return sum(1 for s in spans if s.name in names)

    def info_sum(key):  # each info key belongs to one kind of span
        return sum(s.info.get(key, 0) for s in spans)

    own = self_times(spans)
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.errors"] = sum(1 for s in spans if s.layer == layer and s.error)
    for layer in INNER_LAYERS:
        m[f"{layer}.self_s"] = sum(own[s.id] for s in spans if s.layer == layer)

    m["config.load_s"] = busy("load_config")

    m["data.busy_s"] = busy("simulate_univariate", "simulate_linear", "load_csv")
    m["data.rows_per_s"] = info_sum("rows") / m["data.busy_s"] if m["data.busy_s"] else 0.0
    m["data.bytes_read"] = info_sum("bytes_read")

    m["models.partition_s"] = busy("partition")
    m["models.extract_s"] = busy("ObservationSet.take", "PartitionPlan.shard_indices")
    m["models.rows_scanned"] = info_sum("rows_scanned")
    m["models.bytes_copied"] = info_sum("bytes_copied")

    m["rng.streams"] = calls("rng.stream")
    m["rng.stream_s"] = busy("rng.stream")

    exact = [s for s in spans if s.name in EXACT_SAMPLERS]
    shard_exact = [s for s in exact if s.info.get("shard_id") is not None]
    mh = [s for s in spans if s.name == "sample_metropolis"]
    m["samplers.exact_s"] = sum(s.duration for s in shard_exact)
    m["samplers.exact_calls"] = len(shard_exact)
    m["samplers.oracle_s"] = sum(s.duration for s in exact
                                 if s.info.get("shard_id") is None)
    m["samplers.mh_s"] = sum(s.duration for s in mh)
    m["samplers.mh_steps"] = info_sum("steps")
    m["samplers.mh_us_per_step"] = (1e6 * m["samplers.mh_s"] / m["samplers.mh_steps"]
                                    if m["samplers.mh_steps"] else 0.0)
    rates = [s.info["accept_rate"] for s in mh if "accept_rate" in s.info]
    m["samplers.accept_rate"] = statistics.fmean(rates) if rates else 0.0
    shard_calls = shard_exact + [s for s in mh if s.info.get("shard_id") is not None]
    m["samplers.shard_s_max"] = max((s.duration for s in shard_calls), default=0.0)
    pool = [s for s in spans if s.thread_root]
    if pool:
        wall = max(s.end for s in pool) - min(s.start for s in pool)
        m["samplers.parallel_eff"] = sum(s.duration for s in pool) / (wall * workers)
    else:
        m["samplers.parallel_eff"] = 0.0

    m["combine.quantile_table_s"] = busy("quantile_table")
    m["combine.quantile_table_calls"] = calls("quantile_table")
    m["combine.average_s"] = busy("average_quantile_tables")
    m["combine.interval_s"] = busy("pie_interval")
    m["combine.sample_from_table_s"] = busy("sample_from_table")

    m["multidim.combine_s"] = busy("combine_multidim")

    m["metrics.accuracy_s"] = busy("accuracy")
    m["metrics.accuracy_calls"] = calls("accuracy")
    m["metrics.kernel_evals"] = info_sum("kernel_evals")
    m["metrics.w2_s"] = busy("w2_from_tables")

    runs = [s for s in spans if s.name == "run_experiment"]
    m["runner.run_s"] = sum(s.duration for s in runs)
    m["runner.self_s"] = sum(own[s.id] for s in runs)
    m["runner.emit_s"] = busy("emit_report")
    m["runner.emit_bytes"] = info_sum("bytes")
    m["runner.emit_files"] = info_sum("files")
    m["runner.timings_coverage"] = (info_sum("timings_sum") / m["runner.run_s"]
                                    if m["runner.run_s"] else 0.0)
    # zero up to rounding when spans do not overlap; negative by the overlap
    # when pool threads run shard spans concurrently
    m["runner.residual_s"] = m["runner.run_s"] - m["runner.self_s"] - sum(
        m[f"{layer}.self_s"] for layer in INNER_LAYERS)
    m["trace.spans"] = len(spans)
    return m
