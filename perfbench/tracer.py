"""Per-layer span tracer for the benchmark's traced run.

The tracer times the public entry points of each ``repro`` layer from
outside the package: :func:`instrument` replaces each entry point with a
wrapper that records a span, and re-binds every module attribute that
aliases the original (``repro.perf.characterize`` and
``repro.engine.cache`` import their callees by name). Nothing under
``src/`` changes, and :func:`instrument` returns a function that puts
the originals back.

Spans are kept in memory. Each records its layer, thread, parent span,
start, end and a few counts. A span's self time is its duration minus
the durations of its children, so the main thread's self times plus the
time outside any span (``unattributed_s``) add up to the traced wall
time. Spans on the stream producer thread run concurrently with the
main thread's ``stream.wait`` spans; they are summed per thread.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
import time


class Span:
    """One timed call (or one ``next()`` of a traced iterator)."""

    __slots__ = ("index", "layer", "thread", "parent", "start", "end",
                 "counts")

    def __init__(self, index, layer, thread, parent, start):
        self.index = index
        self.layer = layer
        self.thread = thread
        self.parent = parent
        self.start = start
        self.end = start
        self.counts = None

    def add(self, name: str, value) -> None:
        if self.counts is None:
            self.counts = {}
        self.counts[name] = self.counts.get(name, 0) + value

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread; parents come from a per-thread
    stack, so a producer thread's spans never nest under the consumer's."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.main_thread = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str) -> Span:
        stack = self._stack()
        parent = stack[-1].index if stack else None
        with self._lock:
            span = Span(len(self.spans), layer, threading.get_ident(),
                        parent, time.perf_counter())
            self.spans.append(span)
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()


# -- instrumentation ----------------------------------------------------------

def _length(item) -> int:
    try:
        return len(item)
    except TypeError:
        return 0


def _traced_iterator(tracer, layer, iterator, on_item):
    """Yield ``iterator``'s items, timing each ``next()`` as a span."""
    try:
        while True:
            span = tracer.begin(layer)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                tracer.finish(span)
            on_item(span, item)
            yield item
    finally:
        close = getattr(iterator, "close", None)
        if close is not None:
            close()


def _count_events(span, item) -> None:
    span.add("events", _length(item))


def _count_segment(span, _item) -> None:
    span.add("segments", 1)


def _count_nothing(*_args) -> None:
    pass


def _events_from_int(span, _args, _kwargs, result) -> None:
    span.add("events", result)


def _events_from_len(span, _args, _kwargs, result) -> None:
    span.add("events", _length(result))


def _events_from_sim(span, _args, _kwargs, result) -> None:
    span.add("events", result.instructions)


def _count_points(span, args, kwargs, _result) -> None:
    points = args[1] if len(args) > 1 else kwargs["points"]
    span.add("points", len(points))


def _count_result_load(span, _args, _kwargs, result) -> None:
    span.add("result_loads", 1)
    span.add("result_hits", result is not None)


def _count_record(span, *_args) -> None:
    span.add("records", 1)


def _batched_counts(tracer):
    from repro.uarch.batched import frontend_key

    def count(span, args, kwargs, outcome) -> None:
        # A stream the columnar encoding cannot represent is delegated
        # to simulate_batched; count only the outermost call.
        parent = span.parent
        if parent is not None and tracer.spans[parent].layer == "batched":
            return
        configs = list(args[1] if len(args) > 1 else kwargs["configs"])
        shared = {
            frontend_key(config)
            for config, batched in zip(configs, outcome.batched)
            if batched
        }
        span.add("frontend_passes", len(shared))
        span.add("config_events",
                 sum(result.instructions for result in outcome.results))
        span.add("fallback_configs", outcome.fallback)
        span.add("native_calls", 1 if outcome.native else 0)
    return count


#: (layer, module, attribute path, style, counter). ``call`` times the
#: call; ``iter`` also times each ``next()`` of the iterator it returns;
#: ``consume`` times only the ``next()`` calls (the consumer side of the
#: stream pipeline, whose producer thread starts on the first pull);
#: ``encode`` times the call and counts the events and bytes written.
def _plan(tracer):
    from repro.engine.journal import RunJournal

    return [
        ("interpret", "repro.isa.interpreter", "Machine.run", "call",
         _events_from_int),
        ("interpret", "repro.isa.interpreter", "Machine.run_segments",
         "iter", _count_events),
        ("generate", "repro.uarch.synthetic", "generate_trace", "call",
         _events_from_len),
        ("generate", "repro.uarch.synthetic", "generate_trace_segments",
         "iter", _count_events),
        ("encode", "repro.isa.tracestore", "save_trace_v3", "encode",
         None),
        ("decode", "repro.isa.tracestore", "load_trace_columnar", "call",
         _events_from_len),
        ("decode", "repro.isa.tracestore", "open_trace_segments", "iter",
         _count_events),
        ("core", "repro.uarch.core", "Core.simulate", "call",
         _events_from_sim),
        ("core", "repro.uarch.core", "Core.simulate_stream", "call",
         _events_from_sim),
        ("batched", "repro.uarch.batched", "simulate_batched", "call",
         _batched_counts(tracer)),
        ("batched", "repro.uarch.batched", "simulate_batched_stream",
         "call", _batched_counts(tracer)),
        ("stream.wait", "repro.perf.stream", "pipelined", "consume",
         _count_segment),
        ("cache.read", "repro.engine.cache",
         "PersistentCache.load_result_payload", "call", _count_result_load),
        ("cache.read", "repro.engine.cache", "PersistentCache.load_trace",
         "call", _count_nothing),
        ("cache.read", "repro.engine.cache",
         "PersistentCache.load_trace_segments", "call", _count_nothing),
        ("cache.write", "repro.engine.cache",
         "PersistentCache.store_result_payload", "call", _count_nothing),
        ("cache.write", "repro.engine.cache", "PersistentCache.store_trace",
         "call", _count_nothing),
        ("cache.write", "repro.engine.cache",
         "PersistentCache.store_trace_segments", "call", _count_nothing),
        ("serialize", "repro.engine.serialize", "characterisation_to_dict",
         "call", _count_nothing),
        ("serialize", "repro.engine.serialize",
         "characterisation_from_dict", "call", _count_nothing),
        ("journal", "repro.engine.journal", "RunJournal.create", "call",
         _count_nothing),
        ("journal", "repro.engine.journal", "RunJournal.reopen", "call",
         _count_nothing),
        *[
            ("journal", "repro.engine.journal", f"RunJournal.{name}", "call",
             _count_record)
            for name in vars(RunJournal) if name.startswith("record_")
        ],
        ("engine", "repro.engine.engine", "Engine.characterize_many",
         "call", _count_points),
        ("engine", "repro.engine.engine", "Engine.prefetch", "call",
         _count_nothing),
        ("profile", "repro.perf.profiler", "Profiler.run", "call",
         _count_nothing),
        ("llc", "repro.uarch.llc", "sharing_study", "call", _count_nothing),
        ("bpred", "repro.bpred.replay", "replay", "call", _count_nothing),
        ("bpred", "repro.bpred.replay", "replay_many", "call",
         _count_nothing),
        ("accel", "repro.accel.lab", "estimate", "call", _count_nothing),
        ("accel", "repro.accel.lab", "estimate_many", "call",
         _count_nothing),
    ]


def _counted(segments, tally: list[int]):
    for segment in segments:
        tally[0] += _length(segment)
        yield segment


def _wrap(tracer, layer, original, style, counter):
    if style == "consume":
        def consume(*args, **kwargs):
            return _traced_iterator(
                tracer, layer, original(*args, **kwargs), counter
            )
        return consume

    if style == "encode":
        from repro.isa.trace import Trace

        def encode(path, trace, *args, **kwargs):
            # A whole trace is counted by its length; a segment iterator
            # is counted on its way into the encoder.
            tally = [0]
            if isinstance(trace, (list, Trace)):
                tally[0] = len(trace)
            else:
                trace = _counted(trace, tally)
            span = tracer.begin(layer)
            try:
                result = original(path, trace, *args, **kwargs)
            finally:
                tracer.finish(span)
            span.add("events", tally[0])
            span.add("bytes", os.path.getsize(path))
            return result
        return encode

    def call(*args, **kwargs):
        span = tracer.begin(layer)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.finish(span)
        if style == "iter":
            return _traced_iterator(tracer, layer, iter(result), counter)
        counter(span, args, kwargs, result)
        return result
    return call


def instrument(tracer: Tracer):
    """Wrap every planned entry point; returns the undo function."""
    undo = []
    for layer, module_name, path, style, counter in _plan(tracer):
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(
                _wrap(tracer, layer, raw.__func__, style, counter)
            )
        else:
            wrapped = _wrap(tracer, layer, raw, style, counter)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, raw))
        if owner is module:
            # Re-bind every alias imported by name elsewhere in repro.
            for other in list(sys.modules.values()):
                name = getattr(other, "__name__", None) or ""
                if other is module or not name.startswith("repro"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is raw:
                        setattr(other, key, wrapped)
                        undo.append((other, key, raw))

    def restore() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)
    return restore


# -- aggregation --------------------------------------------------------------

#: The per-layer metrics, in report order, with their units.
PER_LAYER_METRICS = (
    ("interpret.busy_s", "s"),
    ("interpret.mevents", "Mevents"),
    ("interpret.mevents_per_s", "Mevents/s"),
    ("generate.busy_s", "s"),
    ("generate.mevents_per_s", "Mevents/s"),
    ("encode.busy_s", "s"),
    ("encode.mevents_per_s", "Mevents/s"),
    ("encode.store_mb", "MiB"),
    ("decode.busy_s", "s"),
    ("decode.mevents_per_s", "Mevents/s"),
    ("core.busy_s", "s"),
    ("core.mevents", "Mevents"),
    ("core.mevents_per_s", "Mevents/s"),
    ("batched.busy_s", "s"),
    ("batched.frontend_passes", "count"),
    ("batched.config_mevents", "Mevents"),
    ("batched.fallback_configs", "count"),
    ("batched.native", "count"),
    ("stream.wait_s", "s"),
    ("stream.segments", "count"),
    ("cache.read_s", "s"),
    ("cache.write_s", "s"),
    ("cache.result_hit_ratio", "ratio"),
    ("serialize.busy_s", "s"),
    ("journal.busy_s", "s"),
    ("journal.records", "count"),
    ("engine.self_s", "s"),
    ("engine.points", "count"),
    ("profile.busy_s", "s"),
    ("llc.busy_s", "s"),
    ("bpred.busy_s", "s"),
    ("accel.busy_s", "s"),
    ("producer.busy_s", "s"),
    ("setup.import_s", "s"),
    ("setup.copy_s", "s"),
    ("traced.wall_s", "s"),
    ("unattributed_s", "s"),
    ("trace_overhead_s", "s"),
)

#: Span layer -> the metric its summed self time reports.
_TIME_METRIC = {
    "stream.wait": "stream.wait_s",
    "cache.read": "cache.read_s",
    "cache.write": "cache.write_s",
    "engine": "engine.self_s",
}


def self_times(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Layer -> {"main": s, "producer": s} of summed self time."""
    child_time = [0.0] * len(tracer.spans)
    for span in tracer.spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    totals: dict[str, dict[str, float]] = {}
    for span in tracer.spans:
        side = "main" if span.thread == tracer.main_thread else "producer"
        per = totals.setdefault(span.layer, {"main": 0.0, "producer": 0.0})
        per[side] += span.duration - child_time[span.index]
    return totals


def counts(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Layer -> summed span counts."""
    out: dict[str, dict[str, float]] = {}
    for span in tracer.spans:
        if span.counts:
            per = out.setdefault(span.layer, {})
            for name, value in span.counts.items():
                per[name] = per.get(name, 0) + value
    return out


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Every per-layer metric except the two the caller fills in
    (``setup.*`` and ``trace_overhead_s``)."""
    times = self_times(tracer)
    tally = counts(tracer)

    def busy(layer):
        per = times.get(layer)
        return per["main"] + per["producer"] if per else 0.0

    def count(layer, name):
        return tally.get(layer, {}).get(name, 0)

    def rate(events, seconds):
        return events / 1e6 / seconds if seconds > 0 else 0.0

    metrics = {}
    for layer in ("interpret", "generate", "encode", "decode", "core",
                  "batched", "serialize", "journal", "profile", "llc",
                  "bpred", "accel"):
        metrics[f"{layer}.busy_s"] = busy(layer)
    for layer, name in _TIME_METRIC.items():
        metrics[name] = busy(layer)
    for layer in ("interpret", "generate", "encode", "decode", "core"):
        metrics[f"{layer}.mevents_per_s"] = rate(
            count(layer, "events"), busy(layer)
        )
    metrics["interpret.mevents"] = count("interpret", "events") / 1e6
    metrics["core.mevents"] = count("core", "events") / 1e6
    metrics["encode.store_mb"] = count("encode", "bytes") / 2**20
    metrics["batched.frontend_passes"] = count("batched", "frontend_passes")
    metrics["batched.config_mevents"] = count("batched", "config_events") / 1e6
    metrics["batched.fallback_configs"] = count("batched", "fallback_configs")
    metrics["batched.native"] = count("batched", "native_calls")
    metrics["stream.segments"] = count("stream.wait", "segments")
    loads = count("cache.read", "result_loads")
    metrics["cache.result_hit_ratio"] = (
        count("cache.read", "result_hits") / loads if loads else 0.0
    )
    metrics["journal.records"] = count("journal", "records")
    metrics["engine.points"] = count("engine", "points")
    metrics["producer.busy_s"] = sum(per["producer"] for per in times.values())
    main_self = sum(per["main"] for per in times.values())
    metrics["traced.wall_s"] = wall_s
    metrics["unattributed_s"] = wall_s - main_self
    return metrics
