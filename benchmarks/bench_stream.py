"""Streaming-simulation benchmarks: bounded memory at genome scale.

Two claims back the streaming path (``Core.simulate_stream`` and
``simulate_batched_stream`` over ``pipelined`` segment iterators):

* **memory** — a class-D background stream never materialises the
  full trace. Peak traced memory (``tracemalloc``) of the streamed
  generate→simulate pipeline is asserted >= 4x below the monolithic
  generate-then-simulate baseline, whose peak is dominated by the
  resident columnar trace (29 bytes/event across the five columns).
  The gate holds for one config and for four configs in two frontend
  groups, whose timing replays resume from carried state segment by
  segment.
* **wall time** — the streamed run is asserted <= 1.1x the monolithic
  wall time. Trace generation and the frontend pass are both Python,
  so the producer thread hides little of either behind the other; the
  streamed run still comes in under 1x (median 0.88x over 12 runs on a
  2-vCPU host, worst 1.09x) because generating small segments costs
  less than building one resident class-D trace.

``pytest benchmarks/bench_stream.py --benchmark-only -s`` prints the
full report. Run as a script for the CI smoke check::

    PYTHONPATH=src python benchmarks/bench_stream.py --smoke

which runs the gates on the smallest class-D background.
"""

import sys
import time
import tracemalloc

from repro.perf.characterize import APP_WORKLOADS, background_stream
from repro.perf.stream import pipelined
from repro.uarch.batched import simulate_batched, simulate_batched_stream
from repro.uarch.config import power5
from repro.uarch.core import Core
from repro.uarch.synthetic import generate_trace, generate_trace_segments

#: Segment size used throughout: small enough that the in-flight
#: window (current segment + bounded queue) stays far below the
#: monolithic trace, large enough that per-segment setup is noise.
SEGMENT_EVENTS = 8_192

MEMORY_FLOOR = 4.0
WALL_CEILING = 1.1

#: Four configs in two frontend groups (BTAC off / on), two FXU widths.
MULTI_CONFIGS = (
    power5(),
    power5().with_fxus(4),
    power5().with_btac(),
    power5().with_fxus(4).with_btac(),
)


def _class_d(app):
    """(length, profile, seed) for the app's class-D background."""
    length, _ = background_stream(app, "D", segment_events=SEGMENT_EVENTS)
    workload = APP_WORKLOADS[app]
    return length, workload.background, workload.seed


def _segments(length, profile, seed):
    return pipelined(generate_trace_segments(
        length, profile, seed=seed, segment_events=SEGMENT_EVENTS,
    ))


def _run_monolithic(length, profile, seed, config):
    trace = generate_trace(length, profile, seed=seed)
    return Core(config).simulate(trace)


def _run_streamed(length, profile, seed, config):
    return Core(config).simulate_stream(_segments(length, profile, seed))


def _run_monolithic_batched(length, profile, seed, configs):
    trace = generate_trace(length, profile, seed=seed)
    return simulate_batched(trace, configs)


def _run_streamed_batched(length, profile, seed, configs):
    return simulate_batched_stream(
        _segments(length, profile, seed), configs
    )


def _peak_bytes(fn):
    """Peak traced allocation of one call (includes producer thread)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _best_seconds(fn, reps=2):
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _compare(app, config):
    """(length, memory ratio, wall ratio, streamed result) for one app."""
    length, profile, seed = _class_d(app)
    mono_peak = _peak_bytes(
        lambda: _run_monolithic(length, profile, seed, config)
    )
    stream_peak = _peak_bytes(
        lambda: _run_streamed(length, profile, seed, config)
    )
    mono_wall = _best_seconds(
        lambda: _run_monolithic(length, profile, seed, config)
    )
    stream_wall = _best_seconds(
        lambda: _run_streamed(length, profile, seed, config)
    )
    return {
        "length": length,
        "mono_peak": mono_peak,
        "stream_peak": stream_peak,
        "memory_ratio": mono_peak / stream_peak,
        "mono_wall": mono_wall,
        "stream_wall": stream_wall,
        "wall_ratio": stream_wall / mono_wall,
    }


def _compare_multi(app, configs):
    """(length, memory ratio) of the multi-config batched pipeline."""
    length, profile, seed = _class_d(app)
    mono_peak = _peak_bytes(
        lambda: _run_monolithic_batched(length, profile, seed, configs)
    )
    stream_peak = _peak_bytes(
        lambda: _run_streamed_batched(length, profile, seed, configs)
    )
    return {
        "length": length,
        "mono_peak": mono_peak,
        "stream_peak": stream_peak,
        "memory_ratio": mono_peak / stream_peak,
    }


def _report_multi(app, numbers):
    print(
        f"\n{app} class D, {len(MULTI_CONFIGS)} configs in 2 frontend "
        f"groups: {numbers['length']} events"
        f" | peak mono {numbers['mono_peak'] / 2**20:.1f} MiB"
        f" vs stream {numbers['stream_peak'] / 2**20:.1f} MiB"
        f" ({numbers['memory_ratio']:.1f}x smaller)"
    )


def _report(app, numbers):
    print(
        f"\n{app} class D: {numbers['length']} events"
        f" | peak mono {numbers['mono_peak'] / 2**20:.1f} MiB"
        f" vs stream {numbers['stream_peak'] / 2**20:.1f} MiB"
        f" ({numbers['memory_ratio']:.1f}x smaller)"
        f" | wall mono {numbers['mono_wall']:.2f}s"
        f" vs stream {numbers['stream_wall']:.2f}s"
        f" ({numbers['wall_ratio']:.2f}x)"
    )


def bench_stream_class_d(benchmark):
    """Class-D streamed vs monolithic: memory and wall-time gates."""
    config = power5()
    numbers = benchmark.pedantic(
        lambda: _compare("fasta", config), rounds=1, iterations=1,
    )
    _report("fasta", numbers)
    assert numbers["memory_ratio"] >= MEMORY_FLOOR
    assert numbers["wall_ratio"] <= WALL_CEILING


def bench_stream_class_d_multi_config(benchmark):
    """Class-D batched stream, four configs: the memory gate."""
    numbers = benchmark.pedantic(
        lambda: _compare_multi("fasta", MULTI_CONFIGS),
        rounds=1, iterations=1,
    )
    _report_multi("fasta", numbers)
    assert numbers["memory_ratio"] >= MEMORY_FLOOR


def bench_stream_throughput(benchmark):
    """Streamed simulate throughput (events/sec) on a class-C stream."""
    config = power5()
    length, profile, seed = _class_d("fasta")
    length //= 4  # class C

    def run():
        return Core(config).simulate_stream(
            _segments(length, profile, seed)
        )

    seconds = benchmark.pedantic(
        lambda: _best_seconds(run, reps=3), rounds=1, iterations=1,
    )
    print(f"\nfasta streamed: {length / seconds / 1e3:.0f}k ev/s")


def _smoke() -> int:
    """CI smoke: equality plus the class-D gates on one app."""
    from repro.engine.serialize import result_to_dict

    app = "fasta"
    config = power5()
    length, profile, seed = _class_d(app)
    streamed = _run_streamed(length, profile, seed, config)
    monolithic = _run_monolithic(length, profile, seed, config)
    if result_to_dict(streamed) != result_to_dict(monolithic):
        print("FAIL: streamed simulation diverged from monolithic")
        return 1
    numbers = _compare(app, config)
    _report(app, numbers)
    if numbers["memory_ratio"] < MEMORY_FLOOR:
        print(
            f"FAIL: streamed peak only {numbers['memory_ratio']:.1f}x "
            f"below monolithic (need >= {MEMORY_FLOOR}x)"
        )
        return 1
    if numbers["wall_ratio"] > WALL_CEILING:
        print(
            f"FAIL: streamed wall {numbers['wall_ratio']:.2f}x "
            f"monolithic (need <= {WALL_CEILING}x)"
        )
        return 1
    streamed = _run_streamed_batched(length, profile, seed, MULTI_CONFIGS)
    monolithic = _run_monolithic_batched(
        length, profile, seed, MULTI_CONFIGS
    )
    if (
        [result_to_dict(r) for r in streamed.results]
        != [result_to_dict(r) for r in monolithic.results]
    ):
        print("FAIL: streamed batched simulation diverged from monolithic")
        return 1
    multi = _compare_multi(app, MULTI_CONFIGS)
    _report_multi(app, multi)
    if multi["memory_ratio"] < MEMORY_FLOOR:
        print(
            f"FAIL: streamed batched peak only "
            f"{multi['memory_ratio']:.1f}x below monolithic "
            f"(need >= {MEMORY_FLOOR}x)"
        )
        return 1
    print(
        "OK: streamed == monolithic, memory "
        f"{numbers['memory_ratio']:.1f}x smaller, wall "
        f"{numbers['wall_ratio']:.2f}x; {len(MULTI_CONFIGS)} configs "
        f"{multi['memory_ratio']:.1f}x smaller"
    )
    return 0


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        sys.exit(_smoke())
    print("usage: python benchmarks/bench_stream.py --smoke",
          file=sys.stderr)
    sys.exit(2)
