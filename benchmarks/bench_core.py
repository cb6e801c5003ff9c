"""Core benchmarks: the production timing engine vs the object reference.

Throughput (simulated events/sec) on fig3-sized kernel traces for the
production paths:

* ``simulate`` — ``Core.simulate`` on a columnar trace (the timing
  engine: one frontend pass plus the carried-state replay, native when
  a C compiler is available) vs the same core driven by the equivalent
  ``list[TraceEvent]`` (the object reference loop). Speedup is printed
  per kernel and asserted >= 2x (the floor leaves headroom for loaded
  CI machines and for hosts on the Python replay).
* ``replay`` — the full trace-replay pipeline as a design-space sweep
  pays it: tracestore load + simulate. v1 text + object simulation vs
  v2 binary + engine simulation, asserted >= 3x faster (the v1 parser
  builds one TraceEvent per line).
* ``sampled`` / ``warm`` — ``simulate_sampled`` under the default
  plan and the mask-skipping functional warmer on the cold stretches.

Each benchmark prints events/sec so ``pytest benchmarks/bench_core.py
--benchmark-only -s`` doubles as the throughput report.

Run as a script for the CI smoke check::

    PYTHONPATH=src python benchmarks/bench_core.py --smoke

which verifies engine == object simulation on the smallest kernel and
reports the throughput of both paths.
"""

import sys
import time

import pytest

from repro.isa.trace import Trace
from repro.isa.tracestore import (
    load_trace,
    load_trace_columnar,
    save_trace,
    save_trace_v2,
)
from repro.perf.characterize import kernel_trace
from repro.uarch.config import power5
from repro.uarch.core import Core
from repro.uarch.sampling import SamplingPlan, _warm, simulate_sampled

KERNELS = ("fasta", "blast", "hmmer", "clustalw")

#: kernel -> (columnar trace, equivalent event objects), built once.
_TRACES: dict = {}


def _fixture(kernel):
    if kernel not in _TRACES:
        trace = kernel_trace(kernel, "baseline")
        if not isinstance(trace, Trace):  # pragma: no cover - legacy
            trace = Trace.from_events(trace)
        _TRACES[kernel] = (trace, trace.to_events())
    return _TRACES[kernel]


def _best_events_per_sec(fn, n_events, reps=5):
    """Best-of-N wall time -> events/sec (min is the least noisy)."""
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return n_events / best


@pytest.mark.parametrize("kernel", KERNELS)
def bench_core_simulate(benchmark, kernel):
    """Core.simulate: the timing engine vs the object reference."""
    trace, events = _fixture(kernel)
    config = power5()
    n = len(trace)

    object_rate = _best_events_per_sec(
        lambda: Core(config).simulate(events), n
    )
    engine_rate = benchmark.pedantic(
        lambda: _best_events_per_sec(
            lambda: Core(config).simulate(trace), n
        ),
        rounds=1,
        iterations=1,
    )
    speedup = engine_rate / object_rate
    print(
        f"\n{kernel}: {n} events | object {object_rate / 1e3:.0f}k ev/s"
        f" | engine {engine_rate / 1e3:.0f}k ev/s"
        f" | speedup {speedup:.2f}x"
    )
    assert speedup >= 2.0, (
        f"engine simulate only {speedup:.2f}x the object path on "
        f"{kernel} (expected >= 2x)"
    )


@pytest.mark.parametrize("kernel", KERNELS)
def bench_core_replay(benchmark, kernel, tmp_path):
    """Full replay (tracestore load + simulate), v1/object vs v2/engine."""
    trace, events = _fixture(kernel)
    config = power5()
    n = len(trace)
    v1_path = tmp_path / f"{kernel}.v1.trace"
    v2_path = tmp_path / f"{kernel}.v2.trace"
    save_trace(v1_path, events)
    save_trace_v2(v2_path, trace)

    baseline_rate = _best_events_per_sec(
        lambda: Core(config).simulate(load_trace(v1_path)), n, reps=3
    )
    engine_rate = benchmark.pedantic(
        lambda: _best_events_per_sec(
            lambda: Core(config).simulate(load_trace_columnar(v2_path)),
            n,
            reps=3,
        ),
        rounds=1,
        iterations=1,
    )
    speedup = engine_rate / baseline_rate
    print(
        f"\n{kernel}: replay v1+object {baseline_rate / 1e3:.0f}k ev/s"
        f" | v2+engine {engine_rate / 1e3:.0f}k ev/s"
        f" | speedup {speedup:.2f}x"
    )
    assert speedup >= 3.0, (
        f"v2 engine replay only {speedup:.2f}x the v1 object "
        f"pipeline on {kernel} (expected >= 3x)"
    )


def bench_core_simulate_sampled(benchmark):
    """simulate_sampled under the default plan on a fig3-sized trace."""
    trace, _ = _fixture("blast")
    config = power5()
    plan = SamplingPlan(period=50_000, window=10_000)
    n = len(trace)

    rate = benchmark.pedantic(
        lambda: _best_events_per_sec(
            lambda: simulate_sampled(trace, config, plan), n, reps=3
        ),
        rounds=1,
        iterations=1,
    )
    print(f"\nblast sampled: {rate / 1e3:.0f}k trace-events/s")
    result = simulate_sampled(trace, config, plan)
    assert result.instructions > 0


def bench_core_warm(benchmark):
    """Functional warming throughput (mask-skipped columnar walk)."""
    trace, _ = _fixture("blast")
    n = len(trace)

    def warm_once():
        _warm(Core(power5()), trace)

    rate = benchmark.pedantic(
        lambda: _best_events_per_sec(warm_once, n),
        rounds=1,
        iterations=1,
    )
    print(f"\nblast warm: {rate / 1e3:.0f}k ev/s")


def _smoke() -> int:
    """CI smoke: engine == object simulation on the smallest kernel."""
    from repro.engine.serialize import result_to_dict

    trace, events = _fixture("clustalw")
    config = power5()
    n = len(trace)
    engine = Core(config).simulate(trace)
    objects = Core(config).simulate(events)
    if result_to_dict(engine) != result_to_dict(objects):
        print("FAIL: engine simulation diverged from the object path")
        return 1
    engine_rate = _best_events_per_sec(
        lambda: Core(config).simulate(trace), n, reps=3
    )
    object_rate = _best_events_per_sec(
        lambda: Core(config).simulate(events), n, reps=3
    )
    print(
        f"clustalw: {n} events | object {object_rate / 1e3:.0f}k ev/s | "
        f"engine {engine_rate / 1e3:.0f}k ev/s"
    )
    print("OK: engine simulation matches the object path exactly")
    return 0


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        sys.exit(_smoke())
    print("usage: python benchmarks/bench_core.py --smoke", file=sys.stderr)
    sys.exit(2)
