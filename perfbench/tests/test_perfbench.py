"""Tests for the benchmark's own code.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench/tests -q

The span tests run one traced repetition of each workload, so the
module takes a few minutes (more on the first run in a checkout, which
builds the stores under ``.bench_build/perfbench``).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: Layers each workload must record spans for (the "should move" cells
#: of the layer table in README.md), and layers it must never enter.
WORKING = {
    "paper_cold": {"interpret", "generate", "encode", "core", "batched",
                   "stream.wait", "cache.read", "cache.write", "journal",
                   "engine", "profile", "llc", "bpred", "accel"},
    "paper_warm": {"interpret", "decode", "core", "cache.read",
                   "serialize", "journal", "engine", "profile", "llc"},
    "sweep_dse": {"batched", "decode", "stream.wait", "cache.read",
                  "cache.write", "serialize", "journal", "engine"},
}
IDLE = {
    "paper_cold": set(),
    "paper_warm": {"generate", "encode"},
    "sweep_dse": {"generate", "encode", "core", "interpret"},
}


@pytest.fixture(scope="module")
def golden():
    return workloads.load_golden()


@pytest.fixture(scope="module")
def built():
    run.WORK.mkdir(parents=True, exist_ok=True)
    return run.stores()


@pytest.fixture(scope="module")
def traced(built):
    """One traced repetition of every workload, at the pinned seed."""
    warm, traces = built
    store = {"paper_cold": None, "paper_warm": warm, "sweep_dse": traces}
    return {
        name: run.spawn(name, workloads.DEFAULT_SEED,
                        time.monotonic() + 600, store=store[name],
                        trace=1, recheck=True)
        for name in workloads.WORKLOADS
    }


# -- spans -------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_predicted_layers_record_spans(traced, workload):
    layers = set(traced[workload]["self_times"])
    assert WORKING[workload] <= layers, WORKING[workload] - layers
    assert not IDLE[workload] & layers, IDLE[workload] & layers


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_add_up_to_traced_wall(traced, workload):
    report = traced[workload]
    main = sum(per["main"] for per in report["self_times"].values())
    assert main + report["layers"]["unattributed_s"] == pytest.approx(
        report["wall_s"], abs=1e-9)
    assert report["layers"]["unattributed_s"] >= 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runs_pass_the_gate(traced, golden, workload):
    assert run.failures(traced[workload], golden) == 0


def test_sweep_never_falls_back_to_the_scalar_core(traced):
    layers = traced["sweep_dse"]["layers"]
    assert layers["batched.fallback_configs"] == 0
    assert layers["core.busy_s"] == 0
    assert layers["engine.points"] == len(
        workloads.sweep_points(workloads.DEFAULT_SEED))


def test_self_time_accounting_across_threads():
    tracer = tracing.Tracer()
    started = time.perf_counter()
    outer = tracer.begin("engine")
    inner = tracer.begin("core")
    time.sleep(0.02)

    def produce():
        span = tracer.begin("decode")
        time.sleep(0.03)
        tracer.finish(span)

    producer = threading.Thread(target=produce)
    producer.start()
    producer.join(timeout=5)
    assert not producer.is_alive()
    tracer.finish(inner)
    time.sleep(0.01)
    tracer.finish(outer)
    time.sleep(0.01)
    wall = time.perf_counter() - started

    times = tracing.self_times(tracer)
    assert times["decode"] == {"main": 0.0,
                               "producer": pytest.approx(
                                   tracer.spans[2].duration)}
    assert times["engine"]["main"] == pytest.approx(
        outer.duration - inner.duration)
    metrics = tracing.layer_metrics(tracer, wall)
    main = sum(per["main"] for per in times.values())
    assert main + metrics["unattributed_s"] == pytest.approx(wall)
    assert metrics["producer.busy_s"] == pytest.approx(
        tracer.spans[2].duration)


def test_instrument_rebinds_aliases_and_restores():
    import repro.engine.cache as cache_module
    import repro.isa.tracestore as tracestore

    original = tracestore.open_trace_segments
    restore = tracing.instrument(tracing.Tracer())
    try:
        assert tracestore.open_trace_segments is not original
        assert cache_module.open_trace_segments \
            is tracestore.open_trace_segments
    finally:
        restore()
    assert tracestore.open_trace_segments is original
    assert cache_module.open_trace_segments is original


# -- the correctness gate ----------------------------------------------------

def test_gate_fails_when_one_payload_byte_changes(traced, built, golden,
                                                  tmp_path):
    from repro.engine import serialize
    from repro.engine.cache import use_cache_dir
    from repro.engine.digest import result_payload_digest
    from repro.engine.engine import Engine

    digests = traced["sweep_dse"]["digests"]
    seed = workloads.DEFAULT_SEED
    assert workloads.sweep_failures(seed, digests, golden, {}) == 0

    _warm, traces = built
    shutil.copytree(traces, tmp_path / "cache")
    use_cache_dir(tmp_path / "cache")
    try:
        app, variant, config = workloads.sweep_points(seed)[0]
        result = Engine(cache_dir=tmp_path / "results").characterize(
            app, variant, config)
    finally:
        use_cache_dir(None)
    text = json.dumps(serialize.characterisation_to_dict(result),
                      sort_keys=True, separators=(",", ":"))
    assert result_payload_digest(json.loads(text)) == digests[0]

    # The last digit of a cycle count: flipping it keeps the JSON valid.
    position = re.search(r'"cycles":\d+', text).end() - 1
    flipped = text[:position] + str((int(text[position]) + 1) % 10) \
        + text[position + 1:]
    perturbed = list(digests)
    perturbed[0] = result_payload_digest(json.loads(flipped))
    assert perturbed[0] != digests[0]
    assert workloads.sweep_failures(seed, perturbed, golden, {}) \
        == len(digests)
    # Off the pinned seed, the unbatched recheck catches the same change.
    assert workloads.sweep_failures(seed + 1, perturbed, golden,
                                    {0: digests[0]}) == 1


def test_gate_fails_on_a_changed_or_missing_render(traced, golden):
    renders = dict(traced["paper_warm"]["render_digests"])
    assert workloads.experiment_failures(renders, golden) == []
    text = "Figure 5 - Effect of additional fixed-point units"
    renders["fig5"] = workloads.text_digest(text)
    renders["fig3"] = None
    assert workloads.experiment_failures(renders, golden) == ["fig3", "fig5"]
    renders = dict(traced["paper_warm"]["render_digests"])
    renders["fig1"] = workloads.text_digest(text)
    assert workloads.experiment_failures(renders, golden) == []


# -- inputs and contract -----------------------------------------------------

def test_same_seed_gives_the_same_sweep_points():
    from repro.uarch.batched import frontend_key

    points = workloads.sweep_points(5)
    assert points == workloads.sweep_points(5)
    assert points != workloads.sweep_points(6)
    assert len(points) == len(workloads.APPS) * len(workloads.VARIANTS) \
        * workloads.GROUPS_PER_TRACE * workloads.KNOBS_PER_GROUP
    groups: dict = {}
    for app, variant, config in points:
        key = (app, variant, frontend_key(config))
        groups[key] = groups.get(key, 0) + 1
    # No singleton frontend group, so nothing falls back to the scalar
    # core, and every trace gets the same number of frontend passes.
    assert set(groups.values()) == {workloads.KNOBS_PER_GROUP}
    assert workloads.recheck_sample(5, len(points)) \
        == workloads.recheck_sample(5, len(points))


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] \
        == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER_METRICS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
