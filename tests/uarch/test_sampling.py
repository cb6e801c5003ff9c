"""Tests for SMARTS-style sampling."""

import pytest

from repro.engine.serialize import result_to_dict
from repro.errors import SimulationError
from repro.uarch.config import PREDICTOR_KINDS, power5
from repro.uarch.core import Core, simulate_trace
from repro.uarch.sampling import (
    SamplingPlan,
    merge_results,
    simulate_sampled,
)
from repro.uarch.synthetic import MixProfile, generate_trace


@pytest.fixture(scope="module")
def trace():
    return generate_trace(60_000, MixProfile(), seed=4)


class TestPlan:
    def test_windows_cover_expected_spans(self):
        plan = SamplingPlan(period=100, window=20, offset=10)
        assert plan.windows(250) == [(10, 30), (110, 130), (210, 230)]

    def test_validation(self):
        with pytest.raises(SimulationError):
            SamplingPlan(period=0)
        with pytest.raises(SimulationError):
            SamplingPlan(period=10, window=20)
        with pytest.raises(SimulationError):
            SamplingPlan(offset=-1)

    def test_full_detail_degenerate_plan(self):
        plan = SamplingPlan(period=10, window=10)
        assert plan.windows(25) == [(0, 10), (10, 20), (20, 25)]


class TestSampledSimulation:
    def test_sampled_close_to_full(self, trace):
        full = simulate_trace(trace, power5())
        sampled = simulate_sampled(
            trace, power5(), SamplingPlan(period=10_000, window=3_000)
        )
        assert sampled.instructions < full.instructions
        # IPC estimate within 15% of full detailed simulation.
        assert abs(sampled.ipc - full.ipc) / full.ipc < 0.15

    def test_mispredict_rate_close_to_full(self, trace):
        full = simulate_trace(trace, power5())
        sampled = simulate_sampled(
            trace, power5(), SamplingPlan(period=10_000, window=3_000)
        )
        assert abs(
            sampled.branch_mispredict_rate - full.branch_mispredict_rate
        ) < 0.05

    def test_btac_stats_merged(self, trace):
        sampled = simulate_sampled(
            trace,
            power5().with_btac(),
            SamplingPlan(period=20_000, window=5_000),
        )
        assert sampled.btac is not None
        assert sampled.btac.lookups > 0

    def test_short_trace_measured_fully(self):
        trace = generate_trace(500, seed=1)
        plan = SamplingPlan(period=100_000, window=10_000, offset=1_000)
        result = simulate_sampled(trace, power5(), plan)
        assert result.instructions == 500

    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError):
            simulate_sampled([], power5())


class TestEdgeCases:
    def test_offset_beyond_trace_measures_everything(self):
        """offset >= len(trace): fall back to full measurement."""
        trace = generate_trace(800, seed=2)
        plan = SamplingPlan(period=10_000, window=1_000, offset=800)
        result = simulate_sampled(trace, power5(), plan)
        full = simulate_trace(trace, power5())
        assert result.instructions == 800
        assert result.cycles == full.cycles

    def test_window_equal_to_period_is_full_detail(self):
        """window == period: every instruction is measured, none warmed."""
        trace = generate_trace(9_000, seed=3)
        plan = SamplingPlan(period=3_000, window=3_000)
        sampled = simulate_sampled(trace, power5(), plan)
        full = simulate_trace(trace, power5())
        assert sampled.instructions == full.instructions
        assert sampled.branches == full.branches
        assert sampled.loads == full.loads
        # Cycles differ only by per-window pipeline restart effects.
        assert abs(sampled.cycles - full.cycles) / full.cycles < 0.02

    def test_sampled_ipc_within_tolerance_with_btac(self, trace):
        full = simulate_trace(trace, power5().with_btac())
        sampled = simulate_sampled(
            trace,
            power5().with_btac(),
            SamplingPlan(period=10_000, window=3_000),
        )
        assert abs(sampled.ipc - full.ipc) / full.ipc < 0.15

    def test_object_and_columnar_traces_sample_identically(self, trace):
        """Warm-up, reset_stats and measured windows on one live core:
        the engine must leave the predictor/BTAC/cache exactly as the
        object reference does, so the whole merged payload agrees for
        every predictor kind, BTAC on and off."""
        plan = SamplingPlan(period=10_000, window=2_500, offset=500)
        events = trace.to_events()
        for kind in PREDICTOR_KINDS:
            for btac in (False, True):
                config = power5().with_predictor(
                    kind, table_bits=10, history_bits=8
                )
                if btac:
                    config = config.with_btac()
                columnar = simulate_sampled(trace, config, plan)
                objects = simulate_sampled(events, config, plan)
                assert result_to_dict(columnar) == result_to_dict(
                    objects
                ), (kind, btac)


class TestMergeResults:
    def test_intervals_rebased_onto_merged_axis(self):
        """Figure 2's time axis must be monotonic across components."""
        core = Core(power5())
        first = core.simulate(generate_trace(4_000, seed=11),
                              interval_size=1_000)
        core.reset_stats()
        second = core.simulate(generate_trace(3_000, seed=12),
                               interval_size=1_000)
        merged = merge_results([first, second])
        starts = [record.start_instruction for record in merged.intervals]
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)
        # The second component's intervals start after the first's
        # instruction count, not back at zero.
        assert starts[len(first.intervals)] >= first.instructions

    def test_merge_preserves_component_interval_shape(self):
        core = Core(power5())
        first = core.simulate(generate_trace(2_500, seed=13),
                              interval_size=500)
        core.reset_stats()
        second = core.simulate(generate_trace(2_500, seed=14),
                               interval_size=500)
        merged = merge_results([first, second])
        assert len(merged.intervals) == (
            len(first.intervals) + len(second.intervals)
        )
        for before, after in zip(
            first.intervals + second.intervals, merged.intervals
        ):
            assert after.instructions == before.instructions
            assert after.cycles == before.cycles
            assert after.branches == before.branches
