"""The timing engine and the object reference must agree exactly.

Columnar traces run the timing engine (a frontend pass plus a
carried-state timing replay, :mod:`repro.uarch.batched`); the object
loop (``Core._simulate_events``) is the one independent reference.
This suite drives every kernel x code variant through both under every
interesting core configuration — BTAC on/off crossed with 2/3/4 FXUs —
and requires the *entire* serialised :class:`SimResult` to match,
intervals included. Any divergence in the engine (flag decoding,
dependency scoreboard, unit occupancy, branch redirect, stall
attribution, the native kernel's lane growth and bail-outs) fails here
first.
"""

import logging

import numpy as np
import pytest

from repro.bio.guidetree import upgma
from repro.bio.hmm import build_hmm
from repro.bio.msa import clustalw, pairwise_distance_matrix
from repro.bio.scoring import BLOSUM62, GapPenalties
from repro.bio.workloads import make_family, mutate
from repro.engine.serialize import result_to_dict
from repro.isa.instructions import Instruction, Op
from repro.isa.trace import Trace
from repro.kernels import (
    forward_pass,
    gapped_extend,
    parsimony,
    smith_waterman,
    viterbi,
)
from repro.kernels.runtime import ALL_VARIANTS
from repro.uarch.config import PREDICTOR_KINDS, power5
from repro.uarch.core import Core
from repro.uarch.synthetic import MixProfile, generate_trace

GAPS = GapPenalties(10, 2)

KERNELS = ("fasta", "clustalw", "blast", "hmmer", "phylip")

#: (label, config) for the design points the paper's figures sweep.
CONFIGS = tuple(
    (f"fxu{fxus}-{'btac' if btac else 'nobtac'}", config)
    for fxus in (2, 3, 4)
    for btac, config in (
        (False, power5().with_fxus(fxus)),
        (True, power5().with_fxus(fxus).with_btac()),
    )
)


def _kernel_events(kernel: str, variant: str) -> list:
    """A small-but-real dynamic trace for one kernel variant."""
    events: list = []
    if kernel == "fasta":
        family = make_family("ge-fa", 2, 28, 0.3, seed=51)
        smith_waterman.run(
            variant, family[0], family[1], BLOSUM62, GAPS, trace=events
        )
    elif kernel == "clustalw":
        family = make_family("ge-cw", 2, 24, 0.3, seed=52)
        forward_pass.run(
            variant, family[0], family[1], BLOSUM62, GAPS, trace=events
        )
    elif kernel == "blast":
        family = make_family("ge-bl", 2, 40, 0.25, seed=53)
        gapped_extend.run(
            variant, family[0], family[1], BLOSUM62, GapPenalties(11, 1),
            trace=events,
        )
    elif kernel == "hmmer":
        family = make_family("ge-hm", 4, 24, 0.2, seed=54)
        msa = clustalw(family)
        model = build_hmm(
            "ge-hm", list(msa.rows), msa.sequences[0].alphabet
        )
        query = mutate(family[0], "ge-q", 0.3)
        viterbi.run(variant, model, query, trace=events)
    elif kernel == "phylip":
        family = make_family("ge-ph", 5, 20, 0.3, seed=55)
        msa = clustalw(family)
        tree = upgma(
            np.asarray(pairwise_distance_matrix(family, method="ktuple"))
        )
        parsimony.run(
            variant, tree, list(msa.rows), family[0].alphabet.symbols,
            trace=events,
        )
    else:  # pragma: no cover
        raise AssertionError(kernel)
    return events


_trace_memo: dict = {}


def _wide_source_trace(trace: Trace) -> Trace:
    """A copy of ``trace`` whose first static entry reads four GPRs.

    The mini-ISA never reads more than three, so only a hand-built
    table like this one falls outside the engine's packed encoding.
    """
    wide = Trace()
    wide.extend(trace)
    wide.static.srcs[0] = (1, 2, 3, 4)
    return wide


def _traces(kernel: str, variant: str) -> tuple[list, Trace]:
    key = (kernel, variant)
    if key not in _trace_memo:
        events = _kernel_events(kernel, variant)
        _trace_memo[key] = (events, Trace.from_events(events))
    return _trace_memo[key]


class TestKernelGoldenEquality:
    @pytest.mark.parametrize("label,config", CONFIGS, ids=[c[0] for c in CONFIGS])
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_columnar_matches_object_path(self, kernel, variant, label, config):
        events, columnar = _traces(kernel, variant)
        golden = result_to_dict(Core(config).simulate(events))
        rewritten = result_to_dict(Core(config).simulate(columnar))
        assert rewritten == golden


class TestPredictorGoldenEquality:
    """Every registered predictor kind: columnar == object, exactly.

    The columnar loop inlines the default gshare but routes every other
    kind through ``predictor.update()``; both routes must still match
    the object reference path counter for counter.
    """

    @pytest.mark.parametrize("kind", PREDICTOR_KINDS)
    def test_kernel_trace_matches(self, kind):
        events, columnar = _traces("fasta", "baseline")
        config = power5().with_predictor(
            kind, table_bits=10, history_bits=8
        )
        golden = result_to_dict(Core(config).simulate(events))
        rewritten = result_to_dict(Core(config).simulate(columnar))
        assert rewritten == golden

    @pytest.mark.parametrize("kind", PREDICTOR_KINDS)
    def test_synthetic_mix_matches(self, kind):
        columnar = generate_trace(15_000, MixProfile(), seed=76)
        events = columnar.to_events()
        config = power5().with_btac().with_predictor(
            kind, table_bits=10, history_bits=8
        )
        golden = result_to_dict(Core(config).simulate(events))
        rewritten = result_to_dict(Core(config).simulate(columnar))
        assert rewritten == golden

    def test_default_spec_is_bit_identical_to_plain_power5(self):
        """An explicit default PredictorSpec must not perturb anything:
        same digest-relevant behaviour as the seed's gshare."""
        from repro.uarch.config import PredictorSpec

        events, columnar = _traces("fasta", "baseline")
        stock = result_to_dict(Core(power5()).simulate(columnar))
        explicit = result_to_dict(
            Core(
                power5().with_predictor(PredictorSpec())
            ).simulate(columnar)
        )
        assert explicit == stock


class TestSyntheticGoldenEquality:
    @pytest.mark.parametrize("label,config", CONFIGS, ids=[c[0] for c in CONFIGS])
    def test_synthetic_mix_matches(self, label, config):
        """The synthetic background mix exercises indirect branches and
        far memory that the kernels don't."""
        columnar = generate_trace(20_000, MixProfile(), seed=77)
        events = columnar.to_events()
        golden = result_to_dict(Core(config).simulate(events))
        rewritten = result_to_dict(Core(config).simulate(columnar))
        assert rewritten == golden

    def test_intervals_match(self):
        columnar = generate_trace(12_000, MixProfile(), seed=78)
        events = columnar.to_events()
        config = power5().with_btac()
        golden = result_to_dict(
            Core(config).simulate(events, interval_size=1_000)
        )
        rewritten = result_to_dict(
            Core(config).simulate(columnar, interval_size=1_000)
        )
        assert rewritten["intervals"] == golden["intervals"]
        assert rewritten == golden

    def test_view_simulates_like_materialized_slice(self):
        columnar = generate_trace(10_000, MixProfile(), seed=79)
        events = columnar.to_events()
        config = power5()
        golden = result_to_dict(Core(config).simulate(events[2_000:7_000]))
        rewritten = result_to_dict(
            Core(config).simulate(columnar[2_000:7_000])
        )
        assert rewritten == golden


class TestBatchedGoldenEquality:
    """``simulate_batched`` == N sequential object-reference runs.

    The batched path shares one frontend pass (predictor / BTAC / L1D)
    across every config in a frontend group and replays per-config
    timing from the recorded action stream; this matrix pins the whole
    serialised :class:`SimResult` — intervals included — to the object
    reference ``Core._simulate_events`` across predictor kinds, FXU
    counts and BTAC sizes, plus the reference fallback for wide static
    tables.
    """

    def _batched_vs_sequential(self, trace, configs, interval_size=None):
        from repro.uarch.batched import simulate_batched

        outcome = simulate_batched(trace, configs,
                                   interval_size=interval_size)
        events = trace.to_events()
        golden = [
            result_to_dict(
                Core(config)._simulate_events(events, interval_size)
            )
            for config in configs
        ]
        assert [result_to_dict(r) for r in outcome.results] == golden
        return outcome

    @pytest.mark.parametrize("kind", PREDICTOR_KINDS)
    def test_predictor_kinds_batched(self, kind):
        _, trace = _traces("fasta", "baseline")
        configs = [
            power5().with_fxus(fxus).with_predictor(
                kind, table_bits=10, history_bits=8
            )
            for fxus in (2, 3, 4)
        ]
        outcome = self._batched_vs_sequential(trace, configs)
        # Timing-only variation: one frontend group, everything batched.
        assert outcome.vectorized == len(configs)

    def test_fxu_and_btac_matrix_batched(self):
        """FXU counts x BTAC sizes: several frontend groups, one call."""
        from repro.uarch.config import BtacConfig

        _, trace = _traces("blast", "baseline")
        configs = [
            power5().with_fxus(fxus).with_btac(
                BtacConfig(entries=entries)
            )
            for fxus in (2, 3, 4)
            for entries in (8, 16)
        ]
        # Two BTAC sizes -> two frontend groups of three timing configs.
        self._batched_vs_sequential(trace, configs)

    def test_intervals_batched(self):
        trace = generate_trace(12_000, MixProfile(), seed=78)
        configs = [power5().with_fxus(fxus) for fxus in (2, 3, 4)]
        self._batched_vs_sequential(trace, configs, interval_size=1_000)

    def test_ragged_batch_mixes_vectorized_and_fallback(self):
        """A singleton frontend group (the perceptron point) takes the
        engine like the shared group; only a static table with more
        than three sources falls back, to the object reference."""
        _, trace = _traces("fasta", "baseline")
        configs = [
            power5().with_fxus(2),
            power5().with_fxus(3),
            power5().with_fxus(4),
            power5().with_predictor(
                "perceptron", table_bits=10, history_bits=8
            ),
        ]
        outcome = self._batched_vs_sequential(trace, configs)
        assert outcome.batched == [True, True, True, True]

        wide = _wide_source_trace(trace[:3_000])
        outcome = self._batched_vs_sequential(wide, configs)
        assert outcome.vectorized == 0
        assert outcome.fallback == len(configs)

    def test_python_replay_matches_without_native_kernel(self, monkeypatch):
        """REPRO_NATIVE=off pins the pure-Python timing replay."""
        monkeypatch.setenv("REPRO_NATIVE", "off")
        trace = generate_trace(8_000, MixProfile(), seed=80)
        configs = [power5().with_fxus(fxus) for fxus in (2, 4)]
        outcome = self._batched_vs_sequential(trace, configs)
        assert not outcome.native
        assert outcome.vectorized == len(configs)


def _occupancy_trace(occupancy: int, pattern: tuple[Op, ...],
                     repeats: int) -> Trace:
    """Independent multiplies (plus filler adds) whose non-pipelined
    multiply occupies an FXU for ``occupancy`` cycles — a hand-built
    static table; the ISA's own multiply occupies 5."""
    trace = Trace()
    pc = 0
    for _ in range(repeats):
        for op in pattern:
            trace.append(pc, Instruction(op, rd=3, ra=1, rb=2), False,
                         pc + 1, None)
            pc += 1
    trace.static.occupancies[trace.sid[0]] = occupancy  # the multiply
    return trace


class _KernelSpy:
    """Records the native kernel's return values."""

    def __init__(self, fn):
        self.fn = fn
        self.returns: list[int] = []

    def __call__(self, *args):
        value = self.fn(*args)
        self.returns.append(value)
        return value


class TestNativeEdgePaths:
    """The native replay's lane-growth retry and bail-outs, pinned to
    the object reference monolithically and streamed. Without the
    native kernel (REPRO_NATIVE=off, no compiler) the same traces pin
    the Python replay."""

    @pytest.fixture
    def spy(self, monkeypatch):
        from repro.uarch import batched

        fn = batched._native_kernel()
        if fn is None:
            return None
        spy = _KernelSpy(fn)
        monkeypatch.setattr(batched, "_native_kernel", lambda: spy)
        return spy

    def _assert_all_paths_match(self, trace, spy, caplog):
        """Returns the kernel's return values on the monolithic run."""
        config = power5()
        golden = result_to_dict(
            Core(config)._simulate_events(trace.to_events())
        )
        with caplog.at_level(logging.DEBUG, logger="repro.uarch.batched"):
            assert result_to_dict(Core(config).simulate(trace)) == golden
            monolithic = list(spy.returns) if spy else None
            for size in (1, 997):
                streamed = Core(config).simulate_stream(
                    trace.segments(size)
                )
                assert result_to_dict(streamed) == golden, size
        return monolithic

    def test_occupancy_95_grows_the_usage_lanes(self, spy, caplog):
        # Half the events block an FXU for 95 cycles: ~24 cycles per
        # event overflows the first 8n+4096 lanes, the 4x retry fits.
        trace = _occupancy_trace(95, (Op.MUL, Op.ADD), 1_500)
        returns = self._assert_all_paths_match(trace, spy, caplog)
        if spy:
            assert returns == [-1, 0]
            assert not caplog.records

    def test_occupancy_95_overflow_replays_in_python(self, spy, caplog):
        # Every event blocks an FXU for 95 cycles: ~48 cycles per event
        # outgrows the 4x retry too, so the segment replays in Python.
        trace = _occupancy_trace(95, (Op.MUL,), 3_000)
        returns = self._assert_all_paths_match(trace, spy, caplog)
        if spy:
            assert returns == [-1, -1]
            assert any(
                "overflow" in r.getMessage() for r in caplog.records
            )

    def test_occupancy_96_bails_out_to_python(self, spy, caplog):
        trace = _occupancy_trace(96, (Op.MUL, Op.ADD), 1_500)
        returns = self._assert_all_paths_match(trace, spy, caplog)
        if spy:
            assert returns == []
            assert any(
                "occupancy 96" in r.getMessage() for r in caplog.records
            )
