"""Trace-driven POWER5-like core timing model.

A scoreboard model in the SMARTS/SystemSim tradition: the functional
interpreter produces the committed-instruction stream, and this model
assigns each instruction fetch/issue/complete/commit cycles subject to:

* fetch bandwidth (``fetch_width``/cycle) and front-end redirects —
  direction mispredictions flush and refill the pipeline
  (``pipeline_depth`` cycles), correctly-predicted taken branches pay
  the POWER5's 2-cycle fetch bubble unless a confident BTAC supplies
  the next fetch address;
* register dependences (true RAW through the architected registers —
  renaming removes false dependences, as on POWER5);
* execution-unit structural limits: each unit class (FXU/LSU/BRU) can
  start ``count`` operations per cycle, scheduled out of order like
  POWER5's issue queues — the FXU count is the §VI-C experiment;
* a finite in-flight window (``window``): an instruction cannot issue
  until the instruction ``window`` slots ahead of it has committed;
* load latency through the L1D model;
* in-order commit of at most ``commit_width`` per cycle.

Each commit-gap cycle is attributed to the limiting resource of the
committing instruction, giving the CPI stack that Table I's
"completion stalls due to FXU" column reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.guards import guards_enabled
from repro.isa.instructions import Unit
from repro.isa.trace import Trace, TraceEvent
from repro.uarch.btac import Btac, BtacStats
from repro.uarch.cache import CacheStats, L1DCache
from repro.uarch.config import CoreConfig
from repro.uarch.guards import check_sim_result

#: Stall-limiter keys, in the timing replay's limiter-code order.
_LIMITERS = ("fetch", "dep", "fxu", "lsu", "bru", "cache")


def columnar_supported(static) -> bool:
    """Whether the packed per-event meta encoding covers ``static``.

    The timing engine (:mod:`repro.uarch.batched`) pads every source
    tuple to exactly three slots; the mini-ISA never reads more than
    three GPRs, but a hand-built static table could, and such tables
    must take the object-path reference instead.
    """
    return all(len(srcs) <= 3 for srcs in static.srcs)


@dataclass
class IntervalRecord:
    """Per-interval statistics for time-series plots (Figure 2)."""

    start_instruction: int
    instructions: int
    cycles: int
    branches: int
    direction_mispredictions: int

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def mispredict_rate(self) -> float:
        if self.branches == 0:
            return 0.0
        return self.direction_mispredictions / self.branches


@dataclass
class SimResult:
    """Aggregate outcome of one simulation."""

    instructions: int = 0
    cycles: int = 0
    branches: int = 0
    conditional_branches: int = 0
    taken_branches: int = 0
    direction_mispredictions: int = 0
    target_mispredictions: int = 0
    taken_bubbles: int = 0
    loads: int = 0
    stores: int = 0
    load_misses: int = 0
    fxu_ops: int = 0
    stall_cycles: dict[str, int] = field(default_factory=dict)
    cache: CacheStats = field(default_factory=CacheStats)
    btac: BtacStats | None = None
    intervals: list[IntervalRecord] = field(default_factory=list)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def branch_mispredict_rate(self) -> float:
        """Mispredicted branches / all branches (Table II column 2)."""
        if self.branches == 0:
            return 0.0
        return (
            self.direction_mispredictions + self.target_mispredictions
        ) / self.branches

    @property
    def direction_share(self) -> float:
        """Fraction of mispredictions due to wrong direction (Table I)."""
        total = self.direction_mispredictions + self.target_mispredictions
        if total == 0:
            return 0.0
        return self.direction_mispredictions / total

    @property
    def branch_fraction(self) -> float:
        """Branches / instructions (Table II column 1)."""
        if self.instructions == 0:
            return 0.0
        return self.branches / self.instructions

    @property
    def taken_fraction(self) -> float:
        """Taken branches / branches (Table II column 3)."""
        if self.branches == 0:
            return 0.0
        return self.taken_branches / self.branches

    @property
    def fxu_stall_fraction(self) -> float:
        """FXU-attributed commit-stall cycles / total cycles (Table I)."""
        if self.cycles == 0:
            return 0.0
        return self.stall_cycles.get("fxu", 0) / self.cycles

    def cpi_stack(self) -> dict[str, float]:
        """Cycle-share attribution ("CPI stack").

        Returns each limiter's share of total cycles plus a ``busy``
        component for cycles in which commit proceeded without a gap;
        the shares sum to 1.0.
        """
        if self.cycles == 0:
            return {"busy": 0.0}
        stack = {
            key: value / self.cycles
            for key, value in self.stall_cycles.items()
            if value > 0
        }
        stack["busy"] = max(0.0, 1.0 - sum(stack.values()))
        return stack


class Core:
    """One simulated core. Feed traces with :meth:`simulate`.

    The predictor, BTAC and cache persist across calls, so a warm-up
    trace can be simulated first and the statistics reset (SMARTS-style
    functional warming) via :meth:`reset_stats`.
    """

    def __init__(self, config: CoreConfig | None = None) -> None:
        self.config = config or CoreConfig()
        # The predictor laboratory sits above the uarch layer (its
        # registry imports this package), so resolve the spec lazily.
        from repro.bpred.predictors import make_predictor

        self.predictor = make_predictor(self.config.predictor)
        self.btac = Btac(self.config.btac) if self.config.btac else None
        self.cache = L1DCache(self.config.cache)

    def reset_stats(self) -> None:
        """Clear predictor/BTAC/cache statistics (keep learned state)."""
        self.predictor.reset_stats()
        self.cache.reset_stats()
        if self.btac is not None:
            self.btac.stats = BtacStats()

    def simulate(
        self,
        trace: Trace | list[TraceEvent],
        interval_size: int | None = None,
    ) -> SimResult:
        """Run the timing model over ``trace`` and return statistics.

        Columnar :class:`Trace` inputs (and their zero-copy slice
        views) run the timing engine of :mod:`repro.uarch.batched`: one
        frontend pass over this core's live predictor/BTAC/L1D plus a
        carried-state timing replay, segment by segment. Object-form
        lists, and static tables with more than three sources, take the
        object reference loop. Both produce identical results — the
        golden-equality tests assert it on every kernel.
        ``interval_size`` (committed instructions) enables the
        time-series records used by Figure 2.
        """
        if len(trace) == 0:
            raise SimulationError("cannot simulate an empty trace")
        if isinstance(trace, Trace) and columnar_supported(trace.static):
            from repro.uarch.batched import _SEGMENT_EVENTS, _simulate_stream

            return _simulate_stream(
                trace.segments(_SEGMENT_EVENTS), [self.config],
                interval_size, core=self,
            ).results[0]
        if isinstance(trace, Trace):
            trace = trace.to_events()
        result = self._simulate_events(trace, interval_size)
        if guards_enabled():
            check_sim_result(result, self.config)
        return result

    def _simulate_events(
        self,
        trace: list[TraceEvent],
        interval_size: int | None = None,
    ) -> SimResult:
        """Object-form reference implementation (one event per object).

        The one independent reference the timing engine is checked
        against; in production it only serves inputs the engine's
        packed encoding cannot represent.
        """
        config = self.config
        predictor = self.predictor
        btac = self.btac
        cache = self.cache

        fetch_width = config.fetch_width
        commit_width = config.commit_width
        depth = config.pipeline_depth
        taken_penalty = config.taken_branch_penalty

        reg_ready = [0] * 32
        # Per-unit-class issue bandwidth: usage[cycle] counts starts.
        unit_count = {
            Unit.FXU: config.fxu_count,
            Unit.LSU: config.lsu_count,
            Unit.BRU: config.bru_count,
        }
        unit_usage: dict[Unit, dict[int, int]] = {
            unit: {} for unit in unit_count
        }
        unit_floor = {unit: 0 for unit in unit_count}

        window = config.window
        window_commits = [0] * window
        window_pos = 0

        fetch_cycle = 0
        fetched_this_cycle = 0
        last_commit = 0
        committed_this_cycle = 0
        # BTAC is indexed by block *entrance* (§IV-D): the address the
        # current run of sequential fetch started at. A block whose exit
        # varies (several value-dependent branches inside) trains its
        # entry down until the BTAC forgoes prediction.
        block_start = trace[0].pc

        result = SimResult()
        # Only real limiters appear here; Unit.NONE instructions stall
        # as "fetch"/"dep", so a "none" key would just leak a dead zero
        # entry into cpi_stack() consumers.
        stall = {"fetch": 0, "dep": 0, "fxu": 0, "lsu": 0, "bru": 0,
                 "cache": 0}

        interval_start_instr = 0
        interval_start_cycle = 0
        interval_branches = 0
        interval_mispredicts = 0

        for event in trace:
            # ---- fetch ------------------------------------------------
            if fetched_this_cycle >= fetch_width:
                fetch_cycle += 1
                fetched_this_cycle = 0
            fetched_this_cycle += 1
            dispatch = fetch_cycle + depth
            # Finite in-flight window: wait for the instruction that
            # occupied this slot ``window`` instructions ago to commit.
            slot_free = window_commits[window_pos]
            if slot_free > dispatch:
                dispatch = slot_free

            # ---- issue ------------------------------------------------
            srcs = event.srcs
            if srcs:
                ready = max(reg_ready[s] for s in srcs)
            else:
                ready = 0
            wait_dep = max(dispatch, ready)
            limiter = "dep" if ready > dispatch else "fetch"

            unit = event.unit
            if unit is Unit.NONE:
                issue = wait_dep
            else:
                usage = unit_usage[unit]
                capacity = unit_count[unit]
                occupancy = event.occupancy
                cycle = wait_dep
                floor = unit_floor[unit]
                if cycle < floor:
                    cycle = floor
                if occupancy == 1:
                    while usage.get(cycle, 0) >= capacity:
                        cycle += 1
                    usage[cycle] = usage.get(cycle, 0) + 1
                else:
                    # Non-pipelined op (multiply): needs the unit free
                    # for its whole occupancy.
                    while any(
                        usage.get(cycle + k, 0) >= capacity
                        for k in range(occupancy)
                    ):
                        cycle += 1
                    for k in range(occupancy):
                        usage[cycle + k] = usage.get(cycle + k, 0) + 1
                if cycle > wait_dep:
                    limiter = unit.value
                issue = cycle
                if cycle == floor and usage[cycle] >= capacity:
                    while usage.get(floor, 0) >= capacity:
                        floor += 1
                    unit_floor[unit] = floor

            # ---- execute ----------------------------------------------
            latency = event.latency
            if event.is_load:
                result.loads += 1
                hit = cache.access(event.address)
                if hit:
                    latency = config.cache.hit_latency
                else:
                    latency = (
                        config.cache.hit_latency + config.cache.miss_penalty
                    )
                    result.load_misses += 1
                    limiter = "cache"
            elif event.is_store:
                result.stores += 1
                cache.access(event.address)
            complete = issue + latency
            dst = event.dst
            if dst is not None:
                reg_ready[dst] = complete

            if unit is Unit.FXU:
                result.fxu_ops += 1

            # ---- control flow -----------------------------------------
            if event.is_branch:
                result.branches += 1
                if event.taken:
                    result.taken_branches += 1
                mispredicted = False
                if event.is_conditional:
                    result.conditional_branches += 1
                    mispredicted = predictor.update(event.pc, event.taken)
                if mispredicted:
                    result.direction_mispredictions += 1
                    interval_mispredicts += 1
                    # Full flush: refetch starts after resolution.
                    fetch_cycle = complete + 1
                    fetched_this_cycle = 0
                elif event.taken:
                    # The taken bubble subsumes the group end; a BTAC
                    # hit reduces a taken branch to an ordinary
                    # end-of-group.
                    if btac is not None:
                        predicted_nia = btac.lookup(block_start)
                        if predicted_nia is None:
                            # Miss or forgone prediction: normal bubble.
                            fetch_cycle += taken_penalty
                            fetched_this_cycle = 0
                            result.taken_bubbles += 1
                        elif predicted_nia == event.next_pc:
                            btac.record_outcome(True)
                            fetched_this_cycle = fetch_width
                        else:
                            btac.record_outcome(False)
                            result.target_mispredictions += 1
                            # Wrong target caught at decode: a deeper
                            # bubble, not an execute-time flush.
                            fetch_cycle += (
                                config.btac.wrong_target_penalty
                            )
                            fetched_this_cycle = 0
                        btac.update(block_start, event.next_pc)
                    else:
                        fetch_cycle += taken_penalty
                        fetched_this_cycle = 0
                        result.taken_bubbles += 1
                else:
                    # Not-taken branch still ends its dispatch group
                    # (POWER5 group-formation rule).
                    fetched_this_cycle = fetch_width
                if event.taken or mispredicted:
                    block_start = event.next_pc
                interval_branches += 1

            # ---- commit -----------------------------------------------
            commit = complete if complete > last_commit else last_commit
            if commit == last_commit:
                committed_this_cycle += 1
                if committed_this_cycle > commit_width:
                    commit += 1
                    committed_this_cycle = 1
            else:
                committed_this_cycle = 1
            gap = commit - last_commit
            if gap > 0:
                stall[limiter] += gap
            last_commit = commit
            window_commits[window_pos] = commit
            window_pos += 1
            if window_pos == window:
                window_pos = 0
            result.instructions += 1

            # ---- intervals ---------------------------------------------
            if (
                interval_size is not None
                and result.instructions - interval_start_instr >= interval_size
            ):
                result.intervals.append(
                    IntervalRecord(
                        start_instruction=interval_start_instr,
                        instructions=result.instructions - interval_start_instr,
                        cycles=max(1, last_commit - interval_start_cycle),
                        branches=interval_branches,
                        direction_mispredictions=interval_mispredicts,
                    )
                )
                interval_start_instr = result.instructions
                interval_start_cycle = last_commit
                interval_branches = 0
                interval_mispredicts = 0

        result.cycles = last_commit + 1
        result.stall_cycles = stall
        result.cache = cache.stats
        if btac is not None:
            result.btac = btac.stats
        return result

    def simulate_stream(
        self,
        segments,
        interval_size: int | None = None,
    ) -> SimResult:
        """Run the timing model over an iterator of trace segments.

        ``segments`` yields columnar :class:`Trace` views/roots (or
        object-form event lists, converted on the fly) that tile one
        logical trace in order. All microarchitectural state — branch
        predictor, BTAC, L1D, register scoreboard, issue-queue usage,
        the in-flight commit window, fetch grouping and interval
        accounting — is carried across segment boundaries, so the
        result is **bit-identical** to :meth:`simulate` on the
        concatenated trace (the stream golden-equality matrix asserts
        it for every config, predictor kind and segment size). Peak
        memory is O(segment), not O(trace): each segment is released
        before the next is pulled from the iterator.
        """
        from repro.uarch.batched import _simulate_stream

        return _simulate_stream(
            segments, [self.config], interval_size, core=self
        ).results[0]


def simulate_trace(
    trace: list[TraceEvent],
    config: CoreConfig | None = None,
    interval_size: int | None = None,
) -> SimResult:
    """One-shot convenience: fresh :class:`Core`, one trace."""
    return Core(config).simulate(trace, interval_size=interval_size)
