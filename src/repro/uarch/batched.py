"""The timing engine: one frontend pass per group, carried-state replay.

Every simulation of a columnar trace runs here — :meth:`Core.simulate`
and :meth:`Core.simulate_stream` at one config, :func:`simulate_batched`
and :func:`simulate_batched_stream` at N. The model factorizes cleanly:

* **Frontend state** — branch-direction predictor, BTAC and L1D —
  evolves from the *trace alone*. ``predictor.update(pc, taken)``
  consumes the traced outcome, the BTAC trains on traced next-PCs, and
  the cache is indexed by traced addresses. None of it reads a timing
  parameter, so every config sharing a (predictor spec, BTAC geometry,
  cache geometry) triple sees byte-identical predictor/BTAC/cache
  behaviour.
* **Timing state** — fetch/dispatch cycles, the register scoreboard,
  per-unit issue bandwidth, the in-flight window and the commit stream
  — depends on the per-config machine shape, but consumes the frontend
  only through a tiny per-event summary: which branch action fired and
  whether a load hit.

Configs are partitioned into *frontend groups*; each group walks every
segment **once** in a shared frontend pass that emits a per-event
action byte, then the timing recurrence is replayed once per config.
The replay resumes from a per-config carried state — register
scoreboard, unit floors, fetch and commit grouping, stall counters, the
last ``window`` commits, the interval cursor and the issue-usage lanes
rebased at the probe horizon — so a stream is replayed segment by
segment in O(segment) memory, bit-identical to one monolithic pass.
When a C toolchain is available the replay is compiled once per
process (``cc -O2 -shared``) and driven through :mod:`ctypes`;
``REPRO_NATIVE=off`` forces the pure-Python replay (same results).

Reference and fallbacks: ``Core._simulate_events``, the object-form
loop, is the one independent reference; the golden, stream and batched
equality matrices pin this engine to it. Only inputs the packed
encoding cannot represent take the reference in production: object-form
event lists and static tables with more than three sources. A segment
the native kernel cannot cover — an occupancy of 96 or more, beyond
its lane margin, or a usage lane that still overflows after one 4x
growth — is replayed in Python from the same carried state, with a
DEBUG record on this module's logger; a failed kernel build logs one
WARNING.

The per-event action byte (uint8 semantics, carried as int64):

====  =======================================================
bits  meaning
====  =======================================================
0-2   branch action: 0 none, 1 mispredict flush, 2 taken
      bubble, 3 group end (not-taken or correct BTAC target),
      4 wrong BTAC target
3     load hit (latency becomes ``hit_latency``)
4     load miss (latency becomes ``hit+miss``; limiter=cache)
====  =======================================================
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from repro.errors import SimulationError
from repro.guards import guards_enabled
from repro.isa.instructions import UNIT_INDEX, Unit
from repro.isa.trace import F_BRANCH, F_COND, F_LOAD, F_TAKEN, Trace
from repro.uarch.branch_predictor import GsharePredictor
from repro.uarch.btac import Btac
from repro.uarch.cache import WORD_BYTES, L1DCache
from repro.uarch.config import CoreConfig
from repro.uarch.core import (
    _LIMITERS,
    Core,
    IntervalRecord,
    SimResult,
    columnar_supported,
)
from repro.uarch.guards import check_sim_result

logger = logging.getLogger(__name__)

_FXU = UNIT_INDEX[Unit.FXU]

#: Branch-action codes (bits 0-2 of the per-event action byte).
_A_MISPREDICT = 1
_A_TAKEN_BUBBLE = 2
_A_GROUP_END = 3
_A_WRONG_TARGET = 4
#: Load-outcome bits.
_A_LOAD_HIT = 8
_A_LOAD_MISS = 16

#: Events per replayed segment when a whole trace is simulated; the
#: engine's working set is O(segment), whatever the trace length.
_SEGMENT_EVENTS = 65536

#: Occupancies at or above this exceed the native kernel's lane margin.
_NATIVE_MAX_OCCUPANCY = 96

#: Carried timing-state block, one int64 row per config. The native
#: kernel's ``S_*`` defines mirror these offsets.
_S_REG = 0  # reg_ready[34]: 32 GPRs, dummy source 32, dummy sink 33
_S_FLOOR = 34  # per-unit full-cycle floors [3]
_S_LANE_TOP = 37  # highest issue-usage cycle ever touched, -1 if none
_S_DISPATCH = 38  # dispatch_base (fetch cycle + pipeline depth)
_S_FETCHED = 39
_S_LAST_COMMIT = 40
_S_COMMITTED = 41
_S_STALL = 42  # stall cycles per limiter [6]
_S_BOUNDARY = 48  # next interval boundary (global position), -1 if none
_STATE_SIZE = 49


def frontend_key(config: CoreConfig) -> tuple:
    """Group key: configs with equal keys share one frontend pass.

    Only state-*shaping* parameters participate. Timing-side knobs —
    BTAC ``wrong_target_penalty``, cache ``hit_latency`` and
    ``miss_penalty`` — are excluded on purpose: the frontend emits
    hit/miss and branch-action facts, not resolved latencies, so a
    latency sweep still shares a single pass.
    """
    btac = config.btac
    btac_key = (
        None
        if btac is None
        else (btac.entries, btac.score_bits, btac.score_threshold,
              btac.initial_score)
    )
    cache = config.cache
    return (
        config.predictor,
        btac_key,
        (cache.size_bytes, cache.line_bytes, cache.ways),
    )


@dataclass
class BatchOutcome:
    """What ``simulate_batched`` did, point by point."""

    results: list[SimResult]
    #: Per config: True when the frontend pass + timing replay produced
    #: the result, False when the input could only take the object-form
    #: reference (event lists, static tables with > 3 sources).
    batched: list[bool]
    #: Whether the native replay kernel ran (vs the Python replay).
    native: bool

    @property
    def vectorized(self) -> int:
        return sum(self.batched)

    @property
    def fallback(self) -> int:
        return len(self.batched) - self.vectorized


# --------------------------------------------------------------------
# Static-table meta: per-event replay columns of one segment.
# --------------------------------------------------------------------


@dataclass
class _StaticMeta:
    """Per-event meta columns of one segment, as int64 arrays."""

    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray
    unit: np.ndarray
    occ: np.ndarray
    lat: np.ndarray
    dst: np.ndarray
    fxu_ops: int
    n: int

    def columns(self) -> tuple[np.ndarray, ...]:
        return (self.s1, self.s2, self.s3, self.unit, self.occ,
                self.lat, self.dst)


def _static_tables(static) -> tuple[np.ndarray, ...]:
    """Per-static (s1, s2, s3, unit, occ, lat, dst) lookup arrays.

    Sources pad to exactly three with the dummy always-zero slot 32;
    "no destination" becomes the dummy sink slot 33, so the replay
    never branches on either.
    """
    s1_t, s2_t, s3_t, dst_t = [], [], [], []
    for srcs, dst in zip(static.srcs, static.dsts):
        s1_t.append(srcs[0] if len(srcs) > 0 else 32)
        s2_t.append(srcs[1] if len(srcs) > 1 else 32)
        s3_t.append(srcs[2] if len(srcs) > 2 else 32)
        dst_t.append(dst if dst >= 0 else 33)
    return tuple(
        np.asarray(table, dtype=np.int64)
        for table in (s1_t, s2_t, s3_t, static.units, static.occupancies,
                      static.latencies, dst_t)
    )


def _static_meta(trace: Trace, tables: tuple[np.ndarray, ...]) -> _StaticMeta:
    """Resolve ``trace``'s static table per event."""
    start, stop = trace._bounds()
    sid = np.frombuffer(trace.sid, dtype=np.intc)[start:stop]
    s1, s2, s3, unit, occ, lat, dst = (table[sid] for table in tables)
    return _StaticMeta(
        s1=s1, s2=s2, s3=s3, unit=unit, occ=occ, lat=lat, dst=dst,
        fxu_ops=int(np.count_nonzero(unit == _FXU)),
        n=int(stop - start),
    )


# --------------------------------------------------------------------
# Shared frontend pass: one walk of the flagged events per group.
# --------------------------------------------------------------------


class _FrontendPass:
    """Carried-state frontend walk over a segment stream.

    Each :meth:`feed` walks one segment's flagged events (plain ALU ops
    need no frontend) and returns its action column. The predictor,
    BTAC, L1D, the fall-through block start and every counter persist
    across feeds, so a segmented trace yields the identical action
    stream and counts as one monolithic walk. The structures are either
    fresh (:meth:`for_config`) or a :class:`Core`'s live ones
    (:meth:`for_core`); every feed writes the inlined predictor history
    and the predictor/cache/BTAC statistics back to them, so warm-up and
    ``reset_stats`` sequences on a core see exactly what the object
    reference path would leave behind. Interval attribution uses global
    event positions, with the per-interval tallies grown lazily because
    the interval count is unknown until the stream ends.
    """

    def __init__(self, predictor, btac: Btac | None, cache: L1DCache,
                 chunk: int) -> None:
        self.chunk = chunk  # interval size; 0 = no intervals
        self.predictor = predictor
        self.bp_update = None
        self.bp_table: list | int = 0
        self.bp_hmask = self.bp_mask = 0
        if type(predictor) is GsharePredictor:
            self.bp_table = predictor._table
            self.bp_hmask = predictor._history_mask
            self.bp_mask = predictor._mask
        else:
            self.bp_update = predictor.update
        self.cache = cache
        self.btac = btac
        self.branches = self.conditional_branches = 0
        self.taken_branches = 0
        self.direction_mispredictions = self.target_mispredictions = 0
        self.taken_bubbles = self.loads = self.stores = 0
        self.load_misses = 0
        self.iv_branches: list[int] = []
        self.iv_mispredicts: list[int] = []
        self.block_start: int | None = None
        self.base = 0

    @classmethod
    def for_config(cls, config: CoreConfig, chunk: int) -> "_FrontendPass":
        """A walk over fresh structures shaped by ``config``."""
        from repro.bpred.predictors import make_predictor

        return cls(
            make_predictor(config.predictor),
            Btac(config.btac) if config.btac else None,
            L1DCache(config.cache),
            chunk,
        )

    @classmethod
    def for_core(cls, core: Core, chunk: int) -> "_FrontendPass":
        """A walk that drives (and updates) ``core``'s live structures."""
        return cls(core.predictor, core.btac, core.cache, chunk)

    def feed(self, trace: Trace) -> np.ndarray:
        """Walk one segment's flagged events; returns its actions."""
        start, stop = trace._bounds()
        flags_np = np.frombuffer(trace.flags, dtype=np.uint8)[start:stop]
        idx = np.flatnonzero(flags_np)
        pc_np = np.frombuffer(trace.pc, dtype=np.int64)[start:stop]
        sub_flags = flags_np[idx].tolist()
        sub_pc = pc_np[idx].tolist()
        sub_next = (
            np.frombuffer(trace.next_pc, dtype=np.int64)[start:stop][idx]
        ).tolist()
        sub_addr = (
            np.frombuffer(trace.address, dtype=np.int64)[start:stop][idx]
        ).tolist()
        positions = idx.tolist()
        act_list = [0] * (stop - start)

        predictor = self.predictor
        bp_update = self.bp_update
        bp_table = self.bp_table
        bp_history = predictor._history if bp_update is None else 0
        bp_hmask = self.bp_hmask
        bp_mask = self.bp_mask

        cache = self.cache
        cache_sets = cache._sets
        cache_set_mask = cache._set_mask
        cache_line_bytes = cache._line_bytes
        cache_ways_n = cache._ways
        cache_accesses = cache_misses = 0

        btac = self.btac
        if btac is not None:
            btac_slot_get = btac._slot_of.get
            btac_entries = btac._entries
            btac_threshold = btac.config.score_threshold
            btac_max_score = btac._max_score
            btac_alloc = btac.update
            btac_lookups = btac_hits = btac_predictions = 0
            btac_correct = btac_incorrect = 0

        # Per-feed counter deltas, folded into the totals (and the live
        # predictor/cache/BTAC statistics) after the walk.
        branches = conditional_branches = taken_branches = 0
        direction_mispredictions = target_mispredictions = 0
        taken_bubbles = loads = stores = load_misses = 0
        iv_branches = self.iv_branches
        iv_mispredicts = self.iv_mispredicts
        chunk = self.chunk
        base = self.base

        block_start = self.block_start
        if block_start is None:
            block_start = int(pc_np[0])

        for pos in range(len(positions)):
            i = positions[pos]
            flags = sub_flags[pos]
            act = 0
            if flags & 24:  # F_LOAD | F_STORE
                line = (sub_addr[pos] * WORD_BYTES) // cache_line_bytes
                ways = cache_sets[line & cache_set_mask]
                cache_accesses += 1
                if flags & F_LOAD:
                    loads += 1
                    if line in ways:
                        if ways[-1] != line:
                            ways.remove(line)
                            ways.append(line)
                        act = _A_LOAD_HIT
                    else:
                        cache_misses += 1
                        ways.append(line)
                        if len(ways) > cache_ways_n:
                            del ways[0]
                        load_misses += 1
                        act = _A_LOAD_MISS
                else:
                    stores += 1
                    if line in ways:
                        if ways[-1] != line:
                            ways.remove(line)
                            ways.append(line)
                    else:
                        cache_misses += 1
                        ways.append(line)
                        if len(ways) > cache_ways_n:
                            del ways[0]
            if flags & F_BRANCH:
                branches += 1
                taken = (flags & F_TAKEN) != 0
                if taken:
                    taken_branches += 1
                mispredicted = False
                if flags & F_COND:
                    conditional_branches += 1
                    if bp_update is not None:
                        mispredicted = bp_update(sub_pc[pos], taken)
                    else:
                        # Inlined GsharePredictor.update. The history
                        # local is kept masked, so the index needs no
                        # second masking.
                        index = (sub_pc[pos] ^ bp_history) & bp_mask
                        counter = bp_table[index]
                        if taken:
                            if counter < 3:
                                bp_table[index] = counter + 1
                            bp_history = ((bp_history << 1) | 1) & bp_hmask
                            mispredicted = counter < 2
                        else:
                            if counter > 0:
                                bp_table[index] = counter - 1
                            bp_history = (bp_history << 1) & bp_hmask
                            mispredicted = counter >= 2
                if mispredicted:
                    direction_mispredictions += 1
                    act |= _A_MISPREDICT
                elif taken:
                    next_pc = sub_next[pos]
                    if btac is not None:
                        # Inlined Btac.lookup: one slot probe, the entry
                        # reused below for the training update.
                        btac_lookups += 1
                        slot = btac_slot_get(block_start)
                        predicted_nia = None
                        if slot is None:
                            entry = None
                        else:
                            entry = btac_entries[slot]
                            btac_hits += 1
                            if entry.score >= btac_threshold:
                                btac_predictions += 1
                                predicted_nia = entry.nia
                        if predicted_nia is None:
                            taken_bubbles += 1
                            act |= _A_TAKEN_BUBBLE
                        elif predicted_nia == next_pc:
                            btac_correct += 1
                            act |= _A_GROUP_END
                        else:
                            btac_incorrect += 1
                            target_mispredictions += 1
                            act |= _A_WRONG_TARGET
                        # Inlined Btac.update; only allocate-on-miss
                        # calls the method.
                        if entry is not None:
                            if entry.nia == next_pc:
                                if entry.score < btac_max_score:
                                    entry.score += 1
                            elif entry.score > 0:
                                entry.score = 0
                            else:
                                entry.nia = next_pc
                        else:
                            btac_alloc(block_start, next_pc)
                    else:
                        taken_bubbles += 1
                        act |= _A_TAKEN_BUBBLE
                else:
                    act |= _A_GROUP_END
                if taken or mispredicted:
                    block_start = sub_next[pos]
                if chunk:
                    k = (base + i) // chunk
                    while len(iv_branches) <= k:
                        iv_branches.append(0)
                        iv_mispredicts.append(0)
                    iv_branches[k] += 1
                    if mispredicted:
                        iv_mispredicts[k] += 1
            if act:
                act_list[i] = act

        # Write the inlined predictor/cache/BTAC state back, as the
        # method calls would have accumulated it event by event.
        # Non-gshare predictors ran their own update() per branch.
        if bp_update is None:
            predictor._history = bp_history
            predictor.predictions += conditional_branches
            predictor.mispredictions += direction_mispredictions
        cache_stats = cache.stats
        cache_stats.accesses += cache_accesses
        cache_stats.misses += cache_misses
        if btac is not None:
            btac_stats = btac.stats
            btac_stats.lookups += btac_lookups
            btac_stats.hits += btac_hits
            btac_stats.predictions += btac_predictions
            btac_stats.correct += btac_correct
            btac_stats.incorrect += btac_incorrect

        self.base = base + (stop - start)
        self.block_start = block_start
        self.branches += branches
        self.conditional_branches += conditional_branches
        self.taken_branches += taken_branches
        self.direction_mispredictions += direction_mispredictions
        self.target_mispredictions += target_mispredictions
        self.taken_bubbles += taken_bubbles
        self.loads += loads
        self.stores += stores
        self.load_misses += load_misses
        return np.asarray(act_list, dtype=np.int64)

    def interval_tallies(self, n_intervals: int) -> tuple[list, list]:
        """(branches, mispredicts) per complete interval.

        The lazily-grown tallies are truncated (a trailing partial
        interval is dropped) or zero-padded (intervals with no branches
        were never touched).
        """
        pad = [0] * max(0, n_intervals - len(self.iv_branches))
        return (
            self.iv_branches[:n_intervals] + pad,
            self.iv_mispredicts[:n_intervals] + pad,
        )


# --------------------------------------------------------------------
# Carried per-config timing state.
# --------------------------------------------------------------------


def _config_params(config: CoreConfig) -> list[int]:
    """One config's packed int64 parameter row for the replay."""
    return [
        config.fetch_width,
        config.commit_width,
        config.pipeline_depth,
        config.window,
        config.taken_branch_penalty,
        config.btac.wrong_target_penalty if config.btac else 0,
        config.fxu_count,
        config.lsu_count,
        config.bru_count,
        config.cache.hit_latency,
        config.cache.hit_latency + config.cache.miss_penalty,
        0,
    ]


class _Timing:
    """One config's timing state, carried from segment to segment.

    ``block`` holds the scalar state (see the ``_S_*`` offsets),
    ``window`` the last ``window`` commit cycles (oldest first), and
    ``lanes`` the per-unit issue-usage counts of cycles ``lane_base``
    onward. ``lane_base`` is the probe horizon: every later issue probe
    starts at or after both ``dispatch_base`` and the oldest windowed
    commit, and neither ever decreases, so cycles below it are dropped
    at each segment boundary. ``commits`` collects the last commit
    cycle at every interval boundary crossed so far.
    """

    __slots__ = ("params", "block", "window", "lane_base", "lanes",
                 "commits")

    def __init__(self, config: CoreConfig, chunk: int) -> None:
        self.params = np.asarray(_config_params(config), dtype=np.int64)
        block = np.zeros(_STATE_SIZE, dtype=np.int64)
        block[_S_LANE_TOP] = -1
        block[_S_DISPATCH] = config.pipeline_depth
        block[_S_BOUNDARY] = chunk if chunk else -1
        self.block = block
        self.window = np.zeros(config.window, dtype=np.int64)
        self.lane_base = 0
        self.lanes = np.zeros((3, 0), dtype=np.int64)
        self.commits: list[int] = []

    def keep_lanes(self, usage: np.ndarray, base: int) -> None:
        """Re-anchor the carried lanes at the current probe horizon.

        ``usage`` holds the lanes of cycles ``base`` onward.
        """
        horizon = max(int(self.block[_S_DISPATCH]), int(self.window[0]))
        top = int(self.block[_S_LANE_TOP])
        lo = horizon - base
        hi = top - base + 1
        if hi > lo:
            self.lanes = usage[:, lo:hi].copy()
        else:
            self.lanes = np.zeros((3, 0), dtype=np.int64)
        self.lane_base = horizon

    def result(self, walker: _FrontendPass, n: int, fxu_ops: int,
               cache, btac) -> SimResult:
        """Assemble the :class:`SimResult` once the stream has ended."""
        block = self.block
        result = SimResult(
            instructions=n,
            cycles=int(block[_S_LAST_COMMIT]) + 1,
            branches=walker.branches,
            conditional_branches=walker.conditional_branches,
            taken_branches=walker.taken_branches,
            direction_mispredictions=walker.direction_mispredictions,
            target_mispredictions=walker.target_mispredictions,
            taken_bubbles=walker.taken_bubbles,
            loads=walker.loads,
            stores=walker.stores,
            load_misses=walker.load_misses,
            fxu_ops=fxu_ops,
        )
        result.stall_cycles = dict(
            zip(_LIMITERS, block[_S_STALL:_S_STALL + 6].tolist())
        )
        result.cache = cache
        result.btac = btac
        chunk = walker.chunk
        iv_branches, iv_mispredicts = walker.interval_tallies(
            len(self.commits)
        )
        previous = 0
        for k, commit in enumerate(self.commits):
            result.intervals.append(
                IntervalRecord(
                    start_instruction=k * chunk,
                    instructions=chunk,
                    cycles=max(1, commit - previous),
                    branches=iv_branches[k],
                    direction_mispredictions=iv_mispredicts[k],
                )
            )
            previous = commit
        return result


# --------------------------------------------------------------------
# Native timing-replay kernel (compiled once per process, ctypes).
# --------------------------------------------------------------------

_NATIVE_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* Safety margin between any touched usage-lane index and the lane
 * capacity; larger than any occupancy the caller lets through. */
#define MARGIN 128

/* Carried-state block layout (the _S_* offsets in batched.py). */
#define S_REG 0
#define S_FLOOR 34
#define S_LANE_TOP 37
#define S_DISPATCH 38
#define S_FETCHED 39
#define S_LAST_COMMIT 40
#define S_COMMITTED 41
#define S_STALL 42
#define S_BOUNDARY 48

/* The recurrence over one segment. Cycles are relative to the lane
 * base, so a cycle is its own usage-lane index; ``st`` holds the
 * relative state and is updated in place. Returns the boundaries
 * crossed, or -1 when a usage lane would overflow. */
static int64_t replay_segment(
    int64_t n_events, int64_t position,
    const int64_t *s1, const int64_t *s2, const int64_t *s3,
    const int64_t *unit, const int64_t *occ, const int64_t *lat,
    const int64_t *dst, const int64_t *action,
    const int64_t *params, int64_t interval_size,
    int64_t *st, int64_t *window_buf,
    int64_t *usage_buf, int64_t usage_cap, int64_t *interval_out)
{
    const int64_t fetch_width = params[0], commit_width = params[1];
    const int64_t depth = params[2], window = params[3];
    const int64_t taken_penalty = params[4], wrong_penalty = params[5];
    const int64_t caps[3] = {params[6], params[7], params[8]};
    const int64_t hit_latency = params[9], miss_latency = params[10];
    const int64_t limit = usage_cap - MARGIN;
    int64_t *usage[3];
    usage[0] = usage_buf;
    usage[1] = usage_buf + usage_cap;
    usage[2] = usage_buf + 2 * usage_cap;
    int64_t reg_ready[34];
    memcpy(reg_ready, st + S_REG, sizeof reg_ready);
    int64_t floors[3] = {st[S_FLOOR], st[S_FLOOR + 1], st[S_FLOOR + 2]};
    int64_t lane_top = st[S_LANE_TOP];
    int64_t dispatch_base = st[S_DISPATCH];
    int64_t fetched = st[S_FETCHED];
    int64_t last_commit = st[S_LAST_COMMIT];
    int64_t committed = st[S_COMMITTED];
    int64_t stall[6];
    memcpy(stall, st + S_STALL, sizeof stall);
    int64_t next_boundary = st[S_BOUNDARY];
    int64_t crossed = 0;
    for (int64_t i = 0; i < n_events; i++) {
        if (fetched >= fetch_width) { dispatch_base += 1; fetched = 0; }
        fetched += 1;
        int64_t dispatch = dispatch_base;
        if (window_buf[i] > dispatch) dispatch = window_buf[i];
        int64_t ready = reg_ready[s1[i]];
        if (reg_ready[s2[i]] > ready) ready = reg_ready[s2[i]];
        if (reg_ready[s3[i]] > ready) ready = reg_ready[s3[i]];
        int64_t wait_dep, limiter;
        if (ready > dispatch) { wait_dep = ready; limiter = 1; }
        else { wait_dep = dispatch; limiter = 0; }
        const int64_t u = unit[i];
        int64_t issue;
        if (u == 3) {
            issue = wait_dep;
        } else {
            if (wait_dep >= limit) return -1;
            int64_t *us = usage[u];
            const int64_t cap = caps[u];
            int64_t floor_ = floors[u];
            int64_t cycle = wait_dep > floor_ ? wait_dep : floor_;
            const int64_t o = occ[i];
            if (o == 1) {
                int64_t count = us[cycle];
                while (count >= cap) { cycle += 1; count = us[cycle]; }
                if (cycle >= limit) return -1;
                count += 1;
                us[cycle] = count;
                if (cycle > lane_top) lane_top = cycle;
                if (cycle > wait_dep) limiter = u + 2;
                issue = cycle;
                if (count >= cap && cycle == floor_) {
                    floor_ += 1;
                    while (us[floor_] >= cap) floor_ += 1;
                    floors[u] = floor_;
                }
            } else {
                /* Non-pipelined op: unit free for the whole
                 * occupancy; the floor stays read-only here. */
                for (;;) {
                    int64_t k = 0;
                    for (; k < o; k++)
                        if (us[cycle + k] >= cap) break;
                    if (k == o) break;
                    cycle += 1;
                    if (cycle + o >= limit) return -1;
                }
                if (cycle + o >= limit) return -1;
                for (int64_t k = 0; k < o; k++) us[cycle + k] += 1;
                if (cycle + o - 1 > lane_top) lane_top = cycle + o - 1;
                if (cycle > wait_dep) limiter = u + 2;
                issue = cycle;
            }
        }
        const int64_t a = action[i];
        int64_t latency = lat[i];
        if (a & 8) latency = hit_latency;
        else if (a & 16) { latency = miss_latency; limiter = 5; }
        const int64_t complete = issue + latency;
        reg_ready[dst[i]] = complete;
        const int64_t ba = a & 7;
        if (ba == 1) {
            dispatch_base = complete + 1 + depth; fetched = 0;
        } else if (ba == 2) {
            dispatch_base += taken_penalty; fetched = 0;
        } else if (ba == 3) {
            fetched = fetch_width;
        } else if (ba == 4) {
            dispatch_base += wrong_penalty; fetched = 0;
        }
        if (complete > last_commit) {
            stall[limiter] += complete - last_commit;
            last_commit = complete;
            committed = 1;
        } else {
            committed += 1;
            if (committed > commit_width) {
                stall[limiter] += 1;
                last_commit += 1;
                committed = 1;
            }
        }
        window_buf[i + window] = last_commit;
        if (position + i + 1 == next_boundary) {
            interval_out[crossed++] = last_commit;
            next_boundary += interval_size;
        }
    }
    memcpy(st + S_REG, reg_ready, sizeof reg_ready);
    for (int k = 0; k < 3; k++) st[S_FLOOR + k] = floors[k];
    st[S_LANE_TOP] = lane_top;
    st[S_DISPATCH] = dispatch_base;
    st[S_FETCHED] = fetched;
    st[S_LAST_COMMIT] = last_commit;
    st[S_COMMITTED] = committed;
    memcpy(st + S_STALL, stall, sizeof stall);
    st[S_BOUNDARY] = next_boundary;
    return crossed;
}

/* Cycle-valued slots of the state block (shifted by the lane base). */
static const int CYCLE_SLOTS[] = {
    S_FLOOR, S_FLOOR + 1, S_FLOOR + 2, S_LANE_TOP, S_DISPATCH,
    S_LAST_COMMIT};

/* Replay one config's timing recurrence over one segment's action
 * stream, resuming from the carried ``state`` block. Usage-lane index
 * k holds cycle lane_base + k; window_buf's first ``window`` entries
 * are the carried commit tail and entry i + window receives event i's
 * commit. Returns the number of interval boundaries crossed (their
 * commit cycles go to interval_out) and writes the state back, or
 * returns -1 with ``state`` and the tail untouched when a usage lane
 * would overflow (the caller retries with a larger cap or replays in
 * Python). */
int64_t repro_replay(
    int64_t n_events, int64_t position, int64_t lane_base,
    const int64_t *s1, const int64_t *s2, const int64_t *s3,
    const int64_t *unit, const int64_t *occ, const int64_t *lat,
    const int64_t *dst, const int64_t *action,
    const int64_t *params, int64_t interval_size,
    int64_t *state, int64_t *window_buf,
    int64_t *usage_buf, int64_t usage_cap, int64_t *interval_out)
{
    const int64_t window = params[3];
    const int n_slots = sizeof CYCLE_SLOTS / sizeof CYCLE_SLOTS[0];
    int64_t st[S_BOUNDARY + 1];
    memcpy(st, state, sizeof st);
    for (int k = 0; k < 34; k++) st[S_REG + k] -= lane_base;
    for (int k = 0; k < n_slots; k++) st[CYCLE_SLOTS[k]] -= lane_base;
    for (int64_t k = 0; k < window; k++) window_buf[k] -= lane_base;
    int64_t crossed = replay_segment(
        n_events, position, s1, s2, s3, unit, occ, lat, dst, action,
        params, interval_size, st, window_buf, usage_buf, usage_cap,
        interval_out);
    if (crossed < 0) {
        for (int64_t k = 0; k < window; k++) window_buf[k] += lane_base;
        return -1;
    }
    for (int k = 0; k < 34; k++) st[S_REG + k] += lane_base;
    for (int k = 0; k < n_slots; k++) st[CYCLE_SLOTS[k]] += lane_base;
    for (int64_t k = 0; k < window; k++)
        window_buf[n_events + k] += lane_base;
    for (int64_t k = 0; k < crossed; k++) interval_out[k] += lane_base;
    memcpy(state, st, sizeof st);
    return crossed;
}
"""

#: Compiler flags of the replay kernel; part of the ``.so`` digest.
_NATIVE_FLAGS = ("-O2", "-shared", "-fPIC")

_native_state: dict = {}


def native_enabled() -> bool:
    """Whether the compiled replay kernel may be used (REPRO_NATIVE)."""
    value = os.environ.get("REPRO_NATIVE", "").strip().lower()
    return value not in {"off", "0", "false", "no"}


def _native_so_path(compiler: str, flags) -> Path:
    """Content address of the kernel ``compiler`` builds with ``flags``.

    The digest covers the source, the resolved compiler path and the
    flag list, so changing any of them never reuses a stale kernel.
    """
    material = "\0".join([_NATIVE_SOURCE, compiler, *flags])
    digest = hashlib.sha256(material.encode()).hexdigest()[:12]
    try:
        tag = f"{os.getuid()}"
    except AttributeError:  # pragma: no cover - non-POSIX
        tag = "shared"
    cache_dir = Path(tempfile.gettempdir()) / f"repro-native-{tag}"
    return cache_dir / f"replay_{digest}.so"


def _build_native():
    """Compile (or reuse) the replay kernel; returns the ctypes fn.

    Returns None when no C compiler is installed; a failing compile
    raises :class:`subprocess.CalledProcessError`.
    """
    compiler = (
        shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    )
    if compiler is None:
        return None
    compiler = os.path.realpath(compiler)
    so_path = _native_so_path(compiler, _NATIVE_FLAGS)
    if not so_path.exists():
        so_path.parent.mkdir(parents=True, exist_ok=True)
        src = so_path.with_suffix(".c")
        src.write_text(_NATIVE_SOURCE)
        tmp = so_path.with_name(f"{so_path.stem}.{os.getpid()}.tmp.so")
        subprocess.run(
            [compiler, *_NATIVE_FLAGS, "-o", str(tmp), str(src)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp, so_path)  # atomic vs concurrent builders
    lib = ctypes.CDLL(str(so_path))
    fn = lib.repro_replay
    fn.restype = ctypes.c_longlong
    fn.argtypes = (
        [ctypes.c_longlong] * 3
        + [ctypes.c_void_p] * 9
        + [ctypes.c_longlong]
        + [ctypes.c_void_p] * 3
        + [ctypes.c_longlong, ctypes.c_void_p]
    )
    return fn


def _native_kernel():
    """The compiled replay entry point, or None (cached per process)."""
    if not native_enabled():
        return None
    if "fn" not in _native_state:
        fn = None
        try:
            fn = _build_native()
            if fn is None:
                logger.warning(
                    "no C compiler found; timing replay runs in Python"
                )
        except subprocess.CalledProcessError as exc:
            tail = (exc.stderr or b"").decode(errors="replace")[-2000:]
            logger.warning(
                "native replay kernel failed to build; timing replay "
                "runs in Python. Compiler stderr (tail):\n%s", tail,
            )
        except Exception as exc:
            logger.warning(
                "native replay kernel unavailable (%s); timing replay "
                "runs in Python", exc,
            )
        _native_state["fn"] = fn
    return _native_state["fn"]


def _ptr(array: np.ndarray) -> int:
    return array.ctypes.data


class _Scratch:
    """Native replay work buffers, reused across configs and segments.

    The usage lanes keep one width (regrown only when a replay needs
    more) and stay all-zero between replays, each replay clearing the
    extent it touched, so their pages are faulted in once per
    simulation rather than once per config and segment.
    """

    def __init__(self) -> None:
        self.usage = np.zeros((3, 0), dtype=np.int64)
        self.window = np.zeros(0, dtype=np.int64)

    def lanes(self, cap: int) -> np.ndarray:
        """A zeroed (3, width) lane block, width >= ``cap``."""
        if self.usage.shape[1] < cap:
            # np.zeros is calloc-backed: untouched pages stay virtual.
            self.usage = np.zeros((3, cap), dtype=np.int64)
        return self.usage

    def window_log(self, size: int) -> np.ndarray:
        if self.window.size < size:
            self.window = np.empty(size, dtype=np.int64)
        return self.window[:size]


def _replay_native(fn, meta: _StaticMeta, action: np.ndarray,
                   timing: _Timing, position: int, chunk: int,
                   scratch: _Scratch) -> bool:
    """Replay one segment for one config in C; False on lane overflow."""
    n = meta.n
    width = len(timing.window)
    window_buf = scratch.window_log(n + width)
    window_buf[:width] = timing.window
    interval_out = np.empty(n // chunk + 1 if chunk else 1, dtype=np.int64)
    base = timing.lane_base
    held = timing.lanes.shape[1]
    columns = [_ptr(column) for column in meta.columns()]
    cap = held + 8 * n + 4096
    for _attempt in range(2):
        usage = scratch.lanes(cap)
        usage[:, :held] = timing.lanes
        crossed = fn(
            n, position, base, *columns, _ptr(action),
            _ptr(timing.params), chunk, _ptr(timing.block),
            _ptr(window_buf), _ptr(usage), usage.shape[1],
            _ptr(interval_out),
        )
        if crossed >= 0:
            timing.commits.extend(interval_out[:crossed].tolist())
            timing.window = window_buf[n:].copy()
            timing.keep_lanes(usage, base)
            top = int(timing.block[_S_LANE_TOP])
            usage[:, :max(0, top - base + 1)] = 0
            return True
        # Overflow: drop the dirty block; a retry gets a fresh one.
        cap = 4 * usage.shape[1]
        scratch.usage = np.zeros((3, 0), dtype=np.int64)
    return False


def _replay_python(meta: _StaticMeta, action: np.ndarray,
                   timings: list[_Timing], position: int,
                   chunk: int) -> None:
    """Pure-Python replay, bit-for-bit the native kernel's semantics."""
    s1l, s2l, s3l, unitl, occl, latl, dstl = (
        column.tolist() for column in meta.columns()
    )
    act = action.tolist()
    n = meta.n
    for timing in timings:
        (fetch_width, commit_width, depth, window, taken_penalty,
         wrong_penalty, fxu_cap, lsu_cap, bru_cap, hit_latency,
         miss_latency, _pad) = timing.params.tolist()
        caps = (fxu_cap, lsu_cap, bru_cap)
        block = timing.block.tolist()
        reg_ready = block[_S_REG:_S_REG + 34]
        floors = block[_S_FLOOR:_S_FLOOR + 3]
        dispatch_base = block[_S_DISPATCH]
        fetched = block[_S_FETCHED]
        last_commit = block[_S_LAST_COMMIT]
        committed = block[_S_COMMITTED]
        stall = block[_S_STALL:_S_STALL + 6]
        base = timing.lane_base
        usages = tuple(
            {base + k: count for k, count in enumerate(lane) if count}
            for lane in timing.lanes.tolist()
        )
        window_commits = timing.window.tolist()
        wappend = window_commits.append
        commits = timing.commits
        # Interval boundary as a segment-local event count.
        boundary = block[_S_BOUNDARY] - position
        for i in range(n):
            if fetched >= fetch_width:
                dispatch_base += 1
                fetched = 0
            fetched += 1
            dispatch = dispatch_base
            slot_free = window_commits[i]
            if slot_free > dispatch:
                dispatch = slot_free
            ready = reg_ready[s1l[i]]
            value = reg_ready[s2l[i]]
            if value > ready:
                ready = value
            value = reg_ready[s3l[i]]
            if value > ready:
                ready = value
            if ready > dispatch:
                wait_dep = ready
                limiter = 1
            else:
                wait_dep = dispatch
                limiter = 0
            u = unitl[i]
            if u == 3:
                issue = wait_dep
            else:
                usage = usages[u]
                cap = caps[u]
                uget = usage.get
                floor = floors[u]
                cycle = wait_dep if wait_dep > floor else floor
                o = occl[i]
                if o == 1:
                    count = uget(cycle, 0)
                    while count >= cap:
                        cycle += 1
                        count = uget(cycle, 0)
                    count += 1
                    usage[cycle] = count
                    if cycle > wait_dep:
                        limiter = u + 2
                    issue = cycle
                    if count >= cap and cycle == floor:
                        floor += 1
                        while uget(floor, 0) >= cap:
                            floor += 1
                        floors[u] = floor
                else:
                    while True:
                        for k in range(o):
                            if uget(cycle + k, 0) >= cap:
                                cycle += 1
                                break
                        else:
                            break
                    for k in range(o):
                        usage[cycle + k] = uget(cycle + k, 0) + 1
                    if cycle > wait_dep:
                        limiter = u + 2
                    issue = cycle
            a = act[i]
            latency = latl[i]
            if a & 8:
                latency = hit_latency
            elif a & 16:
                latency = miss_latency
                limiter = 5
            complete = issue + latency
            reg_ready[dstl[i]] = complete
            ba = a & 7
            if ba:
                if ba == 1:
                    dispatch_base = complete + 1 + depth
                    fetched = 0
                elif ba == 2:
                    dispatch_base += taken_penalty
                    fetched = 0
                elif ba == 3:
                    fetched = fetch_width
                else:
                    dispatch_base += wrong_penalty
                    fetched = 0
            if complete > last_commit:
                stall[limiter] += complete - last_commit
                last_commit = complete
                committed = 1
            else:
                committed += 1
                if committed > commit_width:
                    stall[limiter] += 1
                    last_commit += 1
                    committed = 1
            wappend(last_commit)
            if i + 1 == boundary:
                commits.append(last_commit)
                boundary += chunk

        top = max(
            [block[_S_LANE_TOP]]
            + [max(usage) for usage in usages if usage]
        )
        timing.block = np.asarray(
            reg_ready + floors
            + [top, dispatch_base, fetched, last_commit, committed]
            + stall + [boundary + position],
            dtype=np.int64,
        )
        timing.window = np.asarray(window_commits[-window:],
                                   dtype=np.int64)
        lanes = np.zeros((3, max(0, top - base + 1)), dtype=np.int64)
        for u, usage in enumerate(usages):
            if usage:
                cycles = np.fromiter(usage.keys(), np.int64, len(usage))
                lanes[u, cycles - base] = list(usage.values())
        timing.keep_lanes(lanes, base)


def _replay(meta: _StaticMeta, action: np.ndarray, timings: list[_Timing],
            position: int, chunk: int, scratch: _Scratch) -> bool:
    """Replay one segment for a group's configs; True if C ran any."""
    fn = _native_kernel()
    pending = timings
    if fn is not None:
        top = int(meta.occ.max())
        if top >= _NATIVE_MAX_OCCUPANCY:
            logger.debug(
                "occupancy %d is beyond the native lane margin; "
                "replaying %d config(s) of a %d-event segment in Python",
                top, len(timings), meta.n,
            )
        else:
            pending = [
                timing for timing in timings
                if not _replay_native(fn, meta, action, timing,
                                      position, chunk, scratch)
            ]
            if pending:
                logger.debug(
                    "issue-usage lane overflow after growth; replaying "
                    "%d config(s) of a %d-event segment in Python",
                    len(pending), meta.n,
                )
    if pending:
        _replay_python(meta, action, pending, position, chunk)
    return fn is not None and len(pending) < len(timings)


# --------------------------------------------------------------------
# Stream driver and public entry points.
# --------------------------------------------------------------------


def _simulate_stream(segments, configs: list[CoreConfig],
                     interval_size: int | None,
                     core: Core | None = None) -> BatchOutcome:
    """Shared production driver: every timing simulation lands here.

    Walks ``segments`` once; per segment, every frontend group runs its
    frontend pass and then replays each member config from its carried
    timing state, so only the current segment is ever resident. With
    ``core`` (one config, ``core.config``), the frontend drives that
    core's live predictor/BTAC/L1D and the result aliases its live
    cache and BTAC statistics, as the object reference path does.
    """
    chunk = 0
    if interval_size is not None:
        chunk = interval_size if interval_size >= 1 else 1
    if core is not None:
        groups = [([0], _FrontendPass.for_core(core, chunk))]
    else:
        keyed: dict[tuple, list[int]] = {}
        for index, config in enumerate(configs):
            keyed.setdefault(frontend_key(config), []).append(index)
        groups = [
            (members, _FrontendPass.for_config(configs[members[0]], chunk))
            for members in keyed.values()
        ]
    timings = [_Timing(config, chunk) for config in configs]
    scratch = _Scratch()
    native = False
    position = fxu_ops = 0
    static = tables = None
    static_len = 0
    for segment in segments:
        if not isinstance(segment, Trace):
            segment = Trace.from_events(segment)
        if len(segment) == 0:
            continue
        # Segments of one trace share (a possibly growing) static table.
        if segment.static is not static or len(segment.static) != static_len:
            static = segment.static
            if not columnar_supported(static):
                raise SimulationError(
                    "streamed simulation requires columnar-supported "
                    "static tables (<= 3 sources per instruction)"
                )
            tables = _static_tables(static)
            static_len = len(static)
        meta = _static_meta(segment, tables)
        fxu_ops += meta.fxu_ops
        for members, walker in groups:
            action = walker.feed(segment)
            group = [timings[index] for index in members]
            if _replay(meta, action, group, position, chunk, scratch):
                native = True
        position += meta.n
    if position == 0:
        raise SimulationError("cannot simulate an empty trace")

    results: list[SimResult | None] = [None] * len(configs)
    for members, walker in groups:
        for index in members:
            cache = walker.cache.stats
            btac = None if walker.btac is None else walker.btac.stats
            if core is None:  # fresh structures: each config gets a copy
                cache = dataclasses.replace(cache)
                btac = btac and dataclasses.replace(btac)
            results[index] = timings[index].result(
                walker, position, fxu_ops, cache, btac
            )
    if guards_enabled():
        for result, config in zip(results, configs):
            check_sim_result(result, config)
    return BatchOutcome(results, [True] * len(configs), native)


def simulate_batched(
    trace,
    configs,
    interval_size: int | None = None,
) -> BatchOutcome:
    """Simulate ``trace`` under every config, sharing frontend passes.

    Equivalent to ``[Core(c).simulate(trace, interval_size) for c in
    configs]`` — byte-identical ``SimResult``s, fresh core state per
    config — but configs that share a frontend group walk the trace
    once. Object-form event lists and static tables with more than
    three sources take the object reference per config (reported
    through :attr:`BatchOutcome.batched`).
    """
    configs = list(configs)
    if not configs:
        return BatchOutcome([], [], False)
    if len(trace) == 0:
        raise SimulationError("cannot simulate an empty trace")
    if not isinstance(trace, Trace) or not columnar_supported(trace.static):
        # Core.simulate routes these to the object reference.
        results = [Core(c).simulate(trace, interval_size) for c in configs]
        return BatchOutcome(results, [False] * len(configs), False)
    return _simulate_stream(
        trace.segments(_SEGMENT_EVENTS), configs, interval_size
    )


def simulate_batched_stream(
    segments,
    configs,
    interval_size: int | None = None,
) -> BatchOutcome:
    """Batched multi-config simulation over a segment stream.

    The streaming form of :func:`simulate_batched`: ``segments`` is any
    iterator of columnar :class:`Trace` segments (or event lists), such
    as the v3 tracestore's lazy reader or the segmented interpreter and
    synthetic generators. Every frontend group walks each segment
    exactly once and every config replays it from carried state as it
    arrives, so memory is O(segment). Results are byte-identical to
    ``simulate_batched`` on the concatenated trace. A stream whose
    static tables the columnar encoding cannot represent is
    materialised and delegated to :func:`simulate_batched`, whose
    reference path handles it.
    """
    configs = list(configs)
    if not configs:
        return BatchOutcome([], [], False)
    iterator = iter(segments)
    first = None
    for candidate in iterator:
        if not isinstance(candidate, Trace):
            candidate = Trace.from_events(candidate)
        if len(candidate):
            first = candidate
            break
    if first is None:
        raise SimulationError("cannot simulate an empty trace")
    if not columnar_supported(first.static):
        merged = Trace()
        merged.extend(first)
        for candidate in iterator:
            merged.extend(candidate)
        return simulate_batched(merged, configs, interval_size)
    return _simulate_stream(chain((first,), iterator), configs, interval_size)
