"""Engine telemetry: per-point wall time, cache traffic, simulated MIPS.

Telemetry is collected out-of-band from the experiment data so that a
parallel run renders byte-identically to a serial one: wall times go in
the telemetry report (tables / JSON summary), never in
:meth:`ExperimentResult.render` output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.cache import CacheCounters
from repro.perf.report import Table

#: Where a point's result came from.
SOURCE_MEMO = "memo"
SOURCE_DISK = "disk"
SOURCE_SIMULATED = "simulated"
SOURCE_JOURNAL = "journal"  # replayed from a run journal during resume

#: How a point failed (``PointFailure.kind``).
FAILURE_EXCEPTION = "exception"  # the worker raised
FAILURE_CRASH = "crash"          # the worker process died (BrokenProcessPool)
FAILURE_TIMEOUT = "timeout"      # the point exceeded its deadline


@dataclass
class PointFailure:
    """One design point that failed after exhausting its retries."""

    app: str
    variant: str
    config_digest: str  # short form
    kind: str  # exception | crash | timeout
    error_type: str
    message: str
    traceback: str
    attempts: int

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "variant": self.variant,
            "config": self.config_digest,
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
        }


@dataclass
class PointRecord:
    """One design point's execution record."""

    app: str
    variant: str
    config_digest: str  # short form
    wall_seconds: float
    instructions: int
    source: str  # memo | disk | simulated

    @property
    def mips(self) -> float:
        """Simulated megainstructions per second of wall time."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.instructions / self.wall_seconds / 1e6

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "variant": self.variant,
            "config": self.config_digest,
            "wall_seconds": self.wall_seconds,
            "instructions": self.instructions,
            "mips": self.mips,
            "source": self.source,
        }


@dataclass
class EngineStats:
    """Aggregated engine telemetry (mergeable across worker processes)."""

    points: list[PointRecord] = field(default_factory=list)
    failures: list[PointFailure] = field(default_factory=list)
    memo_hits: int = 0
    cache: CacheCounters = field(default_factory=CacheCounters)
    jobs: int = 1
    pool_rebuilds: int = 0
    serial_fallbacks: int = 0
    #: Execution-context caveats (for instance "timeouts not enforced
    #: on the serial path"), deduplicated, preserved across merges.
    notes: list[str] = field(default_factory=list)
    #: Batched simulation: per-group point counts for the groups that
    #: actually ran through ``simulate_batched`` (memo/disk hits are
    #: peeled off first and never appear here).
    batch_sizes: list[int] = field(default_factory=list)
    #: Points that took the shared-frontend batched replay.
    batch_vectorized: int = 0
    #: Points inside a batch whose traces took the object reference.
    batch_fallback: int = 0
    #: Trace decodes avoided by the scheduler's per-sweep prewarm: for
    #: every group of pending points sharing a workload trace, all but
    #: the first reuse the in-memory decode instead of re-inflating the
    #: tracestore blob.
    decode_reuse_hits: int = 0
    #: Streaming simulation (``REPRO_STREAM``): pipelined
    #: generate→simulate runs that went through ``repro.perf.stream``.
    stream_streams: int = 0
    stream_segments_produced: int = 0
    stream_segments_consumed: int = 0
    #: Deepest the bounded producer/consumer queue ever got.
    stream_queue_peak: int = 0
    #: Carried-state segment handoffs into streaming consumers.
    stream_handoffs: int = 0
    #: Largest single in-flight segment (packed column bytes).
    stream_peak_segment_bytes: int = 0
    #: Sweep service (``repro.service``): confirmed lease claims this
    #: worker/aggregation won.
    claims: int = 0
    #: Claim bids that lost the file-order race to another worker.
    claim_conflicts: int = 0
    #: Claims that took over another worker's expired lease
    #: (crash-recovery steals).
    claim_steals: int = 0
    #: Lease renewals appended while points simulated.
    heartbeats: int = 0
    #: Completions suppressed because ownership was lost mid-compute.
    lost_leases: int = 0
    #: Network resilience (``repro.service.resilience``, schema 7):
    #: remote calls that were retried after a transient failure.
    net_retries: int = 0
    #: Times a circuit breaker tripped open.
    breaker_trips: int = 0
    #: Total wall time any breaker spent away from ``closed``
    #: (local-only degraded operation).
    degraded_seconds: float = 0.0
    #: Shared-cache remote tier traffic.
    remote_hits: int = 0
    remote_misses: int = 0
    remote_pushes: int = 0
    #: Pushes still parked for a dead remote when stats were read.
    queued_pushes: int = 0
    #: Parked pushes that replicated after the circuit recovered.
    drained_pushes: int = 0
    #: Accelerator offload (``repro.accel``, schema 8): estimates served
    #: (disk, simulated, or journal-replayed — memo hits excluded, same
    #: as core points).
    accel_points: int = 0
    #: Accelerator estimates that shared a workload-batch construction
    #: inside ``estimate_many`` (the accel analogue of batched sims).
    accel_batched: int = 0
    accel_bioseal_points: int = 0
    accel_aphmm_points: int = 0
    #: Host-equivalent cycles the served estimates priced.
    accel_offload_cycles: int = 0
    #: Host cycles of that total spent on host<->device data movement.
    accel_transfer_cycles: int = 0

    def record(self, point: PointRecord) -> None:
        self.points.append(point)

    def record_failure(self, failure: PointFailure) -> None:
        self.failures.append(failure)

    def note(self, message: str) -> None:
        """Attach a caveat once (repeats are dropped)."""
        if message not in self.notes:
            self.notes.append(message)

    def merge(self, other: "EngineStats") -> None:
        """Fold a worker's telemetry into this one."""
        self.points.extend(other.points)
        self.failures.extend(other.failures)
        self.memo_hits += other.memo_hits
        self.cache.merge(other.cache)
        self.pool_rebuilds += other.pool_rebuilds
        self.serial_fallbacks += other.serial_fallbacks
        self.batch_sizes.extend(other.batch_sizes)
        self.batch_vectorized += other.batch_vectorized
        self.batch_fallback += other.batch_fallback
        self.decode_reuse_hits += other.decode_reuse_hits
        self.stream_streams += other.stream_streams
        self.stream_segments_produced += other.stream_segments_produced
        self.stream_segments_consumed += other.stream_segments_consumed
        self.stream_queue_peak = max(
            self.stream_queue_peak, other.stream_queue_peak
        )
        self.stream_handoffs += other.stream_handoffs
        self.stream_peak_segment_bytes = max(
            self.stream_peak_segment_bytes, other.stream_peak_segment_bytes
        )
        self.claims += other.claims
        self.claim_conflicts += other.claim_conflicts
        self.claim_steals += other.claim_steals
        self.heartbeats += other.heartbeats
        self.lost_leases += other.lost_leases
        self.net_retries += other.net_retries
        self.breaker_trips += other.breaker_trips
        self.degraded_seconds += other.degraded_seconds
        self.remote_hits += other.remote_hits
        self.remote_misses += other.remote_misses
        self.remote_pushes += other.remote_pushes
        self.queued_pushes += other.queued_pushes
        self.drained_pushes += other.drained_pushes
        self.accel_points += other.accel_points
        self.accel_batched += other.accel_batched
        self.accel_bioseal_points += other.accel_bioseal_points
        self.accel_aphmm_points += other.accel_aphmm_points
        self.accel_offload_cycles += other.accel_offload_cycles
        self.accel_transfer_cycles += other.accel_transfer_cycles
        for message in other.notes:
            self.note(message)

    def merge_stream(self, stream: dict) -> None:
        """Fold a drained ``StreamStats`` payload (dict form) into this."""
        self.stream_streams += stream.get("streams", 0)
        self.stream_segments_produced += stream.get("segments_produced", 0)
        self.stream_segments_consumed += stream.get("segments_consumed", 0)
        self.stream_queue_peak = max(
            self.stream_queue_peak, stream.get("queue_peak", 0)
        )
        self.stream_handoffs += stream.get("handoffs", 0)
        self.stream_peak_segment_bytes = max(
            self.stream_peak_segment_bytes,
            stream.get("peak_segment_bytes", 0),
        )

    @property
    def total_wall_seconds(self) -> float:
        return sum(point.wall_seconds for point in self.points)

    @property
    def total_instructions(self) -> int:
        return sum(point.instructions for point in self.points)

    @property
    def aggregate_mips(self) -> float:
        wall = self.total_wall_seconds
        if wall <= 0.0:
            return 0.0
        return self.total_instructions / wall / 1e6

    @property
    def batched_points(self) -> int:
        """Points simulated inside batched groups (vectorized + fallback)."""
        return sum(self.batch_sizes)

    def merge_service(self, service: dict) -> None:
        """Fold a worker's journaled ``worker_stats`` counters into this."""
        self.claims += service.get("claims", 0)
        self.claim_conflicts += service.get("claim_conflicts", 0)
        self.claim_steals += service.get("claim_steals", 0)
        self.heartbeats += service.get("heartbeats", 0)
        self.lost_leases += service.get("lost_leases", 0)
        self.merge_resilience(service)

    def merge_accel(self, counters: dict) -> None:
        """Fold a journaled ``accel_stats`` payload into this.

        Tolerant of missing keys the same way the other journal folds
        are: a journal written before the accelerator subsystem simply
        contributes nothing.
        """
        self.accel_points += counters.get("points", 0)
        self.accel_batched += counters.get("batched", 0)
        self.accel_bioseal_points += counters.get("bioseal_points", 0)
        self.accel_aphmm_points += counters.get("aphmm_points", 0)
        self.accel_offload_cycles += counters.get("offload_cycles", 0)
        self.accel_transfer_cycles += counters.get("transfer_cycles", 0)

    def merge_resilience(self, counters: dict) -> None:
        """Fold a resilience counter payload (networked workers journal
        one, with ``degraded_ms`` as an integer) into this."""
        self.net_retries += counters.get("net_retries", 0)
        self.breaker_trips += counters.get("breaker_trips", 0)
        if "degraded_ms" in counters:
            self.degraded_seconds += counters["degraded_ms"] / 1000.0
        else:
            self.degraded_seconds += counters.get("degraded_seconds", 0.0)
        self.remote_hits += counters.get("remote_hits", 0)
        self.remote_misses += counters.get("remote_misses", 0)
        self.remote_pushes += counters.get("remote_pushes", 0)
        self.queued_pushes += counters.get("queued_pushes", 0)
        self.drained_pushes += counters.get("drained_pushes", 0)

    def to_dict(self) -> dict:
        return {
            "schema": 8,
            "jobs": self.jobs,
            "points": [point.to_dict() for point in self.points],
            "failures": [failure.to_dict() for failure in self.failures],
            "cache": {**self.cache.to_dict(), "memo_hits": self.memo_hits},
            "notes": list(self.notes),
            "recovery": {
                "pool_rebuilds": self.pool_rebuilds,
                "serial_fallbacks": self.serial_fallbacks,
            },
            "batch": {
                "groups": len(self.batch_sizes),
                "points": self.batched_points,
                "vectorized": self.batch_vectorized,
                "fallback": self.batch_fallback,
                "decode_reuse_hits": self.decode_reuse_hits,
                "sizes": list(self.batch_sizes),
            },
            "stream": {
                "streams": self.stream_streams,
                "segments_produced": self.stream_segments_produced,
                "segments_consumed": self.stream_segments_consumed,
                "queue_peak": self.stream_queue_peak,
                "handoffs": self.stream_handoffs,
                "peak_segment_bytes": self.stream_peak_segment_bytes,
            },
            "service": {
                "claims": self.claims,
                "claim_conflicts": self.claim_conflicts,
                "claim_steals": self.claim_steals,
                "heartbeats": self.heartbeats,
                "lost_leases": self.lost_leases,
            },
            "accel": {
                "points": self.accel_points,
                "batched": self.accel_batched,
                "bioseal_points": self.accel_bioseal_points,
                "aphmm_points": self.accel_aphmm_points,
                "offload_cycles": self.accel_offload_cycles,
                "transfer_cycles": self.accel_transfer_cycles,
            },
            "resilience": {
                "net_retries": self.net_retries,
                "breaker_trips": self.breaker_trips,
                "degraded_seconds": self.degraded_seconds,
                "remote_hits": self.remote_hits,
                "remote_misses": self.remote_misses,
                "remote_pushes": self.remote_pushes,
                "queued_pushes": self.queued_pushes,
                "drained_pushes": self.drained_pushes,
            },
            "totals": {
                "points": len(self.points),
                "failures": len(self.failures),
                "wall_seconds": self.total_wall_seconds,
                "instructions": self.total_instructions,
                "mips": self.aggregate_mips,
            },
        }

    def write_json(self, path: str | Path) -> None:
        """Machine-readable summary for benchmark/CI harnesses."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    def render(self, per_point: bool = False) -> str:
        """Human-readable telemetry report."""
        summary = Table(
            "Engine telemetry",
            ["Points", "Simulated", "Disk hits", "Memo hits", "Failures",
             "Wall (s)", "Sim MIPS"],
        )
        simulated = sum(
            1 for point in self.points if point.source == SOURCE_SIMULATED
        )
        disk = sum(1 for point in self.points if point.source == SOURCE_DISK)
        summary.add_row(
            len(self.points),
            simulated,
            disk,
            self.memo_hits,
            len(self.failures),
            f"{self.total_wall_seconds:.2f}",
            f"{self.aggregate_mips:.2f}",
        )
        blocks = [summary.render()]
        if self.batch_sizes or self.decode_reuse_hits:
            batch = Table(
                "Batched simulation",
                ["Groups", "Batched points", "Vectorized", "Fallback",
                 "Decode reuse"],
            )
            batch.add_row(
                len(self.batch_sizes),
                self.batched_points,
                self.batch_vectorized,
                self.batch_fallback,
                self.decode_reuse_hits,
            )
            blocks.append(batch.render())
        if self.stream_streams:
            stream = Table(
                "Streaming simulation",
                ["Streams", "Segments", "Queue peak", "Handoffs",
                 "Peak segment (KiB)"],
            )
            stream.add_row(
                self.stream_streams,
                self.stream_segments_consumed,
                self.stream_queue_peak,
                self.stream_handoffs,
                f"{self.stream_peak_segment_bytes / 1024:.1f}",
            )
            blocks.append(stream.render())
        if self.accel_points:
            accel = Table(
                "Accelerator offload",
                ["Estimates", "Batched", "BioSEAL", "ApHMM",
                 "Host cycles", "Transfer cycles"],
            )
            accel.add_row(
                self.accel_points,
                self.accel_batched,
                self.accel_bioseal_points,
                self.accel_aphmm_points,
                self.accel_offload_cycles,
                self.accel_transfer_cycles,
            )
            blocks.append(accel.render())
        if self.claims or self.claim_conflicts or self.claim_steals:
            service = Table(
                "Sweep service",
                ["Claims", "Conflicts", "Steals", "Heartbeats",
                 "Lost leases"],
            )
            service.add_row(
                self.claims,
                self.claim_conflicts,
                self.claim_steals,
                self.heartbeats,
                self.lost_leases,
            )
            blocks.append(service.render())
        if (self.net_retries or self.breaker_trips or self.remote_hits
                or self.remote_pushes or self.queued_pushes
                or self.drained_pushes):
            resilience = Table(
                "Resilience",
                ["Retries", "Breaker trips", "Degraded (s)",
                 "Remote hits", "Remote pushes", "Queued", "Drained"],
            )
            resilience.add_row(
                self.net_retries,
                self.breaker_trips,
                f"{self.degraded_seconds:.2f}",
                self.remote_hits,
                self.remote_pushes,
                self.queued_pushes,
                self.drained_pushes,
            )
            blocks.append(resilience.render())
        if self.notes:
            blocks.append(
                "\n".join(f"note: {message}" for message in self.notes)
            )
        if self.failures:
            failed = Table(
                "Failed design points",
                ["App", "Variant", "Config", "Kind", "Error", "Attempts"],
            )
            for failure in self.failures:
                failed.add_row(
                    failure.app,
                    failure.variant,
                    failure.config_digest,
                    failure.kind,
                    failure.error_type,
                    failure.attempts,
                )
            blocks.append(failed.render())
        if per_point and self.points:
            table = Table(
                "Per-point engine telemetry",
                ["App", "Variant", "Config", "Source", "Wall (s)",
                 "Instructions", "Sim MIPS"],
            )
            for point in self.points:
                table.add_row(
                    point.app,
                    point.variant,
                    point.config_digest,
                    point.source,
                    f"{point.wall_seconds:.3f}",
                    point.instructions,
                    f"{point.mips:.2f}",
                )
            blocks.append(table.render())
        return "\n\n".join(blocks)
