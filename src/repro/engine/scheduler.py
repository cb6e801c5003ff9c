"""Fault-tolerant process-pool fan-out of design points.

The scheduler deduplicates in-flight keys (a sweep that names the same
(app, variant, config) twice simulates it once), fans the unique
pending points out over a ``concurrent.futures`` process pool, and
merges worker results — and worker telemetry — back into the parent
engine. Workers share the parent's persistent cache directory, so a
trace or result any worker generates is visible to every later run.

Unlike a plain ``pool.map``, one bad point cannot abort the sweep:

* every point is submitted as its own future and carries a deadline
  (``timeout`` / ``REPRO_POINT_TIMEOUT``; a hung worker is reclaimed by
  killing and rebuilding the pool);
* a worker exception, crash, or timeout is retried with exponential
  backoff up to ``retries`` (``REPRO_POINT_RETRIES``) extra attempts;
* a worker process dying (``BrokenProcessPool``) rebuilds the pool and
  resumes the remaining points; because the crash takes every in-flight
  future down with it, the victims are resubmitted **one at a time**
  (uncharged) so the culprit is identified exactly and innocent points
  are never billed for someone else's crash;
* if the pool keeps dying (more than ``max_rebuilds`` rebuilds) the
  remaining points degrade gracefully to serial in-process execution;
* points that still fail after retries become structured
  :class:`~repro.engine.telemetry.PointFailure` telemetry. Under
  ``on_error="raise"`` (the default) the sweep then raises
  :class:`~repro.errors.SweepError` naming exactly the failed points;
  under ``on_error="keep_going"`` the completed points are returned in
  input order with ``None`` in the failed slots.

Job count resolution: explicit argument, else the ``REPRO_JOBS``
environment variable, else ``os.cpu_count()``. The serial paths
(``jobs=1`` or a single pending unit) run in-process: retries and
failure records still apply, but timeouts are not enforced and a
hard-crashing point takes the parent down — use ``jobs >= 2`` when
fault isolation matters.

Batched multi-config simulation (``REPRO_BATCH``, default on): pending
points that share a workload trace — the same ``(app, variant)``, which
within one run is the trace-digest equivalence class
(:func:`group_by_trace`) — are dispatched as one :class:`_BatchTask`
whose worker decodes the trace once and drives every config through
:meth:`Engine.characterize_batch`. Results fan back into the memo, the
persistent cache and the run journal exactly as if each point ran
alone (byte-identical payloads, one ``point_done`` record per point).
A batch is never retried as a unit: any failure — worker exception,
crash, or deadline — explodes it back into its constituent points,
which then retry under the normal per-point policy, so a single bad
point can only ever fail itself. Sweeps with a custom ``worker`` (test
instrumentation) never batch. Independently of batching, every sweep
prewarms the in-memory trace decode once per trace-sharing group
before the pool forks, so non-batched workers inherit warm decodes
instead of re-inflating the same tracestore blob per point.

Parallel output is byte-identical to serial output because every point
is deterministic, simulated on a fresh core, and results are merged
back by key (never by completion order).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import traceback as traceback_module
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.errors import SweepError, SweepInterrupted, WorkloadError
from repro.uarch.config import CoreConfig

#: Error policies for :func:`fan_out`.
ON_ERROR_RAISE = "raise"
ON_ERROR_KEEP_GOING = "keep_going"

#: Default bounded-retry / backoff / rebuild knobs (env-overridable).
DEFAULT_RETRIES = 1
DEFAULT_BACKOFF_SECONDS = 0.05
DEFAULT_MAX_REBUILDS = 3

#: How often the pool loop wakes to check for a delivered SIGINT/SIGTERM
#: when graceful-interrupt handlers are installed (a signal interrupts
#: ``wait`` but cannot make it return early, so the loop polls).
_INTERRUPT_POLL_SECONDS = 0.25

#: Telemetry/SweepError caveat for the in-process execution path.
SERIAL_TIMEOUT_NOTE = (
    "serial path (jobs=1 or a single pending point): per-point timeouts "
    "are not enforced, so a hang is the design point itself, not a "
    "scheduler fault; use jobs >= 2 to enforce deadlines"
)


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit > ``REPRO_JOBS`` > ``os.cpu_count()``."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise WorkloadError(
                    f"REPRO_JOBS must be an integer, got {env!r}"
                ) from None
        else:
            jobs = os.cpu_count() or 1
    if jobs < 1:
        raise WorkloadError(f"jobs must be >= 1, got {jobs}")
    return jobs


def resolve_timeout(timeout: float | None = None) -> float | None:
    """Per-point deadline in seconds: explicit > ``REPRO_POINT_TIMEOUT``.

    ``None`` or a non-positive value disables the deadline.
    """
    if timeout is None:
        env = os.environ.get("REPRO_POINT_TIMEOUT", "").strip()
        if env:
            try:
                timeout = float(env)
            except ValueError:
                raise WorkloadError(
                    f"REPRO_POINT_TIMEOUT must be a number, got {env!r}"
                ) from None
    if timeout is not None and timeout <= 0:
        return None
    return timeout


def resolve_retries(retries: int | None = None) -> int:
    """Extra attempts per point: explicit > ``REPRO_POINT_RETRIES`` > 1."""
    if retries is None:
        env = os.environ.get("REPRO_POINT_RETRIES", "").strip()
        if env:
            try:
                retries = int(env)
            except ValueError:
                raise WorkloadError(
                    f"REPRO_POINT_RETRIES must be an integer, got {env!r}"
                ) from None
        else:
            retries = DEFAULT_RETRIES
    if retries < 0:
        raise WorkloadError(f"retries must be >= 0, got {retries}")
    return retries


def resolve_backoff(backoff: float | None = None) -> float:
    """Base retry backoff in seconds: explicit > ``REPRO_RETRY_BACKOFF``."""
    if backoff is None:
        env = os.environ.get("REPRO_RETRY_BACKOFF", "").strip()
        if env:
            try:
                backoff = float(env)
            except ValueError:
                raise WorkloadError(
                    f"REPRO_RETRY_BACKOFF must be a number, got {env!r}"
                ) from None
        else:
            backoff = DEFAULT_BACKOFF_SECONDS
    if backoff < 0:
        raise WorkloadError(f"backoff must be >= 0, got {backoff}")
    return backoff


def resolve_batch(batch: bool | None = None) -> bool:
    """Batched simulation switch: explicit > ``REPRO_BATCH`` > on.

    ``REPRO_BATCH=off`` (also ``0`` / ``false`` / ``no``) disables
    trace-sharing batch dispatch; anything else leaves it enabled.
    """
    if batch is not None:
        return batch
    env = os.environ.get("REPRO_BATCH", "").strip().lower()
    return env not in ("off", "0", "false", "no")


def group_by_trace(tasks) -> dict:
    """Group pending tasks by the workload trace their points replay.

    Two design points share a trace pass iff they name the same
    ``(app, variant)`` pair: the trace store content-addresses traces
    by workload and source digest, so within a single run the pair *is*
    the trace-digest equivalence class. Returns
    ``{(app, variant): [task, ...]}`` in first-seen order.
    """
    groups: dict = {}
    for task in tasks:
        app, variant, _ = task.point
        groups.setdefault((app, variant), []).append(task)
    return groups


def _prewarm_traces(tasks, engine) -> None:
    """Decode each trace-sharing group's workload trace exactly once.

    Runs in the parent before the pool is created, so forked workers
    inherit the warm in-memory decode instead of each re-inflating the
    same tracestore blob. Failures are swallowed: an unknown app or
    variant must surface later as that *point's* failure, not abort the
    sweep during warming.
    """
    from repro.accel.config import AccelConfig
    from repro.perf.characterize import background_trace, kernel_trace

    for (app, variant), group in group_by_trace(tasks).items():
        # Accelerator points never replay a workload trace — warming
        # one for them would pay the decode for nothing.
        group = [
            task for task in group
            if not isinstance(task.point[2], AccelConfig)
        ]
        if not group:
            continue
        try:
            kernel_trace(app, variant)
            background_trace(app)
        except Exception:
            continue
        engine.stats.decode_reuse_hits += len(group) - 1


def _pool_context():
    """Prefer fork (workers inherit warm in-memory trace caches)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _worker_init(graceful_parent: bool) -> None:
    """Reset signal disposition in pool workers.

    Forked workers inherit whatever handlers the parent had at fork
    time — including :class:`_InterruptWatch`'s graceful SIGTERM
    handler, which merely sets a flag and would make workers immune to
    ``Process.terminate()``. Workers must always die on SIGTERM (that
    is how hung or orphaned workers are reclaimed). Under a graceful
    parent they additionally ignore SIGINT: a terminal Ctrl-C goes to
    the whole process group, and the *parent* decides how to stop.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if graceful_parent:
        signal.signal(signal.SIGINT, signal.SIG_IGN)


def _characterize_worker(task):
    """Run one design point in a worker process (module-level: picklable).

    The worker re-points its process-wide cache at the parent's
    directory explicitly (the perf-layer trace store persists through
    the process-wide cache, not the engine's private one), then runs the
    point on a process-wide-cache-backed engine so trace and result
    counters both land in the returned telemetry.
    """
    app, variant, config, cache_root = task
    from repro.engine.cache import use_cache_dir
    from repro.engine.engine import Engine

    use_cache_dir(cache_root)
    engine = Engine()
    result = engine.characterize(app, variant, config)
    return app, variant, config, result, engine.stats


def _characterize_batch_worker(task):
    """Run one trace-sharing batch in a worker process (picklable).

    Mirrors :func:`_characterize_worker` but drives every config of the
    group through :meth:`Engine.characterize_batch`, so the shared
    workload trace is decoded and frontend-walked once for the whole
    batch. Returns the ordered results plus the worker's telemetry
    (one :class:`PointRecord` per point, batch counters included).
    """
    app, variant, configs, cache_root = task
    from repro.engine.cache import use_cache_dir
    from repro.engine.engine import Engine

    use_cache_dir(cache_root)
    engine = Engine()
    results = engine.characterize_batch(app, variant, list(configs))
    return app, variant, results, engine.stats


class _Task:
    """One pending point's scheduling state."""

    __slots__ = ("key", "point", "attempts")

    def __init__(self, key, point):
        self.key = key
        self.point = point
        self.attempts = 0


class _BatchTask:
    """Scheduling state for one trace-sharing group of pending points.

    Dispatched as a single unit through
    :func:`_characterize_batch_worker` (pool) or
    :meth:`Engine.characterize_batch` (serial). Never retried as a
    unit: any failure explodes the batch back into its constituent
    :class:`_Task` objects, which retry under the normal per-point
    policy — so batching can change throughput but never which points
    succeed or fail.
    """

    __slots__ = ("key", "app", "variant", "tasks", "attempts")

    def __init__(self, app, variant, tasks):
        self.key = ("batch", app, variant)
        self.app = app
        self.variant = variant
        self.tasks = tasks
        self.attempts = 0


def _batch_tasks(tasks) -> list:
    """Fold trace-sharing groups of two or more points into batches.

    Singleton groups stay plain :class:`_Task`s — there is nothing to
    share, and the single-config path avoids the batch bookkeeping.
    """
    out: list = []
    for (app, variant), group in group_by_trace(tasks).items():
        if len(group) >= 2:
            out.append(_BatchTask(app, variant, group))
        else:
            out.extend(group)
    return out


class _Interrupted(Exception):
    """Internal: a graceful-stop signal arrived mid-sweep."""

    def __init__(self, signal_name: str) -> None:
        self.signal_name = signal_name
        super().__init__(signal_name)


class _InterruptWatch:
    """Deferred SIGINT/SIGTERM: first signal requests a graceful stop.

    Installed only while a journaled sweep runs in the main thread. The
    first signal sets a flag the scheduler loops poll — the journal is
    already flushed record-by-record, so stopping between completions
    loses only the in-flight window. A second SIGINT falls through to
    :class:`KeyboardInterrupt` so a stuck sweep can still be killed.
    """

    def __init__(self) -> None:
        self.signal_name: str | None = None
        self.installed = False
        self._previous: dict[int, object] = {}

    @property
    def triggered(self) -> bool:
        return self.signal_name is not None

    def _handle(self, signum, frame) -> None:
        if self.signal_name is not None and signum == signal.SIGINT:
            raise KeyboardInterrupt
        self.signal_name = signal.Signals(signum).name

    def __enter__(self) -> "_InterruptWatch":
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    self._previous[signum] = signal.signal(
                        signum, self._handle
                    )
                except (ValueError, OSError):  # pragma: no cover
                    continue
            self.installed = bool(self._previous)
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover
                continue
        self._previous.clear()
        self.installed = False

    def check(self) -> None:
        if self.signal_name is not None:
            raise _Interrupted(self.signal_name)


def _point_failure(task: _Task, kind: str, error_type: str, message: str,
                   tb: str):
    from repro.engine.digest import SHORT_DIGEST, config_digest
    from repro.engine.telemetry import PointFailure

    app, variant, config = task.point
    return PointFailure(
        app=app,
        variant=variant,
        config_digest=config_digest(config)[:SHORT_DIGEST],
        kind=kind,
        error_type=error_type,
        message=message,
        traceback=tb,
        attempts=task.attempts,
    )


def _shutdown_pool(pool, kill: bool = False) -> None:
    """Tear a pool down; ``kill`` terminates workers (hung or broken).

    Termination escalates to SIGKILL for workers that survive SIGTERM —
    otherwise interpreter exit would block forever joining the
    executor's management thread while a hung worker sleeps on.
    """
    if kill:
        processes = list(
            (getattr(pool, "_processes", None) or {}).values()
        )
        for process in processes:
            try:
                process.terminate()
            except Exception:
                pass
        for process in processes:
            try:
                process.join(timeout=5.0)
                if process.is_alive():
                    process.kill()
            except Exception:
                pass
    try:
        pool.shutdown(wait=not kill, cancel_futures=True)
    except Exception:
        pass


def _result_digest(result) -> str:
    """Digest of a point's canonical result payload (for the journal)."""
    from repro.engine import serialize
    from repro.engine.digest import result_payload_digest

    return result_payload_digest(serialize.characterisation_to_dict(result))


def _journal_done(journal, key, result) -> None:
    if journal is not None:
        journal.record_point_done(key, _result_digest(result))


def _batch_counters(engine) -> dict:
    """Snapshot of the engine's batched-simulation telemetry counters.

    Taken before and after a sweep so the run journal records only this
    sweep's contribution (the engine's stats accumulate across sweeps).
    """
    stats = engine.stats
    return {
        "groups": len(stats.batch_sizes),
        "points": stats.batched_points,
        "vectorized": stats.batch_vectorized,
        "fallback": stats.batch_fallback,
        "decode_reuse_hits": stats.decode_reuse_hits,
    }


def _stream_counters(engine) -> dict:
    """Snapshot of the engine's streaming-simulation telemetry.

    Additive counters journal as this-sweep deltas; the two high-water
    marks (queue depth, segment bytes) journal as their current values.
    """
    stats = engine.stats
    return {
        "streams": stats.stream_streams,
        "segments_produced": stats.stream_segments_produced,
        "segments_consumed": stats.stream_segments_consumed,
        "handoffs": stats.stream_handoffs,
        "queue_peak": stats.stream_queue_peak,
        "peak_segment_bytes": stats.stream_peak_segment_bytes,
    }


_STREAM_ADDITIVE = (
    "streams", "segments_produced", "segments_consumed", "handoffs",
)


def _accel_counters(engine) -> dict:
    """Snapshot of the engine's accelerator-offload telemetry counters.

    Taken before and after a sweep so the run journal records only this
    sweep's contribution (every counter is additive).
    """
    stats = engine.stats
    return {
        "points": stats.accel_points,
        "batched": stats.accel_batched,
        "bioseal_points": stats.accel_bioseal_points,
        "aphmm_points": stats.accel_aphmm_points,
        "offload_cycles": stats.accel_offload_cycles,
        "transfer_cycles": stats.accel_transfer_cycles,
    }


def _journal_failed(journal, key, failure) -> None:
    if journal is not None:
        journal.record_point_failed(
            key, failure.kind, failure.error_type, failure.message
        )


def _run_serial(engine, tasks, retries: int, backoff: float,
                journal=None, watch=None) -> dict:
    """Run ``tasks`` in-process with bounded retries; returns failures.

    Per-point deadlines are **not** enforced here (there is no worker
    process to kill): see :data:`SERIAL_TIMEOUT_NOTE`. A graceful-stop
    signal is honoured between points — an in-flight point runs to
    completion first.
    """
    from repro.engine.telemetry import FAILURE_EXCEPTION

    failures: dict = {}
    queue: deque = deque(tasks)
    while queue:
        task = queue.popleft()
        if watch is not None:
            watch.check()
        if isinstance(task, _BatchTask):
            try:
                results = engine.characterize_batch(
                    task.app, task.variant,
                    [t.point[2] for t in task.tasks],
                )
            except Exception:
                # Never charged and never retried as a unit: the points
                # re-run individually so a bad point only fails itself.
                queue.extendleft(reversed(task.tasks))
            else:
                for t, result in zip(task.tasks, results):
                    _journal_done(journal, t.key, result)
            continue
        while True:
            task.attempts += 1
            try:
                app, variant, config = task.point
                result = engine.characterize(app, variant, config)
            except Exception as exc:
                if task.attempts > retries:
                    failure = _point_failure(
                        task, FAILURE_EXCEPTION, type(exc).__name__,
                        str(exc), traceback_module.format_exc(),
                    )
                    failures[task.key] = failure
                    _journal_failed(journal, task.key, failure)
                    break
                time.sleep(backoff * (2 ** (task.attempts - 1)))
            else:
                _journal_done(journal, task.key, result)
                break
    return failures


def _run_pool(engine, tasks, workers: int, worker, timeout: float | None,
              retries: int, backoff: float, max_rebuilds: int,
              journal=None, watch=None) -> dict:
    """Drain ``tasks`` through a self-healing process pool.

    Returns a ``{key: PointFailure}`` map for the points that failed
    after retries; every success is adopted into ``engine`` directly
    (and journaled, when a journal is attached). A graceful-stop signal
    kills the pool immediately — every already-journaled completion is
    durable, so only the in-flight window is lost.
    """
    from repro.engine.telemetry import (
        FAILURE_CRASH,
        FAILURE_EXCEPTION,
        FAILURE_TIMEOUT,
    )

    context = _pool_context()
    cache_root = engine.cache.root
    queue: deque = deque(tasks)
    failures: dict = {}
    #: Keys of the points that were in flight when a pool died. While
    #: any remain, submission narrows to one point at a time so the next
    #: crash is attributable to exactly one point.
    suspects: set = set()
    rebuilds = 0
    pool = None
    in_flight: dict = {}  # future -> (task, deadline)

    def charge(task, kind, error_type, message, tb):
        """Bill one attempt; requeue with backoff or record the failure."""
        suspects.discard(task.key)
        if task.attempts > retries:
            failure = _point_failure(task, kind, error_type, message, tb)
            failures[task.key] = failure
            _journal_failed(journal, task.key, failure)
        else:
            if kind == FAILURE_CRASH:
                # Still a crash suspect on its next (isolated) attempt.
                suspects.add(task.key)
            time.sleep(backoff * (2 ** (task.attempts - 1)))
            queue.append(task)

    def explode(task, suspect=False):
        """A failed batch requeues its constituents as individual points.

        The batch attempt is never billed to the points (their own
        attempt counters are untouched); with ``suspect`` the
        constituents drain one at a time so a crashing point is
        identified exactly.
        """
        suspects.discard(task.key)
        for t in task.tasks:
            if suspect:
                suspects.add(t.key)
            queue.append(t)

    def submit_ready():
        if suspects:
            # Surface suspects first, one at a time, so a repeat crash
            # names its culprit exactly.
            ordered = sorted(queue, key=lambda t: t.key not in suspects)
            queue.clear()
            queue.extend(ordered)
        window = 1 if suspects else workers
        while queue and len(in_flight) < window:
            task = queue.popleft()
            task.attempts += 1
            try:
                if isinstance(task, _BatchTask):
                    future = pool.submit(
                        _characterize_batch_worker,
                        (task.app, task.variant,
                         [t.point[2] for t in task.tasks], cache_root),
                    )
                else:
                    future = pool.submit(worker, (*task.point, cache_root))
            except BrokenProcessPool:
                # The pool died under a crash we have not drained yet:
                # put the task back uncharged and let the caller rebuild.
                task.attempts -= 1
                queue.appendleft(task)
                raise
            # A batch's deadline scales with its size: it is doing the
            # work of len(tasks) points in one future.
            scale = len(task.tasks) if isinstance(task, _BatchTask) else 1
            deadline = (
                time.monotonic() + timeout * scale
                if timeout is not None else None
            )
            in_flight[future] = (task, deadline)

    def abandon_pool(kill):
        """Kill/shut the pool; requeue uncharged victims; count a rebuild."""
        nonlocal pool, rebuilds
        for future, (task, _) in list(in_flight.items()):
            # The pool died around them, not because of them: refund the
            # attempt, but isolate them while they drain.
            task.attempts -= 1
            suspects.add(task.key)
            queue.append(task)
        in_flight.clear()
        _shutdown_pool(pool, kill=kill)
        pool = None
        rebuilds += 1
        engine.stats.pool_rebuilds += 1

    try:
        while queue or in_flight:
            if watch is not None and watch.triggered:
                # Graceful stop: the journal already holds every
                # completed point; reclaim the workers and surface the
                # interrupt. In-flight attempts are simply lost (their
                # points re-run on resume).
                _shutdown_pool(pool, kill=True)
                pool = None
                watch.check()
            if pool is None:
                if rebuilds > max_rebuilds:
                    # The pool keeps dying: finish the remainder serially.
                    engine.stats.serial_fallbacks += 1
                    remaining = list(queue)
                    queue.clear()
                    failures.update(
                        _run_serial(
                            engine, remaining, retries, backoff,
                            journal=journal, watch=watch,
                        )
                    )
                    break
                pool = ProcessPoolExecutor(
                    max_workers=workers, mp_context=context,
                    initializer=_worker_init,
                    initargs=(watch is not None and watch.installed,),
                )
            try:
                submit_ready()
            except BrokenProcessPool:
                abandon_pool(kill=True)
                continue
            if not in_flight:
                continue

            wait_for = None
            if timeout is not None:
                now = time.monotonic()
                nearest = min(
                    deadline for _, deadline in in_flight.values()
                )
                wait_for = max(0.0, nearest - now)
            if watch is not None and watch.installed:
                # A signal interrupts wait() but cannot end it early, so
                # cap the sleep: the loop re-checks the flag each lap.
                wait_for = (
                    _INTERRUPT_POLL_SECONDS
                    if wait_for is None
                    else min(wait_for, _INTERRUPT_POLL_SECONDS)
                )
            done, _ = wait(
                set(in_flight), timeout=wait_for,
                return_when=FIRST_COMPLETED,
            )

            crashed: list = []
            for future in done:
                task, _ = in_flight.pop(future)
                try:
                    payload = future.result()
                except BrokenProcessPool as exc:
                    crashed.append((task, exc))
                except Exception as exc:
                    if isinstance(task, _BatchTask):
                        # One bad point must not fail the group: run the
                        # constituents individually instead.
                        explode(task)
                        continue
                    # The worker raised but the pool survived: a plain
                    # per-point failure, charged and bounded-retried.
                    charge(
                        task, FAILURE_EXCEPTION, type(exc).__name__,
                        str(exc),
                        "".join(traceback_module.format_exception(exc)),
                    )
                else:
                    if isinstance(task, _BatchTask):
                        app, variant, results, stats = payload
                        engine.stats.merge(stats)
                        for t, result in zip(task.tasks, results):
                            engine.adopt(app, variant, t.point[2], result)
                            _journal_done(journal, t.key, result)
                        suspects.discard(task.key)
                    else:
                        app, variant, config, result, stats = payload
                        engine.adopt(app, variant, config, result, stats)
                        suspects.discard(task.key)
                        _journal_done(journal, task.key, result)

            if crashed:
                if len(crashed) == 1 and not in_flight:
                    # Exactly one unit was in flight: the crash is its.
                    task, exc = crashed[0]
                    if isinstance(task, _BatchTask):
                        # Any constituent may be the culprit: drain them
                        # one at a time so the next crash names it.
                        explode(task, suspect=True)
                    else:
                        charge(
                            task, FAILURE_CRASH, type(exc).__name__,
                            str(exc), "",
                        )
                else:
                    # Ambiguous: refund everyone, isolate, retry singly.
                    for task, _ in crashed:
                        if isinstance(task, _BatchTask):
                            explode(task, suspect=True)
                        else:
                            task.attempts -= 1
                            suspects.add(task.key)
                            queue.append(task)
                abandon_pool(kill=True)
                continue

            if timeout is not None and in_flight:
                now = time.monotonic()
                expired = [
                    future
                    for future, (_, deadline) in in_flight.items()
                    if deadline <= now
                ]
                if expired:
                    for future in expired:
                        task, _ = in_flight.pop(future)
                        if isinstance(task, _BatchTask):
                            # Too slow as a group: fall back to points
                            # with their own per-point deadlines.
                            explode(task)
                            continue
                        charge(
                            task, FAILURE_TIMEOUT, "TimeoutError",
                            f"design point exceeded {timeout:g}s", "",
                        )
                    # A hung worker can only be reclaimed by killing the
                    # pool; the survivors are requeued uncharged.
                    abandon_pool(kill=True)
    finally:
        if pool is not None:
            _shutdown_pool(pool)
    return failures


def fan_out(
    engine,
    points: list[tuple[str, str, CoreConfig]],
    jobs: int | None = None,
    *,
    on_error: str = ON_ERROR_RAISE,
    timeout: float | None = None,
    retries: int | None = None,
    backoff: float | None = None,
    max_rebuilds: int | None = None,
    worker=None,
    journal=True,
    run_id: str | None = None,
    batch: bool | None = None,
) -> list:
    """Characterize ``points`` with up to ``jobs`` workers.

    Returns results in input order. Points already memoised in
    ``engine`` are served from memory; the rest are deduplicated by
    canonical key and dispatched once each, with per-point deadlines,
    bounded retries, and pool-rebuild recovery (module docstring).

    Under ``on_error="keep_going"`` the failed points' slots hold
    ``None``; under ``on_error="raise"`` a :class:`SweepError` names
    them (successful points stay memoised either way).

    Durability: with ``journal=True`` (the default) and an enabled
    persistent cache, the sweep appends to a run journal
    (``runs/<run_id>.jsonl`` under the cache dir) — a header, one
    fsync'd record per completed/failed point, and a completion footer
    (see :mod:`repro.engine.journal`). While the journal is open,
    SIGINT/SIGTERM request a *graceful* stop: the pool is killed, the
    journal stays valid, and :class:`SweepInterrupted` (naming the
    resumable ``run_id``) is raised instead of a bare
    ``KeyboardInterrupt``. Pass an existing
    :class:`~repro.engine.journal.RunJournal` to continue a resumed
    run (the scheduler then owns and closes it), or ``journal=False``
    to disable durability entirely.

    ``batch`` enables trace-sharing batch dispatch (module docstring);
    ``None`` defers to ``REPRO_BATCH`` (default on). A custom
    ``worker`` disables batching — instrumented workers must see every
    point individually.
    """
    from repro.engine.digest import point_key
    from repro.engine.journal import RunJournal

    if on_error not in (ON_ERROR_RAISE, ON_ERROR_KEEP_GOING):
        raise WorkloadError(
            f"on_error must be {ON_ERROR_RAISE!r} or "
            f"{ON_ERROR_KEEP_GOING!r}, got {on_error!r}"
        )
    jobs = resolve_jobs(jobs)
    timeout = resolve_timeout(timeout)
    retries = resolve_retries(retries)
    backoff = resolve_backoff(backoff)
    if max_rebuilds is None:
        max_rebuilds = DEFAULT_MAX_REBUILDS
    custom_worker = worker is not None
    use_batch = resolve_batch(batch) and not custom_worker
    if worker is None:
        worker = _characterize_worker

    engine.stats.jobs = max(engine.stats.jobs, jobs)

    keys = [point_key(app, variant, config) for app, variant, config in points]
    pending: dict[tuple, _Task] = {}
    for key, point in zip(keys, points):
        if key in engine._memo or key in pending:
            # Served from memory when the ordered output is assembled —
            # a real memo hit, counted once per duplicate request.
            engine.stats.memo_hits += 1
        else:
            pending[key] = _Task(key, point)

    journal_obj: RunJournal | None = None
    if isinstance(journal, RunJournal):
        # A resume attempt: the caller re-opened the run's journal and
        # already replayed its completed points into the memo.
        journal_obj = journal
    elif journal and engine.cache.enabled and pending:
        journal_obj = RunJournal.create(
            engine.cache.root, points, jobs=jobs, run_id=run_id,
        )
        # Memo-served points are durable immediately: their results
        # exist, so a resume must never re-run them.
        for key in dict.fromkeys(keys):
            if key in engine._memo:
                journal_obj.record_point_done(
                    key, _result_digest(engine._memo[key])
                )

    serial_notes: list[str] = []
    failures: dict = {}
    before = _batch_counters(engine)
    stream_before = _stream_counters(engine)
    accel_before = _accel_counters(engine)
    try:
        if pending:
            tasks = list(pending.values())
            if not custom_worker:
                # One decode per trace-sharing group, before any fork,
                # so workers inherit the warm decode (satellite of the
                # batched-simulation work; helps the non-batched path
                # and the serial path alike).
                _prewarm_traces(tasks, engine)
            if use_batch:
                tasks = _batch_tasks(tasks)
            with _InterruptWatch() if journal_obj is not None \
                    else _NullWatch() as watch:
                if jobs == 1 or len(tasks) == 1:
                    if timeout is not None:
                        serial_notes.append(SERIAL_TIMEOUT_NOTE)
                        engine.stats.note(SERIAL_TIMEOUT_NOTE)
                    failures = _run_serial(
                        engine, tasks, retries, backoff,
                        journal=journal_obj, watch=watch,
                    )
                else:
                    failures = _run_pool(
                        engine, tasks, min(jobs, len(tasks)), worker,
                        timeout, retries, backoff, max_rebuilds,
                        journal=journal_obj, watch=watch,
                    )
        if journal_obj is not None:
            after = _batch_counters(engine)
            delta = {
                key: after[key] - before[key] for key in after
            }
            if any(delta.values()):
                journal_obj.record_batch_stats(delta)
            stream_after = _stream_counters(engine)
            stream_delta = {
                key: stream_after[key] - stream_before[key]
                for key in _STREAM_ADDITIVE
            }
            if any(stream_delta.values()):
                stream_delta["queue_peak"] = stream_after["queue_peak"]
                stream_delta["peak_segment_bytes"] = (
                    stream_after["peak_segment_bytes"]
                )
                journal_obj.record_stream_stats(stream_delta)
            accel_after = _accel_counters(engine)
            accel_delta = {
                key: accel_after[key] - accel_before[key]
                for key in accel_after
            }
            if any(accel_delta.values()):
                journal_obj.record_accel_stats(accel_delta)
            journal_obj.record_complete(len(failures))
    except _Interrupted as stop:
        unique = list(dict.fromkeys(keys))
        done = sum(1 for key in unique if key in engine._memo)
        raise SweepInterrupted(
            journal_obj.run_id if journal_obj is not None else None,
            stop.signal_name, done, len(unique) - done,
        ) from None
    finally:
        if journal_obj is not None:
            journal_obj.close()

    if failures:
        for failure in failures.values():
            engine.stats.record_failure(failure)
        if on_error == ON_ERROR_RAISE:
            raise SweepError(failures.values(), notes=serial_notes)

    return [engine._memo.get(key) for key in keys]


class _NullWatch:
    """Watch stand-in for unjournaled sweeps (signals untouched)."""

    installed = False
    triggered = False
    signal_name = None

    def __enter__(self) -> "_NullWatch":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def check(self) -> None:
        return None
