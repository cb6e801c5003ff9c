"""One measured repetition of a workload, in a fresh process.

``run.py`` starts this script once per repetition (and once per set-up
probe) and reads the JSON it writes. Set-up is everything from the
process spawn to the start of the timed section: interpreter start,
imports, preparing the cache directory and building the sweep's points.
The timed section is the workload alone; the digests the correctness
gate needs, and the sweep's unbatched recheck, come after it.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def _cpu_seconds() -> float:
    """User plus system CPU of this process and its children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache", required=True,
                        help="this repetition's cache directory")
    parser.add_argument("--store", default=None,
                        help="store copied into --cache during set-up")
    parser.add_argument("--out", required=True, help="result JSON path")
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--recheck", action="store_true",
                        help="re-simulate a sample of sweep points unbatched")
    args = parser.parse_args(argv)

    import workloads

    started = time.perf_counter()
    from repro.engine.cache import use_cache_dir
    if args.workload == "sweep_dse":
        import repro.engine.engine  # noqa: F401  (what the sweep runs)
    else:
        import repro.experiments  # noqa: F401
    import_s = time.perf_counter() - started

    started = time.perf_counter()
    cache = Path(args.cache)
    if args.store:
        shutil.copytree(args.store, cache)
    else:
        cache.mkdir(parents=True)
    use_cache_dir(cache)
    copy_s = time.perf_counter() - started
    points = (workloads.sweep_points(args.seed)
              if args.workload == "sweep_dse" else None)

    tracer = restore = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        restore = tracing.instrument(tracer)

    report = {"workload": args.workload, "seed": args.seed,
              "import_s": import_s, "copy_s": copy_s}
    timed_start = time.monotonic()
    report["setup_s"] = timed_start - args.spawned
    if args.setup_only:
        Path(args.out).write_text(json.dumps(report))
        return 0

    cpu_start = _cpu_seconds()
    wall_start = time.perf_counter()
    if points is None:
        renders, seconds, prefetched = workloads.run_experiments()
    else:
        results = workloads.run_sweep(points)
    wall_s = time.perf_counter() - wall_start
    report["cpu_s"] = _cpu_seconds() - cpu_start
    report["wall_s"] = wall_s
    report["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        restore()
        report["layers"] = tracing.layer_metrics(tracer, wall_s)
        report["self_times"] = tracing.self_times(tracer)

    if points is None:
        report["points"] = prefetched
        report["experiment_s"] = seconds
        report["render_digests"] = {
            name: None if text is None else workloads.text_digest(text)
            for name, text in renders.items()
        }
    else:
        report["points"] = len(points)
        digests = [workloads.payload_digest(result) for result in results]
        report["digests"] = digests
        report["rechecked"] = {}
        if args.recheck:
            indices = workloads.recheck_sample(args.seed, len(points))
            report["rechecked"] = dict(zip(
                map(str, indices),
                workloads.recheck(points, indices, cache / "recheck"),
            ))
    Path(args.out).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
