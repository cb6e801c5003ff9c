"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 10 --trace 0

runs whole repetitions of the workload, each in a fresh process
(``child.py``), until ``--seconds`` of timed work have passed (and at
least ``MIN_REPETITIONS``), then adds set-up probes until there are
three set-up samples. It prints each end-to-end metric (``--trace 0``)
or each per-layer metric of one traced repetition (``--trace 1``) by
name and unit, the correctness verdict, the environment fingerprint
and, as its last line, one JSON object. See README.md in this
directory.

The first run in a checkout builds, under ``.bench_build/perfbench``,
the native replay kernel and the stores the warm and sweep workloads
start from.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402
from tracer import PER_LAYER_METRICS  # noqa: E402

#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Repetitions per run, at the least. One repetition of the two short
#: workloads spread by up to a fifth of its median from run to run on a
#: host whose speed drifts; a second repetition averages over twice the
#: time. ``paper_cold`` is long enough alone.
MIN_REPETITIONS = {"paper_cold": 1, "paper_warm": 2, "sweep_dse": 2}
#: A run must end within 180 s; stop starting repetitions before this.
RUN_BUDGET_S = 165.0
#: The first run in a checkout also builds, within 900 s.
BUILD_BUDGET_S = 700.0

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
    "points_per_s": "points/s",
}


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a wrong output)."""


def child_env() -> dict:
    """The pinned environment every measured process runs in."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        TMPDIR=str(WORK / "tmp"),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def fingerprint() -> dict:
    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True,
                            text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        cc = None
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cc": cc,
        "native": any((WORK / "tmp").glob("repro-native-*/replay_*.so")),
        "PYTHONDONTWRITEBYTECODE": {
            "caller": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "pinned": "1",
        },
    }


def spawn(workload: str, seed: int, deadline: float, *, store=None,
          trace: int = 0, setup_only: bool = False, recheck: bool = False,
          cache=None) -> dict:
    """One child process; returns its report."""
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    rep = runs / f"rep-{os.getpid()}"
    shutil.rmtree(rep, ignore_errors=True)
    rep.mkdir()
    out, log = rep / "report.json", rep / "child.log"
    cache = Path(cache) if cache is not None else rep / "cache"
    command = [
        sys.executable, str(BENCH / "child.py"),
        "--workload", workload, "--seed", str(seed), "--cache", str(cache),
        "--out", str(out), "--trace", str(trace),
    ]
    if store is not None:
        command += ["--store", str(store)]
    if setup_only:
        command.append("--setup-only")
    if recheck:
        command.append("--recheck")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a repetition could start")
    try:
        with open(log, "w") as handle:
            spawned = time.monotonic()
            code = subprocess.run(
                command + ["--spawned", repr(spawned)], env=child_env(),
                cwd=ROOT, stdout=handle, stderr=subprocess.STDOUT,
                timeout=timeout,
            ).returncode
        if code != 0 or not out.exists():
            tail = log.read_text()[-2000:]
            raise BenchError(f"{workload} child exited {code}:\n{tail}")
        return json.loads(out.read_text())
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} child exceeded {timeout:.0f} s") \
            from None
    finally:
        shutil.rmtree(rep, ignore_errors=True)


# -- the stores built once per checkout ---------------------------------------

def source_key() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ledger_path() -> Path:
    return WORK / f"ledger-{source_key()}.jsonl"


def record(report: dict) -> None:
    """Append an untraced repetition's wall time to the ledger."""
    with open(ledger_path(), "a") as handle:
        handle.write(json.dumps({
            "workload": report["workload"], "seed": report["seed"],
            "wall_s": report["wall_s"],
        }) + "\n")


def ledger_walls(workload: str) -> list[float]:
    path = ledger_path()
    if not path.exists():
        return []
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    return [row["wall_s"] for row in rows if row["workload"] == workload]


def stores() -> tuple[Path, Path]:
    """``(warm, traces)``: a cache one cold run filled, and a copy of it
    holding traces only. Built once per source tree, under a lock.

    The building run is an ordinary ``paper_cold`` repetition; it also
    compiles the native replay kernel into the pinned ``TMPDIR``. It is
    not gated: a store built by wrong code makes the warm and sweep
    repetitions fail their own gates."""
    base = WORK / "stores" / source_key()
    warm, traces, ready = base / "warm", base / "traces", base / "READY"
    base.mkdir(parents=True, exist_ok=True)
    (WORK / "tmp").mkdir(exist_ok=True)
    with open(base / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not ready.exists():
            shutil.rmtree(warm, ignore_errors=True)
            shutil.rmtree(traces, ignore_errors=True)
            record(spawn("paper_cold", workloads.DEFAULT_SEED,
                         time.monotonic() + BUILD_BUDGET_S, cache=warm))
            shutil.copytree(warm, traces, ignore=lambda _dir, names: [
                name for name in names if name in ("results", "runs")
            ])
            ready.write_text(json.dumps(fingerprint()))
    return warm, traces


# -- measuring ---------------------------------------------------------------

def failures(report: dict, golden: dict) -> int:
    if "render_digests" in report:
        return len(workloads.experiment_failures(
            report["render_digests"], golden))
    rechecked = {int(i): d for i, d in report["rechecked"].items()}
    return workloads.sweep_failures(
        report["seed"], report["digests"], golden, rechecked
    )


def attempted(report: dict) -> int:
    return len(report["render_digests"]) if "render_digests" in report \
        else report["points"]


def repetitions(args, store, deadline: float) -> list[dict]:
    """Untraced repetitions until ``--seconds`` of timed work, and at
    least the workload's ``MIN_REPETITIONS``."""
    reports: list[dict] = []
    spent = 0.0
    while len(reports) < MIN_REPETITIONS[args.workload] \
            or spent < args.seconds:
        if reports and time.monotonic() + 1.5 * reports[-1]["wall_s"] \
                > deadline:
            break
        # One unbatched recheck of the sweep per run is enough: every
        # repetition characterizes the same points.
        report = spawn(args.workload, args.seed, deadline, store=store,
                       recheck=not reports)
        record(report)
        reports.append(report)
        spent += report["wall_s"]
    return reports


def end_to_end(reports: list[dict], setups: list[float]) -> dict:
    median = statistics.median
    return {
        "wall_s": median(r["wall_s"] for r in reports),
        "cpu_s": median(r["cpu_s"] for r in reports),
        "setup_s": median(setups),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reports),
        "points_per_s": median(r["points"] / r["wall_s"] for r in reports),
    }


def print_table(title: str, rows: list[tuple]) -> None:
    print(title)
    print(f"  {'metric':<26} {'value':>14}  unit")
    for name, value, unit in rows:
        print(f"  {name:<26} {value:>14.6g}  {unit}")


def print_layers(report: dict) -> None:
    wall = report["wall_s"]
    print(f"per-layer self time, traced wall {wall:.3f} s")
    print(f"  {'layer':<12} {'main s':>9} {'producer s':>11} {'main %':>7}")
    for layer, per in sorted(report["self_times"].items(),
                             key=lambda item: -item[1]["main"]):
        print(f"  {layer:<12} {per['main']:>9.3f} {per['producer']:>11.3f}"
              f" {100 * per['main'] / wall:>6.1f}%")
    rest = report["layers"]["unattributed_s"]
    print(f"  {'unattributed':<12} {rest:>9.3f} {'':>11}"
          f" {100 * rest / wall:>6.1f}%")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        default="paper_warm")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10,
                        help="timed work per run (whole repetitions)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="re-pin golden.json from this source tree")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_golden:
            return write_golden()
        golden = workloads.load_golden()
        warm, traces = stores()
        deadline = time.monotonic() + RUN_BUDGET_S
        store = {"paper_cold": None, "paper_warm": warm,
                 "sweep_dse": traces}[args.workload]
        return measure(args, store, golden, deadline)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def measure(args, store, golden: dict, deadline: float) -> int:
    reports: list[dict] = []
    if args.trace:
        baseline = ledger_walls(args.workload)
        if not baseline:
            reports += repetitions(args, store, deadline)
            baseline = ledger_walls(args.workload)
        traced = spawn(args.workload, args.seed, deadline, store=store,
                       trace=1, recheck=True)
        reports.append(traced)
        metrics = dict(traced["layers"])
        metrics["setup.import_s"] = traced["import_s"]
        metrics["setup.copy_s"] = traced["copy_s"]
        metrics["trace_overhead_s"] = (
            traced["wall_s"] - statistics.median(baseline)
        )
        units = dict(PER_LAYER_METRICS)
    else:
        reports = repetitions(args, store, deadline)
        setups = [r["setup_s"] for r in reports]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(args.workload, args.seed, deadline,
                                store=store, setup_only=True)["setup_s"])
        metrics = end_to_end(reports, setups)
        units = END_TO_END_UNITS

    tried = sum(attempted(r) for r in reports)
    failed = sum(failures(r, golden) for r in reports)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"repetitions {len(reports)}")
    if args.trace:
        print_layers(traced)
    if "experiment_s" in reports[-1]:
        print("experiment seconds: " + ", ".join(
            f"{name} {seconds:.2f}"
            for name, seconds in reports[-1]["experiment_s"].items()))
    print_table("metrics", [(name, metrics[name], unit)
                            for name, unit in units.items()])
    print(f"correctness gate: {'pass' if failed == 0 else 'FAIL'}  "
          f"failed {failed}/{tried} ({100 * failed / tried:.1f}%)")
    print(f"environment: {json.dumps(fingerprint())}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tried,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def write_golden() -> int:
    """Pin the current sources' digests into golden.json."""
    warm, traces = stores()
    deadline = time.monotonic() + BUILD_BUDGET_S
    paper = spawn("paper_warm", workloads.DEFAULT_SEED, deadline, store=warm)
    sweep = spawn("sweep_dse", workloads.DEFAULT_SEED, deadline,
                  store=traces, recheck=True)
    if any(sweep["digests"][int(i)] != digest
           for i, digest in sweep["rechecked"].items()):
        raise BenchError("batched and unbatched sweep results disagree")
    golden = {
        "experiments": {
            name: digest for name, digest in paper["render_digests"].items()
            if name not in workloads.UNDIGESTED
        },
        "sweep_dse": {
            "seed": workloads.DEFAULT_SEED,
            "points": sweep["points"],
            "digest": workloads.combined_digest(sweep["digests"]),
        },
    }
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
