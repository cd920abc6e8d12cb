"""Serving benchmark: one workload through BatchPredictor, service, daemon, cluster.

    python3 perfbench/run.py --workload known_params --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from ``src/``.  Workloads (see perfbench/README.md):

* ``calibrate`` -- two clients, small inline jobs with no parameters, so
  every story runs grid + multi-start LM calibration in the daemon.
* ``known_params`` -- two clients, store-backed jobs scored with the
  paper's parameters: one forward solve plus Eq. 8 scoring per story.

With ``--trace 0`` the daemons are started as separate processes and
driven closed-loop for ``--seconds``; every end-to-end metric is printed.
With ``--trace 1`` the pool is timed layer by layer instead (see
ledger.py), through a daemon and through a cluster router with two worker
daemons on localhost TCP, and every per-layer metric is printed.  Either way every
streamed result is checked against a ``BatchPredictor`` reference, and the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import asyncio
import inspect
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("calibrate", "known_params")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: ``job_latency_tail_s`` is the slowest job with this many jobs beyond it.
TAIL_JOBS_BEYOND = 10
#: The whole-run watchdog fires this long after ``--seconds`` would end a
#: time-limited run: set-ups, inputs, reference, warm-up and the drain of
#: the jobs in flight.
WATCHDOG_MARGIN_S = 110
#: Runs of fixed work (``calibrate``, every traced run) ignore ``--seconds``
#: and measure for at most this long.
FIXED_WORK_S = 60
BLAS_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def environment() -> dict:
    """What the numbers depend on: machine, versions and program defaults."""
    import numpy
    import scipy

    from repro import CalibrationConfig, SolverConfig, calibrate_dl_model
    from repro.service import PredictionService

    grid = inspect.signature(calibrate_dl_model).parameters
    service = inspect.signature(PredictionService).parameters
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "defaults": {
            **{
                name: service[name].default
                for name in ("max_workers", "max_shard_size", "queue_depth", "executor")
            },
            "solver": asdict(SolverConfig()),
            "calibration": asdict(CalibrationConfig()),
            # BatchPredictor calibrates at calibrate_dl_model's own grid,
            # whatever SolverConfig says.
            "calibration_grid": {
                "points_per_unit": grid["points_per_unit"].default,
                "max_step": grid["max_step"].default,
            },
        },
    }


def tail_latency(latencies: "list[float]") -> "tuple[float, float]":
    """The slowest job with ten jobs beyond it, and its percentile.

    With ``n`` jobs that is the 11th slowest, at percentile
    ``100 * (n - 11) / (n - 1)``.  A run of ten jobs or fewer has no such
    job, and its tail is the slowest job (p100).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_JOBS_BEYOND:
        return ordered[-1], 100.0
    rank = n - 1 - TAIL_JOBS_BEYOND
    return ordered[rank], 100.0 * rank / (n - 1)


async def timed_run(workload, launcher, seconds: float, clients: int, expected: dict):
    """Set up ``SETUPS`` times, warm up, then drive the last deployment."""
    from daemons import Deployment
    from load import Tally, closed_loop, sequential

    setups = []
    for index in range(SETUPS):
        deployment = Deployment(launcher, workload.mode, f"{workload.name}-{index}")
        setups.append(await deployment.start(workload.probe))
        if index < SETUPS - 1:
            await deployment.stop()
    try:
        warmup = (await sequential(deployment.address, [workload.warmup], workload.deadline_s))[0]
        if not warmup.completed or any(
            event.get("status") != "succeeded" for event in warmup.events.values()
        ):
            raise RuntimeError(f"warm-up job failed: {warmup.error or warmup.events}")
        cpu_before = deployment.cpu_seconds()
        start, records = await closed_loop(deployment.address, workload, clients, seconds)
        cpu_seconds = deployment.cpu_seconds() - cpu_before
        peak_rss_mb = deployment.peak_rss_mb()
        processes = len(deployment.pids)
    finally:
        await deployment.stop()

    tally = Tally().add(records, expected)
    completed = [record for record in records if record.completed]
    if not completed or not tally.succeeded:
        raise RuntimeError(f"no job completed: {tally.problems[:5]}")
    wall = max(record.done for record in records) - start
    latencies = [record.latency for record in completed]
    tail, tail_percentile = tail_latency(latencies)
    first = [record.first_result - record.submitted for record in completed if record.first_result]
    metrics = {
        "stories_per_s": (tally.succeeded / wall, "1/s", tally.succeeded),
        "job_latency_p50_s": (statistics.median(latencies), "s", len(latencies)),
        "job_latency_tail_s": (tail, "s", len(latencies)),
        "first_result_s": (statistics.median(first), "s", len(first)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "accuracy_eq8_mean": (
            statistics.fmean(tally.accuracy.values()),
            "accuracy",
            len(tally.accuracy),
        ),
        "daemon_peak_rss_mb": (peak_rss_mb, "MiB", processes),
        "daemon_cpu_s_per_story": (cpu_seconds / tally.succeeded, "s", tally.succeeded),
    }
    details = {
        "clients": clients,
        "jobs": len(records),
        "jobs_completed": len(completed),
        "wall_s": wall,
        "tail_percentile": tail_percentile,
        "jobs_beyond_tail": sum(1 for value in latencies if value > tail),
        "setup_samples_s": setups,
    }
    return metrics, tally, details


def traced_run(workload, launcher, recorder):
    from ledger import in_process, per_layer_metrics, through_daemons

    layers = in_process(workload, recorder)
    timings = asyncio.run(through_daemons(workload, launcher, recorder))
    metrics, tally = per_layer_metrics(recorder, layers, timings, len(workload.jobs))
    return {name: (value, unit, layers["stories"]) for name, (value, unit) in metrics.items()}, tally


def run(args, workdir: Path) -> int:
    from daemons import Launcher
    from inputs import make_workload, materialize, parallel_reference, resolve_jobs
    from spans import SpanRecorder

    workload = make_workload(args.workload, args.seed, workdir)
    recorder = SpanRecorder(trace_id=f"{args.workload}-seed{args.seed}-trace{args.trace}")
    launcher = Launcher(workdir)
    try:
        if args.trace:
            metrics, tally = traced_run(workload, launcher, recorder)
            details = {}
        else:
            processes = min(2, len(os.sched_getaffinity(0)))
            jobs = materialize(resolve_jobs(workload, recorder), recorder)
            expected = parallel_reference(workload.parameters, jobs, processes)
            metrics, tally, details = asyncio.run(
                timed_run(workload, launcher, args.seconds, processes, expected)
            )
    finally:
        launcher.kill_all()
        recorder.write(ROOT / ".perfbench_work" / f"spans-{recorder.trace_id}.jsonl")

    correct = tally.mismatched == 0
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "attempted": tally.attempted,
        "succeeded": tally.succeeded,
        "failed": tally.failed,
        "correctness_check": "passed" if correct and not tally.failed else "failed",
        "problems": tally.problems[:10],
        "metrics": {
            name: {"value": value, "unit": unit, "samples": samples}
            for name, (value, unit, samples) in metrics.items()
        },
        **details,
    }
    print(json.dumps(report, sort_keys=True))
    print(
        f"{args.workload} seed {args.seed}: attempted {tally.attempted}, "
        f"succeeded {tally.succeeded}, failed {tally.failed}, "
        f"correctness check {report['correctness_check']}"
    )
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<9} n={samples}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()
                },
            }
        )
    )
    return 0


class RunTimeout(BaseException):
    """Raised by the watchdog or on SIGTERM.  Not an ``Exception`` (nor the
    ``OSError`` that ``TimeoutError`` is), so no per-job handler can swallow
    it, and the daemons are stopped on the way out."""


def _watchdog(signum, frame):
    raise RunTimeout("the benchmark run exceeded its watchdog")


def _terminated(signum, frame):
    raise RunTimeout("the benchmark run was terminated")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _watchdog)
    signal.signal(signal.SIGTERM, _terminated)
    signal.alarm(math.ceil(max(args.seconds, FIXED_WORK_S)) + WATCHDOG_MARGIN_S)
    started = time.perf_counter()
    try:
        return run(args, workdir)
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
        print(f"run took {time.perf_counter() - started:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
