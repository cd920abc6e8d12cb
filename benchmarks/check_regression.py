"""CI perf-regression gate for the substrate benchmark.

Compares a freshly generated ``substrate-benchmark.json`` (see
``bench_substrate_performance.py --json``) against the checked-in baseline at
``benchmarks/baselines/substrate-baseline.json`` and exits non-zero when the
performance or the numerical equivalence of the optimised paths regressed::

    PYTHONPATH=src python benchmarks/bench_substrate_performance.py \
        --quick --json substrate-benchmark.json
    python benchmarks/check_regression.py substrate-benchmark.json

Three families of checks run:

* **Correctness-equivalence** (absolute, machine-independent): the batched /
  banded paths must still reproduce the sequential / dense references to
  tight tolerances.  Any violation fails the gate regardless
  of timing.  Four absolute ceilings share this family: the no-op tracing
  overhead, the solver's fixed-point iterations per time step and its time
  discretisation error against a fine-dt reference, and the LM iterations
  of a fit whose optimum has a parameter on its bound.
* **Speedup ratios vs the baseline** (dimensionless, machine-independent):
  each optimised-vs-reference speedup measured *within one run* must not
  fall below ``baseline / max_slowdown`` (default 1.3x).  Ratios are used
  instead of raw seconds so the gate is stable across differently sized CI
  machines.
* **Hard floors** from the acceptance criteria: the banded operator must
  stay at least 2x faster than dense LU per step at n = 4000, the async
  prediction service at least 2x faster than the sequential per-story loop
  at corpus size 100, the daemon's submission round-trip must stay
  within 2.5x of the in-process service on the same corpus (efficiency
  floor 0.4), the process execution backend must reach a
  core-count-normalized scaling efficiency of 0.625 at 4 workers vs 1
  (>= 2.5x speedup on any >=4-core runner), the cluster backend's routing
  overhead against a 2-worker localhost fleet must stay within 4x of the
  thread executor (efficiency floor 0.25), and the corpus store must
  open+resolve at least 2x faster than the inline-manifest path while
  scoring bit-identically inside its bounded-RSS budget.

Each run also appends its dimensionless ratios to
``benchmarks/history/ratios.jsonl`` (disable with ``--no-history``), so CI
can archive a trend line across runs and slow drifts inside the 1.3x band
stay visible.

Regenerate the baseline (only when a PR intentionally changes the
performance envelope) with::

    PYTHONPATH=src python benchmarks/bench_substrate_performance.py \
        --quick --json benchmarks/baselines/substrate-baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).parent / "baselines" / "substrate-baseline.json"
DEFAULT_HISTORY_DIR = Path(__file__).parent / "history"

#: (dotted metric path, absolute tolerance) -- numerical-equivalence gates.
CORRECTNESS_CHECKS = (
    ("calibration.max_parameter_delta", 1e-8),
    ("calibration.loss_delta", 1e-8),
    ("refine.max_parameter_delta", 1e-8),
    ("solver.max_state_delta", 1e-10),
    ("operator.banded.max_state_delta_vs_dense", 1e-10),
    # The async service reorganises scheduling, never numerics: per-story
    # results must match the synchronous BatchPredictor exactly.
    ("service.max_result_delta_vs_batch", 1e-12),
    # The model registry adds dispatch, never numerics: a registered
    # baseline served through the queue must match its direct loop exactly.
    ("service.logistic.max_result_delta_vs_direct", 1e-12),
    # The daemon only adds transport (JSON events round-trip floats
    # exactly), so its streamed results must match the batch path exactly.
    ("daemon.max_result_delta_vs_batch", 1e-12),
    # The process execution backend moves shard solves to worker processes
    # but ships the same payloads through the same solver: every process
    # run must match the single-threaded reference bit for bit.
    ("service.scaling.max_result_delta_process_vs_thread", 1e-12),
    # The cluster backend ships the same payloads to worker daemons over
    # pickle + base64 + sockets -- transport, never numerics -- so every
    # fleet size must match the thread reference bit for bit.
    ("service.cluster.max_result_delta_cluster_vs_thread", 1e-12),
    # The corpus store is a lossless float64 container: scoring lazily from
    # the store must match the inline-manifest path bit for bit.
    ("corpus.io.max_result_delta_vs_inline", 1e-12),
    # Eq. 8 is elementwise IEEE arithmetic, so scoring a whole table in one
    # array expression must equal scoring it cell by cell, bit for bit.
    ("scoring.max_accuracy_delta_vs_scalar", 0.0),
    # A shard's calibrations refine in lock-step, as columns of shared
    # batched solves that never interact: every story must get exactly the
    # parameters of calibrating it alone.
    ("calibration.shard.max_parameter_delta_vs_story", 0.0),
    # The bounded-RSS acceptance criterion: scoring a whole generated
    # corpus from the store (streamed in chunks, fresh subprocess) must fit
    # in baseline + 64 MB + corpus-bytes/4 -- a positive excess means the
    # lazy path started materializing the corpus.
    ("corpus.io.rss_budget_excess_bytes", 0.0),
    # Tracing must be zero-cost when disabled: the per-story cost of the
    # no-op tracer's guarded instrumentation sites, as a fraction of the
    # measured per-story solve time, stays under 2%.
    ("tracing.noop_overhead_fraction", 0.02),
    # A non-stiff Crank-Nicolson step of a logistic reaction takes the AB2
    # predictor and one Newton-scaled corrector; only the Euler-predicted
    # first step iterates to the fixed point.  The batched solve takes about
    # 1.01 fixed-point iterations per step, where iterating every step to
    # the fixed point from the same predictor took 2.09 and plain Picard
    # iteration from the old state 4.7.  An iteration count does not
    # depend on the machine, so this is an absolute ceiling, not a
    # baseline ratio.
    ("solver.picard_iterations_per_step", 1.2),
    # Fewer iterations must not cost accuracy: the calibration-resolution
    # solve (max_step 0.05) of the paper's s1 hop parameters stays within
    # its second-order time discretisation error of a fine-dt reference,
    # 5.7e-4 with or without the one-corrector step.  Deterministic
    # numerics, so an absolute ceiling.
    ("solver.error_vs_fine_reference", 7e-4),
    # The active-set LM step holds a parameter on its bound, a step that
    # crosses a bound puts that parameter on it, and the decay is refined
    # on a log scale: a logistic-shaped story whose floor ends at 0
    # converges in 8 iterations.  Clipping the full-system step crawled to
    # the 40-iteration cap, and the active set without the projection and
    # the log scale took 17.  A count, so an absolute ceiling like the one
    # above.
    ("refine.bound_pinned.iterations", 12),
)

#: Dotted metric paths of within-run speedup ratios gated against the baseline.
#: service.speedup is deliberately NOT here: its numerator and denominator are
#: corpus-level wall-clock times whose ratio swings far more than 1.3x between
#: runs on shared/single-core CI machines (observed 3.6x-8x at identical
#: code), so it is gated by the hard floor below instead.
SPEEDUP_CHECKS = (
    "calibration.speedup",
    "refine.speedup",
    "solver.speedup",
    "operator.banded.speedup_vs_dense",
)

#: (dotted metric path, minimum value) -- unconditional acceptance floors.
FLOOR_CHECKS = (
    ("operator.banded.speedup_vs_dense", 2.0),
    # Acceptance criterion of the service layer: >= 2x throughput over the
    # sequential per-story loop at corpus size 100.
    ("service.speedup", 2.0),
    # Acceptance criterion of the daemon layer: the protocol round-trip
    # (submit over the socket, stream every result back) must stay within
    # 2.5x of scoring the same corpus in process -- like service.speedup
    # this is a corpus-level wall-clock ratio, too noisy for the 1.3x
    # baseline band, so it is gated by a hard floor instead.
    ("daemon.efficiency_vs_inprocess", 0.4),
    # The logistic baseline has no batched solve to amortize, so the
    # service can only add scheduling overhead on top of its direct loop;
    # the floor is deliberately loose (corpus-level wall-clock ratio, same
    # noise caveat as service.speedup) and exists to catch the dispatch
    # path becoming pathologically slow, not to demand a speedup.
    ("service.logistic.speedup_vs_direct", 0.2),
    # Acceptance criterion of the process execution backend: >= 2.5x
    # throughput at 4 workers vs 1 on a calibration-heavy corpus.  The
    # benchmark normalizes the 4-vs-1 speedup by min(4, cpus) so the gate
    # demands exactly 2.5/4 on any >=4-core runner while degrading
    # gracefully on smaller CI boxes (a 1-core machine cannot exhibit
    # process-level parallelism, only its absence of pathological
    # overhead is checked).
    ("service.scaling.process.scaling_efficiency", 0.625),
    # Routing-overhead ceiling of the cluster backend: scoring through a
    # 2-worker localhost fleet (pickle + base64 + socket round-trip per
    # shard, workers sharing the router's cores) must stay within 4x of
    # the thread executor on the same corpus.  A corpus-level wall-clock
    # ratio (same noise caveat as daemon.efficiency_vs_inprocess), so it
    # is floor-gated rather than baseline-banded, and deliberately loose:
    # it catches the transport becoming pathologically slow, not small
    # drifts.
    ("service.cluster.efficiency_vs_thread", 0.25),
    # Acceptance criterion of the corpus store: opening + resolving a
    # generated corpus from the store (lazy handles off the index) must be
    # at least 2x faster than parsing the equivalent inline manifest.
    # A corpus-level wall-clock ratio (same noise caveat as
    # service.speedup), so it is floor-gated rather than baseline-banded.
    ("corpus.io.load_speedup_vs_inline", 2.0),
)


def lookup(report: dict, path: str) -> float:
    """Resolve a dotted path like ``operator.banded.speedup_vs_dense``."""
    node = report
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            raise KeyError(path)
        node = node[key]
    return float(node)


def run_checks(report: dict, baseline: dict, max_slowdown: float) -> "list[tuple[bool, str]]":
    """Evaluate every gate; returns (passed, human-readable line) pairs."""
    results = []

    for path, tolerance in CORRECTNESS_CHECKS:
        try:
            value = lookup(report, path)
        except KeyError:
            results.append((False, f"MISSING {path}: not in the new report"))
            continue
        ok = value <= tolerance
        results.append(
            (ok, f"{'ok  ' if ok else 'FAIL'} {path} = {value:.3e} (tolerance {tolerance:g})")
        )

    for path in SPEEDUP_CHECKS:
        try:
            value = lookup(report, path)
        except KeyError:
            results.append((False, f"MISSING {path}: not in the new report"))
            continue
        try:
            reference = lookup(baseline, path)
        except KeyError:
            results.append((False, f"MISSING {path}: not in the baseline (regenerate it)"))
            continue
        required = reference / max_slowdown
        ok = value >= required
        results.append(
            (
                ok,
                f"{'ok  ' if ok else 'FAIL'} {path} = {value:.2f}x "
                f"(baseline {reference:.2f}x, minimum {required:.2f}x)",
            )
        )

    for path, minimum in FLOOR_CHECKS:
        try:
            value = lookup(report, path)
        except KeyError:
            results.append((False, f"MISSING {path}: not in the new report"))
            continue
        ok = value >= minimum
        results.append(
            (ok, f"{'ok  ' if ok else 'FAIL'} {path} = {value:.2f}x (floor {minimum:.2f}x)")
        )

    return results


def append_history(
    report: dict, results: "list[tuple[bool, str]]", history_dir: Path
) -> Path:
    """Append this run's dimensionless ratios to the history artifact.

    One JSON line per gate run lands in ``<history_dir>/ratios.jsonl`` --
    the ROADMAP's trend-tracking artifact.  Only machine-independent values
    are recorded (the within-run speedup ratios, floors and equivalence
    deltas, never raw seconds), so lines from differently sized CI machines
    remain comparable and slow drifts inside the 1.3x tolerance band become
    visible once CI archives a few runs.
    """
    record: dict = {
        "timestamp": report.get("timestamp"),
        "quick": report.get("quick"),
        "passed": all(ok for ok, _ in results),
        "ratios": {},
        "deltas": {},
    }
    tracked_ratios = tuple(SPEEDUP_CHECKS) + tuple(path for path, _ in FLOOR_CHECKS)
    for path in dict.fromkeys(tracked_ratios):  # dedup, stable order
        try:
            record["ratios"][path] = lookup(report, path)
        except KeyError:
            continue
    for path, _ in CORRECTNESS_CHECKS:
        try:
            record["deltas"][path] = lookup(report, path)
        except KeyError:
            continue
    history_dir.mkdir(parents=True, exist_ok=True)
    target = history_dir / "ratios.jsonl"
    with open(target, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return target


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when the substrate benchmark regressed against the baseline."
    )
    parser.add_argument("report", help="substrate-benchmark.json produced by this run")
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        help="checked-in baseline JSON (default: benchmarks/baselines/substrate-baseline.json)",
    )
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=1.3,
        help="largest tolerated speedup regression factor vs the baseline (default 1.3)",
    )
    parser.add_argument(
        "--history-dir",
        default=str(DEFAULT_HISTORY_DIR),
        help=(
            "directory receiving the appended ratios.jsonl trend artifact "
            "(default: benchmarks/history)"
        ),
    )
    parser.add_argument(
        "--no-history",
        action="store_true",
        help="do not append this run's ratios to the history artifact",
    )
    args = parser.parse_args(argv)

    with open(args.report, encoding="utf-8") as handle:
        report = json.load(handle)
    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)

    results = run_checks(report, baseline, args.max_slowdown)
    failures = [line for ok, line in results if not ok]
    for _, line in results:
        print(line)
    if not args.no_history:
        target = append_history(report, results, Path(args.history_dir))
        print(f"appended ratios to {target}")
    if failures:
        print(
            f"\nregression gate FAILED: {len(failures)} of {len(results)} checks",
            file=sys.stderr,
        )
        return 1
    print(f"\nregression gate passed: {len(results)} checks")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
