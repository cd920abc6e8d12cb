"""Command-line interface for the reproduction.

Five subcommands cover the common workflows without writing any Python:

``build-corpus``
    Build the synthetic Digg-like corpus and save it to a JSON file.
``characterize``
    Print the Section III-B characterisation (distance histogram, density
    surfaces, saturation times) for one story.
``predict``
    Run the paper's prediction protocol (Table I / Table II) for one story
    and distance metric.
``predict-batch``
    Run the prediction protocol for several stories in one shot: each
    story is calibrated as by ``predict``, and all forward solves are
    advanced together in one vectorised batched PDE solve.  Use
    ``--json`` to emit machine-readable results.
``serve-batch``
    Score a whole corpus of stories through the async prediction service:
    the manifest's stories are sharded by spatial signature, drained by a
    bounded worker pool, and each per-story result is streamed to stdout as
    one JSON line the moment its shard completes.  Exit code 3 signals
    partial failure (some stories scored, some failed), so batch pipelines
    can tell it from configuration errors (2) and total failure (1).
``daemon``
    Run the long-lived prediction daemon: a JSON-lines protocol over
    stdin/stdout (default), a Unix-domain socket or TCP (``--listen
    unix:PATH|tcp:HOST:PORT``), serving submit/status/stats/
    shutdown requests against one shared worker pool; ``--journal DIR``
    makes job lifecycles survive a crash (a restarted daemon reports the
    dead process's in-flight jobs as ``interrupted``), ``--max-client-jobs``
    / ``--max-client-stories`` bound each client's share of the queue,
    ``--shard-size`` caps the stories per batched solve, ``--timeout``
    sets a default per-story wall-clock deadline, and ``--executor
    process --workers N`` runs shard solves on a crash-respawning process
    pool instead of in-process threads (``serve-batch`` takes the same
    flags).
``submit``
    Submit a story manifest to a running daemon (``--connect
    unix:PATH|tcp:HOST:PORT``) and stream the per-story result
    events to stdout as they complete; a daemon dying mid-stream exits 3
    (partial failure -- already-streamed results are valid).
``daemon-stats``
    Fetch a running daemon's stats snapshot (job counts, service counters,
    telemetry registry) and print it as JSON (``--connect`` picks the
    daemon); ``--prometheus`` prints the telemetry in Prometheus
    text exposition format instead.
``trace``
    Reconstruct one daemon job's span tree with critical-path timing, from
    a live daemon (``--connect``, requires the daemon to run
    with ``--trace``) or offline from a ``--trace-dir`` export; ``--chrome``
    / ``--speedscope`` write viewer-ready JSON profiles and ``--check``
    validates tree well-formedness for CI.
``models``
    List every registered prediction model with its one-line description.
``compare``
    Score one corpus under several registered models and print the
    head-to-head accuracy table (the paper's Table-II-style comparison of
    the DL model against its baselines).
``report``
    Run every registered experiment and print a compact paper-vs-measured
    summary (a quick, text-only version of the benchmark harness).
``corpus``
    Manage columnar corpus stores (:mod:`repro.corpus`): ``generate`` a
    seeded synthetic workload straight into a store, ``build`` a store
    from an inline manifest, ``verify`` a store's two content-hash layers,
    and ``export`` a store back to an inline manifest.  ``serve-batch
    --manifest`` accepts a store directory directly, and manifests may
    reference a store via a ``"store"`` block; surfaces are memory-mapped
    and materialised lazily per shard at solve time.

The prediction commands accept ``--backend`` to pick the PDE solver backend
by registry name (``internal`` is the package's own Crank-Nicolson engine
with banded operator caching; ``scipy`` delegates to ``solve_ivp`` for
cross-validation).  They also accept ``--model`` to pick the prediction
model by :mod:`repro.models` registry name (``dl``, ``logistic``, ``sis``,
``linear-influence``, or anything registered at runtime).  Unknown names
exit with the engine's / registry's error message listing everything
registered -- including names registered at runtime.

Run ``python -m repro --help`` for the full argument reference.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, Sequence

from repro.analysis.experiments import (
    ExperimentContext,
    run_ablation_baselines,
    run_fig2_distance_distribution,
    run_table1_accuracy_hops,
    run_table2_accuracy_interests,
)
from repro.analysis.patterns import saturation_time
from repro.analysis.reports import render_density_surface, render_figure_series
from repro.cascade.digg import SyntheticDiggConfig, build_synthetic_digg_dataset
from repro.io.tables import format_table

STORY_CHOICES = ("s1", "s2", "s3", "s4")

#: Exit code of serve-batch / submit when some stories scored and some
#: failed -- distinct from 1 (nothing usable) and 2 (bad configuration) so
#: batch pipelines can detect partial failure without parsing the stream.
EXIT_PARTIAL_FAILURE = 3


def _add_corpus_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--users", type=int, default=2000, help="number of users in the corpus")
    parser.add_argument(
        "--background-stories", type=int, default=40, help="number of background stories"
    )
    parser.add_argument("--seed", type=int, default=2009, help="corpus random seed")
    parser.add_argument(
        "--horizon", type=float, default=50.0, help="observation window in hours"
    )


def _hours_window(value: str) -> int:
    """argparse type for --hours: calibration needs hour 1 plus >= 1 target."""
    try:
        hours = int(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from error
    if hours < 2:
        raise argparse.ArgumentTypeError(
            f"--hours must be at least 2 (hour 1 builds phi, later hours are "
            f"the calibration targets), got {hours}"
        )
    return hours


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    # Deliberately NOT argparse choices: backends can be registered at
    # runtime, so the name is validated against the live registry when the
    # command runs (see _check_names), producing the registry's own error
    # message with the registered-backend list.
    parser.add_argument(
        "--backend",
        default="internal",
        help=(
            "PDE solver backend: 'internal' is the package's Crank-Nicolson "
            "engine with banded operator caching and batched solves; 'scipy' "
            "cross-validates through scipy.integrate.solve_ivp"
        ),
    )


def _add_model_argument(
    parser: argparse.ArgumentParser, default: "str | None" = "dl"
) -> None:
    # Like --backend, NOT argparse choices: models can be registered at
    # runtime, so names are validated against the live registry when the
    # command runs (_check_names), producing the registry's own error
    # message with the registered-model list.
    parser.add_argument(
        "--model",
        default=default,
        help=(
            "prediction model by registry name: 'dl' (the paper's Diffusive "
            "Logistic model, the default), 'logistic', 'sis', "
            "'linear-influence', or anything registered at runtime "
            "(see 'repro models')"
        ),
    )


def _check_names(args: argparse.Namespace, models: "Iterable[str | None]") -> "str | None":
    """Check every registry name a command was given, before any work.

    Covers ``--backend`` (the solver engine's own check), each of
    ``models`` (``None`` means "not given") and ``--executor``, on the
    commands that have them.  Returns the first error message (for
    stderr), or None when every name resolves; an omitted ``--workers``
    then becomes the executor's default pool size (1 thread, 4 processes
    or in-flight cluster shards).
    """
    from repro.core.errors import UnknownNameError
    from repro.models import MODELS
    from repro.numerics.pde_solver import ReactionDiffusionSolver
    from repro.service import executor_default_workers

    try:
        if hasattr(args, "backend"):
            ReactionDiffusionSolver(backend=args.backend)
        for model in models:
            if model is not None:
                MODELS.get(model)
        if hasattr(args, "executor"):
            default_workers = executor_default_workers(args.executor)
            if args.workers is None:
                args.workers = default_workers
    except UnknownNameError as error:
        return f"error: {error}"
    return None


def _add_executor_argument(parser: argparse.ArgumentParser) -> None:
    """The shared --executor flag of serve-batch and daemon.

    Runtime-validated (like --model, by _check_names) instead of argparse
    choices, so backends registered in EXECUTORS at runtime are selectable.
    """
    parser.add_argument(
        "--executor",
        default="thread",
        metavar="NAME",
        help=(
            "execution backend shard solves run on: 'thread' (in-process "
            "pool, default), 'process' (process pool: per-process "
            "operator caches, crash respawn, scales calibration-heavy "
            "corpora past the GIL) or 'cluster' (fan shards out to worker "
            "daemons declared with --worker/--workers-file)"
        ),
    )


def _add_service_arguments(parser: argparse.ArgumentParser) -> None:
    """The PredictionService options shared by serve-batch and daemon."""
    from repro.service.service import DEFAULT_MAX_SHARD_SIZE, DEFAULT_QUEUE_DEPTH

    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "number of shard solves in flight at once (worker pool size; "
            "default: the executor's, 1 for 'thread', 4 otherwise)"
        ),
    )
    _add_executor_argument(parser)
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=DEFAULT_QUEUE_DEPTH,
        help="backpressure bound: maximum queued+running stories",
    )
    parser.add_argument(
        "--shard-size",
        type=int,
        default=DEFAULT_MAX_SHARD_SIZE,
        help="maximum stories advanced together in one batched solve",
    )


def _corpus_config(args: argparse.Namespace) -> SyntheticDiggConfig:
    return SyntheticDiggConfig(
        num_users=args.users,
        num_background_stories=args.background_stories,
        horizon_hours=args.horizon,
        seed=args.seed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the Diffusive Logistic information-diffusion model (ICDCS 2012).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    build = subparsers.add_parser("build-corpus", help="build and save a synthetic Digg-like corpus")
    _add_corpus_arguments(build)
    build.add_argument("--output", required=True, help="path of the JSON file to write")

    characterize = subparsers.add_parser(
        "characterize", help="print the temporal/spatial diffusion patterns of one story"
    )
    _add_corpus_arguments(characterize)
    characterize.add_argument("--story", default="s1", choices=["s1", "s2", "s3", "s4"])
    characterize.add_argument(
        "--metric", default="hops", choices=["hops", "interests"], help="distance metric"
    )

    predict = subparsers.add_parser(
        "predict", help="run the paper's prediction protocol and print the accuracy table"
    )
    _add_corpus_arguments(predict)
    predict.add_argument("--story", default="s1", choices=list(STORY_CHOICES))
    predict.add_argument("--metric", default="hops", choices=["hops", "interests"])
    predict.add_argument(
        "--hours",
        type=_hours_window,
        default=6,
        help="length of the training/evaluation window in hours (>= 2)",
    )
    _add_backend_argument(predict)
    _add_model_argument(predict)

    predict_batch = subparsers.add_parser(
        "predict-batch",
        help="run the prediction protocol for several stories in one batched solve",
        description=(
            "Fit and score many stories at once: each story is calibrated on its "
            "training window (batched grid search + local refinement) and all "
            "forward solves are advanced together as columns of one vectorised "
            "PDE solve, sharing cached operator factorizations."
        ),
    )
    _add_corpus_arguments(predict_batch)
    predict_batch.add_argument(
        "--stories",
        nargs="+",
        default=list(STORY_CHOICES),
        choices=list(STORY_CHOICES),
        help="stories to predict (default: all four representative stories)",
    )
    predict_batch.add_argument("--metric", default="hops", choices=["hops", "interests"])
    predict_batch.add_argument(
        "--hours",
        type=_hours_window,
        default=6,
        help="length of the training/evaluation window in hours (>= 2)",
    )
    predict_batch.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write machine-readable results to PATH ('-' for stdout)",
    )
    _add_backend_argument(predict_batch)
    _add_model_argument(predict_batch)

    serve_batch = subparsers.add_parser(
        "serve-batch",
        help="score a manifest of stories through the async prediction service",
        description=(
            "Read a story manifest (corpus references and/or inline density "
            "surfaces), shard the stories by spatial signature, drain the "
            "shards through the async prediction service's bounded worker "
            "pool, and stream one JSON result line per story to stdout as it "
            "completes.  The human-readable summary goes to stderr.  Corpus "
            "flags given explicitly override the manifest's 'corpus' block "
            "(like --hours overrides its 'hours')."
        ),
    )
    _add_corpus_arguments(serve_batch)
    # For serve-batch the corpus flags are *overrides* of the manifest's
    # corpus block, so their defaults become None ("not given"); unset fields
    # fall back to the manifest and then to the shared CLI defaults
    # (repro.service.manifest.CORPUS_FIELD_DEFAULTS).
    serve_batch.set_defaults(users=None, background_stories=None, seed=None, horizon=None)
    serve_batch.add_argument(
        "--manifest", required=True, help="path of the story-manifest JSON file"
    )
    serve_batch.add_argument(
        "--hours",
        type=_hours_window,
        default=None,
        help=(
            "length of the training/evaluation window in hours (>= 2); "
            "overrides the manifest's 'hours' (default 6)"
        ),
    )
    _add_service_arguments(serve_batch)
    serve_batch.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="also write the streamed JSON lines to PATH",
    )
    _add_backend_argument(serve_batch)
    # Default None = "not given": only an explicit --model overrides the
    # manifest's manifest-level "model" (story-level entries always win).
    _add_model_argument(serve_batch, default=None)

    daemon = subparsers.add_parser(
        "daemon",
        help="run the long-lived prediction daemon (JSON-lines protocol)",
        description=(
            "Serve prediction jobs over a JSON-lines protocol: submit/status/"
            "stats/shutdown requests arrive over stdin (default), a Unix-"
            "domain socket or TCP (--listen), manifests are scored through "
            "one shared sharded worker pool, and per-story results stream "
            "back to the submitting client as their shards complete."
        ),
    )
    daemon.add_argument(
        "--listen",
        metavar="ADDR",
        default="stdio",
        help=(
            "serve on this transport address: unix:PATH (or a bare path), "
            "tcp:HOST:PORT or stdio (default stdio; tcp port 0 binds an "
            "ephemeral port)"
        ),
    )
    daemon.add_argument(
        "--journal",
        metavar="DIR",
        default=None,
        help=(
            "journal job lifecycles to DIR/journal.jsonl; after a crash, a "
            "daemon restarted with the same --journal reports the previous "
            "process's in-flight jobs as 'interrupted' instead of forgetting "
            "them"
        ),
    )
    daemon.add_argument(
        "--journal-fsync",
        choices=("always", "never"),
        default="always",
        help=(
            "journal durability: 'always' fsyncs every record (an "
            "acknowledged job survives a power cut), 'never' only flushes "
            "(default: always)"
        ),
    )
    daemon.add_argument(
        "--resume",
        action="store_true",
        help=(
            "with --journal: re-run jobs the previous process left in "
            "flight (their journalled manifests are re-submitted under the "
            "original job ids and counted in daemon.jobs_resumed) instead "
            "of only reporting them as 'interrupted'"
        ),
    )
    daemon.add_argument(
        "--worker",
        action="append",
        default=None,
        metavar="ADDR",
        dest="workers_cluster",
        help=(
            "with --executor cluster: a worker daemon's address (unix:PATH "
            "or tcp:HOST:PORT); repeat the flag once per worker"
        ),
    )
    daemon.add_argument(
        "--workers-file",
        metavar="FILE",
        default=None,
        help=(
            "with --executor cluster: read worker addresses from FILE (one "
            "per line, '#' comments); combines with --worker"
        ),
    )
    daemon.add_argument(
        "--max-client-jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "per-client quota: at most N jobs in flight per connection "
            "(excess submits are rejected with a typed error event)"
        ),
    )
    daemon.add_argument(
        "--max-client-stories",
        type=int,
        default=None,
        metavar="N",
        help=(
            "per-client quota: at most N stories queued or running per "
            "connection across its in-flight jobs"
        ),
    )
    _add_service_arguments(daemon)
    daemon.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-story wall-clock deadline for submitted jobs",
    )
    daemon.add_argument(
        "--trace",
        action="store_true",
        help=(
            "trace every job: spans from request parse through shard solve "
            "to result emission, queryable via the 'trace' protocol op and "
            "'repro trace' (off by default; the no-op tracer costs nothing)"
        ),
    )
    daemon.add_argument(
        "--trace-dir",
        metavar="DIR",
        default=None,
        help=(
            "export finished spans to DIR/spans.jsonl (one JSON record per "
            "line); implies --trace, and 'repro trace --trace-dir DIR' reads "
            "the export offline after the daemon exits"
        ),
    )
    daemon.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help=(
            "emit structured JSON log records (one per job state change, "
            "with job_id/trace_id fields) to stderr at this level"
        ),
    )
    _add_backend_argument(daemon)
    _add_model_argument(daemon)

    submit = subparsers.add_parser(
        "submit",
        help="submit a story manifest to a running daemon",
        description=(
            "Connect to a daemon (Unix socket or TCP), submit one story "
            "manifest as a job, and stream the daemon's per-story result "
            "events to stdout as JSON lines (summary on stderr).  Exit code "
            "3 signals partial failure, mirroring serve-batch -- including "
            "a daemon dying mid-stream after some results arrived."
        ),
    )
    submit.add_argument(
        "--connect",
        metavar="ADDR",
        required=True,
        help="the daemon's transport address: unix:PATH or tcp:HOST:PORT",
    )
    submit.add_argument(
        "--manifest", required=True, help="path of the story-manifest JSON file"
    )
    submit.add_argument(
        "--id", default=None, help="job id (the daemon generates one when omitted)"
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-story wall-clock deadline for this job",
    )
    submit.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="also write the streamed JSON lines to PATH",
    )
    # None = defer to the manifest; an explicit name overrides the
    # manifest-level default (story-level "model" entries still win).
    _add_model_argument(submit, default=None)

    daemon_stats = subparsers.add_parser(
        "daemon-stats",
        help="print a running daemon's stats snapshot as JSON",
        description=(
            "Connect to a daemon (Unix socket or TCP), request its stats "
            "event (job counts, service counters incl. the shard size, "
            "telemetry registry snapshot) and print it as indented JSON."
        ),
    )
    daemon_stats.add_argument(
        "--connect",
        metavar="ADDR",
        required=True,
        help="the daemon's transport address: unix:PATH or tcp:HOST:PORT",
    )
    daemon_stats.add_argument(
        "--prometheus",
        action="store_true",
        help=(
            "print the daemon's telemetry in Prometheus text exposition "
            "format instead of the JSON stats snapshot"
        ),
    )

    trace = subparsers.add_parser(
        "trace",
        help="render a daemon job's span tree (live daemon or exported spans)",
        description=(
            "Reconstruct one job's trace as a span tree with critical-path "
            "timing.  Reads spans from a running daemon (--connect, "
            "the 'trace' protocol op) or offline from a --trace-dir export "
            "(DIR/spans.jsonl, written by 'repro daemon --trace-dir').  "
            "--chrome/--speedscope export viewer-ready JSON; --check "
            "validates tree well-formedness for CI."
        ),
    )
    trace.add_argument("job", help="id of the job to reconstruct")
    trace_source = trace.add_mutually_exclusive_group(required=True)
    trace_source.add_argument(
        "--connect",
        metavar="ADDR",
        help="the daemon's transport address: unix:PATH or tcp:HOST:PORT",
    )
    trace_source.add_argument(
        "--trace-dir",
        metavar="DIR",
        help="read DIR/spans.jsonl instead of querying a live daemon",
    )
    trace.add_argument(
        "--check",
        action="store_true",
        help=(
            "validate the span tree (single root, no orphans, no negative "
            "durations) and print per-phase totals; exit 1 on problems"
        ),
    )
    trace.add_argument(
        "--chrome",
        metavar="PATH",
        default=None,
        help="also write Chrome trace-event JSON (chrome://tracing, Perfetto)",
    )
    trace.add_argument(
        "--speedscope",
        metavar="PATH",
        default=None,
        help="also write a speedscope profile JSON (https://speedscope.app)",
    )

    subparsers.add_parser(
        "models",
        help="list every registered prediction model",
        description=(
            "Print the registry name and one-line description of every "
            "registered prediction model -- the names accepted by --model "
            "and by manifest 'model' fields."
        ),
    )

    compare = subparsers.add_parser(
        "compare",
        help="score one corpus under several models (head-to-head accuracy table)",
        description=(
            "Fit and score the same stories under several registered models "
            "and print the head-to-head accuracy comparison (one row per "
            "model, best overall accuracy first) -- the paper's "
            "Table-II-style DL-vs-baselines comparison for any corpus."
        ),
    )
    _add_corpus_arguments(compare)
    compare.add_argument(
        "--stories",
        nargs="+",
        default=list(STORY_CHOICES),
        choices=list(STORY_CHOICES),
        help="stories to score (default: all four representative stories)",
    )
    compare.add_argument("--metric", default="hops", choices=["hops", "interests"])
    compare.add_argument(
        "--hours",
        type=_hours_window,
        default=6,
        help="length of the training/evaluation window in hours (>= 2)",
    )
    compare.add_argument(
        "--models",
        nargs="+",
        default=["dl", "logistic", "sis"],
        metavar="MODEL",
        help=(
            "registry names of the models to compare "
            "(default: dl logistic sis; see 'repro models')"
        ),
    )
    compare.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write machine-readable results to PATH ('-' for stdout)",
    )
    _add_backend_argument(compare)

    report = subparsers.add_parser(
        "report", help="run the main experiments and print a compact summary"
    )
    _add_corpus_arguments(report)

    corpus = subparsers.add_parser(
        "corpus",
        help="manage columnar corpus stores (generate / build / verify / export)",
        description=(
            "The corpus-store toolbox: generate a seeded synthetic workload "
            "straight into a store, convert an inline manifest to a store, "
            "verify a store's content hashes, or export a store back to an "
            "inline manifest.  Stores are consumed by 'serve-batch "
            "--manifest <store>' and by manifest 'store' blocks; surfaces "
            "are memory-mapped and loaded lazily per shard at solve time."
        ),
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)

    generate = corpus_sub.add_parser(
        "generate",
        help="generate a seeded synthetic workload into a corpus store",
        description=(
            "Write a parameterized synthetic workload (logistic-in-time, "
            "decaying-in-distance surfaces with grid-size, horizon and "
            "burst-arrival variety) directly into a corpus store.  The "
            "store is a pure function of the parameters: the same flags "
            "always produce a byte-identical store."
        ),
    )
    generate.add_argument("--output", required=True, help="store directory to write")
    generate.add_argument(
        "--stories", type=int, default=1000, help="number of stories to generate"
    )
    generate.add_argument(
        "--seed", type=int, default=20120612, help="workload RNG seed"
    )
    generate.add_argument(
        "--metric", default="hops", choices=["hops", "interests"],
        help="distance metric recorded in the store",
    )
    generate.add_argument(
        "--min-distances", type=int, default=5,
        help="smallest distance-group count per story",
    )
    generate.add_argument(
        "--max-distances", type=int, default=12,
        help="largest distance-group count per story",
    )
    generate.add_argument(
        "--min-hours", type=int, default=8,
        help="shortest observed horizon per story (hourly snapshots)",
    )
    generate.add_argument(
        "--max-hours", type=int, default=24,
        help="longest observed horizon per story (hourly snapshots)",
    )
    generate.add_argument(
        "--peak-density", type=float, default=30.0,
        help="upper bound of the nearest group's carrying capacity",
    )
    generate.add_argument(
        "--growth-rate", type=float, default=1.0,
        help="scales every story's logistic growth rate",
    )
    generate.add_argument(
        "--bursts", type=int, default=4,
        help="number of arrival-burst centres stories cluster around",
    )
    generate.add_argument(
        "--burst-spread", type=float, default=1.5, metavar="HOURS",
        help="std-dev of arrival times around their burst centre",
    )
    generate.add_argument(
        "--shard-stories", type=int, default=512,
        help="stories per shard file before the writer cuts a new one",
    )

    build = corpus_sub.add_parser(
        "build",
        help="convert an inline/corpus-ref manifest into a corpus store",
        description=(
            "Resolve a story manifest (inline surfaces and/or synthetic-"
            "corpus references) and write every story into a corpus store, "
            "preserving per-story model overrides and the manifest's "
            "metric/hours/model defaults.  Empty-first-hour stories are "
            "stored too -- skip semantics stay with whoever scores the "
            "store later."
        ),
    )
    build.add_argument(
        "--manifest", required=True, help="path of the story-manifest JSON file"
    )
    build.add_argument("--output", required=True, help="store directory to write")
    build.add_argument(
        "--shard-stories", type=int, default=512,
        help="stories per shard file before the writer cuts a new one",
    )

    verify = corpus_sub.add_parser(
        "verify",
        help="re-hash a corpus store's shards and stories against its index",
        description=(
            "Check both content-addressing layers of a store: every shard "
            "file's SHA-256 against the index, and every story's surface "
            "content hash against its index entry.  Exit 0 when intact, 1 "
            "with one problem line per finding otherwise."
        ),
    )
    verify.add_argument("store", help="store directory (or its index.json)")

    export = corpus_sub.add_parser(
        "export",
        help="export a corpus store back to an inline manifest",
        description=(
            "Write the store's corpus as a classic inline manifest whose "
            "JSON floats round-trip exactly, so scoring the export is "
            "bit-identical to scoring from the store."
        ),
    )
    export.add_argument("store", help="store directory (or its index.json)")
    export.add_argument(
        "--output", default="-", metavar="PATH",
        help="manifest JSON path ('-' for stdout)",
    )

    return parser


def _command_build_corpus(args: argparse.Namespace) -> int:
    corpus = build_synthetic_digg_dataset(_corpus_config(args))
    corpus.dataset.save(args.output)
    print(
        f"wrote {corpus.dataset.num_stories} stories, {corpus.dataset.num_votes} votes, "
        f"{corpus.graph.num_users} users to {args.output}"
    )
    return 0


def _observed_surface(corpus, story: str, metric: str):
    if metric == "hops":
        return corpus.hop_density_surface(story)
    return corpus.interest_density_surface(story)


def _command_characterize(args: argparse.Namespace) -> int:
    corpus = build_synthetic_digg_dataset(_corpus_config(args))
    surface = _observed_surface(corpus, args.story, args.metric)

    histogram = corpus.hop_distance_histogram(args.story, max_distance=10)
    total = sum(histogram.values()) or 1
    print(render_figure_series(
        {args.story: {d: c / total for d, c in histogram.items()}},
        x_label="hop distance",
        title=f"Distribution of users around the initiator of {args.story}",
    ))
    print()
    print(render_density_surface(
        surface,
        times=[1.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0],
        title=f"Density of influenced users, {args.story}, {args.metric}",
    ))
    print()
    print(f"votes: {corpus.story(args.story).num_votes}")
    print(f"saturation time (95% of final density at distance 1): "
          f"{saturation_time(surface, float(surface.distances[0])):.0f} h")
    return 0


def _model_spec(args: argparse.Namespace, model: str):
    """Build the ModelSpec a prediction command resolved from its flags."""
    from repro.core.config import ModelSpec, SolverConfig

    return ModelSpec(name=model, solver=SolverConfig(backend=args.backend))


def _command_predict(args: argparse.Namespace) -> int:
    from repro.models import get_model

    name_error = _check_names(args, [args.model])
    if name_error is not None:
        print(name_error, file=sys.stderr)
        return 2
    corpus = build_synthetic_digg_dataset(_corpus_config(args))
    observed = _observed_surface(corpus, args.story, args.metric)
    training_times = [float(t) for t in range(1, args.hours + 1)]
    if observed.profile(1.0).sum() <= 0:
        print(
            "error: the first observed hour has no influenced users at any distance; "
            "try a different story, metric or seed",
            file=sys.stderr,
        )
        return 1
    spec = _model_spec(args, args.model)
    fitted = get_model(args.model).fit(observed, spec, training_times)
    result = fitted.evaluate(observed, times=training_times[1:])
    title = f"Prediction accuracy -- {args.story}, {args.metric}, hours 2-{args.hours}"
    if args.model != "dl":
        title += f" ({args.model} model)"
    print(result.accuracy_table.render(title))
    print(f"calibrated parameters: {fitted.parameters}")
    return 0


def _warn_skipped(story: str) -> None:
    """Stderr warning shared by predict-batch and serve-batch skip paths."""
    print(
        f"warning: skipping {story}: no influenced users at any distance "
        f"in the first observed hour",
        file=sys.stderr,
    )


def _command_predict_batch(args: argparse.Namespace) -> int:
    from repro.core.prediction import BatchPredictionResult
    from repro.models import get_model

    name_error = _check_names(args, [args.model])
    if name_error is not None:
        print(name_error, file=sys.stderr)
        return 2
    # args.stories is never empty here: --stories is nargs="+" with a
    # non-empty default.  The empty-story-list case only exists for
    # serve-batch manifests, which handle it with a distinct message.
    corpus = build_synthetic_digg_dataset(_corpus_config(args))
    training_times = [float(t) for t in range(1, args.hours + 1)]

    surfaces = {}
    skipped = []
    for story in args.stories:
        surface = _observed_surface(corpus, story, args.metric)
        if surface.profile(training_times[0]).sum() <= 0:
            skipped.append(story)
            # Warn as soon as the story is skipped, not after the loop, so a
            # long story list shows progress while it is still being read.
            _warn_skipped(story)
            continue
        surfaces[story] = surface
    if not surfaces:
        print(
            "error: every requested story is empty in the first observed hour; "
            "try a different metric or seed",
            file=sys.stderr,
        )
        return 1

    fitter = get_model(args.model).batch_fitter(_model_spec(args, args.model))
    for story, surface in surfaces.items():
        fitter.fit_story(story, surface, training_times)
    results = BatchPredictionResult(
        results=fitter.evaluate(surfaces, times=training_times[1:])
    )

    # With --json -, stdout must stay pure JSON (pipeable into jq etc.), so
    # the human-readable summary moves to stderr.
    report = sys.stderr if args.json == "-" else sys.stdout
    story_word = "story" if len(surfaces) == 1 else "stories"
    setup = f"{args.backend} backend"
    if args.model != "dl":
        setup += f", {args.model} model"
    print(
        f"Prediction accuracy -- {len(surfaces)} {story_word}, {args.metric}, "
        f"hours 2-{args.hours} ({setup})",
        file=report,
    )
    print(format_table(results.summary_rows()), file=report)
    print(
        f"overall accuracy (mean over stories): {results.overall_accuracy:.4f}",
        file=report,
    )
    for story in surfaces:
        print(f"{story}: parameters = {fitter.parameters_for(story)}", file=report)

    if args.json is not None:
        # The daemon's per-story payload, so batch pipelines parse one shape.
        from repro.service import story_result_payload

        payload = {
            "metric": args.metric,
            "hours": args.hours,
            "backend": args.backend,
            "model": args.model,
            "overall_accuracy": results.overall_accuracy,
            "skipped_stories": skipped,
            "stories": {
                story: story_result_payload(results[story]) for story in surfaces
            },
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"wrote JSON results to {args.json}")
    return 0


def _command_serve_batch(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core.config import SolverConfig
    from repro.service import (
        JobStatus,
        ManifestError,
        PredictionService,
        open_corpus,
        story_result_payload,
    )

    name_error = _check_names(args, [args.model])
    if name_error is not None:
        print(name_error, file=sys.stderr)
        return 2
    for flag, value in (
        ("--workers", args.workers),
        ("--queue-depth", args.queue_depth),
        ("--shard-size", args.shard_size),
    ):
        if value < 1:
            print(f"error: {flag} must be >= 1, got {value}", file=sys.stderr)
            return 2
    try:
        manifest = open_corpus(args.manifest)
    except FileNotFoundError:
        print(f"error: manifest {args.manifest} does not exist", file=sys.stderr)
        return 2
    except ManifestError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if not manifest.stories:
        # Distinct from the all-skipped case below: an empty manifest is a
        # producer-side problem, not a property of the corpus.
        print(
            f"error: the manifest {args.manifest} contains no stories",
            file=sys.stderr,
        )
        return 1

    hours = args.hours if args.hours is not None else (manifest.hours or 6)
    training_times = [float(t) for t in range(1, hours + 1)]
    evaluation_times = training_times[1:]
    corpus_overrides = {
        field: value
        for field, value in (
            ("users", args.users),
            ("background_stories", args.background_stories),
            ("seed", args.seed),
            ("horizon", args.horizon),
        )
        if value is not None  # only explicitly given flags override the manifest
    }
    try:
        resolved = manifest.resolve(corpus_overrides, training_times)
    except ManifestError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    output_handle = open(args.output, "w", encoding="utf-8") if args.output else None

    def emit_line(payload: dict) -> None:
        line = json.dumps(payload, sort_keys=True)
        print(line, flush=True)
        if output_handle is not None:
            output_handle.write(line + "\n")

    def emit(job) -> None:
        if job.status is JobStatus.SUCCEEDED:
            payload = {
                "story": job.name,
                "status": job.status.value,
                **story_result_payload(job.result),
            }
        else:
            payload = {
                "story": job.name,
                "status": job.status.value,
                # The shard key knows the model even when the result never
                # materialised, so failed lines stay attributable too.
                "model": job.key.model,
                "error": str(job.error),
            }
        emit_line(payload)

    # The service's default model: explicit --model beats the manifest-level
    # "model", which beats the classic DL default.  Story-level "model"
    # entries override per submit below, so one manifest can mix models
    # (the sharder keeps them in separate shards).
    service_model = args.model or manifest.model or "dl"

    # The finished jobs and the stats leave through the closure, not as the
    # main task's result: on CPython 3.11 the teardown of ``asyncio.run``
    # formats the finished main task, result included, as text.
    jobs = []
    stats = {}

    async def run() -> None:
        async with PredictionService(
            solver=SolverConfig(backend=args.backend),
            max_workers=args.workers,
            executor=args.executor,
            queue_depth=args.queue_depth,
            max_shard_size=args.shard_size,
            model=service_model,
        ) as service:
            async def watch(job) -> None:
                await job.finished()
                emit(job)
                jobs.append(job)

            # Watchers stream each result the moment its shard completes,
            # including while this loop is suspended in submit() by
            # backpressure (queue_depth may be far below corpus size).
            watchers = [
                asyncio.ensure_future(
                    watch(
                        await service.submit(
                            name,
                            surface,
                            training_times,
                            evaluation_times,
                            model=resolved.models.get(name),
                        )
                    )
                )
                for name, surface in resolved.surfaces.items()
            ]
            await asyncio.gather(*watchers)
            stats.update(service.stats())

    try:
        # Skipped stories get a record in the machine-readable stream too
        # (mirroring predict-batch's "skipped_stories"), so a consumer can
        # reconcile the manifest against the results without parsing stderr.
        for story in resolved.skipped:
            _warn_skipped(story)
            emit_line(
                {
                    "story": story,
                    "status": "skipped",
                    "model": resolved.model_for(story, args.model) or "dl",
                    "reason": "no influenced users at any distance in the "
                    "first observed hour",
                }
            )
        if not resolved.surfaces:
            print(
                "error: every story in the manifest is empty in the first observed "
                "hour; try a different metric or seed",
                file=sys.stderr,
            )
            return 1
        asyncio.run(run())
    finally:
        if output_handle is not None:
            output_handle.close()

    succeeded = [job for job in jobs if job.status is JobStatus.SUCCEEDED]
    failed = [job for job in jobs if job.status is JobStatus.FAILED]
    story_word = "story" if len(jobs) == 1 else "stories"
    print(
        f"scored {len(succeeded)}/{len(jobs)} {story_word} "
        f"({manifest.metric}, hours 2-{hours}, {args.backend} backend, "
        f"{stats['shards_solved']} shards, {args.workers} {args.executor} workers)",
        file=sys.stderr,
    )
    if succeeded:
        mean_accuracy = sum(job.result.overall_accuracy for job in succeeded) / len(succeeded)
        print(f"overall accuracy (mean over stories): {mean_accuracy:.4f}", file=sys.stderr)
        for job in succeeded:
            print(f"{job.name}: parameters = {job.result.parameters}", file=sys.stderr)
    for job in failed:
        print(f"error: {job.name} failed: {job.error}", file=sys.stderr)
    if failed:
        # Some stories scored and some did not: exit 3 (EXIT_PARTIAL_FAILURE)
        # so batch pipelines can tell partial failure from configuration
        # errors (2) and nothing-scored errors (1) without parsing the stream.
        # When *nothing* scored, 3 would wrongly suggest usable partial
        # results, so total failure stays exit 1.
        if not succeeded:
            print("error: every scored story failed", file=sys.stderr)
            return 1
        print(
            f"warning: {len(failed)} of {len(jobs)} stories failed; "
            f"exiting {EXIT_PARTIAL_FAILURE} (partial failure)",
            file=sys.stderr,
        )
        return EXIT_PARTIAL_FAILURE
    return 0


def _daemon_pool_errors(args: argparse.Namespace) -> "str | None":
    """Validate the shared worker-pool flags; returns an error line or None."""
    for flag, value in (
        ("--workers", args.workers),
        ("--queue-depth", args.queue_depth),
        ("--shard-size", args.shard_size),
    ):
        if value < 1:
            return f"error: {flag} must be >= 1, got {value}"
    if args.timeout is not None and args.timeout <= 0:
        return f"error: --timeout must be > 0, got {args.timeout:g}"
    for flag, value in (
        ("--max-client-jobs", args.max_client_jobs),
        ("--max-client-stories", args.max_client_stories),
    ):
        if value is not None and value < 1:
            return f"error: {flag} must be >= 1, got {value}"
    return None


def _command_daemon(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core.errors import AddressInUseError
    from repro.service import ClientQuota, PredictionDaemon
    from repro.service.transport import AddressError, parse_address

    name_error = _check_names(args, [args.model])
    if name_error is not None:
        print(name_error, file=sys.stderr)
        return 2
    pool_error = _daemon_pool_errors(args)
    if pool_error is not None:
        print(pool_error, file=sys.stderr)
        return 2
    if args.resume and args.journal is None:
        print("error: --resume requires --journal DIR", file=sys.stderr)
        return 2
    worker_addresses: "list[str]" = []
    for spec in args.workers_cluster or []:
        try:
            worker = parse_address(spec)
        except AddressError as error:
            print(f"error: --worker {spec}: {error}", file=sys.stderr)
            return 2
        if worker.scheme == "stdio":
            print(
                f"error: --worker {spec}: 'stdio' is not a dialable worker "
                f"address; use unix:PATH or tcp:HOST:PORT",
                file=sys.stderr,
            )
            return 2
        worker_addresses.append(str(worker))
    if args.workers_file is not None:
        from repro.service.transport import load_worker_addresses

        try:
            worker_addresses.extend(
                str(worker) for worker in load_worker_addresses(args.workers_file)
            )
        except FileNotFoundError:
            print(
                f"error: workers file {args.workers_file} does not exist",
                file=sys.stderr,
            )
            return 2
        except AddressError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if worker_addresses and args.executor != "cluster":
        print(
            "error: --worker/--workers-file require --executor cluster",
            file=sys.stderr,
        )
        return 2
    if args.executor == "cluster" and not worker_addresses:
        print(
            "error: --executor cluster needs at least one worker address "
            "(--worker ADDR, repeatable, or --workers-file FILE)",
            file=sys.stderr,
        )
        return 2
    try:
        address = parse_address(args.listen)
    except AddressError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from repro.core.config import SolverConfig

    quota = None
    if args.max_client_jobs is not None or args.max_client_stories is not None:
        quota = ClientQuota(
            max_jobs=args.max_client_jobs, max_stories=args.max_client_stories
        )
    if args.log_level is not None:
        from repro.service import configure_service_logging

        configure_service_logging(args.log_level)
    executor_options: "dict[str, object]" = {}
    if args.executor == "cluster":
        executor_options["workers"] = worker_addresses
    daemon = PredictionDaemon(
        default_timeout=args.timeout,
        quota=quota,
        journal_dir=args.journal,
        journal_fsync=args.journal_fsync,
        resume=args.resume,
        trace=args.trace,
        trace_dir=args.trace_dir,
        solver=SolverConfig(backend=args.backend),
        max_workers=args.workers,
        executor=args.executor,
        executor_options=executor_options,
        queue_depth=args.queue_depth,
        max_shard_size=args.shard_size,
        model=args.model,
    )
    try:
        if address.scheme != "stdio":
            fleet = (
                f"fleet of {len(worker_addresses)}, "
                if args.executor == "cluster"
                else ""
            )
            print(
                f"daemon listening on {address} "
                f"({args.workers} {args.executor} workers, {fleet}"
                f"queue depth {args.queue_depth}, "
                f"shard size {args.shard_size})",
                file=sys.stderr,
            )
        asyncio.run(daemon.serve(address))
    except AddressInUseError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("daemon interrupted", file=sys.stderr)
        return 130
    print("daemon stopped", file=sys.stderr)
    return 0


def _connect_error(address: str, error: OSError) -> str:
    return (
        f"error: cannot connect to the daemon at {address}: {error}; "
        f"is 'repro daemon --listen {address}' running?"
    )


def _command_submit(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core.errors import DaemonConnectionError
    from repro.service import DaemonClient

    address = args.connect
    if args.timeout is not None and args.timeout <= 0:
        print(f"error: --timeout must be > 0, got {args.timeout:g}", file=sys.stderr)
        return 2
    name_error = _check_names(args, [args.model])
    if name_error is not None:
        print(name_error, file=sys.stderr)
        return 2
    try:
        with open(args.manifest, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        print(f"error: manifest {args.manifest} does not exist", file=sys.stderr)
        return 2
    except json.JSONDecodeError as error:
        print(f"error: {args.manifest} is not valid JSON: {error}", file=sys.stderr)
        return 2

    output_handle = open(args.output, "w", encoding="utf-8") if args.output else None

    def emit_line(payload: dict) -> None:
        line = json.dumps(payload, sort_keys=True)
        print(line, flush=True)
        if output_handle is not None:
            output_handle.write(line + "\n")

    async def run() -> "tuple[dict, dict | None, str | None]":
        counts: "dict[str, int]" = {}
        job_event = None
        async with await DaemonClient.connect(
            # The daemon may still be binding (a supervisor just spawned
            # it); a few capped-backoff retries absorb the race.
            address, retries=3, backoff=0.25
        ) as client:
            async for event in client.submit(
                manifest, job_id=args.id, timeout=args.timeout, model=args.model
            ):
                kind = event.get("event")
                if kind == "error":
                    return counts, None, event.get("error", "unknown daemon error")
                if kind == "accepted":
                    print(
                        f"job {event['id']} accepted: "
                        f"{len(event['stories'])} stories, "
                        f"{len(event['skipped'])} skipped",
                        file=sys.stderr,
                    )
                elif kind == "result":
                    emit_line(event)
                    counts[event["status"]] = counts.get(event["status"], 0) + 1
                elif kind == "job":
                    job_event = event
        return counts, job_event, None

    try:
        counts, job_event, error = asyncio.run(run())
    except DaemonConnectionError as conn_error:
        # The daemon accepted the connection, then died mid-stream: results
        # already printed are valid, so this is a partial failure (exit 3),
        # not a connect failure (exit 2).
        print(f"error: {conn_error}", file=sys.stderr)
        return EXIT_PARTIAL_FAILURE
    except (ConnectionError, OSError) as oserror:
        print(_connect_error(address, oserror), file=sys.stderr)
        return 2
    finally:
        if output_handle is not None:
            output_handle.close()

    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    assert job_event is not None
    succeeded = counts.get("succeeded", 0)
    unsuccessful = sum(
        count for status, count in counts.items() if status not in ("succeeded", "skipped")
    )
    print(
        f"job {job_event['id']} completed in {job_event['seconds']:.2f}s: "
        + ", ".join(f"{count} {status}" for status, count in sorted(counts.items())),
        file=sys.stderr,
    )
    if unsuccessful and succeeded:
        return EXIT_PARTIAL_FAILURE
    if unsuccessful:
        return 1
    if not succeeded:
        # Every story was skipped: nothing scored, mirroring serve-batch's
        # all-skipped exit 1 so pipelines keep their failure signal.
        print(
            "error: every story in the manifest was skipped (empty first "
            "observed hour); try a different metric or seed",
            file=sys.stderr,
        )
        return 1
    return 0


def _command_daemon_stats(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import DaemonClient

    address = args.connect
    if args.prometheus:
        # Prometheus text exposition: one fetch, raw text to stdout so the
        # output can be served or scraped verbatim.
        async def run_metrics() -> str:
            async with await DaemonClient.connect(address) as client:
                return await client.metrics_text()

        try:
            text = asyncio.run(run_metrics())
        except (ConnectionError, OSError) as error:
            print(_connect_error(address, error), file=sys.stderr)
            return 2
        sys.stdout.write(text)
        return 0

    async def run() -> dict:
        async with await DaemonClient.connect(address) as client:
            return await client.stats()

    try:
        stats = asyncio.run(run())
    except (ConnectionError, OSError) as error:
        print(_connect_error(address, error), file=sys.stderr)
        return 2
    print(json.dumps(stats, indent=2, sort_keys=True))
    service = stats.get("service", {})
    print(
        f"uptime {stats.get('uptime_seconds', 0.0):.0f}s, "
        f"{stats.get('jobs', {}).get('total', 0)} jobs, "
        f"{service.get('stories_solved', 0)} stories solved in "
        f"{service.get('shards_solved', 0)} shards",
        file=sys.stderr,
    )
    executor_info = service.get("executor_info", {})
    fleet = executor_info.get("fleet")
    if fleet:
        # Cluster routers get a per-worker fleet table on stderr.
        print(
            f"fleet: {sum(1 for w in fleet if w.get('alive'))}/{len(fleet)} "
            f"workers alive, {executor_info.get('shards_stolen', 0)} stolen, "
            f"{executor_info.get('reroutes', 0)} rerouted",
            file=sys.stderr,
        )
        for worker in fleet:
            state = "alive" if worker.get("alive") else "dead"
            print(
                f"  {worker.get('worker'):<28} {state:<6} "
                f"inflight {worker.get('inflight', 0):<4} "
                f"solved {worker.get('shards_solved', 0)}",
                file=sys.stderr,
            )
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    import os

    from repro.service.tracing import (
        SPANS_FILENAME,
        chrome_trace,
        load_span_file,
        phase_totals,
        render_trace,
        speedscope_profile,
        trace_for_job,
        validate_trace,
        worker_attribution,
    )

    if args.trace_dir is not None:
        path = os.path.join(args.trace_dir, SPANS_FILENAME)
        records = load_span_file(path)
        if not records:
            print(f"error: no span records in {path}", file=sys.stderr)
            return 2
        trace_id = trace_for_job(records, args.job)
        if trace_id is None:
            print(
                f"error: no root 'job' span for job {args.job!r} in {path}",
                file=sys.stderr,
            )
            return 2
    else:
        import asyncio

        from repro.service import DaemonClient

        address = args.connect

        async def run() -> dict:
            async with await DaemonClient.connect(address) as client:
                return await client.trace(args.job)

        try:
            event = asyncio.run(run())
        except (ConnectionError, OSError) as error:
            print(_connect_error(address, error), file=sys.stderr)
            return 2
        if event.get("event") == "error":
            print(f"error: {event.get('error')}", file=sys.stderr)
            return 2
        records = event.get("spans") or []
        trace_id = event.get("trace")
        if not records or not isinstance(trace_id, str):
            print(
                f"error: the daemon has no spans for job {args.job!r} (was it "
                f"started with --trace or --trace-dir?)",
                file=sys.stderr,
            )
            return 2

    if args.chrome is not None:
        with open(args.chrome, "w", encoding="utf-8") as handle:
            json.dump(chrome_trace(records, trace_id), handle)
        print(f"wrote Chrome trace events to {args.chrome}", file=sys.stderr)
    if args.speedscope is not None:
        with open(args.speedscope, "w", encoding="utf-8") as handle:
            json.dump(speedscope_profile(records, trace_id), handle)
        print(f"wrote speedscope profile to {args.speedscope}", file=sys.stderr)

    print(render_trace(records, trace_id))
    if args.check:
        print("phases:")
        for name, seconds in phase_totals(records, trace_id).items():
            print(f"  {name:<20} {seconds:.6f}s")
        workers = worker_attribution(records, trace_id)
        if workers:
            # Which pool member (thread/process name, or the cluster
            # worker daemon's address) produced how many spans -- the CI
            # cluster-smoke job greps this for worker-attributed shards.
            print("workers:")
            for worker, spans in workers.items():
                print(f"  {worker:<28} {spans} spans")
        problems = validate_trace(records, trace_id)
        if problems:
            for problem in problems:
                print(f"problem: {problem}", file=sys.stderr)
            return 1
        print("trace ok: single root, no orphans, no negative durations")
    return 0


def _command_models(args: argparse.Namespace) -> int:
    from repro.models import MODELS, get_model

    rows = [
        {"model": name, "description": get_model(name).description}
        for name in MODELS.names()
    ]
    print(format_table(rows, title="Registered prediction models"))
    print(
        "\nSelect with --model on predict / predict-batch / serve-batch / "
        "daemon / submit, or per story via a manifest's 'model' field."
    )
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    from repro.core.config import SolverConfig
    from repro.models import compare_models

    name_error = _check_names(args, args.models)
    if name_error is not None:
        print(name_error, file=sys.stderr)
        return 2
    corpus = build_synthetic_digg_dataset(_corpus_config(args))
    training_times = [float(t) for t in range(1, args.hours + 1)]

    surfaces = {}
    for story in args.stories:
        surface = _observed_surface(corpus, story, args.metric)
        if surface.profile(training_times[0]).sum() <= 0:
            _warn_skipped(story)
            continue
        surfaces[story] = surface
    if not surfaces:
        print(
            "error: every requested story is empty in the first observed hour; "
            "try a different metric or seed",
            file=sys.stderr,
        )
        return 1

    comparison = compare_models(
        surfaces,
        models=args.models,
        training_times=training_times,
        evaluation_times=training_times[1:],
        solver=SolverConfig(backend=args.backend),
    )

    report = sys.stderr if args.json == "-" else sys.stdout
    rows = [
        {key: ("-" if value is None else value) for key, value in row.items()}
        for row in comparison.summary_rows()
    ]
    print(
        format_table(
            rows,
            title=(
                f"Head-to-head accuracy -- {len(surfaces)} stories, "
                f"{args.metric}, hours 2-{args.hours} ({args.backend} backend)"
            ),
        ),
        file=report,
    )
    for model, failures in comparison.failures.items():
        for story, message in failures.items():
            print(f"warning: {model} failed on {story}: {message}", file=sys.stderr)

    if args.json is not None:
        text = json.dumps(comparison.to_json_dict(), indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"wrote JSON results to {args.json}", file=report)
    return 0


def _command_report(args: argparse.Namespace) -> int:
    context = ExperimentContext(config=_corpus_config(args))

    print("== FIG-2: distribution of users over hop distances ==")
    fig2 = run_fig2_distance_distribution(context)
    print(render_figure_series(fig2, x_label="hop distance"))
    print()

    print("== TAB-1: prediction accuracy, friendship hops (paper overall ~92.8%) ==")
    table1 = run_table1_accuracy_hops(context)
    print(table1.render())
    print()

    print("== TAB-2: prediction accuracy, shared interests (paper overall ~83.1%) ==")
    table2 = run_table2_accuracy_interests(context)
    print(table2.render())
    print()

    print("== ABL-1: forecast accuracy vs baselines (train hours 1-4, forecast 5-12) ==")
    ablation = run_ablation_baselines(context)
    rows = [
        {"model": name, "overall_accuracy": table.overall_average}
        for name, table in sorted(ablation.items(), key=lambda kv: -kv[1].overall_average)
    ]
    print(format_table(rows))
    return 0


def _command_corpus_generate(args: argparse.Namespace) -> int:
    from repro.corpus import WorkloadConfig, generate_store

    try:
        config = WorkloadConfig(
            stories=args.stories,
            seed=args.seed,
            metric=args.metric,
            min_distances=args.min_distances,
            max_distances=args.max_distances,
            min_hours=args.min_hours,
            max_hours=args.max_hours,
            peak_density=args.peak_density,
            growth_rate=args.growth_rate,
            bursts=args.bursts,
            burst_spread_hours=args.burst_spread,
        )
        store = generate_store(
            config, args.output, max_shard_stories=args.shard_stories
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"generated {len(store)} stories (seed {args.seed}) into "
        f"{len(store.index['shards'])} shards at {args.output} "
        f"({store.total_surface_nbytes / 1e6:.1f} MB of surfaces)",
        file=sys.stderr,
    )
    return 0


def _command_corpus_build(args: argparse.Namespace) -> int:
    from repro.corpus import CorpusStoreError, CorpusStoreWriter
    from repro.service import ManifestError, open_corpus

    try:
        manifest = open_corpus(args.manifest)
    except FileNotFoundError:
        print(f"error: manifest {args.manifest} does not exist", file=sys.stderr)
        return 2
    except ManifestError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not manifest.stories:
        print(
            f"error: the manifest {args.manifest} contains no stories",
            file=sys.stderr,
        )
        return 1
    try:
        # include_empty: a store preserves the corpus verbatim; the
        # empty-first-hour skip stays where it belongs, at scoring time.
        resolved = manifest.resolve(include_empty=True)
        writer = CorpusStoreWriter(
            args.output,
            metric=manifest.metric,
            hours=manifest.hours,
            model=manifest.model,
            max_shard_stories=args.shard_stories,
        )
        for name, surface in resolved.surfaces.items():
            writer.add(name, surface, model=resolved.models.get(name))
        store = writer.finalize()
    except (ManifestError, CorpusStoreError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"built {len(store)} stories into {len(store.index['shards'])} "
        f"shards at {args.output}",
        file=sys.stderr,
    )
    return 0


def _command_corpus_verify(args: argparse.Namespace) -> int:
    from repro.corpus import CorpusStore, CorpusStoreError

    try:
        store = CorpusStore.open(args.store)
    except (CorpusStoreError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    problems = store.verify()
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if problems:
        print(
            f"{args.store}: {len(problems)} problem(s) found",
            file=sys.stderr,
        )
        return 1
    print(
        f"{args.store}: OK ({len(store)} stories, "
        f"{len(store.index['shards'])} shards verified)",
        file=sys.stderr,
    )
    return 0


def _command_corpus_export(args: argparse.Namespace) -> int:
    from repro.corpus import CorpusStore, CorpusStoreError, export_inline_manifest

    try:
        store = CorpusStore.open(args.store)
    except (CorpusStoreError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    text = json.dumps(export_inline_manifest(store), sort_keys=True)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(
            f"exported {len(store)} stories to {args.output}",
            file=sys.stderr,
        )
    return 0


_CORPUS_COMMANDS = {
    "generate": _command_corpus_generate,
    "build": _command_corpus_build,
    "verify": _command_corpus_verify,
    "export": _command_corpus_export,
}


def _command_corpus(args: argparse.Namespace) -> int:
    return _CORPUS_COMMANDS[args.corpus_command](args)


_COMMANDS = {
    "build-corpus": _command_build_corpus,
    "characterize": _command_characterize,
    "predict": _command_predict,
    "predict-batch": _command_predict_batch,
    "serve-batch": _command_serve_batch,
    "daemon": _command_daemon,
    "submit": _command_submit,
    "daemon-stats": _command_daemon_stats,
    "trace": _command_trace,
    "models": _command_models,
    "compare": _command_compare,
    "report": _command_report,
    "corpus": _command_corpus,
}


def main(argv: "Sequence[str] | None" = None) -> int:
    """Entry point used by ``python -m repro`` and the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
