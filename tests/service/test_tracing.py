"""Tracing and observability tests: spans, propagation, logs, uptime.

The load-bearing guarantees:

* the :class:`Tracer` ring buffer, retroactive spans and JSONL export
  behave as documented, and the no-op tracer is free of side effects;
* a :class:`TraceContext` survives the process-executor pickle boundary:
  spans recorded inside a worker process re-parent under the service's
  shard span, giving one well-formed tree per story;
* after a bisection retry, the retried half-shards' ``shard.solve`` spans
  link to the original (failed) shard span -- parent id and ``retry_of``;
* the daemon's ``trace`` protocol op returns the job's spans, its stats
  include the ``daemon.uptime_seconds`` gauge, and the ``repro.service``
  logger emits one JSON record per job state change.
"""

import asyncio
import io
import json
import logging

import numpy as np
import pytest

from repro.cascade.density import DensitySurface
from repro.core.dl_model import DiffusiveLogisticModel
from repro.core.initial_density import InitialDensity
from repro.core.parameters import PAPER_S1_HOP_PARAMETERS
from repro.service import (
    JobStatus,
    PredictionService,
    configure_service_logging,
    execution,
    log_job_event,
)
from repro.service.logs import SERVICE_LOGGER_NAME, JsonLineFormatter
from repro.service.tracing import (
    NOOP_TRACER,
    NULL_SPAN,
    SPANS_FILENAME,
    TraceContext,
    Tracer,
    chrome_trace,
    critical_path,
    load_span_file,
    phase_totals,
    render_trace,
    span_tree,
    speedscope_profile,
    trace_for_job,
    validate_trace,
)

TRAINING_TIMES = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
EVALUATION_TIMES = TRAINING_TIMES[1:]


def synthetic_surface(seed):
    rng = np.random.default_rng(seed)
    phi = InitialDensity([1, 2, 3, 4, 5], list(2.0 + 3.0 * rng.random(5)))
    model = DiffusiveLogisticModel(
        PAPER_S1_HOP_PARAMETERS, points_per_unit=12, max_step=0.02
    )
    surface = model.predict(phi, [float(t) for t in range(1, 9)])
    return DensitySurface(
        distances=surface.distances,
        times=surface.times,
        values=surface.values,
        group_sizes=np.ones(surface.distances.size),
    )


@pytest.fixture(scope="module")
def surfaces():
    return {f"story{i}": synthetic_surface(i) for i in range(4)}


class TestTracerCore:
    def test_span_lifecycle_and_parenting(self):
        tracer = Tracer()
        with tracer.span("parent", attributes={"k": 1}) as parent:
            child = tracer.span("child", parent=parent)
            child.finish()
        records = tracer.spans()
        assert [r["name"] for r in records] == ["child", "parent"]
        child_rec, parent_rec = records
        assert child_rec["parent_id"] == parent_rec["span_id"]
        assert child_rec["trace_id"] == parent_rec["trace_id"]
        assert parent_rec["attributes"] == {"k": 1}
        assert parent_rec["duration"] >= child_rec["duration"] >= 0.0

    def test_record_span_is_retroactive(self):
        tracer = Tracer()
        root = tracer.span("root")
        ctx = tracer.record_span(
            "earlier", parent=root, start=123.0, duration=0.5
        )
        root.finish()
        assert isinstance(ctx, TraceContext)
        by_name = {r["name"]: r for r in tracer.spans()}
        assert by_name["earlier"]["start"] == 123.0
        assert by_name["earlier"]["duration"] == 0.5
        assert by_name["earlier"]["parent_id"] == root.span_id

    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(capacity=3)
        for index in range(5):
            tracer.span(f"s{index}").finish()
        assert [r["name"] for r in tracer.spans()] == ["s2", "s3", "s4"]

    def test_export_round_trips_through_load_span_file(self, tmp_path):
        tracer = Tracer(export_dir=tmp_path)
        with tracer.span("a"):
            pass
        tracer.span("b").finish()
        tracer.close()
        path = tmp_path / SPANS_FILENAME
        # A torn final line (daemon killed mid-write) must be tolerated.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"name": "torn"')
        records = load_span_file(path)
        assert [r["name"] for r in records] == ["a", "b"]

    def test_span_error_attribute_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (record,) = tracer.spans()
        assert record["attributes"]["error"] == "ValueError"

    def test_noop_tracer_is_inert(self):
        assert NOOP_TRACER.enabled is False
        span = NOOP_TRACER.span("anything", attributes={"k": 1})
        assert span is NULL_SPAN
        span.set_attribute("x", 2)
        span.finish()
        assert NOOP_TRACER.spans() == []
        parent = TraceContext(trace_id="t", span_id="s")
        assert NOOP_TRACER.record_span(
            "r", parent=parent, start=0.0, duration=0.0
        ) == parent
        NOOP_TRACER.close()

    def test_trace_context_wire_round_trip(self):
        ctx = TraceContext(trace_id="t1", span_id="s1")
        assert TraceContext.from_wire(ctx.to_wire()) == ctx
        assert TraceContext.from_wire({"trace_id": 7}) is None
        assert TraceContext.from_wire("nope") is None

    def test_validate_trace_flags_malformed_trees(self):
        tracer = Tracer()
        a = tracer.span("a")
        a.finish()
        b = tracer.span("b")  # second root, same trace
        b.trace_id = a.trace_id
        b.finish()
        records = tracer.spans()
        problems = validate_trace(records, a.trace_id)
        assert any("1 root" in p or "root" in p for p in problems)
        orphan = [
            {
                "name": "lost",
                "trace_id": "t",
                "span_id": "x",
                "parent_id": "missing",
                "start": 0.0,
                "duration": 0.1,
                "attributes": {},
            }
        ]
        assert any("orphan" in p for p in validate_trace(orphan, "t"))

    def test_tree_exports_and_critical_path(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            tracer.record_span(
                "left", parent=root, start=root.start, duration=0.01
            )
            tracer.record_span(
                "right",
                parent=root,
                start=root.start + 0.02,
                duration=0.03,
                attributes={"worker": "w1"},
            )
        records = tracer.spans()
        (tree_root,) = span_tree(records, root.trace_id)
        assert [c.name for c in tree_root.children] == ["left", "right"]
        path = critical_path(tree_root)
        assert [n.name for n in path] == ["root", "right"]
        text = render_trace(records, root.trace_id)
        assert "root" in text and "├─ left" in text and "└─ right" in text
        chrome = chrome_trace(records, root.trace_id)
        complete = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"root", "left", "right"}
        speedscope = speedscope_profile(records, root.trace_id)
        assert speedscope["profiles"][0]["events"]
        totals = phase_totals(records, root.trace_id)
        assert totals["right"] == pytest.approx(0.03)


class TestServicePropagation:
    def run_service(self, surfaces, tracer, **kwargs):
        async def run():
            async with PredictionService(
                parameters=PAPER_S1_HOP_PARAMETERS,
                max_shard_size=8,
                tracer=tracer,
                **kwargs,
            ) as service:
                parent = tracer.span("job", attributes={"job": "j1"})
                jobs = [
                    await service.submit(
                        name,
                        surfaces[name],
                        TRAINING_TIMES,
                        EVALUATION_TIMES,
                        trace=parent.context,
                    )
                    for name in surfaces
                ]
                for job in jobs:
                    await job.wait()
                parent.finish()
                return jobs, parent, service.metrics.snapshot()

        return asyncio.run(run())

    def test_thread_executor_builds_single_rooted_trees(self, surfaces):
        tracer = Tracer()
        jobs, parent, metrics = self.run_service(surfaces, tracer)
        records = tracer.spans(parent.trace_id)
        assert validate_trace(records, parent.trace_id) == []
        names = {r["name"] for r in records}
        assert {"job", "story", "queue.wait", "shard.solve", "solve.fit"} <= names
        (root,) = span_tree(records, parent.trace_id)
        assert root.name == "job"
        stories = [c for c in root.children if c.name == "story"]
        assert len(stories) == len(surfaces)
        # Thread-solved spans come back in the shard's report, attributed
        # to the pool thread exactly as process-worker spans are.
        by_id = {r["span_id"]: r for r in records}
        for record in records:
            if record["name"] == "solve.fit":
                shard = by_id[record["parent_id"]]
                assert record["attributes"]["worker"] == shard["attributes"]["worker"]
        # Per-phase histograms flow through the registry even with tracing on.
        assert metrics["service.queue_wait_seconds"]["count"] == len(surfaces)
        assert metrics['service.solve_phase_seconds{phase="fit"}']["count"] >= 1
        assert metrics['service.solve_phase_seconds{phase="evaluate"}']["count"] >= 1

    def test_phase_histograms_populate_without_tracing(self, surfaces):
        async def run():
            async with PredictionService(
                parameters=PAPER_S1_HOP_PARAMETERS, max_shard_size=8
            ) as service:
                job = await service.submit(
                    "story0", surfaces["story0"], TRAINING_TIMES, EVALUATION_TIMES
                )
                await job.wait()
                return service.metrics.snapshot()

        metrics = asyncio.run(run())
        assert metrics["service.queue_wait_seconds"]["count"] == 1
        assert metrics['service.solve_phase_seconds{phase="fit"}']["count"] == 1

    def test_trace_context_survives_process_pickle_boundary(self, surfaces):
        # Spans recorded inside worker processes come back through the
        # picklable ShardSolveReport and re-parent under the service-side
        # shard span: one tree, no orphans, worker attribution intact.
        tracer = Tracer()
        jobs, parent, _ = self.run_service(
            surfaces, tracer, executor="process", max_workers=2
        )
        assert all(job.status is JobStatus.SUCCEEDED for job in jobs)
        records = tracer.spans(parent.trace_id)
        assert validate_trace(records, parent.trace_id) == []
        worker_spans = [r for r in records if r["name"] == "solve.fit"]
        assert worker_spans, "no worker-side spans came back over the boundary"
        by_id = {r["span_id"]: r for r in records}
        for record in worker_spans:
            assert record["trace_id"] == parent.trace_id
            shard = by_id[record["parent_id"]]
            assert shard["name"] == "shard.solve"
            assert record["attributes"]["worker"].startswith(
                shard["attributes"]["worker"]
            )


class TestBisectionRetryLinkage:
    def test_retried_half_shards_link_to_original_shard_span(
        self, surfaces, monkeypatch
    ):
        # The first shard-wide attempt fails; the bisected halves must
        # carry retry_of and parent themselves under the failed shard's
        # span instead of starting fresh trees.
        original = execution.solve_shard_payload
        calls = {"n": 0}

        def flaky(payload):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient backend hiccup")
            return original(payload)

        monkeypatch.setattr(execution, "solve_shard_payload", flaky)
        tracer = Tracer()

        async def run():
            async with PredictionService(
                parameters=PAPER_S1_HOP_PARAMETERS,
                max_shard_size=8,
                tracer=tracer,
            ) as service:
                jobs = [
                    await service.submit(
                        name, surfaces[name], TRAINING_TIMES, EVALUATION_TIMES
                    )
                    for name in ("story0", "story1")
                ]
                for job in jobs:
                    await job.wait()
                return jobs

        jobs = asyncio.run(run())
        assert all(job.status is JobStatus.SUCCEEDED for job in jobs)
        shard_spans = [r for r in tracer.spans() if r["name"] == "shard.solve"]
        failed = [r for r in shard_spans if "error" in r["attributes"]]
        retries = [r for r in shard_spans if "retry_of" in r["attributes"]]
        assert len(failed) == 1
        assert failed[0]["attributes"]["error"] == "RuntimeError"
        assert len(retries) == 2  # the shard was bisected into two halves
        for record in retries:
            assert record["attributes"]["retry_of"] == failed[0]["span_id"]
            assert record["parent_id"] == failed[0]["span_id"]
            assert record["trace_id"] == failed[0]["trace_id"]
            assert record["attributes"]["attempt"] == 1


class TestStructuredLogging:
    def make_logger(self, level=logging.DEBUG):
        stream = io.StringIO()
        logger = logging.getLogger(f"{SERVICE_LOGGER_NAME}.test")
        logger.handlers.clear()
        handler = logging.StreamHandler(stream)
        handler.setFormatter(JsonLineFormatter())
        logger.addHandler(handler)
        logger.setLevel(level)
        logger.propagate = False
        return logger, stream

    def test_log_job_event_emits_one_json_record(self):
        logger, stream = self.make_logger()
        log_job_event(
            logger, "job.accepted", job_id="j1", trace_id="t1", stories=3
        )
        record = json.loads(stream.getvalue())
        assert record["event"] == "job.accepted"
        assert record["job_id"] == "j1"
        assert record["trace_id"] == "t1"
        assert record["stories"] == 3
        assert record["level"] == "info"
        assert record["logger"].startswith(SERVICE_LOGGER_NAME)
        assert record["ts"].endswith("Z")

    def test_level_gating_suppresses_debug_records(self):
        logger, stream = self.make_logger(level=logging.INFO)
        log_job_event(
            logger, "story.result", job_id="j1", level=logging.DEBUG, story="s"
        )
        assert stream.getvalue() == ""

    def test_configure_service_logging_is_idempotent(self):
        stream = io.StringIO()
        logger = configure_service_logging("warning", stream=stream)
        again = configure_service_logging("debug", stream=stream)
        assert logger is again
        handlers = [
            h
            for h in logger.handlers
            if getattr(h, "stream", None) is stream
        ]
        assert len(handlers) == 1
        assert logger.level == logging.DEBUG
        logger.handlers.remove(handlers[0])

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="log level"):
            configure_service_logging("chatty")


def test_trace_for_job_finds_the_root_span():
    tracer = Tracer()
    span = tracer.span("job", attributes={"job": "job-7"})
    span.finish()
    tracer.span("job", attributes={"job": "other"}).finish()
    records = tracer.spans()
    assert trace_for_job(records, "job-7") == span.trace_id
    assert trace_for_job(records, "missing") is None
