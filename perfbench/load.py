"""Closed-loop clients: submit jobs over ``DaemonClient`` and check results.

Each client sends its next job only after the previous one ended.  Every
job carries a wall-clock deadline (also sent as the daemon-side per-story
``timeout``), so a hung job becomes counted failures, not a stuck run.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

from repro.core.errors import DaemonConnectionError
from repro.service import DaemonClient

from inputs import Workload, check_result, story_names

#: Extra client-side wait past the deadline, for the daemon's own
#: timed-out results to arrive.
DEADLINE_GRACE_S = 5.0
_CONNECT_ERRORS = (DaemonConnectionError, ConnectionError, OSError)


@dataclass
class JobRecord:
    stories: "list[str]"
    submitted: float
    first_result: "float | None" = None
    done: "float | None" = None
    completed: bool = False
    events: dict = field(default_factory=dict)
    event_bytes: int = 0
    error: "str | None" = None

    @property
    def latency(self) -> float:
        return self.done - self.submitted


class LoadClient:
    """One connection that reconnects after a job broke its stream."""

    def __init__(self, address: str) -> None:
        self.address = address
        self._client: "DaemonClient | None" = None

    async def job(self, manifest: dict, deadline_s: float) -> JobRecord:
        record = JobRecord(story_names(manifest), time.perf_counter())
        try:
            if self._client is None:
                self._client = await DaemonClient.connect(self.address)
            await asyncio.wait_for(
                self._stream(manifest, deadline_s, record),
                deadline_s + DEADLINE_GRACE_S,
            )
        except asyncio.TimeoutError:
            record.error = f"no final job event within {deadline_s:g} s"
            await self.close()
        except _CONNECT_ERRORS as error:
            record.error = f"{type(error).__name__}: {error}"
            await self.close()
        if record.done is None:
            record.done = time.perf_counter()
        return record

    async def _stream(self, manifest: dict, deadline_s: float, record: JobRecord) -> None:
        async for event in self._client.submit(manifest, timeout=deadline_s):
            now = time.perf_counter()
            # The daemon writes json.dumps(event, sort_keys=True) + "\n".
            record.event_bytes += len(json.dumps(event, sort_keys=True)) + 1
            kind = event.get("event")
            if kind == "result":
                if record.first_result is None:
                    record.first_result = now
                record.events[event.get("story")] = event
            elif kind == "error":
                record.error = str(event.get("error"))
            elif kind == "job":
                record.done = now
                record.completed = True

    async def close(self) -> None:
        if self._client is not None:
            client, self._client = self._client, None
            try:
                await client.close()
            except _CONNECT_ERRORS:
                pass


async def closed_loop(
    address: str, workload: Workload, clients: int, seconds: float
) -> "tuple[float, list[JobRecord]]":
    """``clients`` closed loops submitting until ``seconds`` have passed.

    Jobs already submitted when time is up run to completion and count.  A
    workload with ``jobs_per_client`` sends exactly that many per client
    instead.  Returns the start time and every job record.
    """
    jobs = workload.jobs
    start = time.perf_counter()
    stop_at = start + seconds

    def more(sent: int) -> bool:
        if workload.jobs_per_client is not None:
            return sent < workload.jobs_per_client
        return time.perf_counter() < stop_at

    async def client_loop(offset: int) -> "list[JobRecord]":
        client = LoadClient(address)
        records, index = [], offset
        try:
            while more(len(records)):
                records.append(
                    await client.job(jobs[index % len(jobs)], workload.deadline_s)
                )
                index += 1
        finally:
            await client.close()
        return records

    per_client = await asyncio.gather(
        *(client_loop(i * len(jobs) // clients) for i in range(clients))
    )
    return start, [record for records in per_client for record in records]


async def sequential(address: str, manifests, deadline_s: float) -> "list[JobRecord]":
    """One client submitting ``manifests`` one after another."""
    client = LoadClient(address)
    try:
        return [await client.job(manifest, deadline_s) for manifest in manifests]
    finally:
        await client.close()


@dataclass
class Tally:
    """Per-story outcome of a set of jobs against the reference."""

    attempted: int = 0
    succeeded: int = 0
    mismatched: int = 0
    problems: "list[str]" = field(default_factory=list)
    accuracy: "dict[str, float]" = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.attempted - self.succeeded

    def add(self, records: "list[JobRecord]", expected: dict) -> "Tally":
        for record in records:
            for name in record.stories:
                self.attempted += 1
                event = record.events.get(name)
                problem = check_result(event, expected[name])
                if problem is None:
                    self.succeeded += 1
                    self.accuracy[name] = event["overall_accuracy"]
                    continue
                if event is not None and event.get("status") == "succeeded":
                    self.mismatched += 1
                if record.error and event is None:
                    problem = f"{problem} ({record.error})"
                self.problems.append(f"{name}: {problem}")
        return self
