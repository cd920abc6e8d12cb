"""Fixtures shared by the service tests."""

import asyncio
import contextlib
import time

import pytest

from repro.service import PredictionDaemon


@contextlib.asynccontextmanager
async def _worker_fleet(count: int = 2, **daemon_kwargs):
    """``count`` in-process worker daemons on ephemeral TCP ports."""
    workers, tasks = [], []
    try:
        for _ in range(count):
            worker = PredictionDaemon(max_workers=2, **daemon_kwargs)
            tasks.append(asyncio.ensure_future(worker.serve("tcp:127.0.0.1:0")))
            deadline = time.monotonic() + 10.0
            while worker.listener is None or worker.listener.address.port in (
                None,
                0,
            ):
                if time.monotonic() > deadline:
                    raise RuntimeError("worker daemon never bound its port")
                await asyncio.sleep(0.01)
            workers.append(worker)
        yield [str(worker.listener.address) for worker in workers]
    finally:
        for worker in workers:
            worker.stop_event.set()
        await asyncio.gather(*tasks, return_exceptions=True)


@pytest.fixture
def worker_fleet():
    """Factory for a worker-daemon fleet: ``async with worker_fleet(2) as addrs``."""
    return _worker_fleet
