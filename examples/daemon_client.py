"""Programmatic submission to the long-lived prediction daemon.

The daemon (``repro daemon``) keeps one sharded worker pool -- and its
cached operator factorizations -- warm across many jobs, speaking a
JSON-lines protocol over stdin/stdout, a Unix-domain socket or TCP.  This
example drives the Unix-socket transport end to end from Python (swap the
address for ``tcp:HOST:PORT`` and nothing else changes):

1. boot a :class:`repro.service.PredictionDaemon` on a Unix socket inside
   this process (in production it runs as its own ``repro daemon --listen``
   process; the protocol is identical),
2. connect a :class:`repro.service.DaemonClient` and submit two jobs --
   manifests of inline cascade surfaces -- streaming each per-story
   ``result`` event as its shard completes,
3. query job ``status`` and daemon ``stats`` (service counters, shard
   size, telemetry snapshot) over the same connection,
4. shut the daemon down gracefully (it drains every running job first).

Run with:  python examples/daemon_client.py
"""

import asyncio
import os
import tempfile

import numpy as np

from repro import (
    PAPER_S1_HOP_PARAMETERS,
    DiffusiveLogisticModel,
    InitialDensity,
)
from repro.core.config import SolverConfig
from repro.service import DaemonClient, PredictionDaemon

HOURS = 6


def build_manifest(name_prefix: str, size: int, seed: int) -> dict:
    """A manifest of ``size`` inline DL-generated cascade surfaces."""
    rng = np.random.default_rng(seed)
    model = DiffusiveLogisticModel(
        PAPER_S1_HOP_PARAMETERS, points_per_unit=12, max_step=0.02
    )
    stories = []
    for index in range(size):
        phi = InitialDensity([1, 2, 3, 4, 5], list(2.0 + 3.0 * rng.random(5)))
        surface = model.predict(phi, [float(t) for t in range(1, HOURS + 1)])
        stories.append(
            {
                "name": f"{name_prefix}-{index:02d}",
                "distances": [float(d) for d in surface.distances],
                "times": [float(t) for t in surface.times],
                "values": [[float(v) for v in row] for row in surface.values],
            }
        )
    return {"metric": "hops", "hours": HOURS, "stories": stories}


async def submit_job(address: str, job_id: str, manifest: dict) -> None:
    """One connection, one job: stream every event until completion."""
    async with await DaemonClient.connect(address) as client:
        async for event in client.submit(manifest, job_id=job_id, timeout=60.0):
            kind = event["event"]
            if kind == "accepted":
                print(f"  [{job_id}] accepted: {len(event['stories'])} stories")
            elif kind == "result":
                accuracy = event.get("overall_accuracy")
                detail = f"accuracy {accuracy:.3f}" if accuracy is not None else event.get("error", "")
                print(f"  [{job_id}] {event['story']}: {event['status']} ({detail})")
            elif kind == "job":
                print(f"  [{job_id}] completed in {event['seconds']:.2f}s: {event['stories']}")
            elif kind == "error":
                raise RuntimeError(f"daemon rejected the job: {event['error']}")


async def main() -> None:
    with tempfile.TemporaryDirectory() as tmpdir:
        socket_path = os.path.join(tmpdir, "repro-daemon.sock")
        address = f"unix:{socket_path}"
        # In production: run `repro daemon --listen unix:<path>` (or
        # --listen tcp:HOST:PORT; --shard-size N caps each batched solve) as
        # its own process and skip straight to DaemonClient.connect(address).
        daemon = PredictionDaemon(
            parameters=PAPER_S1_HOP_PARAMETERS,
            solver=SolverConfig(points_per_unit=12, max_step=0.02),
        )
        server = asyncio.ensure_future(daemon.serve(address))
        while not os.path.exists(socket_path):
            await asyncio.sleep(0.01)
        print(f"daemon listening on {socket_path}\n")

        # Two jobs submitted concurrently over separate connections -- they
        # share the daemon's worker pool and operator caches.
        await asyncio.gather(
            submit_job(address, "morning-batch", build_manifest("am", 6, seed=1)),
            submit_job(address, "evening-batch", build_manifest("pm", 4, seed=2)),
        )

        async with await DaemonClient.connect(address) as client:
            status = await client.status("morning-batch")
            print(f"\nstatus of morning-batch: {status['status']}, {status['stories']}")
            stats = await client.stats()
            service = stats["service"]
            print(
                f"daemon stats: {stats['jobs']['total']} jobs, "
                f"{service['stories_solved']} stories in "
                f"{service['shards_solved']} shards "
                f"(at most {service['max_shard_size']} stories per shard)"
            )
            print(f"shutting down: {await client.shutdown()}")
        await server
        print("daemon exited")


if __name__ == "__main__":
    asyncio.run(main())
