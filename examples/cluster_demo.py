"""Cluster mode: a router daemon driving a two-worker fleet on localhost.

With ``--executor cluster`` the daemon becomes a *router*: instead of
solving shards in a local thread or process pool it fans them out -- as
the same picklable payloads the process backend uses -- to worker
daemons over the JSON-lines protocol.  Shards are hash-routed by their
``ShardKey`` for operator-cache affinity, stolen by idle workers when a
queue runs deep, and rerouted through the normal bisection retry when a
worker dies mid-shard.  This example walks the whole story on one
machine:

1. launch two *worker* daemons as real subprocesses on localhost TCP
   (plain ``repro daemon`` -- any daemon answers the ``worker`` op),
2. boot a router :class:`repro.service.PredictionDaemon` with
   ``executor="cluster"`` pointing at both workers, and submit a job
   through it with :class:`repro.service.DaemonClient`,
3. read the fleet view out of the ``stats`` op (liveness, in-flight and
   solved counts per worker -- what ``repro daemon-stats`` prints),
4. kill one worker mid-job with the second submission and watch the job
   still complete on the survivor (``cluster.reroutes`` counts the
   shards that were re-queued off the corpse).

Run with:  python examples/cluster_demo.py
"""

import asyncio
import os
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import repro
from repro import (
    PAPER_S1_HOP_PARAMETERS,
    DiffusiveLogisticModel,
    InitialDensity,
)
from repro.core.config import SolverConfig
from repro.service import DaemonClient, PredictionDaemon

HOURS = 5
REPO_SRC = str(Path(repro.__file__).resolve().parents[1])


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


def free_tcp_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def launch_worker(address: str) -> subprocess.Popen:
    """One worker = one ordinary ``repro daemon`` process."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "daemon", "--listen", address, "--workers", "2"],
        env={**os.environ, "PYTHONPATH": REPO_SRC},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


async def submit_job(
    address: str, job_id: str, manifest: dict, kill_after: "tuple[int, subprocess.Popen] | None" = None
) -> None:
    """Stream one job's events; optionally kill a worker process mid-stream."""
    results = 0
    async with await DaemonClient.connect(address) as client:
        async for event in client.submit(manifest, job_id=job_id, timeout=120.0):
            kind = event["event"]
            if kind == "accepted":
                print(f"  [{job_id}] accepted: {len(event['stories'])} stories")
            elif kind == "result":
                results += 1
                accuracy = event.get("overall_accuracy")
                detail = f"accuracy {accuracy:.3f}" if accuracy is not None else event.get("error", "")
                print(f"  [{job_id}] {event['story']}: {event['status']} ({detail})")
                if kill_after is not None and results == kill_after[0]:
                    print(f"  [{job_id}] !! killing worker pid {kill_after[1].pid} mid-job")
                    kill_after[1].kill()
            elif kind == "job":
                print(f"  [{job_id}] completed in {event['seconds']:.2f}s: {event['stories']}")
            elif kind == "error":
                raise RuntimeError(f"daemon rejected the job: {event['error']}")


async def print_fleet(address: str) -> dict:
    async with await DaemonClient.connect(address) as client:
        stats = await client.stats()
    info = stats["service"]["executor_info"]
    alive = sum(1 for worker in info["fleet"] if worker["alive"])
    print(
        f"\nfleet: {alive}/{len(info['fleet'])} workers alive, "
        f"{info['shards_stolen']} stolen, {info['reroutes']} rerouted"
    )
    for worker in info["fleet"]:
        state = "alive" if worker["alive"] else "dead"
        print(
            f"  {worker['worker']:<24} {state:<6} "
            f"inflight {worker['inflight']}  solved {worker['shards_solved']}"
        )
    return info


async def main() -> None:
    worker_addresses = [f"tcp:127.0.0.1:{free_tcp_port()}" for _ in range(2)]
    procs = [launch_worker(address) for address in worker_addresses]
    print(f"worker fleet: {', '.join(worker_addresses)}")

    try:
        with tempfile.TemporaryDirectory() as tmpdir:
            socket_path = os.path.join(tmpdir, "repro-router.sock")
            address = f"unix:{socket_path}"
            # In production: `repro daemon --listen ... --executor cluster
            #   --worker tcp:HOST:PORT --worker tcp:HOST:PORT` (or
            #   --workers-file fleet.txt) as its own process.
            router = PredictionDaemon(
                parameters=PAPER_S1_HOP_PARAMETERS,
                solver=SolverConfig(points_per_unit=12, max_step=0.02),
                max_workers=4,
                max_shard_size=1,
                executor="cluster",
                executor_options={
                    "workers": worker_addresses,
                    # The router may dial before the workers finish booting.
                    "connect_retries": 20,
                    "connect_backoff": 0.25,
                },
            )
            server = asyncio.ensure_future(router.serve(address))
            while not os.path.exists(socket_path):
                await asyncio.sleep(0.01)
            print(f"router listening on {address}\n")

            await submit_job(address, "fanout", build_manifest("fan", 6, seed=1))
            await print_fleet(address)

            print("\nsecond job, with a worker killed after two results:")
            await submit_job(
                address,
                "survive-a-crash",
                build_manifest("crash", 8, seed=2),
                kill_after=(2, procs[0]),
            )
            info = await print_fleet(address)
            print(
                f"\nthe job finished on the surviving worker; "
                f"{info['reroutes']} in-flight shards were rerouted"
            )

            async with await DaemonClient.connect(address) as client:
                print(f"shutting down router: {await client.shutdown()}")
            await server
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    print("done")


if __name__ == "__main__":
    asyncio.run(main())
