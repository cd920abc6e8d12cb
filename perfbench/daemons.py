"""Daemon processes: spawn, wait until they answer, stop, and sample /proc.

A :class:`Deployment` is the set of daemon processes one workload talks to:
a single daemon, or a cluster router with its worker daemons.  Memory and
CPU are read from ``/proc/<pid>`` from outside the daemons (``VmHWM`` and
utime+stime), never from ``ru_maxrss``, which survives fork and exec.
"""

from __future__ import annotations

import asyncio
import ctypes
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.core.errors import DaemonConnectionError
from repro.service import DaemonClient

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: ``prctl`` option from ``<linux/prctl.h>``.
PR_SET_PDEATHSIG = 1
READY_TIMEOUT_S = 60.0
_CONNECT_ERRORS = (DaemonConnectionError, ConnectionError, OSError)


def die_with_parent() -> None:
    """Have the kernel SIGKILL this process when its parent dies.

    Run in every child the benchmark starts, so that a benchmark killed from
    outside (where no ``finally`` runs) leaves no daemon or worker behind.
    """
    if ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")


def free_tcp_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def cpu_seconds(pid: int) -> float:
    """utime + stime of one process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of one process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


class Launcher:
    """Owns every daemon process of a run, so all of them can be stopped."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.procs: "list[subprocess.Popen]" = []
        self._sequence = 0

    def spawn(self, mode: str, address: str, workers=()) -> subprocess.Popen:
        self._sequence += 1
        log = open(self.workdir / f"daemon-{self._sequence}.log", "wb")
        command = [sys.executable, str(HERE / "daemon_main.py"), "--mode", mode]
        command += ["--listen", address]
        for worker in workers:
            command += ["--worker", worker]
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        try:
            proc = subprocess.Popen(
                command,
                cwd=ROOT,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=log,
                preexec_fn=die_with_parent,
            )
        finally:
            log.close()
        proc.log_path = log.name
        self.procs.append(proc)
        return proc

    def kill_all(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self.procs.clear()


class Deployment:
    """One daemon, or a router plus ``workers`` worker daemons.

    ``address`` is where clients connect.  :meth:`start` returns the set-up
    time: spawn until ``ping`` answers, and for a fleet until the router's
    ``stats`` shows every worker alive (the router dials its workers on the
    first shard, so a one-story ``probe`` job is part of set-up).
    """

    def __init__(self, launcher: Launcher, mode: str, name: str, workers: int = 0) -> None:
        self.launcher = launcher
        self.mode = mode
        self.address = f"unix:{(launcher.workdir / f'{name}.sock').relative_to(ROOT)}"
        self.worker_addresses = [
            f"tcp:127.0.0.1:{free_tcp_port()}" for _ in range(workers)
        ]
        self.procs: "list[subprocess.Popen]" = []

    @property
    def pids(self) -> "list[int]":
        return [proc.pid for proc in self.procs]

    async def start(self, probe: "dict | None" = None) -> float:
        started = time.perf_counter()
        # Workers solve whatever payload (spec included) the router ships,
        # so their own mode never matters; they keep every default.
        self.procs = [
            self.launcher.spawn("calibrate", address, ())
            for address in self.worker_addresses
        ]
        self.procs.insert(
            0, self.launcher.spawn(self.mode, self.address, self.worker_addresses)
        )
        await self._wait_ping()
        if self.worker_addresses:
            if probe is None:
                raise ValueError("a fleet needs a probe job to connect its workers")
            await self._wait_fleet_alive(probe)
        return time.perf_counter() - started

    def _check_alive(self) -> None:
        for proc in self.procs:
            if proc.poll() is not None:
                with open(proc.log_path, encoding="utf-8", errors="replace") as handle:
                    tail = handle.read()[-2000:]
                raise RuntimeError(
                    f"daemon pid {proc.pid} exited with {proc.returncode}:\n{tail}"
                )

    async def _wait_ping(self) -> None:
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while True:
            self._check_alive()
            try:
                async with await DaemonClient.connect(self.address) as client:
                    if (await client.ping()).get("event") == "pong":
                        return
            except _CONNECT_ERRORS:
                pass
            if time.perf_counter() > deadline:
                raise TimeoutError(f"{self.address} did not answer ping")
            await asyncio.sleep(0.005)

    async def _wait_fleet_alive(self, probe: dict) -> None:
        deadline = time.perf_counter() + READY_TIMEOUT_S
        async with await DaemonClient.connect(self.address) as client:
            async for event in client.submit(probe):
                if event.get("event") == "error":
                    raise RuntimeError(f"fleet probe job failed: {event}")
            while True:
                self._check_alive()
                fleet = (await client.stats())["service"]["executor_info"]["fleet"]
                if all(worker["alive"] for worker in fleet):
                    return
                if time.perf_counter() > deadline:
                    raise TimeoutError(f"fleet workers not alive: {fleet}")
                await asyncio.sleep(0.005)

    def cpu_seconds(self) -> float:
        return sum(cpu_seconds(pid) for pid in self.pids)

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.pids)

    async def stop(self) -> None:
        """Shut the router down first, then its workers; kill stragglers."""
        for proc, address in zip(self.procs, [self.address, *self.worker_addresses]):
            if proc.poll() is None:
                try:
                    client = await asyncio.wait_for(DaemonClient.connect(address), 5.0)
                    async with client:
                        await asyncio.wait_for(client.shutdown(drain=False), 5.0)
                except (*_CONNECT_ERRORS, asyncio.TimeoutError):
                    pass
            try:
                await asyncio.wait_for(asyncio.to_thread(proc.wait), 10.0)
            except asyncio.TimeoutError:
                proc.kill()
                proc.wait()
        self.procs = []
