"""Start one prediction daemon for the benchmark, as its own process.

    python3 perfbench/daemon_main.py --mode known --listen unix:path.sock
    python3 perfbench/daemon_main.py --mode known --listen unix:r.sock \\
        --worker tcp:127.0.0.1:7001 --worker tcp:127.0.0.1:7002

The daemon keeps the program's defaults (``max_workers``,
``max_shard_size``, thread executor, ``SolverConfig()``,
``CalibrationConfig()``) except for what :func:`build_daemon` sets, so a
later change to a default shows in the benchmark.
"""

from __future__ import annotations

import argparse
import asyncio

from repro import PAPER_S1_HOP_PARAMETERS
from repro.service import PredictionDaemon

MODES = ("calibrate", "known")
#: Stories per shard on a cluster router.  A worker_result line for a
#: multi-story shard can exceed asyncio's 64 KiB stream line limit, which
#: the router's read loop does not survive (the job would hang).
ROUTER_MAX_SHARD_SIZE = 1


def build_daemon(mode: str, workers: "list[str]") -> PredictionDaemon:
    """``calibrate`` fits every story; ``known`` scores with the paper's s1
    hop parameters.  With ``workers`` the daemon is a cluster router."""
    options: dict = {}
    if mode == "known":
        options["parameters"] = PAPER_S1_HOP_PARAMETERS
    if workers:
        options.update(
            executor="cluster",
            max_shard_size=ROUTER_MAX_SHARD_SIZE,
            executor_options={
                "workers": workers,
                "connect_retries": 40,
                "connect_backoff": 0.05,
            },
        )
    return PredictionDaemon(**options)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--listen", required=True)
    parser.add_argument("--worker", action="append", default=[])
    args = parser.parse_args()
    asyncio.run(build_daemon(args.mode, args.worker).serve(args.listen))


if __name__ == "__main__":
    main()
