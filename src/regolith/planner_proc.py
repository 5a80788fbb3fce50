"""Planner child process for two-process runs.

`serve` connects to the simulator's TCP bridge, takes the resolved config
from its hello frame alone, runs the planner loop in lockstep with its
sync marks, and reports tree status plus planning counters in every ack; a
resumed run replays from the first sync.  A TCP run forks its planner
child from the simulator process with `serve` as the target; `main` starts the same
planner by hand (``python -m regolith.planner_proc --port P``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bus import Bus, TcpBridgeClient
from .config import validate_config
from .planner import SITE_ID


def serve(host: str, port: int) -> None:
    """Plans for the simulator whose bridge listens on host:port, until it
    sends shutdown or the connection ends."""
    from .runner import build_planner

    bus = Bus()
    client = TcpBridgeClient(bus, host, port)
    try:
        hello = client.wait_hello()
        config = validate_config(hello["config"], Path(hello["base_dir"]),
                                 name=hello["name"])
        bus.set_machine_ids(config.machine_ids() + [SITE_ID])
        loop = build_planner(config, bus)
        while True:
            sim_time = client.wait_sync()
            if sim_time is None:
                break
            client.ack(loop.status_report(loop.step(sim_time)))
    finally:
        client.close()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="regolith-planner")
    ap.add_argument("--port", type=int, required=True)
    ap.add_argument("--host", default="127.0.0.1")
    args = ap.parse_args(argv)
    serve(args.host, args.port)
    return 0


if __name__ == "__main__":
    sys.exit(main())
