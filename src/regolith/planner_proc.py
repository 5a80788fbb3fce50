"""Planner child process for two-process runs.

Connects to the simulator's TCP bridge, runs the planner loop in lockstep
with the simulator's sync marks, and reports tree status plus planning
counters in every ack.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bus import Bus, TcpBridgeClient
from .config import load_config
from .planner import SITE_ID


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="regolith-planner")
    ap.add_argument("--config", required=True)
    ap.add_argument("--port", type=int, required=True)
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--hash", dest="expected_hash", default=None)
    ap.add_argument("--overrides", default=None)
    ap.add_argument("--snapshot", default=None)
    args = ap.parse_args(argv)

    overrides = json.loads(args.overrides) if args.overrides else None
    config = load_config(args.config, overrides=overrides)
    if args.expected_hash and config.config_hash != args.expected_hash:
        print("config hash mismatch between planner and simulator",
              file=sys.stderr)
        return 3

    from .runner import build_planner, load_snapshot

    bus = Bus(machine_ids=config.machine_ids() + [SITE_ID])
    client = TcpBridgeClient(bus, args.host, args.port)
    snap = load_snapshot(args.snapshot) if args.snapshot else None
    loop = build_planner(config, bus,
                         terrain=snap["terrain"] if snap else None,
                         cell_index=snap["cell_index"] if snap else 0)
    try:
        while True:
            sim_time = client.wait_sync()
            if sim_time is None:
                break
            client.ack(loop.status_report(loop.step(sim_time)))
    finally:
        client.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
