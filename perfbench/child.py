"""One benchmark run in a fresh process.

    python3 perfbench/child.py --scenario NAME --mode loopback|tcp --seed N
        --out DIR --result FILE [--trace] [--setup-only]

Loads the bundled scenario the way `regolith run --config NAME --seed N
--mode MODE --out DIR` does, records the time of the call into
`regolith.runner.run()` (the parent subtracts its own spawn time to get the
set-up time), times the whole call, and writes one JSON object to FILE:
the run's outcome, its checks' inputs, the statistics that must repeat
exactly, the peak RSS of this process and, with --trace, the per-layer
metrics.  --setup-only stops before the call, to sample set-up time alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from regolith.config import load_config
from regolith.scenarios import scenario_path
from regolith import runner

import layers

ARTIFACTS = ("cycles.csv", "samples.csv", "events.csv")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench-child")
    ap.add_argument("--scenario", required=True)
    ap.add_argument("--mode", choices=("loopback", "tcp"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    path = scenario_path(args.scenario)
    overrides = {"seed": args.seed, "transport": args.mode}
    config = load_config(path, overrides=overrides)
    seen = layers.install_hooks()
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
    call_time = time.time()
    if args.setup_only:
        Path(args.result).write_text(json.dumps({"call_time": call_time}))
        return 0

    start = time.perf_counter()
    report = runner.run(config, config_path=path, out_dir=args.out,
                        mode=args.mode, overrides=overrides)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = Path(args.out)
    stats = {
        "sim_time": report.sim_time,
        "cycles": {m: len(rs) for m, rs in sorted(report.cycles.items())},
        "mass_closure_error": report.mass_closure_error,
        **layers.run_statistics(seen),
        **{f"sha256.{name}": _sha256(out / name) for name in ARTIFACTS
           if (out / name).exists()},
    }
    if tracer is not None:
        stats.update(tracer.counted_statistics())
    result = {
        "call_time": call_time,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "complete": report.complete,
        "deadlocked": report.deadlocked,
        "error": report.error,
        "bus_errors": report.bus_errors,
        "stats": stats,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(wall_s, seen)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
