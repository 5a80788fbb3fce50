"""Per-layer tracing of a regolith run from outside the package.

`install_hooks` records the few long-lived objects a run creates (the
simulator, planner loop, telemetry collector, bus subscriptions and frame
decoders) by wrapping their constructors.  It costs nothing inside the main
loop, so untraced runs use it too, to read step counts, sample rows and drop
counts after `run()` returns.

`Tracer.install` wraps the public functions of each layer where their
callers look them up: a wrapper on the defining module alone is never called
by code that imported the name into its own namespace.  Each wrapper keeps a
stack of open spans and charges every span its self time: its duration minus
the time spent in wrapped callees.  Spans are aggregated in memory (a flat
run makes about a million wrapped calls, too many to keep one by one); only
`bt.tick` keeps its per-call self times, for percentiles.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time


#: Constructors whose instances a run's statistics are read from.
HOOKED_CLASSES = (
    ("regolith.simulator", "Simulator"),
    ("regolith.planner.loop", "PlannerLoop"),
    ("regolith.telemetry", "TelemetryCollector"),
    ("regolith.bus.core", "Subscription"),
    ("regolith.bus.wire", "FrameDecoder"),
)

#: Layer span name -> every (module, attribute) through which callers reach
#: the function.  "Class.method" attributes are patched on the class.
SPANS = {
    "terrain.dig_resistance": [("regolith.machines.skills", "dig_resistance")],
    "terrain.excavate": [("regolith.machines.skills", "excavate_swept")],
    "terrain.deposit": [("regolith.machines.skills", "deposit")],
    "terrain.relax": [("regolith.terrain.deform", "avalanche_relax")],
    "machines.dig": [("regolith.machines.skills", "DigExecution.step")],
    "machines.drive": [("regolith.simulator", "step_locomotion"),
                       ("regolith.machines.locomotion", "step_locomotion")],
    "machines.settle": [("regolith.simulator", "settle_on_terrain"),
                        ("regolith.machines.locomotion", "settle_on_terrain"),
                        ("regolith.machines.skills", "settle_on_terrain")],
    "machines.dump": [("regolith.machines.skills", "ArmDumpExecution.step")],
    "machines.beddump": [("regolith.machines.skills",
                          "BedDumpExecution.step")],
    "machines.level": [("regolith.machines.skills",
                        "LevelRunExecution.step")],
    "simulator.step": [("regolith.simulator", "Simulator.step")],
    "bus.publish": [("regolith.bus.core", "Bus.publish"),
                    ("regolith.bus.core", "Bus.republish")],
    "bus.pump": [("regolith.bus.bridge", "LoopbackBridge.pump")],
    "bus.sync": [("regolith.bus.bridge", "TcpBridgeServer.sync")],
    "bus.wire_encode": [("regolith.bus.wire", "frame")],
    "bus.wire_decode": [("regolith.bus.wire", "FrameDecoder.feed")],
    "planner.drain": [("regolith.planner.loop", "PlannerLoop.drain")],
    "bt.tick": [("regolith.planner.loop", "PlannerLoop.step")],
    "telemetry.ingest": [("regolith.telemetry", "TelemetryCollector.drain")],
    "telemetry.segment": [("regolith.runner", "segment_cycles"),
                          ("regolith.telemetry", "segment_cycles")],
    "telemetry.write_samples": [("regolith.runner", "write_samples_csv")],
    "runner.finalize": [("regolith.runner", "_finalize")],
    "runner.artifacts": [("regolith.runner", "_write_outputs")],
}


def _relax(counts, args, result):
    counts["sweeps"] += result.sweeps
    counts["capped"] += int(result.residual)


def _returned(key):
    def hook(counts, args, result):
        counts[key] += result
    return hook


def _returned_len(counts, args, result):
    counts["bytes"] += len(result)


def _fed_len(counts, args, result):
    counts["bytes"] += len(args[1])          # FrameDecoder.feed(self, data)


def _written_size(counts, args, result):
    counts["bytes"] += os.path.getsize(args[0])


#: Span name -> (counter names, hook(counts, args, result) that adds to them).
COUNTERS = {
    "terrain.relax": (("sweeps", "capped"), _relax),
    "bus.pump": (("delivered",), _returned("delivered")),
    "bus.wire_encode": (("bytes",), _returned_len),
    "bus.wire_decode": (("bytes",), _fed_len),
    "planner.drain": (("envelopes",), _returned("envelopes")),
    "telemetry.write_samples": (("bytes",), _written_size),
}

#: Spans whose per-call self times are kept for percentiles.
PER_CALL = ("bt.tick",)


def _resolve(module_name: str, attr: str):
    """(owner, name) such that getattr(owner, name) is the target."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def install_hooks() -> dict:
    """Record every instance of HOOKED_CLASSES; returns {class name: list}."""
    seen = {}
    for module_name, cls_name in HOOKED_CLASSES:
        cls = getattr(importlib.import_module(module_name), cls_name)
        instances = seen[cls_name] = []
        init = cls.__init__

        @functools.wraps(init)
        def recording_init(self, *args, _init=init, _instances=instances,
                           **kwargs):
            _init(self, *args, **kwargs)
            _instances.append(self)

        cls.__init__ = recording_init
    return seen


def run_statistics(seen: dict) -> dict:
    """Statistics read from the recorded instances after `run()`."""
    sims = seen["Simulator"]
    loops = seen["PlannerLoop"]
    collectors = seen["TelemetryCollector"]
    stats = {
        "sim_steps": sum(s.step_count for s in sims),
        "sample_rows": sum(len(c.samples) for c in collectors),
        "bus_dropped": sum(s.dropped for s in seen["Subscription"]),
        "decode_errors": sum(len(d.errors) for d in seen["FrameDecoder"]),
    }
    if loops:                       # the planner runs in this process
        stats["planner_ticks"] = sum(loop.tick_count for loop in loops)
    return stats


class _Acc:
    __slots__ = ("self_s", "total_s", "calls", "counts", "per_call")

    def __init__(self):
        self.self_s = 0.0
        self.total_s = 0.0
        self.calls = 0
        self.counts = {}
        self.per_call = []


class Tracer:
    """Self time, inclusive time, call count and counters per layer span."""

    def __init__(self):
        self.acc = {name: _Acc() for name in SPANS}
        for name, (keys, _) in COUNTERS.items():
            self.acc[name].counts = dict.fromkeys(keys, 0)
        self._stack = [0.0]         # per open span: time in wrapped callees

    def install(self) -> None:
        wrappers = {}               # original function -> its wrapper
        for name, sites in SPANS.items():
            for module_name, attr in sites:
                owner, key = _resolve(module_name, attr)
                fn = getattr(owner, key)
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(name, fn)
                setattr(owner, key, wrappers[fn])

    def _wrap(self, name: str, fn):
        acc = self.acc[name]
        stack = self._stack
        clock = time.perf_counter
        hook = COUNTERS[name][1] if name in COUNTERS else None
        counts = acc.counts
        keep = name in PER_CALL

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own = elapsed - stack.pop()
                stack[-1] += elapsed
                acc.self_s += own
                acc.total_s += elapsed
                acc.calls += 1
                if keep:
                    acc.per_call.append(own)
            if hook is not None:
                hook(counts, args, result)
            return result

        return span

    def metrics(self, wall_s: float, seen: dict) -> dict:
        """Flat {metric name: value} for one traced run."""
        out = {}
        for name, acc in self.acc.items():
            if name.startswith("runner."):
                continue
            out[f"{name}.self_s"] = acc.self_s
            out[f"{name}.calls"] = acc.calls
            for key, value in acc.counts.items():
                out[f"{name}.{key}"] = value
        ticks = self.acc["bt.tick"].per_call
        if len(ticks) >= 2:
            cuts = statistics.quantiles(ticks, n=100, method="inclusive")
            p50, p99 = cuts[49], cuts[98]
        else:
            p50 = p99 = ticks[0] if ticks else 0.0
        out["bt.tick.p50_us"] = p50 * 1e6
        out["bt.tick.p99_us"] = p99 * 1e6
        out["bt.tick.max_us"] = max(ticks, default=0.0) * 1e6
        stats = run_statistics(seen)
        out["telemetry.ingest.samples"] = stats["sample_rows"]
        out["bus.dropped"] = stats["bus_dropped"]
        out["bus.decode_errors"] = stats["decode_errors"]
        finalize = self.acc["runner.finalize"].total_s
        artifacts = self.acc["runner.artifacts"].total_s
        out["runner.finalize_s"] = finalize
        out["runner.artifacts_s"] = artifacts
        out["runner.loop_s"] = wall_s - finalize - artifacts
        return out

    def counted_statistics(self) -> dict:
        """Deterministic counts a traced run adds to the run statistics."""
        acc = self.acc
        stats = {
            "dig_resistance_calls": acc["terrain.dig_resistance"].calls,
            "relax_sweeps": acc["terrain.relax"].counts["sweeps"],
            "envelopes": acc["bus.publish"].calls,
            "wire_bytes": (acc["bus.wire_encode"].counts["bytes"]
                           + acc["bus.wire_decode"].counts["bytes"]),
        }
        if acc["bus.sync"].calls:   # the planner ticks once per sync
            stats["planner_ticks"] = acc["bus.sync"].calls
        return stats
