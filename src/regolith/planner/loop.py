"""Planner runtime and loop: drain telemetry, update the world model, tick
the behaviour tree once, publish skill commands."""

from __future__ import annotations

import time

from ..bt import Blackboard, NodeStatus, TickContext
from ..bus import Bus, topic_for
from .world import WorldModel

#: Planner iteration period in sim time (s).
PLANNER_PERIOD = 0.1


class PlannerRuntime:
    """Shared services for behaviour leaves: the world model, the
    scenario's planner settings (`config.PlannerParams`: the planner keys,
    poses, each machine's rig and the bank density), and command
    publishing with unique activation ids."""

    def __init__(self, bus: Bus, wm: WorldModel, params):
        self.bus = bus
        self.wm = wm
        self.params = params
        self.sim_time = 0.0
        self._next_id = 0

    def next_activation_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def publish_command(self, machine: str, action: str, payload: dict):
        self.bus.publish(topic_for(machine, "target", action), payload,
                         sim_time=self.sim_time, publisher="planner")


class PlannerLoop:
    """One tree tick per iteration; iterations run at a fixed sim-time
    period driven by the host process."""

    def __init__(self, runtime: PlannerRuntime, tree):
        self.runtime = runtime
        self.tree = tree
        self.blackboard = Blackboard()
        self.sub_telemetry = runtime.bus.subscribe_category("telemetry")
        self.sub_skill = runtime.bus.subscribe_category("skill")
        self.tick_count = 0
        self.tick_seconds_total = 0.0
        self._switches_reported = 0

    def drain(self) -> int:
        count = 0
        for sub in (self.sub_telemetry, self.sub_skill):
            count += self.runtime.wm.ingest_all(sub.poll())
        return count

    def step(self, sim_time: float) -> NodeStatus:
        self.drain()
        self.runtime.sim_time = sim_time
        ctx = TickContext(blackboard=self.blackboard, sim_time=sim_time)
        start = time.perf_counter()
        status = self.tree.tick(ctx)
        self.tick_seconds_total += time.perf_counter() - start
        self.tick_count += 1
        return status

    def mean_tick_seconds(self) -> float:
        if not self.tick_count:
            return 0.0
        return self.tick_seconds_total / self.tick_count

    def status_report(self, status: NodeStatus) -> dict:
        """What a tick changed, as JSON-ready data: the tree status, the
        cell index, and `cell_switch_times` only when a cell switch was
        recorded since the last report; `run()` merges each report into
        the one before.  What a run reads once is in `final_report`."""
        report = {"status": status.name,
                  "cell_index": self.runtime.wm.cell_index}
        switches = self.runtime.wm.cell_switch_times
        if len(switches) != self._switches_reported:
            self._switches_reported = len(switches)
            report["cell_switch_times"] = list(switches)
        return report

    def final_report(self) -> dict:
        """The figures a run reads once, when it ends: the mean tick time
        and the planner bus's drop and error counts, as JSON-ready data.
        `mean_tick_seconds` is fixed-width text for `float`: a host timing
        whose JSON length varied would vary a run's wire bytes with it."""
        bus = self.runtime.bus
        return {"mean_tick_seconds": f"{self.mean_tick_seconds():.6e}",
                "bus_dropped": bus.dropped,
                "bus_errors": len(bus.error_events)}
