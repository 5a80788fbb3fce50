"""Scenario runner: wires planner and simulator together over the bus in
loopback (single process) or TCP lockstep (two process) mode, detects
stalls, and writes the run artifacts (CSVs, events, report, and the
snapshot: the step a resumed run replays to, runs being deterministic)."""

from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from . import planner_proc
from .bt import NodeStatus, SUCCESS, parse_document, resolve
from .bus import BridgeError, Bus, LoopbackBridge, TcpBridgeServer, bridge
from .config import ScenarioConfig
from .planner import (
    PLANNER_PERIOD,
    PlannerLoop,
    PlannerRuntime,
    SITE_ID,
    WorldModel,
    build_registry,
    grid_cells,
)
from .simulator import Simulator, TELEMETRY_EVERY
from .telemetry import (
    TelemetryCollector,
    segment_cycles,
    summarize,
    write_cycles_csv,
    write_samples_csv,
)


@dataclass
class RunReport:
    """Outcome of one scenario run."""
    complete: bool
    sim_time: float
    wall_time: float
    cycles: dict = field(default_factory=dict)    # machine -> records
    summary: dict = field(default_factory=dict)   # machine -> column stats
    mean_tick_seconds: float = 0.0
    realtime_factor: float = 0.0
    cell_switch_times: list = field(default_factory=list)
    fleet_cycles: list = field(default_factory=list)
    deadlocked: bool = False
    error: Optional[str] = None
    bus_errors: int = 0
    bus_dropped: int = 0
    config_hash: str = ""
    mass_closure_error: float = 0.0
    boundary_lost_kg: float = 0.0

    def to_dict(self) -> dict:
        return {
            "complete": self.complete, "sim_time": self.sim_time,
            "wall_time": self.wall_time,
            "mean_tick_seconds": self.mean_tick_seconds,
            "realtime_factor": self.realtime_factor,
            "cell_switch_times": list(self.cell_switch_times),
            "deadlocked": self.deadlocked, "error": self.error,
            "bus_errors": self.bus_errors, "bus_dropped": self.bus_dropped,
            "config_hash": self.config_hash,
            "mass_closure_error": self.mass_closure_error,
            "boundary_lost_kg": self.boundary_lost_kg,
            "cycles_per_machine": {m: len(rs) for m, rs in
                                   self.cycles.items()},
            "cycle_excavation_work_J": {
                m: [r.excavation_work_J for r in rs]
                for m, rs in self.cycles.items()},
            "summary": {m: {col: list(stat) for col, stat in s.items()}
                        for m, s in self.summary.items()},
        }


def _bus_ids(config: ScenarioConfig) -> list[str]:
    return config.machine_ids() + [SITE_ID]


def build_planner(config: ScenarioConfig, bus: Bus) -> PlannerLoop:
    """Planner loop with its world model seeded from the shared config."""
    belief = config.build_terrain()
    target = config.build_target(belief)
    cells = grid_cells(belief, *config.cell_grid())
    roles = {m.machine_id: m.role for m in config.machines}
    wm = WorldModel(belief, target, cells, roles,
                    config.planner.cell_tolerance)
    for mc in config.machines:
        report = wm.machines[mc.machine_id]
        report.x, report.y, report.heading = mc.pose
    wm.leveling_required = config.planner.leveling is not None
    runtime = PlannerRuntime(bus, wm, config.planner)
    registry = build_registry(runtime)
    tree = resolve(parse_document(config.tree_file.read_text()), registry)
    return PlannerLoop(runtime, tree)


# -- snapshots ---------------------------------------------------------------

SNAPSHOT_VERSION = 2


def _replay_key(config: ScenarioConfig) -> str:
    """The config hash but for the keys a resumed run may change."""
    raw = {**config.raw, "max_sim_time": None, "transport": None}
    return replace(config, raw=raw).config_hash


def load_snapshot(path, config: ScenarioConfig) -> dict:
    """The resume point saved at path by a run of this config, but for its
    max_sim_time and transport."""
    try:
        snap = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if snap.get("version") != SNAPSHOT_VERSION:
        raise ValueError(f"{path}: not a version {SNAPSHOT_VERSION} snapshot")
    if snap["config"] != _replay_key(config):
        raise ValueError(f"{path}: written by a run of another config")
    return snap


# -- progress / deadlock -----------------------------------------------------

def _progress_signature(sim: Simulator, cell_index: int) -> tuple:
    """The raw values whose rounding tells progress; see `_progressed`."""
    parts = [sim.ledger.excavated_kg, sim.ledger.dumped_kg, cell_index]
    for machine_id in sim.machine_order:
        ms = sim.machines[machine_id][1]
        parts += (ms.x, ms.y, ms.payload_kg)
    return tuple(parts)


def _signature_digits(sim: Simulator) -> tuple:
    """Decimal places `_progressed` rounds each signature entry to: mass
    totals to the milligram, positions to the millimetre, payloads to the
    gram; the cell index is an int, which rounding leaves as it is."""
    return (6, 6, 0) + (3, 3, 3) * len(sim.machine_order)


def _progressed(last: Optional[tuple], now: tuple, digits: tuple) -> bool:
    """Whether the signature now differs from the last one after rounding
    each entry to its digits.  Only entries whose raw values differ are
    rounded, and the scan stops at the first that rounds differently: the
    same answer as comparing the two fully rounded tuples."""
    if last is None:
        return True
    for a, b, nd in zip(last, now, digits):
        if a != b and round(a, nd) != round(b, nd):
            return True
    return False


# -- planner links -----------------------------------------------------------
# Once per planner period the run driver calls link.tick(sim_time), which
# returns PlannerLoop.status_report's dict, merged into the driver's view of
# the planner, and link.close() when it stops.

class _InProcessLink:
    """Planner loop in this process, on its own bus joined by a bridge."""

    def __init__(self, config: ScenarioConfig, sim_bus: Bus):
        bus = Bus(machine_ids=_bus_ids(config))
        self.bridge = LoopbackBridge(bus, sim_bus)
        self.loop = build_planner(config, bus)

    def tick(self, sim_time: float) -> dict:
        self.bridge.pump()
        status = self.loop.step(sim_time)
        self.bridge.pump()
        return self.loop.status_report(status)

    def close(self) -> None:
        pass


class _ChildLink:
    """Planner in a child process, in TCP lockstep.

    The child is forked from this process with `planner_proc.serve` as its
    target, so it starts with the interpreter, numpy and regolith already
    imported (POSIX only).  It still takes its config from the hello frame
    alone, as a planner started by hand does.  multiprocessing flushes the
    standard streams before the fork and ends the child with `os._exit`, so
    the child never flushes buffers it inherited, such as the open
    samples.csv."""

    def __init__(self, config: ScenarioConfig, sim_bus: Bus):
        self.server = TcpBridgeServer(sim_bus)
        self.hello = {"config": config.raw, "base_dir": str(config.base_dir),
                      "name": config.name}
        self.child = multiprocessing.get_context("fork").Process(
            target=planner_proc.serve, args=("127.0.0.1", self.server.port))
        self.child.start()
        self.connected = False

    def tick(self, sim_time: float) -> dict:
        # accept here, so a child that never connects fails inside the
        # driver's error handling and the run keeps its partial artifacts
        if not self.connected:
            self._accept()
            self.server.hello(self.hello)
            self.connected = True
        try:
            return self.server.sync(sim_time)
        except BridgeError as exc:
            if not isinstance(exc.__cause__, TimeoutError):
                raise
            # hung, not dead: end it now, not after close()'s join
            self.child.kill()
            raise BridgeError(
                f"planner child sent no ack for the sync at sim time "
                f"{sim_time:.2f} s within SYNC_TIMEOUT = "
                f"{bridge.SYNC_TIMEOUT:g} s") from exc

    def _accept(self) -> None:
        """Waits up to 30 s for the child to connect, in short slices, so a
        child that exits first fails the run at once."""
        deadline = time.monotonic() + 30.0
        while True:
            try:
                self.server.accept(wait=0.1)
                return
            except TimeoutError:
                pass
            code = self.child.exitcode
            if code is not None:
                raise BridgeError(
                    f"planner child exited with code {code} before connecting")
            if time.monotonic() > deadline:
                raise TimeoutError("planner child did not connect in 30 s")

    def close(self) -> None:
        self.server.shutdown()
        self.child.join(timeout=30.0)
        if self.child.exitcode is None:
            self.child.kill()
            self.child.join()
        self.child.close()


def run(config: ScenarioConfig, config_path=None, out_dir=None,
        mode: Optional[str] = None, overrides: Optional[dict] = None,
        snapshot: Optional[str] = None, observer=None) -> RunReport:
    """Runs a scenario with its planner in this process (loopback) or in a
    child process in TCP lockstep (tcp), which gets config.raw in a hello
    frame.  config_path and overrides are ignored (config holds the
    overrides); they stay because perfbench/child.py passes them, and a
    change to the benchmark can drop them.

    With a snapshot path it replays this loop to the snapshot's step and
    runs config.max_sim_time on; its artifacts leave out the rows, cycles,
    cell switches and dig starts of the snapshot's run, so cycle numbers
    continue.  A snapshot of another config or version is a ValueError.

    With out_dir, samples.csv is written there as the run goes and the
    other artifacts when it ends; the report's wall time covers all of
    them but report.json.

    observer(sim, loop, status), when given, is called after every planner
    tick; test harnesses use it for fault injection and tree
    introspection.  It needs the planner loop in this process, so it is
    loopback only."""
    mode = mode or config.transport
    if mode == "tcp" and observer is not None:
        raise ValueError("an observer needs loopback mode")
    resume = (load_snapshot(snapshot, config) if snapshot
              else {"step_count": 0, "sim_time": 0.0})
    resume_step = resume["step_count"]
    out = Path(out_dir) if out_dir else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    sim_bus = Bus(machine_ids=_bus_ids(config))
    collector = TelemetryCollector(sim_bus, config.timestep * TELEMETRY_EVERY)
    try:
        sim = Simulator(config, sim_bus, collector.samples)
        if mode == "tcp":
            link = _ChildLink(config, sim_bus)
        else:
            link = _InProcessLink(config, sim_bus)
        steps_per_tick = max(1, round(PLANNER_PERIOD / config.timestep))

        start_wall = time.perf_counter()
        complete = False
        deadlocked = False
        error = None
        planner_state = {"mean_tick_seconds": 0.0, "cell_switch_times": [],
                         "bus_dropped": 0, "bus_errors": 0}

        def start_artifacts() -> int:
            """Starts the artifacts; returns the cell switches they hide."""
            if out:
                collector.samples.open(out / "samples.csv")
            collector.hidden_starts = {m: len(starts) for m, starts
                                       in collector.dig_starts.items()}
            return len(planner_state["cell_switch_times"])

        hidden_switches = None
        end_time = resume["sim_time"] + config.max_sim_time
        last_sig = None
        last_change = sim.sim_time
        digits = _signature_digits(sim)
        try:
            while sim.sim_time < end_time - 1e-9:
                if sim.step_count == resume_step:
                    hidden_switches = start_artifacts()
                for _ in range(steps_per_tick):
                    sim.step()
                planner_state.update(link.tick(sim.sim_time))
                # drain every tick so long runs do not overflow the bounded
                # subscription queues, and the cycles' work keeps up
                collector.drain(sim.sim_time)
                if observer is not None:
                    observer(sim, link.loop,
                             NodeStatus[planner_state["status"]])
                if planner_state["status"] == SUCCESS.name:
                    complete = True
                    break
                sig = _progress_signature(sim, planner_state["cell_index"])
                if _progressed(last_sig, sig, digits):
                    last_sig = sig
                    last_change = sim.sim_time
                elif sim.sim_time - last_change > config.deadlock_window:
                    deadlocked = True
                    break
        except Exception as exc:           # report with partial artifacts
            error = f"{type(exc).__name__}: {exc}"
        finally:
            link.close()
        if hidden_switches is None:     # ended by the snapshot's step
            hidden_switches = start_artifacts()
        sim.flush_terrain()
        collector.drain(sim.sim_time)

        report = _finalize(
            config, sim, collector, complete=complete,
            deadlocked=deadlocked, error=error,
            mean_tick=planner_state["mean_tick_seconds"],
            cell_switches=planner_state["cell_switch_times"][hidden_switches:],
            bus_errors=len(sim_bus.error_events) + planner_state["bus_errors"],
            bus_dropped=sim_bus.dropped + planner_state["bus_dropped"])
        if out:
            _write_outputs(out, report, collector, config, sim)
        report.wall_time = time.perf_counter() - start_wall
        report.realtime_factor = report.sim_time / report.wall_time
        if out:
            (out / "report.json").write_text(
                json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return report
    finally:
        collector.samples.close()


# -- artifacts ---------------------------------------------------------------

def _finalize(config: ScenarioConfig, sim: Simulator,
              collector: TelemetryCollector, *, complete: bool,
              deadlocked: bool, error: Optional[str], mean_tick: float,
              cell_switches: list, bus_errors: int,
              bus_dropped: int) -> RunReport:
    """The run's report; `run()` sets its wall time."""
    cycles = {}
    summary = {}
    fleet = []
    for machine_id in sim.machine_order:
        records = collector.cycles(machine_id)
        if records:
            cycles[machine_id] = records
            summary[machine_id] = summarize(records)
    # fleet view: the digging machine's cycle spans, work charged across
    # every machine's actuators
    diggers = [m for m in sim.machine_order if m in collector.dig_starts]
    if diggers:
        fleet = segment_cycles(collector, diggers[0], fleet=True)
        if fleet:
            summary["fleet"] = summarize(fleet)
    return RunReport(
        complete=complete, sim_time=sim.sim_time, wall_time=0.0,
        cycles=cycles, summary=summary, mean_tick_seconds=mean_tick,
        cell_switch_times=cell_switches, fleet_cycles=fleet,
        deadlocked=deadlocked, error=error,
        bus_errors=bus_errors, bus_dropped=bus_dropped,
        config_hash=config.config_hash,
        mass_closure_error=sim.mass_closure_error(),
        boundary_lost_kg=sim.ledger.boundary_lost_kg)


def _write_outputs(out_dir: Path, report: RunReport,
                   collector: TelemetryCollector, config: ScenarioConfig,
                   sim: Simulator) -> None:
    all_cycles = [r for machine_id in sorted(report.cycles)
                  for r in report.cycles[machine_id]]
    write_cycles_csv(out_dir / "cycles.csv", all_cycles)
    write_samples_csv(out_dir / "samples.csv", collector.samples)
    events = [(t, "cell_switch") for t in report.cell_switch_times]
    for machine_id, starts in collector.dig_starts.items():
        events += [(t, f"dig_start:{machine_id}") for t in
                   starts[collector.hidden_starts.get(machine_id, 0):]]
    with open(out_dir / "events.csv", "w") as fh:
        fh.write("sim_time,event\n")
        for t, label in sorted(events):
            fh.write(f"{t!r},{label}\n")
    snap = {"version": SNAPSHOT_VERSION, "step_count": sim.step_count,
            "sim_time": sim.sim_time, "config": _replay_key(config)}
    (out_dir / "snapshot.json").write_text(json.dumps(snap))
