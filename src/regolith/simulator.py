"""Simulation process: sole owner of terrain and machine state.

Consumes skill commands from `/{machine}/target/*`, advances the physics at
a fixed timestep, and publishes machine state, skill status (with periodic
Running heartbeats) and terrain patches.  Actuator samples do not cross the
bus: each telemetry step appends them to the run's `SampleLog`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bus import Bus, split_topic, topic_for
from .config import ScenarioConfig
from .machines import (
    ACTUATORS,
    RUNNING,
    ArmDumpExecution,
    BedDumpExecution,
    DigExecution,
    DriveExecution,
    LevelRunExecution,
    MachineSpec,
    MachineState,
    settle_on_terrain,
)
# Not called here: the benchmark's tracer (perfbench/layers.py, SPANS
# "machines.drive") resolves regolith.simulator.step_locomotion.
from .machines import step_locomotion  # noqa: F401
from .planner.world import SITE_ID
from .telemetry import SampleLog
from .terrain import SweptCut

#: Sim seconds between Running heartbeats for an active skill.
HEARTBEAT_PERIOD = 0.5
#: Steps between machine-state messages and actuator sample rows (10 Hz at
#: the 10 ms reference timestep).
TELEMETRY_EVERY = 10
#: Steps between terrain patch messages (1 Hz at the reference timestep).
TERRAIN_EVERY = 100
#: Max changed cells per terrain patch message.
PATCH_CHUNK = 512

SKILL_ACTIONS = ("drive", "dig", "dump", "beddump", "level")


@dataclass
class MassLedger:
    """Global material accounting for the run."""
    excavated_kg: float = 0.0     # removed from terrain by digging/grading
    dumped_kg: float = 0.0        # released at an offload destination
    spilled_kg: float = 0.0       # shed in transit under acceleration
    boundary_lost_kg: float = 0.0  # left the grid (subset of the above)

    def residual_error(self, residual_kg: float) -> float:
        """Relative closure error of excavated vs dumped+spilled+residual."""
        if self.excavated_kg <= 0.0:
            return 0.0
        return abs(self.excavated_kg - (self.dumped_kg + self.spilled_kg
                                        + residual_kg)) / self.excavated_kg


class SkillRunner:
    """Runs one skill command at a time for one machine.

    A command builds its skill's execution (`machines.skills`), and each
    step advances it once.  The runner adds the mass the step moved to
    the simulator's `MassLedger`, whose only writer it is, and publishes
    the skill's status on `/{machine}/skill/{action}`: Running when the
    command is taken and as a heartbeat, then Succeeded or Failed with
    the execution's `result`.  A command that cannot start (a missing
    argument, a dump with neither truck nor point, a machine out of
    service) ends Failed with its error; an unknown action is a bus error
    and publishes no status.
    """

    def __init__(self, sim: "Simulator", machine_id: str, spec: MachineSpec,
                 state: MachineState):
        self.sim = sim
        self.machine_id = machine_id
        self.spec = spec
        self.state = state
        self.action: Optional[str] = None
        self.command_id: Optional[int] = None
        self.execution = None
        self.last_status_step = 0
        #: When False the machine rejects commands and fails its active
        #: skill (breakdown / taken out of service).
        self.available = True

    # -- command intake ------------------------------------------------------

    def handle_command(self, payload: dict) -> None:
        action = payload.get("action")
        if payload.get("cancel"):
            if action == self.action and payload.get("id") == self.command_id:
                self._finish("Failed", {"error": "cancelled"})
            return
        if action not in SKILL_ACTIONS:
            self.sim.bus.report_error(
                f"{self.machine_id}: unknown skill action {action!r}")
            return
        if self.action is not None:
            self._finish("Failed", {"error": "preempted" if self.available
                                    else "machine unavailable"})
        self.action, self.command_id = action, payload.get("id", 0)
        if not self.available:
            self._finish("Failed", {"error": "machine unavailable"})
            return
        try:
            self.execution = self._execution(action,
                                             payload.get("params") or {})
        except (KeyError, ValueError, TypeError) as exc:
            self._finish("Failed", {"error": str(exc)})
            return
        self._publish_status("Running")

    def _execution(self, action: str, args: dict):
        spec = self.spec
        if action == "drive":
            return DriveExecution(spec, args.get("waypoints", []))
        if action == "dig":
            return DigExecution(spec, SweptCut.from_dict(args["trajectory"]))
        if action == "dump":
            return ArmDumpExecution(spec,
                                    self.sim.machines.get(args.get("truck")),
                                    args.get("point"))
        if action == "beddump":
            return BedDumpExecution(spec)
        return LevelRunExecution(spec, args["start"], args["end"],
                                 float(args["target_height"]))

    # -- status --------------------------------------------------------------

    def _publish_status(self, state: str, extra: Optional[dict] = None) -> None:
        payload = {"kind": "status", "id": self.command_id, "state": state}
        if extra:
            payload.update(extra)
        self.sim.bus.publish(topic_for(self.machine_id, "skill", self.action),
                             payload, sim_time=self.sim.sim_time,
                             publisher=self.machine_id)
        self.last_status_step = self.sim.step_count

    def _finish(self, state: str, extra: Optional[dict] = None) -> None:
        self._publish_status(state, extra)
        self.action = self.command_id = self.execution = None

    # -- stepping ------------------------------------------------------------

    def step(self, dt: float) -> None:
        execution = self.execution
        if execution is None:
            return
        if not self.available:
            self._finish("Failed", {"error": "machine unavailable"})
            return
        sim = self.sim
        status, excavated, dumped, spilled, lost = execution.step(
            self.state, sim.terrain, sim.soil, dt)
        ledger = sim.ledger
        ledger.excavated_kg += excavated
        ledger.dumped_kg += dumped
        ledger.spilled_kg += spilled
        ledger.boundary_lost_kg += lost
        if status != RUNNING:
            self._finish(status, execution.result)
        elif sim.step_count - self.last_status_step >= sim.heartbeat_steps:
            self._publish_status("Running")


class Simulator:
    """Fixed-timestep world: terrain, machines, and their skill runners,
    clocked by `step_count`: `sim_time` is `step_count * dt`, not a sum."""

    def __init__(self, config: ScenarioConfig, bus: Bus, samples: SampleLog):
        self.config = config
        self.bus = bus
        self.samples = samples
        self.dt = config.timestep
        #: HEARTBEAT_PERIOD in steps, so no rounded time difference adds one.
        self.heartbeat_steps = max(1, round(HEARTBEAT_PERIOD / self.dt))
        self.soil = config.build_soil()
        self.terrain = config.build_terrain()
        self.sim_time = 0.0
        self.step_count = 0
        self.ledger = MassLedger()
        self.machines: dict[str, tuple] = {}
        self.runners: dict[str, SkillRunner] = {}
        for mc in config.machines:
            spec = mc.build_spec()
            state = MachineState(x=mc.pose[0], y=mc.pose[1],
                                 heading=mc.pose[2])
            settle_on_terrain(state, self.terrain)
            self.machines[mc.machine_id] = (spec, state)
            self.runners[mc.machine_id] = SkillRunner(
                self, mc.machine_id, spec, state)
        self.machine_order = sorted(self.machines)
        #: (state, runner) per machine in machine_order, for the step loop.
        self._stepping = [(self.machines[m][1], self.runners[m])
                          for m in self.machine_order]
        #: (machine, state topic, state, runner) per machine in
        #: machine_order, for the telemetry steps.
        self._telemetry = [(m, topic_for(m, "telemetry", "state"),
                            self.machines[m][1], self.runners[m])
                           for m in self.machine_order]
        self.sub_commands = bus.subscribe_category("target")
        self.terrain.drain_dirty()      # initial placement is shared context

    # -- stepping ------------------------------------------------------------

    def _drain_commands(self) -> None:
        for env in self.sub_commands.poll():
            machine, _, _ = split_topic(env.topic)
            runner = self.runners.get(machine)
            if runner is None:
                self.bus.report_error(
                    f"command for unknown machine {machine!r}")
                continue
            runner.handle_command(env.payload)

    def step(self) -> None:
        """Advance the world by one timestep and publish due telemetry.

        Only a telemetry step's actuator samples are logged, so only on
        that step do the machines sample (`MachineState.sampling`).
        Commands arrive only at a planner tick, so the command queue is
        drained only when it holds any."""
        if self.sub_commands:
            self._drain_commands()
        dt = self.dt
        logged = (self.step_count + 1) % TELEMETRY_EVERY == 0
        for state, runner in self._stepping:
            state.sampling = logged
            if logged:
                state.clear_samples()
            runner.step(dt)
        self.step_count += 1
        self.sim_time = self.step_count * dt
        if logged:
            self._publish_machine_telemetry()
        if self.step_count % TERRAIN_EVERY == 0:
            self._publish_terrain_patches()

    # -- telemetry -----------------------------------------------------------

    def _publish_machine_telemetry(self) -> None:
        for machine_id, topic, state, runner in self._telemetry:
            skill_state = runner.action if runner.action else "Idle"
            self.bus.publish(topic,
                             {"kind": "telemetry", **state.state_payload()},
                             sim_time=self.sim_time, publisher=machine_id)
            readings = state.samples.values()
            self.samples.extend(self.sim_time, machine_id, ACTUATORS,
                                [s.torque for s in readings],
                                [s.omega for s in readings],
                                state.payload_kg, skill_state)

    def _publish_terrain_patches(self) -> None:
        cells = self.terrain.drain_dirty()      # sorted
        if not cells:
            return
        rows = self.terrain.elevation
        for k in range(0, len(cells), PATCH_CHUNK):
            chunk = [[i, j, rows[i][j]] for i, j in cells[k:k + PATCH_CHUNK]]
            self.bus.publish(topic_for(SITE_ID, "telemetry", "terrain"),
                             {"kind": "telemetry", "cells": chunk},
                             sim_time=self.sim_time, publisher=SITE_ID)

    def flush_terrain(self) -> None:
        """Force out any pending terrain updates."""
        self._publish_terrain_patches()

    def set_available(self, machine_id: str, available: bool) -> None:
        """Take a machine out of service (or return it); while unavailable
        it fails its active skill and rejects new commands.  This is the
        fault-injection hook for a run's observer callback."""
        self.runners[machine_id].available = available

    # -- accounting ----------------------------------------------------------

    def residual_payload_kg(self) -> float:
        return sum(state.payload_kg + state.blade_load_kg
                   for _, state in self.machines.values())

    def mass_closure_error(self) -> float:
        return self.ledger.residual_error(self.residual_payload_kg())

