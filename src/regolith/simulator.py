"""Simulation process: sole owner of terrain and machine state.

Consumes skill commands from `/{machine}/target/*`, advances the physics at
a fixed timestep, and publishes machine state, skill status (with periodic
Running heartbeats) and terrain patches.  Actuator samples do not cross the
bus: each telemetry step appends them to the run's `SampleLog`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .bus import Bus, split_topic, topic_for
from .config import ScenarioConfig
from .machines import (
    ACTUATORS,
    ArmDumpExecution,
    BedDumpExecution,
    DigExecution,
    LevelRunExecution,
    MachineSpec,
    MachineState,
    settle_on_terrain,
    spill_model,
    step_locomotion,
)
from .machines.locomotion import ARRIVED, IDLE
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
    """Executes one skill command at a time for one machine."""

    def __init__(self, sim: "Simulator", machine_id: str, spec: MachineSpec,
                 state: MachineState):
        self.sim = sim
        self.machine_id = machine_id
        self.spec = spec
        self.state = state
        self.action: Optional[str] = None
        self.command_id: Optional[int] = None
        self.execution = None
        self.waypoints: list = []
        self.waypoint_index = 0
        self.totals: dict = {}
        self.last_status_time = -math.inf
        self.prev_turn_rate = 0.0
        #: When False the machine rejects commands and fails its active
        #: skill (breakdown / taken out of service).
        self.available = True
        self._handlers = {"drive": self._step_drive, "dig": self._step_dig,
                          "dump": self._step_dump,
                          "beddump": self._step_beddump,
                          "level": self._step_level}

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
        if not self.available:
            self.action, self.command_id = action, payload.get("id", 0)
            self._finish("Failed", {"error": "machine unavailable"})
            return
        if self.action is not None:
            self._finish("Failed", {"error": "preempted"})
        try:
            self._start(action, payload.get("params") or {})
        except (KeyError, ValueError, TypeError) as exc:
            self.action, self.command_id = action, payload.get("id", 0)
            self._finish("Failed", {"error": str(exc)})
            return
        self.command_id = payload.get("id", 0)
        self._publish_status("Running")

    def _start(self, action: str, params: dict) -> None:
        self.action = action
        self.totals = {"removed": 0.0, "dumped": 0.0, "spilled": 0.0,
                       "lost": 0.0, "graded": 0.0}
        self.execution = None
        if action == "drive":
            self.waypoints = [tuple(w) for w in params.get("waypoints", [])]
            self.waypoint_index = 0
        elif action == "dig":
            traj = SweptCut.from_dict(params["trajectory"])
            self.execution = DigExecution(self.spec, traj)
            self.totals["cell_index"] = params.get("cell_index")
        elif action == "dump":
            self.execution = ArmDumpExecution(self.spec)
            self.totals["truck"] = params.get("truck")
            self.totals["point"] = params.get("point")
        elif action == "beddump":
            self.execution = BedDumpExecution(self.spec)
        elif action == "level":
            self.execution = LevelRunExecution(
                self.spec, params["start"], params["end"],
                float(params["target_height"]))
            self.totals["run_index"] = params.get("run_index")

    def _clear(self) -> None:
        self.action = None
        self.command_id = None
        self.execution = None
        self.waypoints = []

    # -- status --------------------------------------------------------------

    def _publish_status(self, state: str, extra: Optional[dict] = None) -> None:
        payload = {"kind": "status", "id": self.command_id, "state": state}
        if extra:
            payload.update(extra)
        self.sim.bus.publish(topic_for(self.machine_id, "skill", self.action),
                             payload, sim_time=self.sim.sim_time,
                             publisher=self.machine_id)
        self.last_status_time = self.sim.sim_time

    def _finish(self, state: str, extra: Optional[dict] = None) -> None:
        self._publish_status(state, extra)
        self._clear()

    # -- stepping ------------------------------------------------------------

    def step(self, dt: float) -> None:
        if self.action is None:
            self.prev_turn_rate = self.state.turn_rate
            return
        if not self.available:
            self._finish("Failed", {"error": "machine unavailable"})
            self.prev_turn_rate = self.state.turn_rate
            return
        self._handlers[self.action](dt)
        if self.action is not None and \
                self.sim.sim_time - self.last_status_time >= HEARTBEAT_PERIOD:
            self._publish_status("Running")
        self.prev_turn_rate = self.state.turn_rate

    def _chassis_spill(self, dt: float) -> None:
        """Payload shed when the chassis yaw rate changes too fast."""
        alpha = (self.state.turn_rate - self.prev_turn_rate) / dt \
            if dt > 0 else 0.0
        spilled, lost = spill_model(self.state, self.spec, alpha,
                                    self.sim.terrain, self.sim.soil, dt)
        self.sim.ledger.spilled_kg += spilled
        self.sim.ledger.boundary_lost_kg += lost
        self.totals["spilled"] += spilled

    def _step_drive(self, dt: float) -> None:
        status, self.waypoint_index = step_locomotion(
            self.state, self.spec, self.waypoints, self.waypoint_index,
            self.sim.terrain, self.sim.soil, dt)
        # spill_model returns zeros for a machine that carries nothing
        if not self.state.payload_kg <= 0.0:
            self._chassis_spill(dt)
        if status in (ARRIVED, IDLE):
            self._finish("Succeeded",
                         {"spilled_kg": self.totals["spilled"]})

    def _step_dig(self, dt: float) -> None:
        status, removed = self.execution.step(
            self.state, self.sim.terrain, self.sim.soil, dt)
        self.sim.ledger.excavated_kg += removed
        self.totals["removed"] += removed
        if status == "Succeeded":
            self._finish("Succeeded",
                         {"loaded_kg": self.execution.removed_total,
                          "cell_index": self.totals.get("cell_index")})
        elif status == "Failed":
            self._finish("Failed", {"loaded_kg": self.execution.removed_total})

    def _step_dump(self, dt: float) -> None:
        truck_id = self.totals.get("truck")
        truck = self.sim.machines.get(truck_id) if truck_id else None
        point = self.totals.get("point")
        status, released, into_truck, lost, spilled = self.execution.step(
            self.state, self.sim.terrain, self.sim.soil, dt,
            truck_state=truck[1] if truck else None,
            truck_spec=truck[0] if truck else None,
            point=tuple(point) if point else None)
        self.sim.ledger.spilled_kg += spilled
        self.sim.ledger.boundary_lost_kg += lost
        self.totals["spilled"] += spilled
        if status == "Succeeded":
            # a load placed in a truck bed is still residual payload; only
            # terrain releases count as dumped
            if not into_truck:
                self.sim.ledger.dumped_kg += released
            self._finish("Succeeded",
                         {"dumped_kg": released,
                          "into_truck": bool(into_truck),
                          "spilled_kg": self.totals["spilled"]})
        elif status == "Failed":
            self._finish("Failed", {"spilled_kg": self.totals["spilled"]})

    def _step_beddump(self, dt: float) -> None:
        status, dumped, lost = self.execution.step(
            self.state, self.sim.terrain, self.sim.soil, dt)
        self.sim.ledger.dumped_kg += dumped
        self.sim.ledger.boundary_lost_kg += lost
        self.totals["dumped"] += dumped
        if status == "Succeeded":
            self._finish("Succeeded", {"dumped_kg": self.totals["dumped"],
                                       "spilled_kg": 0.0})

    def _step_level(self, dt: float) -> None:
        status, graded, shed, lost = self.execution.step(
            self.state, self.sim.terrain, self.sim.soil, dt)
        self.sim.ledger.excavated_kg += graded
        self.sim.ledger.dumped_kg += shed
        self.sim.ledger.boundary_lost_kg += lost
        self.totals["graded"] += graded
        self.totals["dumped"] += shed
        if status == "Succeeded":
            self._finish("Succeeded",
                         {"graded_kg": self.totals["graded"],
                          "run_index": self.totals.get("run_index")})


class Simulator:
    """Fixed-timestep world: terrain, machines, and their skill runners."""

    def __init__(self, config: ScenarioConfig, bus: Bus, samples: SampleLog,
                 terrain=None, machine_states: Optional[dict] = None):
        self.config = config
        self.bus = bus
        self.samples = samples
        self.dt = config.timestep
        self.soil = config.build_soil()
        self.terrain = terrain if terrain is not None \
            else config.build_terrain()
        self.sim_time = 0.0
        self.step_count = 0
        self.ledger = MassLedger()
        self.machines: dict[str, tuple] = {}
        self.runners: dict[str, SkillRunner] = {}
        for mc in config.machines:
            spec = mc.build_spec()
            state = MachineState(x=mc.pose[0], y=mc.pose[1],
                                 heading=mc.pose[2])
            if machine_states and mc.machine_id in machine_states:
                for key, value in machine_states[mc.machine_id].items():
                    setattr(state, key, value)
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
        while True:
            batch = self.sub_commands.poll(64)
            if not batch:
                break
            for env in batch:
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
        that step do the machines sample (`MachineState.sampling`)."""
        self._drain_commands()
        dt = self.dt
        logged = (self.step_count + 1) % TELEMETRY_EVERY == 0
        for state, runner in self._stepping:
            state.sampling = logged
            if logged:
                state.clear_samples()
            runner.step(dt)
        self.sim_time += dt
        self.step_count += 1
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
        e = self.terrain.elevation.item
        for k in range(0, len(cells), PATCH_CHUNK):
            chunk = [[i, j, e(i, j)] for i, j in cells[k:k + PATCH_CHUNK]]
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

