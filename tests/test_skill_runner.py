"""The simulator's skill protocol: a command starts its skill's execution
on the machine's runner, each step's moved mass goes into the run's mass
ledger, and the skill ends with one terminal status."""

import pytest

from regolith.bus import Bus, topic_for
from regolith.config import load_config
from regolith.machines import settle_on_terrain
from regolith.planner import SITE_ID
from regolith.scenarios import scenario_path
from regolith.simulator import (HEARTBEAT_PERIOD, TELEMETRY_EVERY, MassLedger,
                                Simulator)
from regolith.telemetry import TelemetryCollector

#: A loaded excavator with a truck in its reach (flat scenario terrain).
LOADED = {"excavator1": {"x": 10.0, "y": 10.0, "heading": 0.0,
                         "payload_kg": 80.0},
          "truck1": {"x": 12.8, "y": 11.5, "heading": 1.0}}


def world(machine_states=None):
    """A flat-scenario simulator and a subscription to its skill statuses."""
    config = load_config(scenario_path("scenario1_flat"))
    bus = Bus(machine_ids=config.machine_ids() + [SITE_ID])
    collector = TelemetryCollector(bus, config.timestep * TELEMETRY_EVERY)
    sim = Simulator(config, bus, collector.samples)
    for machine_id, values in (machine_states or {}).items():
        state = sim.machines[machine_id][1]
        for key, value in values.items():
            setattr(state, key, value)
        settle_on_terrain(state, sim.terrain)
    return sim, bus.subscribe_category("skill")


def command(sim, machine, action, params, aid=7):
    sim.bus.publish(topic_for(machine, "target", action),
                    {"kind": "command", "action": action, "id": aid,
                     "params": params}, sim.sim_time)


def run_skill(sim, machine, limit=60.0):
    sim.step()
    while sim.runners[machine].action is not None:
        assert sim.sim_time < limit
        sim.step()


def statuses(sub):
    return [env.payload for env in sub.poll()]


def test_unknown_action_is_a_bus_error_with_no_status():
    sim, sub = world()
    command(sim, "excavator1", "juggle", {})
    sim.step()
    assert sim.bus.error_events == ["excavator1: unknown skill action 'juggle'"]
    assert statuses(sub) == []
    assert sim.runners["excavator1"].action is None


@pytest.mark.parametrize("action, params, error", [
    ("dig", {}, "'trajectory'"),
    ("level", {"end": [12.0, 20.0], "target_height": 1.9}, "'start'"),
    ("dump", {"truck": "truck9"}, "dump needs a truck or a point"),
], ids=["dig-no-trajectory", "level-no-start", "dump-no-destination"])
def test_a_skill_that_cannot_start_fails_and_moves_no_mass(action, params,
                                                           error):
    sim, sub = world()
    command(sim, "excavator1", action, params)
    run_skill(sim, "excavator1")
    assert statuses(sub) == [{"kind": "status", "id": 7, "state": "Failed",
                              "error": error}]
    assert sim.ledger == MassLedger()


def test_a_command_to_an_unavailable_machine_fails():
    sim, sub = world()
    sim.set_available("truck1", False)
    command(sim, "truck1", "drive", {"waypoints": [[20.0, 26.0]]})
    run_skill(sim, "truck1")
    assert statuses(sub) == [{"kind": "status", "id": 7, "state": "Failed",
                              "error": "machine unavailable"}]
    assert sim.machines["truck1"][1].x == 14.5


def test_a_command_to_an_unavailable_machine_fails_its_active_skill_too():
    sim, sub = world()
    command(sim, "truck1", "drive", {"waypoints": [[20.0, 26.0]]})
    sim.step()
    sim.set_available("truck1", False)
    command(sim, "truck1", "drive", {"waypoints": [[20.0, 26.0]]}, aid=8)
    run_skill(sim, "truck1")
    assert [(p["id"], p["state"], p.get("error")) for p in statuses(sub)] \
        == [(7, "Running", None), (7, "Failed", "machine unavailable"),
            (8, "Failed", "machine unavailable")]


def test_running_heartbeats_come_a_whole_period_of_steps_apart():
    sim, sub = world()
    dt = sim.dt
    period = round(HEARTBEAT_PERIOD / dt)
    # a start step whose period, as a difference of two times, rounds low
    k0 = next(k for k in range(1000)
              if (k + period) * dt - k * dt < HEARTBEAT_PERIOD)
    for _ in range(k0):
        sim.step()
    command(sim, "truck1", "drive", {"waypoints": [[20.0, 26.0]]})
    for _ in range(1 + period):
        sim.step()
    assert [(env.payload["state"], env.sim_time) for env in sub.poll()] \
        == [("Running", k0 * dt), ("Running", (k0 + period) * dt)]


def test_a_dump_into_a_truck_leaves_the_dumped_mass_unchanged():
    sim, sub = world(LOADED)
    command(sim, "excavator1", "dump", {"truck": "truck1"})
    run_skill(sim, "excavator1")
    final = statuses(sub)[-1]
    assert final["state"] == "Succeeded" and final["into_truck"]
    truck = sim.machines["truck1"][1]
    assert truck.payload_kg == final["dumped_kg"] > 0.0
    assert sim.ledger.dumped_kg == 0.0


def test_a_dump_at_a_point_adds_the_released_mass():
    sim, sub = world(LOADED)
    command(sim, "excavator1", "dump", {"point": [8.0, 12.5]})
    run_skill(sim, "excavator1")
    final = statuses(sub)[-1]
    assert final["state"] == "Succeeded" and not final["into_truck"]
    assert sim.ledger.dumped_kg == final["dumped_kg"] > 0.0
    assert sim.machines["excavator1"][1].payload_kg == 0.0


def test_a_loaded_drive_reports_the_spill_it_added_to_the_ledger():
    # truck1 faces -y; a turn toward +x sets the yaw rate in one step
    sim, sub = world({"truck1": {"payload_kg": 200.0}})
    command(sim, "truck1", "drive", {"waypoints": [[20.0, 26.0]]})
    run_skill(sim, "truck1")
    final = statuses(sub)[-1]
    assert final["state"] == "Succeeded"
    assert sim.ledger.spilled_kg == final["spilled_kg"] > 0.0
    assert sim.machines["truck1"][1].payload_kg \
        == pytest.approx(200.0 - final["spilled_kg"], rel=1e-12)
