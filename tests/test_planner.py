import dataclasses
import json
import math

import numpy as np
import pytest

from regolith.bt import (
    Blackboard,
    Condition,
    FAILURE,
    RUNNING,
    SUCCESS,
    TickContext,
    Task,
)
from regolith.bus import Bus, Envelope, topic_for, wire
from regolith.config import PlannerParams, Rig
from regolith.machines import MachineState
from regolith.planner import (
    ALL_CELLS_DONE,
    BUCKET_NOT_EMPTY,
    DigPlan,
    PlannerLoop,
    PlannerRuntime,
    RouteError,
    SkillBinding,
    WorldModel,
    bed_full,
    bucket_empty,
    check_scenario_complete,
    grid_cells,
    offload_in_progress,
    plan_dig,
    plan_dump,
    plan_leveling,
    plan_route,
    truck_in_position,
)
from regolith.terrain import Heightfield

CS = 0.5
#: plan_dig's scenario inputs at their config defaults.
DIG = {"dig_depth": PlannerParams().dig_depth,
       "bucket_width": Rig().bucket_width,
       "bucket_capacity_kg": Rig().bucket_capacity_kg,
       "bank_density": PlannerParams().bank_density}


def flat(height=2.0, n=40):
    return Heightfield(n, n, CS, elevation=np.full((n, n), height))


def _write(h, si, sj, values):
    """h.elevation[si, sj] = values, as numpy assigns it, on the rows."""
    e = np.array(h.elevation)
    e[si, sj] = values
    h.elevation[:] = e.tolist()


def make_wm(excess=0.2, machines=None, n_cells=2):
    terrain = flat(2.0)
    target = flat(2.0)
    # dig area: x in [10, 14), y in [10, 14)
    si, sj = slice(20, 28), slice(20, 28)
    _write(target, si, sj, 2.0 - excess)
    cells = grid_cells(terrain, (10.0, 10.0, 14.0, 14.0), n_cells, n_cells)
    roles = machines or {"excavator1": "excavator", "truck1": "dumptruck"}
    wm = WorldModel(terrain, target, cells, roles, 0.05)
    for rep in wm.machines.values():
        rep.x, rep.y = 6.0, 12.0
    return wm


def state_env(machine, sim_time=0.0, **fields):
    payload = {"kind": "telemetry"}
    payload.update(fields)
    return Envelope(topic_for(machine, "telemetry", "state"), 1, sim_time,
                    payload)


# -- world model -------------------------------------------------------------

def test_ingest_updates_machine_report():
    wm = make_wm()
    wm.ingest(state_env("excavator1", 3.0, x=11.0, y=12.0, payload_kg=50.0))
    rep = wm.machines["excavator1"]
    assert (rep.x, rep.payload_kg) == (11.0, 50.0)


def test_state_payload_carries_exactly_what_ingest_reads():
    """The simulator publishes a state field if and only if the planner's
    world model reads it."""
    wm = make_wm()
    before = dataclasses.asdict(wm.machines["excavator1"])
    # a distinct value of the field's own kind (number or dict) under the
    # name of every report field
    offered = {name: {"k": k} if isinstance(value, dict) else 1000.0 + k
               for k, (name, value) in enumerate(before.items())}
    wm.ingest(state_env("excavator1", 7.0, **offered))
    after = dataclasses.asdict(wm.machines["excavator1"])
    updated = {name for name in before if after[name] != before[name]}
    assert updated == set(MachineState().state_payload())


def test_ingest_terrain_patch_updates_belief():
    wm = make_wm()
    env = Envelope("/site/telemetry/terrain", 1, 1.0,
                   {"kind": "telemetry", "cells": [[20, 20, 1.8]]})
    wm.ingest(env)
    assert wm.terrain.elevation[20][20] == 1.8


def test_ingest_skill_status():
    wm = make_wm()
    env = Envelope(topic_for("excavator1", "skill", "dig"), 1, 2.0,
                   {"kind": "status", "id": 7, "state": "Running"})
    wm.ingest(env)
    assert wm.skill_state("excavator1", "dig")["state"] == "Running"


def test_grid_cells_cover_area_and_order_far_first():
    h = flat()
    cells = grid_cells(h, (10.0, 10.0, 14.0, 14.0), 2, 2)
    assert len(cells) == 4
    covered = set()
    for i0, j0, i1, j1 in cells:
        for i in range(i0, i1):
            for j in range(j0, j1):
                covered.add((i, j))
    assert covered == {(i, j) for i in range(20, 28) for j in range(20, 28)}
    # far side (largest i) first
    assert cells[0][0] > cells[-1][0]


# -- plan_dig ----------------------------------------------------------------

def test_plan_dig_requires_empty_bucket():
    wm = make_wm()
    wm.machines["excavator1"].payload_kg = 40.0
    assert plan_dig(wm, "excavator1", **DIG) == BUCKET_NOT_EMPTY


def test_plan_dig_skips_done_cells_and_reports_all_done():
    wm = make_wm(excess=0.0)   # target equals surface everywhere
    assert plan_dig(wm, "excavator1", **DIG) == ALL_CELLS_DONE
    assert wm.cell_index == len(wm.cells)


def test_plan_dig_advances_past_completed_cell():
    wm = make_wm(excess=0.2)
    # complete the first cell by lowering terrain to target there
    i0, j0, i1, j1 = wm.cells[0]
    _write(wm.terrain, slice(i0, i1), slice(j0, j1),
           np.array(wm.target.elevation)[i0:i1, j0:j1])
    plan = plan_dig(wm, "excavator1", **DIG)
    assert isinstance(plan, DigPlan)
    assert wm.cell_index == 1
    assert wm.cell_switch_times  # switch event recorded


def test_plan_dig_depth_clipped_by_pass_depth_and_target():
    wm = make_wm(excess=0.2)
    plan = plan_dig(wm, "excavator1", **dict(DIG, dig_depth=0.15))
    assert isinstance(plan, DigPlan)
    for (x, y, z, attack) in plan.trajectory.points:
        assert z == pytest.approx(2.0 - 0.15, abs=1e-12)
    # shallow excess: clipped at the target instead
    wm2 = make_wm(excess=0.1)
    plan2 = plan_dig(wm2, "excavator1", **dict(DIG, dig_depth=0.15))
    for (x, y, z, attack) in plan2.trajectory.points:
        assert z == pytest.approx(2.0 - 0.1, abs=1e-12)


def test_plan_dig_never_below_target_on_random_fields():
    rng = np.random.default_rng(6)
    for _ in range(20):
        wm = make_wm(excess=0.2)
        i0, j0, i1, j1 = wm.cells[0]
        _write(wm.terrain, slice(i0, i1), slice(j0, j1),
               np.array(wm.terrain.elevation)[i0:i1, j0:j1] + rng.uniform(
                   -0.05, 0.3, (i1 - i0, j1 - j0)))
        plan = plan_dig(wm, "excavator1", **DIG)
        if not isinstance(plan, DigPlan):
            continue
        for (x, y, z, attack) in plan.trajectory.points:
            i, j = wm.terrain.cell_of(x, y)
            assert z >= wm.target.elevation[i][j] - 1e-12


def test_plan_dig_cell_index_monotone():
    wm = make_wm(excess=0.2)
    seen = [wm.cell_index]
    for _ in range(30):
        plan = plan_dig(wm, "excavator1", **DIG)
        seen.append(wm.cell_index)
        if plan == ALL_CELLS_DONE:
            break
        # emulate completing the active cell
        i0, j0, i1, j1 = wm.cells[wm.cell_index]
        _write(wm.terrain, slice(i0, i1), slice(j0, j1),
               np.array(wm.target.elevation)[i0:i1, j0:j1])
    assert seen == sorted(seen)


def test_plan_dig_volume_fits_bucket():
    wm = make_wm(excess=0.2)
    plan = plan_dig(wm, "excavator1", **dict(DIG, bucket_capacity_kg=75.0,
                                             bank_density=1580.0))
    assert plan.expected_volume * 1580.0 <= 75.0


# -- plan_dump ---------------------------------------------------------------

def test_plan_dump_truck_in_reach_means_no_drive():
    wm = make_wm()
    wm.machines["truck1"].x = wm.machines["excavator1"].x + 2.0
    wm.machines["truck1"].y = wm.machines["excavator1"].y
    plan = plan_dump(wm, "excavator1", 4.0, None)
    assert plan.truck_id == "truck1"
    assert plan.stance is None


def test_plan_dump_far_truck_stance_within_reach():
    wm = make_wm()
    wm.machines["truck1"].x = wm.machines["excavator1"].x + 8.0
    wm.machines["truck1"].y = wm.machines["excavator1"].y
    plan = plan_dump(wm, "excavator1", 4.0, None)
    assert plan.stance is not None
    d = math.dist(plan.stance[:2], wm.machines["truck1"].position)
    assert d <= 0.8 * 4.0 + 1e-9


def test_plan_dump_without_truck_uses_fallback_or_fails():
    wm = make_wm(machines={"excavator1": "excavator"})
    assert plan_dump(wm, "excavator1", 4.0, None) is None
    plan = plan_dump(wm, "excavator1", 4.0, (4.0, 4.0))
    assert plan.truck_id is None and plan.point == (4.0, 4.0)


# -- plan_route --------------------------------------------------------------

def test_route_from_equals_to_single_waypoint():
    wm = make_wm()
    route = plan_route(wm, (5.0, 5.0), (5.0, 5.0))
    assert len(route.waypoints) == 1


def test_route_to_dump_area_pre_orientation_waypoint():
    wm = make_wm()
    route = plan_route(wm, (4.0, 4.0), (12.0, 12.0, 0.5),
                       purpose="to-dump-area")
    assert len(route.waypoints) == 2
    (x0, y0, h0), (x1, y1, h1) = route.waypoints
    assert h0 == h1 == 0.5
    # final approach collinear with the dump heading
    assert math.atan2(y1 - y0, x1 - x0) == pytest.approx(0.5, abs=1e-9)


def test_route_endpoint_out_of_bounds_rejected():
    wm = make_wm()
    with pytest.raises(RouteError):
        plan_route(wm, (5.0, 5.0), (99.0, 99.0))


# -- coordination ------------------------------------------------------------

def test_truck_in_position_thresholds():
    wm = make_wm()
    wm.machines["truck1"].x, wm.machines["truck1"].y = 8.0, 12.0
    wm.machines["truck1"].heading = 0.1
    assert truck_in_position(wm, "truck1", (8.2, 12.1, 0.0))
    assert not truck_in_position(wm, "truck1", (9.0, 12.0, 0.0))
    assert not truck_in_position(wm, "truck1", (8.0, 12.0, 0.5))


def test_bed_full_and_bucket_empty():
    wm = make_wm()
    wm.machines["truck1"].payload_kg = 199.0
    assert not bed_full(wm, "truck1", 200.0)
    wm.machines["truck1"].payload_kg = 200.0
    assert bed_full(wm, "truck1", 200.0)
    assert bucket_empty(wm, "excavator1")
    wm.machines["excavator1"].payload_kg = 30.0
    assert not bucket_empty(wm, "excavator1")


def test_offload_in_progress_detection():
    wm = make_wm()
    assert not offload_in_progress(wm)
    wm.ingest(Envelope(topic_for("excavator1", "skill", "dump"), 1, 1.0,
                       {"kind": "status", "id": 3, "state": "Running"}))
    assert offload_in_progress(wm)
    wm.ingest(Envelope(topic_for("excavator1", "skill", "dump"), 2, 2.0,
                       {"kind": "status", "id": 3, "state": "Succeeded"}))
    assert not offload_in_progress(wm)


# -- leveling ----------------------------------------------------------------

def test_leveling_run_count_and_boustrophedon():
    runs = plan_leveling((10.0, 10.0), (14.0, 10.0), 1.0, 4.0)
    assert len(runs) == 4
    first = runs[0].waypoints
    second = runs[1].waypoints
    assert first[0][:2] == (10.0, 10.0)
    # second run reversed
    assert second[0][0] == pytest.approx(14.0)
    assert second[-1][0] == pytest.approx(10.0)
    # runs shift laterally by the offset
    assert abs(second[0][1] - first[0][1]) == pytest.approx(1.0)


def test_leveling_offset_wider_than_region_single_run():
    assert len(plan_leveling((10.0, 10.0), (14.0, 10.0), 5.0, 4.0)) == 1


def test_leveling_degenerate_rejected():
    with pytest.raises(ValueError):
        plan_leveling((10.0, 10.0), (10.0, 10.0), 1.0, 4.0)


# -- scenario completion -----------------------------------------------------

def test_scenario_complete_rules():
    wm = make_wm(excess=0.2)
    assert not check_scenario_complete(wm)
    wm.cell_index = len(wm.cells)
    assert check_scenario_complete(wm)
    wm.leveling_required = True
    assert not check_scenario_complete(wm)
    wm.leveling_done = True
    assert check_scenario_complete(wm)


# -- skill binding -----------------------------------------------------------

def make_runtime(wm=None):
    wm = wm or make_wm()
    bus = Bus(machine_ids=["excavator1", "truck1", "site"])
    runtime = PlannerRuntime(bus, wm, PlannerParams())
    return runtime, bus


def test_status_report_counts_planner_bus_drops_and_errors():
    runtime, bus = make_runtime()
    loop = PlannerLoop(runtime, Condition("Done", lambda ctx: True))
    flooded = bus.subscribe_category("telemetry", limit=1)   # never polled
    for k in range(4):
        bus.publish(topic_for("excavator1", "telemetry", "state"),
                    {"kind": "telemetry", "x": float(k)}, sim_time=0.0)
    bus.report_error("dropped bad envelope: test")
    loop.step(0.1)
    report = loop.final_report()
    assert flooded.dropped == 3
    assert (report["bus_dropped"], report["bus_errors"]) == (3, 1)
    assert json.loads(json.dumps(report)) == report


def test_status_report_frame_length_does_not_depend_on_the_tick_time():
    runtime, bus = make_runtime()
    loop = PlannerLoop(runtime, Condition("Done", lambda ctx: True))
    loop.step(0.1)
    lengths = set()
    for total in (0.0, 1.5e-05, 0.000123456789, 0.25, 3.0):
        loop.tick_seconds_total = total
        report = loop.final_report()
        assert float(report["mean_tick_seconds"]) \
            == pytest.approx(total, rel=1e-6)
        lengths.add(len(wire.frame(report)))
    assert len(lengths) == 1


def test_status_report_carries_only_what_a_tick_changes():
    runtime, bus = make_runtime()
    loop = PlannerLoop(runtime, Condition("Done", lambda ctx: False))
    bus.report_error("dropped bad envelope: test")
    for t in (0.1, 0.2, 0.3):
        report = loop.status_report(loop.step(t))
        assert set(report) == {"status", "cell_index"}
    assert set(loop.final_report()) == {"mean_tick_seconds", "bus_dropped",
                                        "bus_errors"}


def test_status_report_sends_cell_switch_times_only_when_they_change():
    runtime, bus = make_runtime()
    loop = PlannerLoop(runtime, Condition("Done", lambda ctx: False))
    assert "cell_switch_times" not in loop.status_report(loop.step(0.1))
    runtime.wm.advance_cell(0.2)
    assert loop.status_report(loop.step(0.2))["cell_switch_times"] == [0.2]
    assert "cell_switch_times" not in loop.status_report(loop.step(0.3))
    runtime.wm.advance_cell(0.4)
    assert loop.status_report(loop.step(0.4))["cell_switch_times"] \
        == [0.2, 0.4]
    assert "cell_switch_times" not in loop.status_report(loop.step(0.5))


def test_skill_binding_activation_and_success():
    runtime, bus = make_runtime()
    sub = bus.subscribe_category("target")
    binding = SkillBinding(runtime, "dig", lambda rt, node, ctx: {"p": 1})
    node = Task("DigLeaf", binding=binding, context="excavator1")
    ctx = TickContext(blackboard=Blackboard(), sim_time=0.0)
    assert node.tick(ctx) is RUNNING
    sent = sub.poll()
    assert len(sent) == 1
    cmd = sent[0].payload
    assert cmd["action"] == "dig" and cmd["params"] == {"p": 1}
    # repeated ticks do not resend
    assert node.tick(ctx) is RUNNING
    assert sub.poll() == []
    # status drives the leaf
    runtime.wm.ingest(Envelope(topic_for("excavator1", "skill", "dig"), 1,
                               0.5, {"kind": "status", "id": cmd["id"],
                                     "state": "Succeeded"}))
    assert node.tick(ctx) is SUCCESS


def test_skill_binding_failure_and_planning_failure():
    runtime, bus = make_runtime()
    binding = SkillBinding(runtime, "dig", lambda rt, node, ctx: None)
    node = Task("DigLeaf", binding=binding, context="excavator1")
    ctx = TickContext(blackboard=Blackboard(), sim_time=0.0)
    assert node.tick(ctx) is FAILURE   # planning returned None

    binding2 = SkillBinding(runtime, "dig", lambda rt, node, ctx: {})
    node2 = Task("DigLeaf", binding=binding2, context="excavator1")
    assert node2.tick(ctx) is RUNNING
    runtime.wm.ingest(Envelope(topic_for("excavator1", "skill", "dig"), 1,
                               0.5, {"kind": "status",
                                     "id": binding2.active_id,
                                     "state": "Failed"}))
    assert node2.tick(ctx) is FAILURE


def test_skill_binding_times_out_without_status():
    runtime, bus = make_runtime()
    binding = SkillBinding(runtime, "dig", lambda rt, node, ctx: {})
    node = Task("DigLeaf", binding=binding, context="excavator1")
    ctx0 = TickContext(blackboard=Blackboard(), sim_time=0.0)
    assert node.tick(ctx0) is RUNNING
    ctx1 = TickContext(blackboard=ctx0.blackboard, sim_time=4.9)
    assert node.tick(ctx1) is RUNNING
    ctx2 = TickContext(blackboard=ctx0.blackboard, sim_time=5.1)
    assert node.tick(ctx2) is FAILURE


def test_skill_binding_halt_sends_cancel():
    runtime, bus = make_runtime()
    sub = bus.subscribe_category("target")
    binding = SkillBinding(runtime, "drive", lambda rt, node, ctx: {})
    node = Task("DriveLeaf", binding=binding, context="excavator1")
    ctx = TickContext(blackboard=Blackboard(), sim_time=0.0)
    node.tick(ctx)
    first = sub.poll()[0].payload
    node.halt()
    cancel = sub.poll()[0].payload
    assert cancel["cancel"] is True and cancel["id"] == first["id"]
    assert binding.active_id is None
