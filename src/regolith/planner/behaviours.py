"""Behaviour-tree leaves for the planner: skill-command bindings and
world-model condition/wait nodes, plus the registry wiring them to tree
files."""

from __future__ import annotations

from typing import Callable, Optional

from ..bt import (
    Condition,
    FAILURE,
    NodeRegistry,
    RUNNING,
    SUCCESS,
    StructureError,
    Task,
    TreeNode,
)
from . import planning
from .planning import (
    DigPlan,
    check_scenario_complete,
    plan_dig,
    plan_dump,
    plan_leveling,
    plan_route,
)

#: Skill considered dead after this much sim time without a status (s).
SKILL_STATUS_TIMEOUT = 5.0


class WaitUntil(TreeNode):
    """Leaf returning Running until its predicate holds, then Success.

    Unlike Condition it never fails, so memory sequences stay parked on it
    while a coordination prerequisite is pending.
    """

    min_children = 0
    max_children = 0

    def __init__(self, name="", predicate: Callable = None, context=None):
        super().__init__(name, (), context)
        self.predicate = predicate

    def _tick(self, ctx):
        if self.predicate is None:
            raise StructureError(f"WaitUntil {self.name!r} has no predicate")
        return SUCCESS if self.predicate(self, ctx) else RUNNING


class SkillBinding:
    """Publishes a skill command on activation and follows its status.

    The command goes to the machine named by the node's context.
    make_params(runtime, node, ctx) returns the command params, or None
    when planning fails (reported as Failure).  A skill whose status goes
    silent for SKILL_STATUS_TIMEOUT of sim time counts as Failed.
    """

    def __init__(self, runtime, action: str, make_params, on_success=None):
        self.runtime = runtime
        self.action = action
        self.make_params = make_params
        self.on_success = on_success
        self.active_id: Optional[int] = None
        self.active_machine: Optional[str] = None
        self.last_heard = 0.0

    def _machine_for(self, node) -> str:
        machine = node.context
        if machine is None:
            raise StructureError(
                f"task {node.name!r} has no machine context")
        return machine

    def tick(self, node, ctx):
        runtime = self.runtime
        machine = self._machine_for(node)
        if self.active_id is None:
            params = self.make_params(runtime, node, ctx)
            if params is None:
                return FAILURE
            self.active_id = runtime.next_activation_id()
            self.active_machine = machine
            self.last_heard = ctx.sim_time
            runtime.publish_command(machine, self.action, {
                "kind": "command", "id": self.active_id,
                "action": self.action, "params": params})
            return RUNNING

        status = runtime.wm.skill_state(machine, self.action)
        if status is not None and status.get("id") == self.active_id:
            self.last_heard = max(self.last_heard,
                                  status.get("sim_time", self.last_heard))
            state = status.get("state")
            if state == "Succeeded":
                self.active_id = None
                if self.on_success is not None:
                    self.on_success(runtime, node, ctx, status)
                return SUCCESS
            if state == "Failed":
                self.active_id = None
                return FAILURE
        if ctx.sim_time - self.last_heard > SKILL_STATUS_TIMEOUT:
            self.active_id = None
            return FAILURE
        return RUNNING

    def halt(self, node):
        if self.active_id is not None:
            self.runtime.publish_command(
                self.active_machine or self._machine_for(node), self.action,
                {"kind": "command", "id": self.active_id,
                 "action": self.action, "cancel": True})
            self.active_id = None


# -- parameter builders ------------------------------------------------------

def _machine_report(runtime, machine):
    return runtime.wm.machines[machine]


def _fresh_dig_plan(runtime, machine, ctx):
    params = runtime.params
    rig = params.rigs[machine]
    return plan_dig(runtime.wm, machine, params.dig_depth, rig.bucket_width,
                    rig.bucket_capacity_kg, params.bank_density,
                    sim_time=ctx.sim_time)


def _drive_to_dig_params(runtime, node, ctx):
    machine = node.context
    plan = _fresh_dig_plan(runtime, machine, ctx)
    if not isinstance(plan, DigPlan):
        return None
    report = _machine_report(runtime, machine)
    route = plan_route(runtime.wm, (report.x, report.y), plan.stance,
                       purpose="to-dig")
    return {"waypoints": [list(w) for w in route.waypoints]}


def _dig_params(runtime, node, ctx):
    machine = node.context
    plan = _fresh_dig_plan(runtime, machine, ctx)
    if not isinstance(plan, DigPlan):
        return None
    return {"trajectory": plan.trajectory.to_dict()}


def _dump_to_truck_params(runtime, node, ctx):
    machine = node.context
    plan = plan_dump(runtime.wm, machine, runtime.params.rigs[machine].reach,
                     runtime.params.poses.offload_point)
    if plan is None or plan.truck_id is None:
        return None
    return {"truck": plan.truck_id}


def _dump_to_area_params(runtime, node, ctx):
    point = runtime.params.poses.offload_point
    if point is None:
        return None
    return {"point": [point[0], point[1]]}


def _drive_to_dump_stance_params(runtime, node, ctx):
    machine = node.context
    plan = plan_dump(runtime.wm, machine, runtime.params.rigs[machine].reach,
                     runtime.params.poses.offload_point)
    if plan is None:
        return None
    if plan.stance is None:
        return {"waypoints": []}    # already in reach: drive is a no-op
    report = _machine_report(runtime, machine)
    route = plan_route(runtime.wm, (report.x, report.y), plan.stance,
                       purpose="to-dump")
    return {"waypoints": [list(w) for w in route.waypoints]}


def _drive_to_loading_params(runtime, node, ctx):
    pose = runtime.params.poses.loading_pose
    if pose is None:
        return None
    report = _machine_report(runtime, node.context)
    route = plan_route(runtime.wm, (report.x, report.y), pose,
                       purpose="to-load")
    return {"waypoints": [list(w) for w in route.waypoints]}


def _drive_to_dump_area_params(runtime, node, ctx):
    pose = runtime.params.poses.truck_dump_pose
    if pose is None:
        return None
    report = _machine_report(runtime, node.context)
    route = plan_route(runtime.wm, (report.x, report.y), pose,
                       purpose="to-dump-area")
    return {"waypoints": [list(w) for w in route.waypoints]}


def _bed_dump_params(runtime, node, ctx):
    return {}


class LevelBinding(SkillBinding):
    """Runs the boustrophedon leveling passes one skill command at a time.

    The runs are planned once, when the node is built, from the planner's
    `leveling` and `leveling_width` settings; without them the node fails.
    The only state a tick hands the next is the run counter, the blackboard
    key leveling/run_index.  A resumed run replays every tick, so its
    planner goes on from the run where the snapshot's run stopped.
    """

    def __init__(self, runtime):
        super().__init__(runtime, "level", self._next_run_params,
                         on_success=self._run_finished)
        params = runtime.params
        leveling = params.leveling
        self.runs = None if leveling is None else plan_leveling(
            leveling.start_position, leveling.end_position, leveling.offset,
            params.leveling_width)

    def tick(self, node, ctx):
        if self.runs is None:
            return FAILURE
        if ctx.blackboard.read("leveling/run_index", 0) >= len(self.runs):
            self.runtime.wm.leveling_done = True
            return SUCCESS
        return super().tick(node, ctx)

    def _next_run_params(self, runtime, node, ctx):
        index = ctx.blackboard.read("leveling/run_index", 0)
        run = self.runs[index]
        start, end = run.waypoints[0], run.waypoints[-1]
        return {"start": [start[0], start[1]], "end": [end[0], end[1]],
                "target_height": runtime.params.leveling_target_height}

    def _run_finished(self, runtime, node, ctx, status):
        index = ctx.blackboard.read("leveling/run_index", 0)
        ctx.blackboard.write("leveling/run_index", index + 1)


# -- registry ----------------------------------------------------------------

def build_registry(runtime) -> NodeRegistry:
    """Node registry for planner trees: composites plus domain leaves."""
    registry = NodeRegistry()
    wm, params = runtime.wm, runtime.params

    def condition(fn):
        def factory(name, children, context):
            if children:
                raise StructureError(f"leaf {name!r} takes no children")
            return Condition(name, predicate=lambda ctx: fn(context, ctx),
                             context=context)
        return factory

    def wait(fn):
        def factory(name, children, context):
            if children:
                raise StructureError(f"leaf {name!r} takes no children")
            return WaitUntil(name, predicate=lambda node, ctx:
                             fn(node.context, ctx), context=context)
        return factory

    def task(binding_builder):
        def factory(name, children, context):
            if children:
                raise StructureError(f"leaf {name!r} takes no children")
            return Task(name, binding=binding_builder(), context=context)
        return factory

    registry.register("ScenarioComplete", condition(
        lambda m, ctx: check_scenario_complete(wm)))
    registry.register("CellsDone", condition(
        lambda m, ctx: wm.all_cells_done()))
    registry.register("BucketEmpty", condition(
        lambda m, ctx: planning.bucket_empty(wm, m)))
    registry.register("AwaitTruckInPosition", wait(
        lambda m, ctx: params.poses.loading_pose is not None and any(
            planning.truck_in_position(wm, tr.machine_id,
                                       params.poses.loading_pose)
            for tr in wm.machines_with_role("dumptruck"))))
    registry.register("AwaitBedFull", wait(
        lambda m, ctx: planning.bed_full(wm, m, params.truck_target_load_kg)))
    registry.register("AwaitNoOffload", wait(
        lambda m, ctx: not planning.offload_in_progress(wm)))

    registry.register("DriveToDigStance", task(
        lambda: SkillBinding(runtime, "drive", _drive_to_dig_params)))
    registry.register("Dig", task(
        lambda: SkillBinding(runtime, "dig", _dig_params)))
    registry.register("DumpToTruck", task(
        lambda: SkillBinding(runtime, "dump", _dump_to_truck_params)))
    registry.register("DumpToArea", task(
        lambda: SkillBinding(runtime, "dump", _dump_to_area_params)))
    registry.register("DriveToDumpStance", task(
        lambda: SkillBinding(runtime, "drive", _drive_to_dump_stance_params)))
    registry.register("DriveToLoading", task(
        lambda: SkillBinding(runtime, "drive", _drive_to_loading_params)))
    registry.register("DriveToDumpArea", task(
        lambda: SkillBinding(runtime, "drive", _drive_to_dump_area_params)))
    registry.register("DumpBed", task(
        lambda: SkillBinding(runtime, "beddump", _bed_dump_params)))
    registry.register("Level", task(lambda: LevelBinding(runtime)))
    return registry
