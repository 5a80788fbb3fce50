"""Planning behaviours: dig/dump/route/leveling plans and coordination
predicates, all computed from the WorldModel belief only."""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub
from typing import Optional, Union

from ..terrain import SweptCut
from .world import WorldModel

ALL_CELLS_DONE = "AllCellsDone"
NO_WORK_IN_CELL = "NoWorkInCell"
BUCKET_NOT_EMPTY = "BucketNotEmpty"

#: Payload below which a bucket/bed counts as empty (kg).
EMPTY_PAYLOAD = 1.0
#: Stance distance behind the cut start (m).
STANCE_BACK = 2.0
#: Fraction of full arm reach within which a dump target is workable.
DUMP_REACH_FRACTION = 0.8
#: Distance of the pre-dump orientation waypoint before the dump pose (m).
PRE_DUMP_BACK = 2.0
#: Minimum spacing between consecutive route waypoints (m).
MIN_WAYPOINT_SPACING = 0.2
#: Bucket attack angle of a cut over a level target (rad).
ATTACK = 0.5
#: Longest cut along x in one pass (m).
MAX_CUT_LENGTH = 1.2
#: Deepest a dig trajectory may cut below the surface (m).
MAX_DIG_DEPTH = 0.3
#: How close a truck must stand to its loading pose, in position (m) and
#: heading (rad), to count as in position.
TRUCK_POS_TOL = 0.5
TRUCK_HEADING_TOL = 0.2


class RouteError(ValueError):
    pass


@dataclass
class DigPlan:
    trajectory: SweptCut
    stance: tuple                  # (x, y, heading)
    expected_volume: float         # m^3


@dataclass
class DumpPlan:
    truck_id: Optional[str]        # None = fixed terrain offload point
    point: Optional[tuple]         # terrain offload (x, y) when no truck
    stance: Optional[tuple]        # (x, y, heading) or None to stay put


@dataclass
class RoutePlan:
    waypoints: list                # of (x, y) or (x, y, heading)
    purpose: str = "to-dig"

    def __post_init__(self):
        if not self.waypoints:
            raise RouteError("route needs at least one waypoint")


def plan_dig(wm: WorldModel, machine_id: str, dig_depth: float,
             bucket_width: float, bucket_capacity_kg: float,
             bank_density: float, sim_time: float = 0.0) \
        -> Union[DigPlan, str]:
    """Next excavation pass in the active grid cell.

    Advances the cell index past cells already matching the target, then
    lays a cut along +x through the cell row with the most excess
    material, clipped at the target profile and the per-pass depth, sized
    to the bucket.
    """
    report = wm.machines[machine_id]
    if report.payload_kg > EMPTY_PAYLOAD:
        return BUCKET_NOT_EMPTY
    while not wm.all_cells_done():
        index = wm.cell_index
        if wm.cell_done(index) or _max_excess(wm, index) < 1e-3:
            wm.advance_cell(sim_time)
            continue
        break
    if wm.all_cells_done():
        return ALL_CELLS_DONE

    index = wm.cell_index
    i0, j0, i1, j1 = wm.cells[index]
    h, t = wm.terrain.elevation, wm.target.elevation
    cs = wm.terrain.cell_size
    ox, oy = wm.terrain.origin

    # row (fixed j) with the most removable material
    best_j, best_excess = j0, -1.0
    for j in range(j0, j1):
        excess = 0.0
        for i in range(i0, i1):
            excess += max(h[i][j] - t[i][j], 0.0)
        if excess > best_excess:
            best_j, best_excess = j, excess
    y = oy + (best_j + 0.5) * cs

    points = []
    volume = 0.0
    budget = 0.9 * bucket_capacity_kg / bank_density
    started = False
    for i in range(i0, i1):
        x = ox + (i + 0.5) * cs
        cut_z = max(t[i][best_j], h[i][best_j] - dig_depth)
        excess = h[i][best_j] - cut_z
        if not started:
            if excess < 1e-4:
                continue
            started = True
        # bucket rake adapted to the local target slope along the cut
        i_hi = min(i + 1, wm.terrain.nx - 1)
        i_lo = max(i - 1, 0)
        slope = math.atan((t[i_hi][best_j] - t[i_lo][best_j])
                          / ((i_hi - i_lo) * cs)) if i_hi > i_lo else 0.0
        pt_attack = min(max(ATTACK + slope, 0.15), 1.2)
        points.append((x, y, cut_z, pt_attack))
        volume += max(excess, 0.0) * cs * bucket_width
        length = points[-1][0] - points[0][0]
        if volume >= budget or length >= MAX_CUT_LENGTH:
            break
    if len(points) < 2:
        if not points:
            return NO_WORK_IN_CELL
        x, y0, z, a = points[0]
        points.append((x + cs, y0, z, a))
    trajectory = SweptCut(points=points, width=bucket_width,
                          max_depth=MAX_DIG_DEPTH)
    stance = (points[0][0] - STANCE_BACK, y, 0.0)
    return DigPlan(trajectory=trajectory, stance=stance,
                   expected_volume=volume)


def _max_excess(wm: WorldModel, index: int) -> float:
    i0, j0, i1, j1 = wm.cells[index]
    return max(max(map(sub, cur[j0:j1], tgt[j0:j1]))
               for cur, tgt in zip(wm.terrain.elevation[i0:i1],
                                   wm.target.elevation[i0:i1]))


def plan_dump(wm: WorldModel, machine_id: str, reach: float,
              fallback_point: Optional[tuple]) -> Optional[DumpPlan]:
    """Offload pose for a loaded excavator: over the nearest truck bed, or
    the configured terrain offload point when no truck exists."""
    report = wm.machines[machine_id]
    trucks = wm.machines_with_role("dumptruck")
    if trucks:
        truck = min(trucks, key=lambda tr: math.dist(tr.position,
                                                     report.position))
        target, truck_id = truck.position, truck.machine_id
    elif fallback_point is not None:
        target, truck_id = tuple(fallback_point), None
    else:
        return None
    dist = math.dist(report.position, target)
    if dist <= DUMP_REACH_FRACTION * reach:
        stance = None
    else:
        ux = (report.x - target[0]) / dist
        uy = (report.y - target[1]) / dist
        back = DUMP_REACH_FRACTION * reach * 0.8
        stance = (target[0] + back * ux, target[1] + back * uy,
                  math.atan2(-uy, -ux))
    return DumpPlan(truck_id=truck_id,
                    point=None if truck_id else target, stance=stance)


def plan_route(wm: WorldModel, frm: tuple, to: tuple,
               purpose: str = "to-dig") -> RoutePlan:
    """Straight-segment route; truck dump routes get a pre-dump orientation
    waypoint followed by a straight final approach."""
    if not wm.terrain.in_bounds(to[0], to[1]):
        raise RouteError(f"route endpoint {to[:2]} outside the site")
    heading = to[2] if len(to) > 2 else None
    waypoints = []
    if purpose == "to-dump-area" and heading is not None:
        pre = (to[0] - PRE_DUMP_BACK * math.cos(heading),
               to[1] - PRE_DUMP_BACK * math.sin(heading), heading)
        if wm.terrain.in_bounds(pre[0], pre[1]):
            waypoints.append(pre)
    waypoints.append(tuple(to))
    while len(waypoints) > 1 and \
            math.dist(waypoints[0][:2], frm[:2]) < MIN_WAYPOINT_SPACING:
        waypoints.pop(0)
    return RoutePlan(waypoints=waypoints, purpose=purpose)


# -- coordination predicates -------------------------------------------------

def truck_in_position(wm: WorldModel, truck_id: str, pose: tuple) -> bool:
    report = wm.machines.get(truck_id)
    if report is None:
        return False
    if math.dist(report.position, pose[:2]) > TRUCK_POS_TOL:
        return False
    if len(pose) > 2 and pose[2] is not None:
        err = (report.heading - pose[2] + math.pi) % (2 * math.pi) - math.pi
        if abs(err) > TRUCK_HEADING_TOL:
            return False
    return True


def bed_full(wm: WorldModel, truck_id: str, target_load_kg: float) -> bool:
    report = wm.machines.get(truck_id)
    return report is not None and report.payload_kg >= target_load_kg


def bucket_empty(wm: WorldModel, machine_id: str) -> bool:
    report = wm.machines.get(machine_id)
    return report is not None and report.payload_kg <= EMPTY_PAYLOAD


def offload_in_progress(wm: WorldModel) -> bool:
    for (machine, action), status in wm.skill_status.items():
        if action == "dump" and status.get("state") == "Running":
            return True
    return False


# -- leveling ----------------------------------------------------------------

def plan_leveling(start: tuple, end: tuple, offset: float,
                  width: float) -> list[RoutePlan]:
    """Boustrophedon leveling runs: parallel passes from start to end,
    laterally shifted by multiples of the offset until the region width is
    covered."""
    if offset <= 0:
        raise ValueError("leveling offset must be positive")
    dx, dy = end[0] - start[0], end[1] - start[1]
    length = math.hypot(dx, dy)
    if length == 0.0:
        raise ValueError("degenerate leveling run: start equals end")
    ux, uy = dx / length, dy / length
    nx, ny = -uy, ux                      # left normal
    count = max(int(math.ceil(width / offset)), 1)
    runs = []
    for k in range(count):
        sx, sy = start[0] + k * offset * nx, start[1] + k * offset * ny
        ex, ey = end[0] + k * offset * nx, end[1] + k * offset * ny
        if k % 2 == 1:
            (sx, sy), (ex, ey) = (ex, ey), (sx, sy)   # alternate direction
        heading = math.atan2(ey - sy, ex - sx)
        runs.append(RoutePlan(waypoints=[(sx, sy, heading),
                                         (ex, ey, heading)],
                              purpose="leveling-run"))
    return runs


def check_scenario_complete(wm: WorldModel) -> bool:
    """All grid cells handled, and leveling finished when required."""
    if not wm.all_cells_done():
        return False
    if wm.leveling_required and not wm.leveling_done:
        return False
    return True
