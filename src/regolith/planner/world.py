"""Planner-side world model, updated exclusively from bus envelopes.

The planner never touches simulator memory: machine reports come from
state telemetry, terrain belief from terrain-patch telemetry, and skill
progress from skill status messages.  Between messages the belief may be
stale; planning on stale data degrades to skill failure and re-planning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..bus import Envelope, split_topic
from ..terrain import Heightfield

#: Pseudo machine id used for site-wide topics (terrain patches).
SITE_ID = "site"


@dataclass
class MachineReport:
    machine_id: str
    role: str
    x: float = 0.0
    y: float = 0.0
    heading: float = 0.0
    payload_kg: float = 0.0

    @property
    def position(self):
        return (self.x, self.y)


class WorldModel:
    """Believed site state: terrain, target profile, machines, grid cells."""

    def __init__(self, terrain: Heightfield, target: Optional[Heightfield],
                 cells: list, machine_roles: dict, cell_tolerance: float):
        self.terrain = terrain
        self.target = target
        self.cells = list(cells)          # (i0, j0, i1, j1) regions, in order
        self.cell_tolerance = cell_tolerance
        self.machines = {mid: MachineReport(mid, role)
                         for mid, role in machine_roles.items()}
        self.cell_index = 0
        self.cell_switch_times: list[float] = []
        self.leveling_required = False
        self.leveling_done = False
        # (machine, action) -> last skill status payload
        self.skill_status: dict = {}

    # -- ingestion ---------------------------------------------------------

    def ingest(self, env: Envelope) -> None:
        machine, category, action = split_topic(env.topic)
        if category == "telemetry" and machine == SITE_ID \
                and action == "terrain":
            for i, j, z in env.payload.get("cells", []):
                if 0 <= i < self.terrain.nx and 0 <= j < self.terrain.ny:
                    self.terrain.elevation[int(i)][int(j)] = float(z)
            return
        if category == "telemetry" and action == "state":
            report = self.machines.get(machine)
            if report is None:
                return
            p = env.payload
            report.x = p.get("x", report.x)
            report.y = p.get("y", report.y)
            report.heading = p.get("heading", report.heading)
            report.payload_kg = p.get("payload_kg", report.payload_kg)
            return
        if category == "skill":
            self.skill_status[(machine, action)] = dict(env.payload,
                                                        sim_time=env.sim_time)

    def ingest_all(self, envelopes) -> int:
        n = 0
        for env in envelopes:
            self.ingest(env)
            n += 1
        return n

    # -- queries -----------------------------------------------------------

    def machines_with_role(self, role: str) -> list[MachineReport]:
        return [m for m in self.machines.values() if m.role == role]

    def skill_state(self, machine: str, action: str) -> Optional[dict]:
        return self.skill_status.get((machine, action))

    def cell_error(self, index: int) -> float:
        """Mean |height - target| over one grid cell of the believed map."""
        if self.target is None:
            raise ValueError("no target profile configured")
        i0, j0, i1, j1 = self.cells[index]
        # math.fsum rounds the exact sum once, whatever the terms' order
        errors = [abs(c - t)
                  for cur, tgt in zip(self.terrain.elevation[i0:i1],
                                      self.target.elevation[i0:i1])
                  for c, t in zip(cur[j0:j1], tgt[j0:j1])]
        return math.fsum(errors) / len(errors)

    def cell_done(self, index: int) -> bool:
        return self.cell_error(index) <= self.cell_tolerance

    def all_cells_done(self) -> bool:
        return self.cell_index >= len(self.cells)

    def advance_cell(self, sim_time: float) -> None:
        self.cell_index += 1
        self.cell_switch_times.append(sim_time)


def grid_cells(h: Heightfield, area, cells_x: int, cells_y: int) -> list:
    """Split a world-frame rectangle (x0, y0, x1, y1) into an ordered list
    of heightfield-index cell regions.

    Ordered far-to-near in x (descending i) so a machine retreating toward
    -x never stands on unprocessed cells.
    """
    x0, y0, x1, y1 = area
    cs = h.cell_size
    i0 = max(int(round((x0 - h.origin[0]) / cs)), 0)
    i1 = min(int(round((x1 - h.origin[0]) / cs)), h.nx)
    j0 = max(int(round((y0 - h.origin[1]) / cs)), 0)
    j1 = min(int(round((y1 - h.origin[1]) / cs)), h.ny)
    if i1 <= i0 or j1 <= j0:
        raise ValueError(f"degenerate grid area {area}")
    di = max((i1 - i0) // cells_x, 1)
    dj = max((j1 - j0) // cells_y, 1)
    bounds_i = [i0 + k * di for k in range(cells_x)] + [i1]
    bounds_j = [j0 + k * dj for k in range(cells_y)] + [j1]
    regions = []
    for bi in range(cells_x - 1, -1, -1):
        for bj in range(cells_y):
            regions.append((bounds_i[bi], bounds_j[bj],
                            bounds_i[bi + 1], bounds_j[bj + 1]))
    return regions
