"""Scenario configuration: JSON loading, validation with field paths, and
construction of the terrain, soil, and machine objects a run needs."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .machines import ROLES, MachineSpec, default_spec
from .terrain import Heightfield, SoilParams, generate_heightfield

TRANSPORTS = ("loopback", "tcp")

#: Default run-stall window for the deadlock detector (sim s).
DEFAULT_DEADLOCK_WINDOW = 120.0

#: The keys of a machine's `rig`, the planner's view of its tools.
RIG_KEYS = ("reach", "bucket_width", "bucket_capacity_kg", "target_load_kg")


class ConfigError(ValueError):
    """Validation failure; the message starts with the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _require(raw: dict, path: str, key: str, kind, parent: str = ""):
    if key not in raw:
        raise ConfigError(f"{parent}{key}", "missing required field")
    value = raw[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{parent}{key}", "must be a number")
        return float(value)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigError(f"{parent}{key}", f"must be {kind.__name__}")
    return value


def _point(value, path: str, min_len: int = 2, max_len: int = 3):
    if not isinstance(value, list) or not min_len <= len(value) <= max_len \
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in value):
        raise ConfigError(path, f"must be a list of {min_len}-{max_len} numbers")
    return tuple(float(v) for v in value)


@dataclass
class MachineConfig:
    machine_id: str
    role: str
    pose: tuple                      # (x, y, heading)
    spec_overrides: dict = field(default_factory=dict)
    rig: dict = field(default_factory=dict)

    def build_spec(self) -> MachineSpec:
        return default_spec(self.machine_id, self.role,
                            **self.spec_overrides)


@dataclass
class ScenarioConfig:
    name: str
    timestep: float
    max_sim_time: float
    seed: int
    transport: str
    terrain: dict
    target: Optional[dict]
    soil: dict
    machines: list            # of MachineConfig
    cells: dict               # {"area": [x0,y0,x1,y1], "cells_x", "cells_y"}
    tree_file: Path
    planner: dict
    poses: dict               # loading_pose / truck_dump_pose / offload_point
    deadlock_window: float
    raw: dict = field(repr=False, default_factory=dict)
    base_dir: Path = field(default_factory=Path)

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def machine_ids(self) -> list[str]:
        return [m.machine_id for m in self.machines]

    def build_soil(self) -> SoilParams:
        return SoilParams(**self.soil)

    def build_terrain(self) -> Heightfield:
        if "file" in self.terrain:
            return Heightfield.load_text(self.base_dir / self.terrain["file"])
        gen = dict(self.terrain["generate"])
        gen.setdefault("seed", self.seed)
        return generate_heightfield(**gen)

    def build_target(self, terrain: Heightfield) -> Heightfield:
        """Target profile: explicit file, flat height over the work area,
        or the current surface lowered by a fixed depth over the area."""
        target = terrain.copy()
        if self.target is None:
            return target
        if "file" in self.target:
            return Heightfield.load_text(self.base_dir / self.target["file"])
        x0, y0, x1, y1 = self.cells["area"]
        i0, j0 = terrain.cell_of(x0, y0)
        i1, j1 = terrain.cell_of(x1 - 1e-9, y1 - 1e-9)
        region = (slice(i0, i1 + 1), slice(j0, j1 + 1))
        if "flat_height" in self.target:
            target.elevation[region] = float(self.target["flat_height"])
        elif "dig_depth" in self.target:
            target.elevation[region] -= float(self.target["dig_depth"])
        return target

    def cell_grid(self):
        return (tuple(self.cells["area"]), int(self.cells["cells_x"]),
                int(self.cells["cells_y"]))


def validate_config(raw: dict, base_dir: Path, name: str = "") \
        -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("$", "config root must be a JSON object")
    cfg_name = raw.get("name", name or "scenario")
    timestep = _require(raw, "timestep", "timestep", float)
    if timestep <= 0:
        raise ConfigError("timestep", "must be > 0")
    max_sim_time = _require(raw, "max_sim_time", "max_sim_time", float)
    if max_sim_time <= 0:
        raise ConfigError("max_sim_time", "must be > 0")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed", "must be a non-negative integer")
    transport = raw.get("transport", "loopback")
    if transport not in TRANSPORTS:
        raise ConfigError("transport", f"must be one of {TRANSPORTS}")

    terrain = _require(raw, "terrain", "terrain", dict)
    if ("file" in terrain) == ("generate" in terrain):
        raise ConfigError("terrain",
                          "needs exactly one of 'file' or 'generate'")
    if "file" in terrain and not (base_dir / terrain["file"]).exists():
        raise ConfigError("terrain.file",
                          f"file not found: {terrain['file']}")

    target = raw.get("target")
    if target is not None:
        if not isinstance(target, dict):
            raise ConfigError("target", "must be an object")
        keys = {"file", "flat_height", "dig_depth"} & target.keys()
        if len(keys) != 1:
            raise ConfigError(
                "target",
                "needs exactly one of 'file', 'flat_height', 'dig_depth'")
        if "file" in target and not (base_dir / target["file"]).exists():
            raise ConfigError("target.file",
                              f"file not found: {target['file']}")

    soil = raw.get("soil", {})
    if not isinstance(soil, dict):
        raise ConfigError("soil", "must be an object")
    try:
        SoilParams(**soil)
    except (TypeError, ValueError) as exc:
        raise ConfigError("soil", str(exc)) from exc

    machines_raw = _require(raw, "machines", "machines", list)
    if not machines_raw:
        raise ConfigError("machines", "needs at least one machine")
    machines, seen = [], set()
    for k, entry in enumerate(machines_raw):
        prefix = f"machines[{k}]."
        if not isinstance(entry, dict):
            raise ConfigError(f"machines[{k}]", "must be an object")
        machine_id = _require(entry, "id", "id", str, prefix)
        if machine_id in seen:
            raise ConfigError(f"{prefix}id",
                              f"duplicate machine id {machine_id!r}")
        seen.add(machine_id)
        role = _require(entry, "role", "role", str, prefix)
        if role not in ROLES:
            raise ConfigError(f"{prefix}role", f"must be one of {ROLES}")
        pose = _point(entry.get("pose", [0, 0, 0]), f"{prefix}pose", 2, 3)
        if len(pose) == 2:
            pose = (*pose, 0.0)
        spec_over = entry.get("spec", {})
        rig = entry.get("rig", {})
        for key, val in (("spec", spec_over), ("rig", rig)):
            if not isinstance(val, dict):
                raise ConfigError(f"{prefix}{key}", "must be an object")
        unknown = sorted(rig.keys() - set(RIG_KEYS))
        if unknown:
            raise ConfigError(f"{prefix}rig", f"unknown keys {unknown}")
        machines.append(MachineConfig(machine_id, role, pose, spec_over, rig))

    cells = _require(raw, "cells", "cells", dict)
    area = _point(cells.get("area"), "cells.area", 4, 4)
    if not (area[2] > area[0] and area[3] > area[1]):
        raise ConfigError("cells.area", "needs x1 > x0 and y1 > y0")
    for key in ("cells_x", "cells_y"):
        count = cells.get(key, 1)
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise ConfigError(f"cells.{key}", "must be a positive integer")
    cells = {"area": list(area), "cells_x": int(cells.get("cells_x", 1)),
             "cells_y": int(cells.get("cells_y", 1))}

    tree_name = _require(raw, "tree_file", "tree_file", str)
    tree_file = base_dir / tree_name
    if not tree_file.exists():
        raise ConfigError("tree_file", f"file not found: {tree_name}")

    planner = raw.get("planner", {})
    if not isinstance(planner, dict):
        raise ConfigError("planner", "must be an object")
    poses = raw.get("poses", {})
    if not isinstance(poses, dict):
        raise ConfigError("poses", "must be an object")
    for key, value in poses.items():
        poses = {**poses, key: _point(value, f"poses.{key}", 2, 3)}
    deadlock = raw.get("deadlock_window", DEFAULT_DEADLOCK_WINDOW)
    if not isinstance(deadlock, (int, float)) or deadlock <= 0:
        raise ConfigError("deadlock_window", "must be > 0")

    try:
        for machine in machines:
            machine.build_spec()
    except (TypeError, ValueError) as exc:
        raise ConfigError("machines", f"invalid spec override: {exc}") from exc

    return ScenarioConfig(
        name=cfg_name, timestep=timestep, max_sim_time=max_sim_time,
        seed=seed, transport=transport, terrain=terrain, target=target,
        soil=soil, machines=machines, cells=cells, tree_file=tree_file,
        planner=planner, poses=poses, deadlock_window=float(deadlock),
        raw=raw, base_dir=base_dir)


def load_config(path, overrides: Optional[dict] = None) -> ScenarioConfig:
    """Parse and validate a scenario JSON file.

    `overrides` replaces top-level keys (seed, transport, max_sim_time ...)
    before validation, so command-line flags are part of `raw`, the config
    a TCP run sends its planner child.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError("$", f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from exc
    if overrides:
        raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    return validate_config(raw, path.parent, name=path.stem)
