"""Scenario configuration: JSON loading, validation with field paths, and
construction of the terrain, soil, and machine objects a run needs.

Every key a scenario may set is declared here once, with its default and
its check; a key not declared fails validation, at any level.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Optional

from .machines import ROLES, MachineSpec, default_spec
from .terrain import Heightfield, SoilParams, generate_heightfield

TRANSPORTS = ("loopback", "tcp")

#: The keys of the sections that `validate_config` reads key by key; the
#: sections with named values are the `_key` fields of their dataclasses.
TOP_KEYS = ("name", "timestep", "max_sim_time", "seed", "transport",
            "terrain", "target", "soil", "machines", "cells", "tree_file",
            "planner", "poses", "deadlock_window")
TERRAIN_KEYS = ("file", "generate")
_GENERATE_PARAMS = inspect.signature(generate_heightfield).parameters
GENERATE_KEYS = tuple(_GENERATE_PARAMS)
RIDGE_KEYS = ("x", "height", "half_width")
TARGET_KEYS = ("file", "flat_height", "dig_depth")
CELLS_KEYS = ("area", "cells_x", "cells_y")
MACHINE_KEYS = ("id", "role", "pose", "spec", "rig")
SOIL_KEYS = tuple(f.name for f in fields(SoilParams))
#: `arm` is left out: its geometry is an `ArmGeometry`, which no JSON
#: value builds.
SPEC_KEYS = tuple(f.name for f in fields(MachineSpec)
                  if f.name not in ("machine_id", "role", "arm"))


class ConfigError(ValueError):
    """Validation failure; the message starts with the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# -- values ------------------------------------------------------------------
# A parser takes a value and its path, and returns the value checked and
# converted, or raises ConfigError at the path.

def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _number(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(path, "must be a number")
    return float(value)


def _positive(value, path: str) -> float:
    value = _number(value, path)
    if not value > 0:
        raise ConfigError(path, "must be > 0")
    return value


def _integer(value, path: str, low: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise ConfigError(path, f"must be an integer >= {low}")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, "must be str")
    return value


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, "must be an object")
    return value


def _point(value, path: str, min_len: int = 2, max_len: int = 3):
    if not isinstance(value, list) or not min_len <= len(value) <= max_len \
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in value):
        raise ConfigError(path, f"must be a list of {min_len}-{max_len} numbers")
    return tuple(float(v) for v in value)


def _area(value, path: str) -> tuple:
    area = _point(value, path, 4, 4)
    if not (area[2] > area[0] and area[3] > area[1]):
        raise ConfigError(path, "needs x1 > x0 and y1 > y0")
    return area


#: The check of each `terrain.generate` value but `ridge`; the values that
#: `generate_heightfield` has no default for are required.
GENERATE_VALUES = {
    "nx": partial(_integer, low=2), "ny": partial(_integer, low=2),
    "cell_size": _positive, "origin": partial(_point, max_len=2),
    "amplitude": _number, "wavelength": _positive,
    "seed": partial(_integer, low=0), "base_height": _number,
}


def _known(section: dict, path: str, keys) -> dict:
    """section, once each of its keys is one of keys."""
    for key in section:
        if key not in keys:
            raise ConfigError(_at(path, key), "unknown key")
    return section


def _get(section: dict, path: str, key: str, parse, default=MISSING):
    """section[key] through parse, or default when the key is absent; a
    key without a default is required."""
    if key in section:
        return parse(section[key], _at(path, key))
    if default is MISSING:
        raise ConfigError(_at(path, key), "missing required field")
    return default


# -- sections ----------------------------------------------------------------

def _key(parse, default=MISSING):
    """A dataclass field that the config key of the same name sets, checked
    and converted by parse; without a default the key is required."""
    return field(default=default, metadata={"parse": parse})


def _load(cls, value, path: str, **rest):
    """cls from the config object at path: each `_key` field from its key,
    or at its default.  rest sets the fields that no key sets."""
    declared = {f.name: f for f in fields(cls) if "parse" in f.metadata}
    section = _known(_object(value, path), path, declared)
    return cls(**{name: _get(section, path, name, f.metadata["parse"],
                             f.default)
                  for name, f in declared.items()}, **rest)


@dataclass(frozen=True)
class Rig:
    """`machines[].rig`: the planner's view of a machine's tools."""
    reach: float = _key(_positive, 4.0)                  # m
    bucket_width: float = _key(_positive, 0.6)           # m
    bucket_capacity_kg: float = _key(_positive, 75.0)


@dataclass(frozen=True)
class Poses:
    """`poses`: where a truck loads and dumps, and the terrain offload
    point of a site without trucks; each (x, y) or (x, y, heading)."""
    loading_pose: Optional[tuple] = _key(_point, None)
    truck_dump_pose: Optional[tuple] = _key(_point, None)
    offload_point: Optional[tuple] = _key(_point, None)


@dataclass(frozen=True)
class Leveling:
    """`planner.leveling`: the first leveling run, from start_position to
    end_position, and the lateral step between runs (m)."""
    start_position: tuple = _key(_point)
    end_position: tuple = _key(_point)
    offset: float = _key(_positive)

    def __post_init__(self):
        if self.start_position[:2] == self.end_position[:2]:
            raise ConfigError("planner.leveling.end_position",
                              "must differ from start_position")


@dataclass(frozen=True)
class PlannerParams:
    """What the planner reads from a scenario: the keys of its `planner`
    section, plus the `poses`, each machine's rig and the soil's bank
    density, which `validate_config` fills in."""
    dig_depth: float = _key(_positive, 0.15)             # m per pass
    cell_tolerance: float = _key(_positive, 0.05)        # m, mean |h - target|
    truck_target_load_kg: float = _key(_positive, 200.0)
    leveling: Optional[Leveling] = _key(partial(_load, Leveling), None)
    leveling_width: Optional[float] = _key(_positive, None)        # m
    leveling_target_height: Optional[float] = _key(_number, None)  # m
    poses: Poses = field(default_factory=Poses)
    rigs: dict = field(default_factory=dict)             # machine id -> Rig
    bank_density: float = SoilParams.bank_density

    def __post_init__(self):
        if self.leveling is not None:
            for key in ("leveling_width", "leveling_target_height"):
                if getattr(self, key) is None:
                    raise ConfigError(f"planner.{key}",
                                      "required with planner.leveling")


@dataclass
class MachineConfig:
    machine_id: str
    role: str
    pose: tuple                      # (x, y, heading)
    spec_overrides: dict
    rig: Rig

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
    planner: PlannerParams
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
        rows = target.elevation[i0:i1 + 1]
        if "flat_height" in self.target:
            flat = float(self.target["flat_height"])
            for row in rows:
                row[j0:j1 + 1] = [flat] * (j1 + 1 - j0)
        elif "dig_depth" in self.target:
            depth = float(self.target["dig_depth"])
            for row in rows:
                row[j0:j1 + 1] = [z - depth for z in row[j0:j1 + 1]]
        return target

    def cell_grid(self):
        return (tuple(self.cells["area"]), int(self.cells["cells_x"]),
                int(self.cells["cells_y"]))


def _file(value, path: str, base_dir: Path) -> str:
    if not (base_dir / _string(value, path)).exists():
        raise ConfigError(path, f"file not found: {value}")
    return value


def _one_of(section: dict, path: str, keys: tuple) -> dict:
    """section, once it has exactly one of keys and no other key."""
    if len(_known(section, path, keys)) != 1:
        raise ConfigError(path, "needs exactly one of "
                          + ", ".join(repr(k) for k in keys))
    return section


def _machine(entry, path: str) -> MachineConfig:
    entry = _known(_object(entry, path), path, MACHINE_KEYS)
    machine_id = _get(entry, path, "id", _string)
    role = _get(entry, path, "role", _string)
    if role not in ROLES:
        raise ConfigError(_at(path, "role"), f"must be one of {ROLES}")
    pose = _get(entry, path, "pose", _point, (0.0, 0.0, 0.0))
    if len(pose) == 2:
        pose = (*pose, 0.0)
    spec = _known(_get(entry, path, "spec", _object, {}), _at(path, "spec"),
                  SPEC_KEYS)
    rig = _get(entry, path, "rig", partial(_load, Rig), Rig())
    machine = MachineConfig(machine_id, role, pose, spec, rig)
    try:
        machine.build_spec()
    except (TypeError, ValueError) as exc:
        raise ConfigError(_at(path, "spec"), str(exc)) from exc
    return machine


def _machines(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(path, "needs a list of at least one machine")
    machines = [_machine(entry, f"{path}[{k}]")
                for k, entry in enumerate(value)]
    ids = [m.machine_id for m in machines]
    for k, machine_id in enumerate(ids):
        if machine_id in ids[:k]:
            raise ConfigError(f"{path}[{k}].id",
                              f"duplicate machine id {machine_id!r}")
    return machines


def validate_config(raw: dict, base_dir: Path, name: str = "") \
        -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("$", "config root must be a JSON object")
    _known(raw, "", TOP_KEYS)
    cfg_name = _get(raw, "", "name", _string, name or "scenario")
    timestep = _get(raw, "", "timestep", _positive)
    max_sim_time = _get(raw, "", "max_sim_time", _positive)
    seed = _get(raw, "", "seed", partial(_integer, low=0), 0)
    transport = _get(raw, "", "transport", _string, "loopback")
    if transport not in TRANSPORTS:
        raise ConfigError("transport", f"must be one of {TRANSPORTS}")
    deadlock = _get(raw, "", "deadlock_window", _positive, 120.0)   # sim s

    terrain = _one_of(_get(raw, "", "terrain", _object), "terrain",
                      TERRAIN_KEYS)
    if "file" in terrain:
        _file(terrain["file"], "terrain.file", base_dir)
    else:
        generate = _known(_object(terrain["generate"], "terrain.generate"),
                          "terrain.generate", GENERATE_KEYS)
        for key, parse in GENERATE_VALUES.items():
            required = _GENERATE_PARAMS[key].default is inspect.Parameter.empty
            _get(generate, "terrain.generate", key, parse,
                 MISSING if required else None)
        if generate.get("ridge") is not None:
            path = "terrain.generate.ridge"
            ridge = _known(_object(generate["ridge"], path), path, RIDGE_KEYS)
            for key in RIDGE_KEYS:
                _get(ridge, path, key, _number)

    target = _get(raw, "", "target", _object, None)
    if target is not None:
        (key, value), = _one_of(target, "target", TARGET_KEYS).items()
        if key == "file":
            _file(value, "target.file", base_dir)
        else:
            _number(value, f"target.{key}")

    soil = _known(_get(raw, "", "soil", _object, {}), "soil", SOIL_KEYS)
    try:
        bank_density = SoilParams(**soil).bank_density
    except (TypeError, ValueError) as exc:
        raise ConfigError("soil", str(exc)) from exc

    machines = _get(raw, "", "machines", _machines)

    cells = _known(_get(raw, "", "cells", _object), "cells", CELLS_KEYS)
    cells = {"area": list(_get(cells, "cells", "area", _area)),
             "cells_x": _get(cells, "cells", "cells_x",
                             partial(_integer, low=1), 1),
             "cells_y": _get(cells, "cells", "cells_y",
                             partial(_integer, low=1), 1)}

    tree_file = base_dir / _get(raw, "", "tree_file",
                                partial(_file, base_dir=base_dir))

    poses = _load(Poses, raw.get("poses", {}), "poses")
    planner = _load(PlannerParams, raw.get("planner", {}), "planner",
                    poses=poses, bank_density=bank_density,
                    rigs={m.machine_id: m.rig for m in machines})

    return ScenarioConfig(
        name=cfg_name, timestep=timestep, max_sim_time=max_sim_time,
        seed=seed, transport=transport, terrain=terrain, target=target,
        soil=soil, machines=machines, cells=cells, tree_file=tree_file,
        planner=planner, deadlock_window=deadlock, raw=raw,
        base_dir=base_dir)


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
