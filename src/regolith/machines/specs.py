"""Machine descriptions (static spec) and mutable runtime state."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .kinematics import JOINT_NAMES, ArmGeometry

ROLES = ("excavator", "dumptruck")

#: Actuator names that can carry torque samples.
ACTUATORS = ("left_track", "right_track", "swing", "boom", "stick", "bucket",
             "bed", "blade")


def _default_torque_limits():
    # Generous limits; the resistance model rarely approaches them.
    return {"left_track": 4000.0, "right_track": 4000.0,
            "swing": 20000.0, "boom": 30000.0, "stick": 20000.0,
            "bucket": 12000.0, "bed": 15000.0, "blade": 15000.0}


@dataclass
class MachineSpec:
    """Static description of one machine."""

    machine_id: str
    role: str
    length: float = 3.3                  # m
    width: float = 2.5                   # m
    mass: float = 3000.0                 # kg, unladen
    speed_loaded: float = 0.30           # m/s target, carrying a load
    speed_empty: float = 0.35            # m/s target, empty
    torque_limits: dict = field(default_factory=_default_torque_limits)
    wheel_radius: float = 0.25           # m, sprocket radius
    track_width: float = 2.0             # m, left/right track separation
    max_turn_rate: float = 0.5           # rad/s
    rolling_resistance: float = 0.08     # dimensionless coefficient
    turning_resistance: float = 400.0    # N*m of chassis yaw drag per rad/s
    turning_resistance_subcrawler: float = 1200.0  # same, sub-crawlers down
    # excavator
    arm: Optional[ArmGeometry] = None
    bucket_capacity_kg: float = 75.0
    bucket_width: float = 0.6            # m
    arm_joint_speed: float = 0.8         # rad/s rate limit per joint
    swing_accel: float = 1.0             # rad/s^2 accel limit on the swing
    dig_speed: float = 0.25              # m/s bucket-tip speed along a cut
    blade_width: float = 1.6             # m (dozer blade for leveling)
    blade_capacity_kg: float = 150.0
    # dump truck
    bed_capacity_kg: float = 300.0
    bed_raise_time: float = 2.0          # s to tilt the bed fully
    bed_hold_time: float = 2.0           # s held raised before advancing
    bed_length: float = 1.6              # m, dump footprint behind the axle
    bed_width: float = 1.4               # m
    # payload spill under chassis angular acceleration
    spill_rate: float = 0.055            # fraction/(rad/s^2 * s) of payload
    spill_accel_threshold: float = 0.3   # rad/s^2 tolerated without spill

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown machine role {self.role!r}")
        for name in ("length", "width", "mass", "speed_loaded", "speed_empty",
                     "wheel_radius", "track_width", "max_turn_rate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.speed_loaded > self.speed_empty:
            raise ValueError("loaded speed must not exceed empty speed")
        for actuator, limit in self.torque_limits.items():
            if actuator not in ACTUATORS:
                raise ValueError(f"unknown actuator {actuator!r}")
            if limit <= 0:
                raise ValueError(f"torque limit for {actuator} must be positive")
        if self.role == "excavator" and self.arm is None:
            self.arm = ArmGeometry()

    def target_speed(self, loaded: bool) -> float:
        return self.speed_loaded if loaded else self.speed_empty

    def to_dict(self) -> dict:
        data = {k: v for k, v in self.__dict__.items() if k != "arm"}
        data = {k: (dict(v) if isinstance(v, dict) else v)
                for k, v in data.items()}
        data["arm"] = self.arm.to_dict() if self.arm else None
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "MachineSpec":
        kw = dict(data)
        if kw.get("arm") is not None:
            kw["arm"] = ArmGeometry.from_dict(kw["arm"])
        return cls(**kw)


def default_spec(machine_id: str, role: str, **overrides) -> MachineSpec:
    """Spec with per-role defaults: lighter, slightly faster dump truck."""
    base = {"machine_id": machine_id, "role": role}
    if role == "dumptruck":
        base.update(mass=2000.0, length=3.0, width=2.2)
    base.update(overrides)
    return MachineSpec(**base)


@dataclass
class ActuatorSample:
    torque: float = 0.0      # N*m, clamped at the spec limit
    omega: float = 0.0       # rad/s


@dataclass
class MachineState:
    """Mutable runtime state of one machine."""

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    heading: float = 0.0
    pitch: float = 0.0                   # chassis tilt along heading (rad)
    roll: float = 0.0                    # chassis tilt across heading (rad)
    track_speed_left: float = 0.0        # m/s
    track_speed_right: float = 0.0       # m/s
    turn_rate: float = 0.0               # rad/s chassis yaw rate
    sub_crawler_front: float = 0.0       # rad, 0 = surface-parallel
    sub_crawler_rear: float = 0.0
    joints: dict = field(default_factory=lambda: dict.fromkeys(JOINT_NAMES, 0.0))
    swing_rate: float = 0.0              # rad/s, accel-limited swing joint
    payload_kg: float = 0.0              # bucket (excavator) or bed (truck)
    blade_load_kg: float = 0.0           # material carried by the blade
    blade_height: float = 0.0            # m, blade edge height above z=0 datum
    bed_angle: float = 0.0               # rad, 0 = level
    samples: dict = field(default_factory=lambda: {
        name: ActuatorSample() for name in ACTUATORS})

    @property
    def pose(self):
        return (self.x, self.y, self.z, self.heading)

    @property
    def speed(self) -> float:
        return 0.5 * (self.track_speed_left + self.track_speed_right)

    def set_sample(self, actuator: str, torque: float, omega: float,
                   limit: float) -> None:
        s = self.samples[actuator]
        s.torque = min(max(torque, -limit), limit)
        s.omega = omega

    def clear_samples(self) -> None:
        for s in self.samples.values():
            s.torque = 0.0
            s.omega = 0.0

    def state_payload(self) -> dict:
        """Snapshot published on the machine state telemetry topic."""
        return {
            "x": self.x, "y": self.y, "z": self.z,
            "heading": self.heading, "pitch": self.pitch, "roll": self.roll,
            "speed": self.speed, "turn_rate": self.turn_rate,
            "payload_kg": self.payload_kg, "blade_load_kg": self.blade_load_kg,
            "bed_angle": self.bed_angle,
            "joints": dict(self.joints),
        }

    def sample_rows(self):
        """(actuator, torque, omega) triples for telemetry export."""
        return [(name, s.torque, s.omega) for name, s in self.samples.items()]
