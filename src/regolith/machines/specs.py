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
    bucket_width: float = 0.6            # m
    arm_joint_speed: float = 0.8         # rad/s rate limit per joint
    swing_accel: float = 1.0             # rad/s^2 accel limit on the swing
    dig_speed: float = 0.25              # m/s bucket-tip speed along a cut
    blade_width: float = 1.6             # m (dozer blade for leveling)
    blade_capacity_kg: float = 150.0
    # dump truck
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
    #: One sample per name of ACTUATORS, in that order.
    samples: dict = field(default_factory=lambda: {
        name: ActuatorSample() for name in ACTUATORS})

    @property
    def pose(self):
        return (self.x, self.y, self.z, self.heading)

    @property
    def speed(self) -> float:
        return 0.5 * (self.track_speed_left + self.track_speed_right)

    #: Whether this step's actuator samples will be read.  A `Simulator`
    #: sets it before each step: True only on the steps whose samples it
    #: logs (one in `TELEMETRY_EVERY`), so the skills can skip the work
    #: that only feeds the samples on the other steps.  Outside a
    #: simulator it stays True and every step samples.
    sampling = True

    def set_sample(self, actuator: str, torque: float, omega: float,
                   limit: float) -> None:
        s = self.samples[actuator]
        # exactly min(max(torque, -limit), limit), without the builtin calls
        torque = -limit if -limit > torque else torque
        s.torque = limit if limit < torque else torque
        s.omega = omega

    def clear_samples(self) -> None:
        """Zero every actuator sample.  A simulator clears them at the
        start of each step it logs, so a logged row holds only what that
        step set; between logged steps the samples keep values nothing
        reads."""
        for s in self.samples.values():
            s.torque = 0.0
            s.omega = 0.0

    def state_payload(self) -> dict:
        """Published on the machine state telemetry topic: the fields the
        planner's world model reads."""
        return {"x": self.x, "y": self.y, "heading": self.heading,
                "payload_kg": self.payload_kg}
