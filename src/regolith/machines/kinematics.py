"""Excavator arm kinematics: swing + planar boom/stick/bucket chain.

The inverse solver accepts a world position and a tool angle versus the
ground.  Unreachable requests are not errors: the result carries
reached=False together with the range-clamped joints that minimize the
position error, so callers can compare what was asked with what the arm
can do.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

#: Position residual below which an IK solution counts as reached (m).
IK_REACHED_TOL = 1e-4

JOINT_NAMES = ("swing", "boom", "stick", "bucket")


class JointKind(enum.Enum):
    HINGE = "Hinge"
    PRISMATIC = "Prismatic"
    LOCK = "Lock"


def _default_ranges():
    return {
        "swing": (-3.0, 3.0),
        "boom": (-1.2, 1.5),
        "stick": (-2.9, 0.0),
        "bucket": (-3.0, 3.0),
    }


@dataclass
class ArmGeometry:
    boom_length: float = 2.0
    stick_length: float = 1.5
    bucket_length: float = 0.5
    joint_ranges: dict = field(default_factory=_default_ranges)
    joint_kinds: dict = field(default_factory=lambda: {
        name: JointKind.HINGE for name in JOINT_NAMES})
    # Arm pivot relative to the machine reference point: forward along the
    # heading and up.
    pivot_forward: float = 0.0
    pivot_up: float = 0.0

    def __post_init__(self):
        for name, value in (("boom_length", self.boom_length),
                            ("stick_length", self.stick_length),
                            ("bucket_length", self.bucket_length)):
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        for name in JOINT_NAMES:
            lo, hi = self.joint_ranges[name]
            if not lo < hi:
                raise ValueError(f"empty joint range for {name}")

    def in_range(self, name: str, value: float) -> bool:
        lo, hi = self.joint_ranges[name]
        return lo - 1e-12 <= value <= hi + 1e-12


@dataclass
class IkResult:
    joints: dict          # name -> value (rad)
    reached: bool
    residual: float       # end-effector position error (m)


#: One full turn.  An angle a wraps into [-pi, pi) as
#: ``(a + math.pi) % TWO_PI - math.pi``, which the step kernels write out.
TWO_PI = 2 * math.pi


def forward_kinematics(geom: ArmGeometry, joints: dict, base_pose,
                       validate: bool = True):
    """Tip position and tool angle for a joint configuration.

    base_pose is (x, y, z, heading).  Returns ((x, y, z), tool_angle)
    where tool_angle is the bucket link's angle above horizontal.
    """
    if validate:
        for name in JOINT_NAMES:
            if not geom.in_range(name, joints[name]):
                raise ValueError(
                    f"joint {name}={joints[name]:.4f} outside range "
                    f"{geom.joint_ranges[name]}")
    bx, by, bz, heading = base_pose
    azimuth = heading + joints["swing"]
    t1 = joints["boom"]
    t12 = t1 + joints["stick"]
    t123 = t12 + joints["bucket"]
    radial = (geom.pivot_forward
              + geom.boom_length * math.cos(t1)
              + geom.stick_length * math.cos(t12)
              + geom.bucket_length * math.cos(t123))
    height = (geom.pivot_up
              + geom.boom_length * math.sin(t1)
              + geom.stick_length * math.sin(t12)
              + geom.bucket_length * math.sin(t123))
    return ((bx + radial * math.cos(azimuth),
             by + radial * math.sin(azimuth),
             bz + height), t123)


def calculate_ik(geom: ArmGeometry, base_pose, target, ground_angle: float
                 ) -> IkResult:
    """Closed-form IK for a world tip position and a digging angle.

    Swing follows the target azimuth; boom/stick solve the planar 2R
    problem for the wrist; the bucket joint realizes the requested tool
    angle.  When the exact solution violates reach or joint ranges the
    returned joints are clamped and reached=False.

    Each joint is clamped to its range as ``min(max(v, lo), hi)``, written
    as the two conditionals the builtins evaluate (``lo if lo > v else v``,
    then ``hi if hi < v else v``), and the residual is measured at the tip
    `forward_kinematics` gives for the clamped joints, computed inline.
    """
    pi = math.pi
    cos, sin = math.cos, math.sin
    ranges = geom.joint_ranges
    bx, by, bz, heading = base_pose
    dx, dy = target[0] - bx, target[1] - by
    azimuth = math.atan2(dy, dx) if (dx or dy) else heading
    lo, hi = ranges["swing"]
    swing = (azimuth - heading + pi) % TWO_PI - pi
    swing = lo if lo > swing else swing
    swing = hi if hi < swing else swing

    radial = math.hypot(dx, dy) - geom.pivot_forward
    height = target[2] - bz - geom.pivot_up
    l1, l2, l3 = geom.boom_length, geom.stick_length, geom.bucket_length
    # wrist position in the swing plane
    wr = radial - l3 * cos(ground_angle)
    wz = height - l3 * sin(ground_angle)
    dist_sq = wr * wr + wz * wz
    cos_elbow = (dist_sq - l1 * l1 - l2 * l2) / (2 * l1 * l2)
    if cos_elbow >= 1.0:
        stick = 0.0
    elif cos_elbow <= -1.0:
        stick = -pi
    else:
        stick = -math.acos(cos_elbow)  # elbow-down branch
    lo, hi = ranges["stick"]
    stick = lo if lo > stick else stick
    stick = hi if hi < stick else stick
    psi = math.atan2(wz, wr)
    gamma = math.atan2(l2 * sin(stick), l1 + l2 * cos(stick))
    lo, hi = ranges["boom"]
    boom = psi - gamma
    boom = lo if lo > boom else boom
    boom = hi if hi < boom else boom
    lo, hi = ranges["bucket"]
    bucket = ground_angle - boom - stick
    bucket = lo if lo > bucket else bucket
    bucket = hi if hi < bucket else bucket

    # the tip, in forward_kinematics' order of operations
    azimuth = heading + swing
    t12 = boom + stick
    t123 = t12 + bucket
    reach = (geom.pivot_forward + l1 * cos(boom) + l2 * cos(t12)
             + l3 * cos(t123))
    rise = geom.pivot_up + l1 * sin(boom) + l2 * sin(t12) + l3 * sin(t123)
    tip = (bx + reach * cos(azimuth), by + reach * sin(azimuth), bz + rise)
    residual = math.dist(tip, tuple(target))
    return IkResult(joints={"swing": swing, "boom": boom, "stick": stick,
                            "bucket": bucket},
                    reached=residual <= IK_REACHED_TOL, residual=residual)
