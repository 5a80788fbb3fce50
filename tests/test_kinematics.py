import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regolith.machines.kinematics import (
    ArmGeometry,
    calculate_ik,
    forward_kinematics,
)

GEOM = ArmGeometry()


def _wrapped(a):
    """a wrapped into [-pi, pi)."""
    return (a + math.pi) % (2 * math.pi) - math.pi


# -- forward kinematics ------------------------------------------------------

def _rot_z(a):
    c, s = math.cos(a), math.sin(a)
    m = np.eye(4)
    m[0, 0], m[0, 1], m[1, 0], m[1, 1] = c, -s, s, c
    return m


def _rot_y(a):
    c, s = math.cos(a), math.sin(a)
    m = np.eye(4)
    m[0, 0], m[0, 2], m[2, 0], m[2, 2] = c, s, -s, c
    return m


def _trans(x, y, z):
    m = np.eye(4)
    m[:3, 3] = (x, y, z)
    return m


def fk_oracle(geom, joints, base_pose):
    """Chain of homogeneous transforms; independent of the closed form."""
    bx, by, bz, heading = base_pose
    # +boom raises the tip, so hinge rotations are about -y
    m = (_trans(bx, by, bz)
         @ _rot_z(heading)
         @ _rot_z(joints["swing"])
         @ _trans(geom.pivot_forward, 0.0, geom.pivot_up)
         @ _rot_y(-joints["boom"]) @ _trans(geom.boom_length, 0, 0)
         @ _rot_y(-joints["stick"]) @ _trans(geom.stick_length, 0, 0)
         @ _rot_y(-joints["bucket"]) @ _trans(geom.bucket_length, 0, 0))
    return tuple(m[:3, 3])


def test_zero_joints_full_reach_along_heading():
    for heading in (0.0, 1.1, -2.4):
        base = (3.0, -2.0, 1.5, heading)
        joints = dict.fromkeys(("swing", "boom", "stick", "bucket"), 0.0)
        (x, y, z), tool = forward_kinematics(GEOM, joints, base)
        assert x == pytest.approx(3.0 + 4.0 * math.cos(heading), abs=1e-12)
        assert y == pytest.approx(-2.0 + 4.0 * math.sin(heading), abs=1e-12)
        assert z == pytest.approx(1.5, abs=1e-12)
        assert tool == 0.0


def test_fk_matches_transform_oracle():
    rng = np.random.default_rng(17)
    geom = ArmGeometry(boom_length=2.2, stick_length=1.3, bucket_length=0.6,
                       pivot_forward=0.4, pivot_up=0.8)
    for _ in range(300):
        joints = {name: rng.uniform(*geom.joint_ranges[name])
                  for name in geom.joint_ranges}
        base = (rng.uniform(-5, 5), rng.uniform(-5, 5),
                rng.uniform(-2, 2), rng.uniform(-math.pi, math.pi))
        got, _tool = forward_kinematics(geom, joints, base)
        expected = fk_oracle(geom, joints, base)
        assert math.dist(got, expected) < 1e-9


def test_fk_rejects_out_of_range_joint():
    joints = {"swing": 0.0, "boom": 2.0, "stick": 0.0, "bucket": 0.0}
    with pytest.raises(ValueError):
        forward_kinematics(GEOM, joints, (0, 0, 0, 0))


def test_tool_angle_is_joint_sum():
    joints = {"swing": 0.4, "boom": 0.5, "stick": -0.7, "bucket": -0.3}
    _pos, tool = forward_kinematics(GEOM, joints, (0, 0, 0, 0))
    assert tool == pytest.approx(0.5 - 0.7 - 0.3, abs=1e-12)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArmGeometry(boom_length=0.0)
    with pytest.raises(ValueError):
        ArmGeometry(joint_ranges={"swing": (1.0, -1.0), "boom": (-1, 1),
                                  "stick": (-1, 0), "bucket": (-1, 1)})


# -- inverse kinematics ------------------------------------------------------

def _sample_reachable(rng, geom):
    """Joint sets whose elbow-down configuration the solver can recover."""
    while True:
        joints = {
            "swing": rng.uniform(-2.9, 2.9),
            "boom": rng.uniform(*geom.joint_ranges["boom"]),
            "stick": rng.uniform(geom.joint_ranges["stick"][0] + 0.05, -0.05),
            "bucket": rng.uniform(-2.9, 2.9),
        }
        t1 = joints["boom"]
        t12 = t1 + joints["stick"]
        t123 = t12 + joints["bucket"]
        wrist_r = (geom.pivot_forward + geom.boom_length * math.cos(t1)
                   + geom.stick_length * math.cos(t12))
        tip_r = wrist_r + geom.bucket_length * math.cos(t123)
        if wrist_r > 0.05 and tip_r > 0.05:
            return joints


def test_ik_round_trip_many_targets():
    rng = np.random.default_rng(23)
    geom = GEOM
    base = (1.0, -0.5, 0.25, 0.6)
    for _ in range(10_000):
        joints = _sample_reachable(rng, geom)
        target, tool = forward_kinematics(geom, joints, base)
        result = calculate_ik(geom, base, target, tool)
        assert result.reached
        tip, tool_out = forward_kinematics(geom, result.joints, base)
        assert math.dist(tip, target) < 1e-6
        assert abs(_wrapped(tool_out - tool)) < 1e-6


def test_ik_result_residual_matches_fk():
    rng = np.random.default_rng(31)
    base = (0.0, 0.0, 0.0, 0.0)
    for _ in range(200):
        target = (rng.uniform(-6, 6), rng.uniform(-6, 6), rng.uniform(-2, 2))
        result = calculate_ik(GEOM, base, target, rng.uniform(-1.0, 0.5))
        tip, _ = forward_kinematics(GEOM, result.joints, base,
                                    validate=False)
        assert result.residual == pytest.approx(math.dist(tip, target),
                                                abs=1e-12)
        for name, value in result.joints.items():
            assert GEOM.in_range(name, value)


def test_unreachable_residual_is_distance_to_workspace_boundary():
    base = (0.0, 0.0, 0.0, 0.0)
    rng = np.random.default_rng(41)
    l12 = GEOM.boom_length + GEOM.stick_length
    for _ in range(200):
        radial = rng.uniform(4.2, 9.0)
        azimuth = rng.uniform(-1.0, 1.0)
        z = rng.uniform(-0.5, 0.5)
        angle = rng.uniform(-0.6, 0.6)
        target = (radial * math.cos(azimuth), radial * math.sin(azimuth), z)
        result = calculate_ik(GEOM, base, target, angle)
        assert not result.reached
        wr = radial - GEOM.bucket_length * math.cos(angle)
        wz = z - GEOM.bucket_length * math.sin(angle)
        shortfall = math.hypot(wr, wz) - l12
        assert result.residual == pytest.approx(shortfall, abs=1e-4)


def test_target_below_minimum_reach_not_reached():
    result = calculate_ik(GEOM, (0, 0, 0, 0), (0.05, 0.0, 0.0), -0.5)
    assert not result.reached
    assert result.residual > 0.0


def test_swing_follows_the_wrapped_target_azimuth():
    # heading 3.0 and a target at azimuth -3.0: the swing is the short way
    # round, across pi
    base = (0.0, 0.0, 0.0, 3.0)
    target = (3.0 * math.cos(-3.0), 3.0 * math.sin(-3.0), 0.5)
    result = calculate_ik(GEOM, base, target, -0.3)
    assert result.joints["swing"] == pytest.approx(2 * math.pi - 6.0,
                                                   abs=1e-12)


# -- exact clamp --------------------------------------------------------------

#: Range bounds: finite (an infinite one would reach the cosines of the
#: forward pass), NaN and signed zeros.
_BOUND = st.floats(allow_nan=True, allow_infinity=False)


@given(st.floats(-3.0, 3.0), _BOUND, _BOUND)
@example(0.5, math.nan, 1.0)
@example(0.5, 0.0, math.nan)
@example(0.0, -0.0, 1.0)
@example(0.0, -1.0, -0.0)
@example(0.5, 2.0, 1.0)
@settings(max_examples=500, deadline=None)
def test_swing_clamp_is_exactly_min_of_max(azimuth, lo, hi):
    geom = ArmGeometry()
    geom.joint_ranges["swing"] = (lo, hi)
    target = (3.0 * math.cos(azimuth), 3.0 * math.sin(azimuth), 0.5)
    swing = _wrapped(math.atan2(target[1], target[0]))
    result = calculate_ik(geom, (0.0, 0.0, 0.0, 0.0), target, -0.3)
    assert repr(result.joints["swing"]) == repr(min(max(swing, lo), hi))
