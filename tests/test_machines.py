import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regolith.machines import (
    ARRIVED,
    ArmDumpExecution,
    BedDumpExecution,
    DRIVE_RUNNING,
    DigExecution,
    FAILED,
    IDLE,
    LevelRunExecution,
    MachineSpec,
    MachineState,
    Pid,
    RUNNING,
    SUCCEEDED,
    blade_level_step,
    bucket_tip,
    default_spec,
    settle_on_terrain,
    spill_model,
    step_locomotion,
    transfer_bucket,
)
from regolith.machines.kinematics import (
    JOINT_NAMES,
    ArmGeometry,
    forward_kinematics,
)
from regolith.machines.locomotion import SUBCRAWLER_RATE, SUBCRAWLER_STOW
from regolith.machines import skills
from regolith.machines.skills import _tip_jacobian
from regolith.simulator import TELEMETRY_EVERY
from regolith.terrain import Heightfield, OutOfBounds, SoilParams, SweptCut

from terrain_bytes import elevation_bytes

SOIL = SoilParams()
DT = 0.01


def flat_field(height=2.0, n=48, cs=0.5):
    return Heightfield(n, n, cs, elevation=np.full((n, n), height))


def _mass(h, bank_density):
    """Terrain mass above z = 0: numpy's sum over every cell."""
    return float(np.sum(np.array(h.elevation))) * h.cell_size ** 2 \
        * bank_density


def machine(role="excavator", x=10.0, y=10.0, heading=0.0, h=None):
    spec = default_spec(f"{role}1", role)
    state = MachineState(x=x, y=y, heading=heading)
    if h is not None:
        settle_on_terrain(state, h)
        state.blade_height = state.z
    return spec, state


# -- spec validation ---------------------------------------------------------

def test_spec_rejects_loaded_faster_than_empty():
    with pytest.raises(ValueError):
        MachineSpec("m1", "excavator", speed_loaded=0.4, speed_empty=0.3)


def test_spec_rejects_unknown_role_and_bad_dims():
    with pytest.raises(ValueError):
        MachineSpec("m1", "crane")
    with pytest.raises(ValueError):
        MachineSpec("m1", "excavator", length=-1.0)


# -- locomotion --------------------------------------------------------------

def test_spec_keeps_torque_limits_as_floats():
    # a clamped torque is its limit, and samples.csv prints a torque with
    # repr: an int limit from a config file would lose its ".0"
    limits = dict.fromkeys(
        ("left_track", "right_track", "swing", "boom", "stick", "bucket",
         "bed", "blade"), 5000)
    spec = default_spec("excavator1", "excavator", torque_limits=limits)
    state = MachineState()
    state.set_sample("boom", 1e9, 0.0, spec.torque_limits["boom"])
    assert repr(state.samples["boom"].torque) == "5000.0"


def test_flat_straight_steady_empty_speed():
    h = flat_field()
    spec, state = machine(x=5.0, h=h)
    waypoints = [(20.0, 10.0)]
    idx = 0
    for _ in range(300):  # 3 s warm-up
        _, idx = step_locomotion(state, spec, waypoints, idx, h, SOIL, DT)
    assert state.speed == pytest.approx(0.35, abs=1e-6)
    assert state.track_speed_left == pytest.approx(state.track_speed_right)


def planar_field(grade, n=48, cs=0.5):
    """A plane rising along x by `grade` (rise over run)."""
    xs = (np.arange(n) + 0.5) * cs
    return Heightfield(n, n, cs,
                       elevation=np.tile(2.0 + grade * xs[:, None], (1, n)))


def track_torques_after_one_step(h):
    """Left and right track torque samples of an empty excavator taking
    one straight step along +x at (5, 10)."""
    spec, state = machine(x=5.0, h=h)
    step_locomotion(state, spec, [(20.0, 10.0)], 0, h, SOIL, DT)
    return (spec, state.samples["left_track"].torque,
            state.samples["right_track"].torque)


def test_grade_torque_term_on_ten_degree_slope():
    theta = math.radians(10.0)
    spec, flat_l, flat_r = track_torques_after_one_step(planar_field(0.0))
    _, slope_l, slope_r = track_torques_after_one_step(
        planar_field(math.tan(theta)))
    added = (slope_l + slope_r) - (flat_l + flat_r)
    expected = spec.mass * SOIL.gravity * math.sin(theta) * spec.wheel_radius
    assert added == pytest.approx(expected, rel=0.02)
    assert slope_l == pytest.approx(slope_r)


def test_zero_dt_leaves_state_unchanged():
    h = flat_field()
    spec, state = machine(x=5.0, h=h)
    before = (state.x, state.y, state.heading)
    step_locomotion(state, spec, [(20.0, 10.0)], 0, h, SOIL, 0.0)
    assert (state.x, state.y, state.heading) == before


def test_empty_route_is_idle():
    h = flat_field()
    spec, state = machine(h=h)
    status, idx = step_locomotion(state, spec, [], 0, h, SOIL, DT)
    assert status == IDLE
    assert state.speed == 0.0


def test_arrives_and_aligns_final_heading():
    h = flat_field()
    spec, state = machine(x=5.0, h=h)
    waypoints = [(8.0, 10.0), (11.0, 10.0, 1.2)]
    idx = 0
    status = None
    for _ in range(8000):
        status, idx = step_locomotion(state, spec, waypoints, idx, h, SOIL, DT)
        if status == ARRIVED:
            break
    assert status == ARRIVED
    assert math.hypot(state.x - 11.0, state.y - 10.0) <= 0.35
    assert abs(state.heading - 1.2) <= 0.12


def test_track_torque_samples_respect_limits():
    h = flat_field()
    spec, state = machine(x=5.0, h=h)
    spec.torque_limits["left_track"] = 50.0
    spec.torque_limits["right_track"] = 50.0
    idx = 0
    for _ in range(200):
        _, idx = step_locomotion(state, spec, [(20.0, 10.0)], idx, h, SOIL, DT)
        assert abs(state.samples["left_track"].torque) <= 50.0 + 1e-9
        assert abs(state.samples["right_track"].torque) <= 50.0 + 1e-9


def test_drive_onto_the_upper_grid_edge_stops_the_machine():
    # 9.5 + 0.5 m/s * 1 s lands exactly on the east edge, which lies in
    # the grid rectangle but in no cell: the machine must stop short
    h = Heightfield(10, 10, 1.0)
    spec = default_spec("truck1", "dumptruck", speed_empty=0.5)
    state = MachineState(x=9.5, y=5.0)
    settle_on_terrain(state, h)
    status, _ = step_locomotion(state, spec, [(20.0, 5.0)], 0, h, SOIL, 1.0)
    assert status == DRIVE_RUNNING
    assert (state.x, state.y) == (9.5, 5.0)
    assert state.speed == 0.0


def test_bed_dump_advance_onto_the_upper_grid_edge_stops_the_truck():
    h = Heightfield(10, 10, 1.0)
    spec = default_spec("truck1", "dumptruck", speed_empty=0.5,
                        speed_loaded=0.5)
    state = MachineState(x=9.5, y=5.0)
    settle_on_terrain(state, h)
    state.payload_kg = 100.0
    execution = BedDumpExecution(spec)
    while execution.phase != "advance":
        execution.step(state, h, SOIL, 1.0)
    execution.step(state, h, SOIL, 1.0)       # a 0.5 m advance to x = 10
    assert (state.x, state.y) == (9.5, 5.0)


def test_z_follows_terrain_under_centroid():
    rng = np.random.default_rng(2)
    h = Heightfield(48, 48, 0.5,
                    elevation=2.0 + 0.05 * rng.standard_normal((48, 48)))
    spec, state = machine(x=5.0, h=h)
    idx = 0
    for _ in range(500):
        _, idx = step_locomotion(state, spec, [(20.0, 10.0)], idx, h, SOIL, DT)
        assert state.z == pytest.approx(h.height_at(state.x, state.y),
                                        abs=1e-12)


def test_heading_wraps_across_pi_while_turning_in_place():
    h = flat_field()
    spec, state = machine(heading=math.pi - 0.05, h=h)
    final = -math.pi + 0.3          # 0.35 rad counterclockwise, across pi
    crossed = False
    for _ in range(500):
        status, _ = step_locomotion(state, spec, [(10.0, 10.0, final)], 0,
                                    h, SOIL, DT)
        assert -math.pi <= state.heading < math.pi
        crossed = crossed or state.heading < 0.0
        if status == ARRIVED:
            break
    assert status == ARRIVED and crossed
    assert abs(state.heading - final) <= 0.1
    assert (state.x, state.y) == (10.0, 10.0)


# -- sub-crawler stance ------------------------------------------------------

def test_subcrawler_stows_when_turning():
    h = flat_field()
    spec, state = machine(h=h)
    for _ in range(400):        # 4 s of a 3 rad turn in place
        status, _ = step_locomotion(state, spec, [(10.0, 10.0, 3.0)], 0, h,
                                    SOIL, DT)
        assert status == DRIVE_RUNNING
    assert state.sub_crawler_front == pytest.approx(SUBCRAWLER_STOW)
    assert state.sub_crawler_rear == pytest.approx(SUBCRAWLER_STOW)


def test_subcrawler_flat_straight_is_zero():
    h = flat_field()
    spec, state = machine(x=5.0, h=h)
    for _ in range(100):
        step_locomotion(state, spec, [(20.0, 10.0)], 0, h, SOIL, DT)
    assert state.sub_crawler_front == 0.0
    assert state.sub_crawler_rear == 0.0


def test_subcrawler_tracks_ramp_pitch_with_rate_limit():
    h = planar_field(math.tan(0.3))
    spec, state = machine(x=5.0, h=h)
    t = 0.0
    while state.sub_crawler_front < 0.3 - 1e-9:
        step_locomotion(state, spec, [(20.0, 10.0)], 0, h, SOIL, DT)
        t += DT
        assert state.pitch == pytest.approx(0.3, abs=1e-9)
        assert state.sub_crawler_front <= SUBCRAWLER_RATE * t + 1e-9
        assert state.sub_crawler_rear == state.sub_crawler_front
        assert t < 5.0
    assert t == pytest.approx(0.3 / SUBCRAWLER_RATE, abs=0.05)


# -- digging -----------------------------------------------------------------

def run_dig(spec, state, traj, h, max_steps=20000):
    execution = DigExecution(spec, traj)
    status = None
    removed = 0.0
    for _ in range(max_steps):
        status, got, _, _, _ = execution.step(state, h, SOIL, DT)
        removed += got
        if status != "Running":
            break
    return status, removed, execution


def test_dig_conserves_mass_into_bucket():
    h = flat_field(height=2.0)
    spec, state = machine(h=h)
    surface = 2.0
    traj = SweptCut(points=[(12.0, 10.0, surface - 0.15, 0.5),
                            (13.0, 10.0, surface - 0.15, 0.5)],
                    width=0.6, max_depth=0.3)
    before = _mass(h, SOIL.bank_density)
    status, removed, _ = run_dig(spec, state, traj, h)
    after = _mass(h, SOIL.bank_density)
    assert status == SUCCEEDED
    assert removed > 10.0
    assert state.payload_kg == pytest.approx(removed, rel=1e-12)
    assert before - after == pytest.approx(removed, rel=1e-9)


def test_dig_keeps_payload_a_plain_float():
    h = flat_field(height=2.0)
    spec, state = machine(h=h)
    traj = SweptCut(points=[(12.0, 10.0, 1.85, 0.5), (13.0, 10.0, 1.85, 0.5)],
                    width=0.6, max_depth=0.3)
    execution = DigExecution(spec, traj)
    for _ in range(20000):
        status, removed, _, _, _ = execution.step(state, h, SOIL, DT)
        assert type(removed) is float
        assert type(state.payload_kg) is float
        if status != "Running":
            break
    assert status == SUCCEEDED
    assert state.payload_kg > 10.0


def test_arm_skills_solve_the_ik_once_per_distinct_input(monkeypatch):
    # the dig's approach and raise, and a dump over a parked truck, ask
    # for the same solve step after step
    asked, solved = [], []
    ask, calculate_ik = skills._LastIk.__call__, skills.calculate_ik

    def recording_ask(self, pose, target, angle):
        asked.append((pose, target, angle))
        return ask(self, pose, target, angle)

    def counting_ik(geom, pose, target, angle):
        solved.append((pose, target, angle))
        return calculate_ik(geom, pose, target, angle)

    monkeypatch.setattr(skills._LastIk, "__call__", recording_ask)
    monkeypatch.setattr(skills, "calculate_ik", counting_ik)
    h = flat_field(height=2.0)
    spec, state = machine(h=h)
    traj = SweptCut(points=[(12.0, 10.0, 1.85, 0.5), (13.0, 10.0, 1.85, 0.5)],
                    width=0.6, max_depth=0.3)
    status, removed, _ = run_dig(spec, state, traj, h)
    assert status == SUCCEEDED and removed > 10.0
    truck_spec, truck = machine("dumptruck", x=12.8, y=11.5, heading=1.0,
                                h=h)
    dump = ArmDumpExecution(spec, (truck_spec, truck), None)
    for _ in range(5000):
        status = dump.step(state, h, SOIL, DT)[0]
        if status != RUNNING:
            break
    assert status == SUCCEEDED and truck.payload_kg > 0.0
    assert len(solved) == len(set(asked)) < len(asked)


def test_dig_fully_above_surface_succeeds_with_zero():
    h = flat_field(height=2.0)
    spec, state = machine(h=h)
    traj = SweptCut(points=[(12.0, 10.0, 2.5, 0.5), (13.0, 10.0, 2.5, 0.5)],
                    width=0.6)
    before = np.array(h.elevation)
    status, removed, _ = run_dig(spec, state, traj, h)
    assert status == SUCCEEDED
    assert removed == 0.0
    assert np.array_equal(h.elevation, before)


def test_dig_unreachable_start_fails_without_terrain_change():
    h = flat_field(height=2.0)
    spec, state = machine(h=h)
    traj = SweptCut(points=[(20.0, 10.0, 1.85, 0.5), (21.0, 10.0, 1.85, 0.5)],
                    width=0.6)
    before = np.array(h.elevation)
    status, removed, _ = run_dig(spec, state, traj, h, max_steps=100)
    assert status == FAILED
    assert removed == 0.0
    assert np.array_equal(h.elevation, before)


def test_dig_torque_samples_within_limits():
    h = flat_field(height=2.0)
    spec, state = machine(h=h)
    traj = SweptCut(points=[(12.0, 10.0, 1.85, 0.5), (13.0, 10.0, 1.85, 0.5)],
                    width=0.6, max_depth=0.3)
    execution = DigExecution(spec, traj)
    for _ in range(20000):
        status = execution.step(state, h, SOIL, DT)[0]
        for name in ("swing", "boom", "stick", "bucket"):
            assert abs(state.samples[name].torque) \
                <= spec.torque_limits[name] + 1e-9
        if status != "Running":
            break


def test_dig_is_deterministic():
    results = []
    for _ in range(2):
        h = flat_field(height=2.0)
        spec, state = machine(h=h)
        traj = SweptCut(points=[(12.0, 10.0, 1.85, 0.5),
                                (13.0, 10.0, 1.85, 0.5)],
                        width=0.6, max_depth=0.3)
        _, removed, _ = run_dig(spec, state, traj, h)
        results.append((removed, state.payload_kg, tuple(state.joints.values()),
                        np.array(h.elevation).tobytes()))
    assert results[0] == results[1]


# -- spill -------------------------------------------------------------------

def test_spill_zero_below_threshold():
    h = flat_field()
    spec, state = machine(h=h)
    state.payload_kg = 70.0
    spilled, lost = spill_model(state, spec, 0.2, h, SOIL, DT)
    assert spilled == 0.0 and lost == 0.0
    assert state.payload_kg == 70.0


def test_spill_conserves_mass():
    h = flat_field()
    spec, state = machine(h=h)
    state.payload_kg = 70.0
    terrain_before = _mass(h, SOIL.bank_density)
    spilled_total = 0.0
    for _ in range(100):
        spilled, lost = spill_model(state, spec, 1.0, h, SOIL, DT)
        assert lost == 0.0
        spilled_total += spilled
    assert spilled_total > 0.0
    assert state.payload_kg == pytest.approx(70.0 - spilled_total, rel=1e-12)
    gained = _mass(h, SOIL.bank_density) - terrain_before
    assert gained == pytest.approx(spilled_total, rel=1e-9)


# -- payload transfer and bed dump -------------------------------------------

def test_transfer_into_bed_when_over_it():
    h = flat_field()
    exc_spec, exc = machine(h=h)
    exc.joints = {"swing": 0.0, "boom": 0.4, "stick": -0.5, "bucket": -0.6}
    exc.payload_kg = 64.0
    tip = bucket_tip(exc_spec, exc)
    truck_spec, truck = machine("dumptruck", x=tip[0], y=tip[1], h=h)
    moved, into_truck, lost = transfer_bucket(exc, exc_spec, truck, truck_spec,
                                              h, SOIL)
    assert into_truck and lost == 0.0
    assert moved == 64.0
    assert truck.payload_kg == 64.0
    assert exc.payload_kg == 0.0


def test_transfer_misses_bed_and_lands_on_terrain():
    h = flat_field()
    exc_spec, exc = machine(h=h)
    exc.joints = {"swing": 0.0, "boom": 0.4, "stick": -0.5, "bucket": -0.6}
    exc.payload_kg = 64.0
    truck_spec, truck = machine("dumptruck", x=2.0, y=2.0, h=h)
    before = _mass(h, SOIL.bank_density)
    moved, into_truck, lost = transfer_bucket(exc, exc_spec, truck, truck_spec,
                                              h, SOIL)
    assert not into_truck
    assert truck.payload_kg == 0.0
    gained = _mass(h, SOIL.bank_density) - before
    assert gained + lost == pytest.approx(64.0, rel=1e-9)


def test_bed_dump_sequence_duration_and_conservation():
    h = flat_field()
    spec, state = machine("dumptruck", h=h)
    state.payload_kg = 200.0
    before = _mass(h, SOIL.bank_density)
    execution = BedDumpExecution(spec)
    steps = 0
    dumped_total = lost_total = 0.0
    while True:
        status, _, dumped, _, lost = execution.step(state, h, SOIL, DT)
        dumped_total += dumped
        lost_total += lost
        steps += 1
        assert steps < 10000
        if status == SUCCEEDED:
            break
    duration = (2 * spec.bed_raise_time + spec.bed_hold_time
                + BedDumpExecution.ADVANCE_DIST / spec.speed_loaded)
    assert steps * DT == pytest.approx(duration, abs=0.1)
    assert state.payload_kg == pytest.approx(0.0, abs=1e-9)
    assert state.bed_angle == 0.0
    gained = _mass(h, SOIL.bank_density) - before
    assert gained + lost_total == pytest.approx(200.0, rel=1e-9)
    assert dumped_total == pytest.approx(200.0, rel=1e-12)


def test_bed_dump_empty_bed_succeeds_with_zero():
    h = flat_field()
    spec, state = machine("dumptruck", h=h)
    execution = BedDumpExecution(spec)
    dumped_total = 0.0
    while True:
        status, _, dumped, _, _ = execution.step(state, h, SOIL, DT)
        dumped_total += dumped
        if status == SUCCEEDED:
            break
    assert dumped_total == 0.0


# -- blade leveling ----------------------------------------------------------

def pid_oracle(kp, ki, kd, out_limit, errors, dt):
    """Independent discrete PID (conditional-integration anti-windup)."""
    integral = 0.0
    prev = None
    outs = []
    for e in errors:
        deriv = 0.0 if prev is None else (e - prev) / dt
        prev = e
        trial = integral + e * dt
        unsat = kp * e + ki * trial + kd * deriv
        if not ((unsat > out_limit and e > 0)
                or (unsat < -out_limit and e < 0)):
            integral = trial
        out = kp * e + ki * integral + kd * deriv
        outs.append(max(min(out, out_limit), -out_limit))
    return outs


def test_pid_matches_discrete_oracle():
    rng = np.random.default_rng(8)
    errors = rng.uniform(-1, 1, 50)
    pid = Pid(1.5, 0.4, out_limit=0.8)
    got = [pid.update(e, DT) for e in errors]
    expected = pid_oracle(1.5, 0.4, 0.0, 0.8, errors, DT)
    assert got == pytest.approx(expected, abs=1e-12)


def test_pid_zero_error_zero_output():
    pid = Pid(2.0, 0.5, out_limit=0.3)
    assert pid.update(0.0, DT) == 0.0


def test_pid_step_response_converges_without_steady_state_error():
    pid = Pid(2.0, 0.5, out_limit=0.3)
    height, target = 0.0, 0.5
    trace = []
    for _ in range(3000):
        height += pid.update(target - height, DT) * DT
        trace.append(height)
    assert abs(target - height) < 1e-3
    assert max(trace) <= target + 0.02  # effectively monotone approach


def test_blade_run_levels_cells_to_target():
    h = flat_field(height=2.0)
    spec, state = machine(x=5.0, y=10.0, h=h)
    target = 1.92
    pid = Pid(3.0, 0.8, out_limit=0.25)
    terrain_before = _mass(h, SOIL.bank_density)
    graded_total = shed_total = lost_total = 0.0
    for _ in range(4000):  # drive 12 m at 0.3 m/s
        state.x += 0.3 * DT
        state.track_speed_left = state.track_speed_right = 0.3
        settle_on_terrain(state, h)
        graded, shed, lost = blade_level_step(state, spec, target, h, SOIL,
                                              pid, DT)
        graded_total += graded
        shed_total += shed
        lost_total += lost
        if state.x > 17.0:
            break
    assert graded_total > 0.0
    # cells along the run (excluding the start transient) sit at the target
    for x in np.arange(8.0, 16.0, 0.5):
        assert h.height_at(x, 10.0) == pytest.approx(target, abs=0.02)
    terrain_after = _mass(h, SOIL.bank_density)
    expected_delta = -graded_total + shed_total - lost_total
    assert terrain_after - terrain_before == pytest.approx(expected_delta,
                                                           abs=1e-6)
    assert state.blade_load_kg <= spec.blade_capacity_kg + 1e-9


# -- plain-float step kernel against its reference forms ----------------------

_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@given(_ANY_FLOAT, _ANY_FLOAT)
@example(math.nan, 10.0)
@example(1.0, math.nan)
@example(-0.0, 0.0)
@example(0.0, -0.0)
@example(-0.0, math.inf)
@example(math.inf, 10.0)
@settings(max_examples=500, deadline=None)
def test_set_sample_clamps_exactly_like_min_of_max(torque, limit):
    state = MachineState()
    state.set_sample("boom", torque, 0.5, limit)
    assert repr(state.samples["boom"].torque) \
        == repr(min(max(torque, -limit), limit))


def test_clear_samples_zeroes_what_was_set_since_the_last_clear():
    state = MachineState()
    state.clear_samples()                       # nothing set: no change
    assert all(s.torque == 0.0 and s.omega == 0.0
               for s in state.samples.values())
    state.set_sample("swing", 12.0, -0.5, 100.0)
    state.set_sample("bed", -3.0, 0.25, 100.0)
    state.clear_samples()
    assert [(s.torque, s.omega) for s in state.samples.values()] \
        == [(0.0, 0.0)] * len(state.samples)
    state.set_sample("blade", 7.0, 1.0, 100.0)
    state.clear_samples()
    assert state.samples["blade"].torque == 0.0
    assert state.samples["blade"].omega == 0.0


def _reference_tip_jacobian(geom, joints, base_pose):
    """The tip and its Jacobian from five full forward-kinematics passes."""
    eps = 1e-6
    base_tip, _ = forward_kinematics(geom, joints, base_pose, validate=False)
    cols = {}
    for name in JOINT_NAMES:
        bumped = dict(joints)
        bumped[name] += eps
        tip, _ = forward_kinematics(geom, bumped, base_pose, validate=False)
        cols[name] = tuple((tip[k] - base_tip[k]) / eps for k in range(3))
    return base_tip, cols


def test_fused_tip_jacobian_matches_five_forward_passes():
    rng = np.random.default_rng(17)
    for _ in range(500):
        geom = ArmGeometry(boom_length=rng.uniform(0.5, 3.0),
                           stick_length=rng.uniform(0.5, 2.5),
                           bucket_length=rng.uniform(0.2, 1.0),
                           pivot_forward=rng.uniform(-1.0, 1.0),
                           pivot_up=rng.uniform(-1.0, 1.0))
        joints = {name: rng.uniform(-3.0, 3.0) for name in JOINT_NAMES}
        pose = (rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0),
                rng.uniform(-5.0, 5.0), rng.uniform(-math.pi, math.pi))
        assert repr(_tip_jacobian(geom, joints, pose)) \
            == repr(_reference_tip_jacobian(geom, joints, pose))


# -- sampling on the telemetry cadence against sampling every step -----------

def _state_bits(state):
    """Every field but the samples as text: equal only for bit-equal
    floats, NaN and signed zeros included."""
    return repr([getattr(state, f.name) for f in dataclasses.fields(state)
                 if f.name != "samples"])


def _sample_bits(state):
    return repr([(name, s.torque, s.omega)
                 for name, s in state.samples.items()])


def _step_both(make, max_steps, perturb=None):
    """Steps two copies from the same start.  The reference samples every
    step, clearing the samples first, as each machine did before sampling
    followed the telemetry cadence.  The other samples only on the steps a
    simulator logs (`TELEMETRY_EVERY`), clearing them on those alone.
    After every step both have the same result, state and terrain bytes;
    after a logged step, the same samples.

    make() -> (terrain, states, step(k) -> result); perturb(states, k)
    runs on both copies before step k.  Returns the first Succeeded or
    Failed result, else the last."""
    ref_h, ref_states, ref_step = make()
    h, states, step = make()
    for k in range(max_steps):
        logged = (k + 1) % TELEMETRY_EVERY == 0
        if perturb is not None:
            perturb(ref_states, k)
            perturb(states, k)
        for ref_state, state in zip(ref_states, states):
            ref_state.clear_samples()
            state.sampling = logged
            if logged:
                state.clear_samples()
        expected, got = ref_step(k), step(k)
        assert repr(got) == repr(expected), k
        assert elevation_bytes(h) == elevation_bytes(ref_h), k
        for ref_state, state in zip(ref_states, states):
            assert _state_bits(state) == _state_bits(ref_state), k
            if logged:
                assert _sample_bits(state) == _sample_bits(ref_state), k
        if got[0] in (SUCCEEDED, FAILED):
            return got
    return got


def _dig_world():
    h = flat_field(height=2.0)
    spec, state = machine(h=h)
    # off the machine's axis, so that the swing moves
    traj = SweptCut(points=[(12.0, 10.8, 1.85, 0.5), (12.9, 11.3, 1.85, 0.5)],
                    width=0.6, max_depth=0.3)
    execution = DigExecution(spec, traj)
    return h, [state], lambda k: execution.step(state, h, SOIL, DT)


def test_dig_samples_on_the_cadence_like_every_step():
    assert _step_both(_dig_world, 20000)[0] == SUCCEEDED


@pytest.mark.parametrize("fail_at", [399, 404])
def test_dig_ik_failure_mid_cut_samples_like_every_step(fail_at):
    # the cut runs from step 290 to 822; moving the machine 6 m back puts
    # the trajectory out of reach, on a logged step (399) or not (404)
    def perturb(states, k):
        if k == fail_at:
            states[0].x -= 6.0

    assert _step_both(_dig_world, 20000, perturb) \
        == (FAILED, 0.0, 0.0, 0.0, 0.0)


def _arm_dump_world(to_truck, unreachable_from=None):
    def make():
        h = flat_field()
        spec, state = machine(h=h)
        state.payload_kg = 80.0
        truck_spec, truck = machine("dumptruck", x=12.8, y=11.5,
                                    heading=1.0, h=h)
        execution = ArmDumpExecution(
            spec, (truck_spec, truck) if to_truck else None,
            None if to_truck else (8.0, 12.5))

        def step(k):
            if unreachable_from is not None and k >= unreachable_from:
                execution.point = (40.0, 40.0)
            return (*execution.step(state, h, SOIL, DT), execution.result)
        return h, [state, truck], step
    return make


def test_arm_dump_into_truck_samples_on_the_cadence_like_every_step():
    status, _, dumped, _, _, result = _step_both(
        _arm_dump_world(to_truck=True), 5000)
    assert status == SUCCEEDED and result["into_truck"]
    assert result["dumped_kg"] > 0.0 and dumped == 0.0


def test_arm_dump_at_point_samples_on_the_cadence_like_every_step():
    status, _, dumped, _, _, result = _step_both(
        _arm_dump_world(to_truck=False), 5000)
    assert status == SUCCEEDED and not result["into_truck"]
    assert dumped == result["dumped_kg"] > 0.0


@pytest.mark.parametrize("fail_at", [119, 123])
def test_arm_dump_ik_failure_samples_like_every_step(fail_at):
    result = _step_both(_arm_dump_world(False, unreachable_from=fail_at),
                        5000)
    assert result[:5] == (FAILED, 0.0, 0.0, 0.0, 0.0)


def _arm_rates_when_failed(make, perturb=None):
    """Steps a world's first machine on the telemetry cadence until its
    skill ends, which must be Failed on a logged step; returns the arm
    joint rates sampled on that step."""
    h, states, step = make()
    state = states[0]
    for k in range(20000):
        if perturb is not None:
            perturb(states, k)
        state.sampling = (k + 1) % TELEMETRY_EVERY == 0
        if state.sampling:
            state.clear_samples()
        result = step(k)
        if result[0] != RUNNING:
            break
    assert result[0] == FAILED and state.sampling
    return {name: state.samples[name].omega
            for name in ("swing", "boom", "stick", "bucket")}


def test_dig_ik_failure_samples_a_still_arm():
    # the arm is moving along the cut when the trajectory goes out of reach
    # on logged step 399; the failed step does not move it
    def perturb(states, k):
        if k == 399:
            states[0].x -= 6.0

    assert _arm_rates_when_failed(_dig_world, perturb) == \
        {"swing": 0.0, "boom": 0.0, "stick": 0.0, "bucket": 0.0}


def test_arm_dump_ik_failure_samples_a_still_arm():
    # the arm is swinging toward the point when it moves out of reach on
    # logged step 119
    make = _arm_dump_world(to_truck=False, unreachable_from=119)
    assert _arm_rates_when_failed(make) == \
        {"swing": 0.0, "boom": 0.0, "stick": 0.0, "bucket": 0.0}


def test_bed_dump_samples_on_the_cadence_like_every_step():
    def make():
        h = flat_field()
        spec, state = machine("dumptruck", h=h)
        state.payload_kg = 200.0
        execution = BedDumpExecution(spec)
        return h, [state], lambda k: execution.step(state, h, SOIL, DT)

    assert _step_both(make, 10000)[0] == SUCCEEDED


def test_level_run_samples_on_the_cadence_like_every_step():
    def make():
        h = flat_field()
        spec, state = machine(x=5.0, h=h)
        execution = LevelRunExecution(spec, (6.0, 10.0), (9.0, 10.0), 1.92)
        return h, [state], lambda k: execution.step(state, h, SOIL, DT)

    assert _step_both(make, 10000)[0] == SUCCEEDED


def test_locomotion_samples_on_the_cadence_like_every_step():
    # a slope under a loaded truck, a turn in place, a final heading, then
    # an empty route: every branch that sets track samples
    statuses = set()

    def make():
        n, cs = 48, 0.5
        h = Heightfield(n, n, cs, elevation=np.fromfunction(
            lambda i, j: 2.0 + 0.12 * i * cs - 0.05 * j * cs, (n, n)))
        spec, state = machine("dumptruck", x=6.0, y=6.0, h=h)
        state.payload_kg = 300.0
        route = [(11.0, 7.0), (10.0, 11.0, math.pi)]
        index = [0]

        def step(k):
            status, index[0] = step_locomotion(
                state, spec, route if k < 4000 else [], index[0], h, SOIL,
                DT)
            statuses.add(status)
            return status, index[0]
        return h, [state], step

    assert _step_both(make, 4050) == (IDLE, 1)
    assert statuses == {DRIVE_RUNNING, ARRIVED, IDLE}
