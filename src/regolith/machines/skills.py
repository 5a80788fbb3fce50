"""Machine skill executions: dig, payload transfer/dump, spill, leveling.

Each execution object is advanced once per simulator timestep and reports
Running/Succeeded/Failed; all terrain exchanges return the moved mass so
the caller can keep a global mass ledger.
"""

from __future__ import annotations

import math
from typing import Optional

from ..terrain import (
    Heightfield,
    SoilParams,
    SweptCut,
    deposit,
    dig_resistance,
    excavate_swept,
)
from .kinematics import forward_kinematics, calculate_ik
from .locomotion import settle_on_terrain
from .specs import MachineSpec, MachineState

RUNNING = "Running"
SUCCEEDED = "Succeeded"
FAILED = "Failed"

#: IK position residual tolerated while tracking a trajectory (m).
TRACK_IK_TOL = 0.05
#: Joint error below which an arm move counts as settled (rad).
JOINT_SETTLED_TOL = 2e-3
#: Pre-approach offset before/above the trajectory start (m).
APPROACH_BACK = 0.30
APPROACH_UP = 0.25
#: Bucket raise above the cut end while carrying (m).
CARRY_RAISE = 0.50
CARRY_CURL = 0.80      # extra downward tool curl holding material (rad)
#: Equivalent swing inertia of the house + arm without payload (kg*m^2).
SWING_INERTIA = 400.0

_ARM_JOINTS = ("swing", "boom", "stick", "bucket")


# -- arm motion and torque bookkeeping --------------------------------------

def move_arm_toward(state: MachineState, spec: MachineSpec, targets: dict,
                    dt: float) -> float:
    """Rate-limited joint motion (trapezoidal accel profile on the swing).

    Returns the largest remaining joint error (rad); joint omega samples
    are refreshed on the state.
    """
    omegas = {}
    max_err = 0.0
    for name in ("boom", "stick", "bucket"):
        err = targets[name] - state.joints[name]
        step = min(max(err, -spec.arm_joint_speed * dt),
                   spec.arm_joint_speed * dt)
        state.joints[name] += step
        omegas[name] = step / dt if dt > 0 else 0.0
        max_err = max(max_err, abs(targets[name] - state.joints[name]))

    err = targets["swing"] - state.joints["swing"]
    # velocity that can still brake to zero at the target
    v_des = math.copysign(
        min(spec.arm_joint_speed, math.sqrt(2.0 * spec.swing_accel * abs(err))),
        err)
    dv = min(max(v_des - state.swing_rate, -spec.swing_accel * dt),
             spec.swing_accel * dt)
    state.swing_rate += dv
    step = state.swing_rate * dt
    if abs(err) <= abs(step) or abs(err) < 1e-6:
        state.joints["swing"] = targets["swing"]
        state.swing_rate = 0.0
        omegas["swing"] = err / dt if dt > 0 else 0.0
    else:
        state.joints["swing"] += step
        omegas["swing"] = state.swing_rate
    max_err = max(max_err, abs(targets["swing"] - state.joints["swing"]))
    state._arm_omegas = omegas  # consumed by record_arm_samples
    return max_err


def _tip_jacobian(geom, joints, base_pose):
    """Numeric Jacobian d(tip)/d(joint) for the four arm joints."""
    eps = 1e-6
    base_tip, _ = forward_kinematics(geom, joints, base_pose, validate=False)
    cols = {}
    for name in _ARM_JOINTS:
        bumped = dict(joints)
        bumped[name] += eps
        tip, _ = forward_kinematics(geom, bumped, base_pose, validate=False)
        cols[name] = tuple((tip[k] - base_tip[k]) / eps for k in range(3))
    return cols


def record_arm_samples(state: MachineState, spec: MachineSpec,
                       soil: SoilParams, ext_force=(0.0, 0.0, 0.0),
                       swing_alpha: float = 0.0) -> None:
    """Joint torque samples from static equilibrium via the Jacobian
    transpose: the arm must exert ``ext_force`` on the environment and hold
    the payload weight; the swing additionally carries an inertial term."""
    geom = spec.arm
    jac = _tip_jacobian(geom, state.joints, state.pose)
    load = state.payload_kg
    fx = ext_force[0]
    fy = ext_force[1]
    fz = ext_force[2] + load * soil.gravity
    omegas = getattr(state, "_arm_omegas", None) or \
        dict.fromkeys(_ARM_JOINTS, 0.0)
    tip, _ = forward_kinematics(geom, state.joints, state.pose, validate=False)
    r_tip = math.hypot(tip[0] - state.x, tip[1] - state.y)
    for name in _ARM_JOINTS:
        jx, jy, jz = jac[name]
        tau = jx * fx + jy * fy + jz * fz
        if name == "swing":
            tau += (SWING_INERTIA + load * r_tip ** 2) * swing_alpha
        state.set_sample(name, tau, omegas.get(name, 0.0),
                         spec.torque_limits[name])


# -- digging ----------------------------------------------------------------

class DigExecution:
    """Tracks the bucket tip along a pre-approach point and a swept-cut
    trajectory, excavating terrain into the bucket."""

    def __init__(self, spec: MachineSpec, trajectory: SweptCut):
        if len(trajectory.points) < 2:
            raise ValueError("dig trajectory needs at least 2 points")
        self.spec = spec
        self.traj = trajectory
        p0, p1 = trajectory.points[0], trajectory.points[1]
        ux, uy = p1[0] - p0[0], p1[1] - p0[1]
        norm = math.hypot(ux, uy)
        ux, uy = ux / norm, uy / norm
        # The tip needs a lead-in at cut depth before the first planned
        # point: while descending from the approach pose it lags the
        # moving target, and without the lead-in it would cross the first
        # footprint cells above the surface and remove nothing there.
        entry = (p0[0] - APPROACH_BACK * ux, p0[1] - APPROACH_BACK * uy,
                 p0[2], p0[3])
        self.path = [entry] + list(trajectory.points)
        self.approach = (entry[0], entry[1], entry[2] + APPROACH_UP, p0[3])
        self.arcs = [0.0]
        for a, b in zip(self.path, self.path[1:]):
            self.arcs.append(self.arcs[-1]
                             + math.hypot(b[0] - a[0], b[1] - a[1]))
        self.length = self.arcs[-1]
        self.phase = "approach"
        self.s = 0.0
        self.prev_tip: Optional[tuple] = None
        self.removed_total = 0.0
        self.prev_swing_rate = 0.0

    def _point_at(self, s: float):
        pts = self.path
        s = min(max(s, 0.0), self.length)
        for k in range(len(pts) - 1):
            if s <= self.arcs[k + 1] or k == len(pts) - 2:
                seg = self.arcs[k + 1] - self.arcs[k]
                f = (s - self.arcs[k]) / seg if seg > 0 else 0.0
                a, b = pts[k], pts[k + 1]
                return (a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1]),
                        a[2] + f * (b[2] - a[2]), a[3] + f * (b[3] - a[3]))
        return pts[-1]

    def step(self, state: MachineState, h: Heightfield, soil: SoilParams,
             dt: float):
        """One timestep; returns (status, removed_kg, DigForce|None)."""
        spec = self.spec
        if self.phase == "approach":
            x, y, z, attack = self.approach
            tgt_angle = -attack
        elif self.phase == "cut":
            self.s += spec.dig_speed * dt
            x, y, z, attack = self._point_at(self.s)
            tgt_angle = -attack
        else:  # raise
            xe, ye, ze, attack = self.traj.points[-1]
            x, y, z = xe, ye, ze + CARRY_RAISE
            tgt_angle = max(-attack - CARRY_CURL,
                            spec.arm.joint_ranges["bucket"][0] + 0.1)

        ik = calculate_ik(spec.arm, state.pose, (x, y, z), tgt_angle)
        if ik.residual > TRACK_IK_TOL:
            record_arm_samples(state, spec, soil)
            return FAILED, 0.0, None
        err = move_arm_toward(state, spec, ik.joints, dt)
        tip, _ = forward_kinematics(spec.arm, state.joints, state.pose,
                                    validate=False)
        swing_alpha = (state.swing_rate - self.prev_swing_rate) / dt \
            if dt > 0 else 0.0
        self.prev_swing_rate = state.swing_rate

        removed = 0.0
        force = None
        if self.phase == "approach":
            record_arm_samples(state, spec, soil, swing_alpha=swing_alpha)
            if err < JOINT_SETTLED_TOL:
                self.phase = "cut"
                self.prev_tip = tip
            return RUNNING, 0.0, None

        if self.phase == "cut":
            prev = self.prev_tip or tip
            advance = math.hypot(tip[0] - prev[0], tip[1] - prev[1])
            depth = max(0.0, h.height_at(tip[0], tip[1]) - tip[2])
            attack_c = min(max(attack, 0.06), math.pi / 2 - 0.06)
            force = dig_resistance(depth, self.traj.width, attack_c, soil)
            if advance > 1e-9:
                step_cut = SweptCut(
                    points=[(prev[0], prev[1], prev[2], attack_c),
                            (tip[0], tip[1], tip[2], attack_c)],
                    width=self.traj.width, max_depth=self.traj.max_depth)
                removed = excavate_swept(h, step_cut, soil)
                state.payload_kg += removed
                self.removed_total += removed
                self.prev_tip = tip
            # resistance opposes the horizontal tip motion
            if advance > 1e-9:
                ux, uy = (tip[0] - prev[0]) / advance, (tip[1] - prev[1]) / advance
            else:
                ux = uy = 0.0
            ext = (force.resistance * ux, force.resistance * uy,
                   -force.normal)
            record_arm_samples(state, spec, soil, ext_force=ext,
                               swing_alpha=swing_alpha)
            if self.s >= self.length and err < JOINT_SETTLED_TOL:
                self.phase = "raise"
            return RUNNING, removed, force

        record_arm_samples(state, spec, soil, swing_alpha=swing_alpha)
        if err < JOINT_SETTLED_TOL:
            return SUCCEEDED, 0.0, None
        return RUNNING, 0.0, None


# -- spilling ---------------------------------------------------------------

def spill_model(state: MachineState, spec: MachineSpec, angular_accel: float,
                h: Heightfield, soil: SoilParams, dt: float,
                at=None) -> tuple[float, float]:
    """Payload shed under chassis/swing angular acceleration.

    Returns (spilled_kg, boundary_lost_kg); spilled material is deposited
    on the terrain at ``at`` (default: machine position).
    """
    if state.payload_kg <= 0.0:
        return 0.0, 0.0
    excess = abs(angular_accel) - spec.spill_accel_threshold
    if excess <= 0.0:
        return 0.0, 0.0
    spilled = min(spec.spill_rate * state.payload_kg * excess * dt,
                  state.payload_kg)
    if spilled <= 0.0:
        return 0.0, 0.0
    state.payload_kg -= spilled
    x, y = (at if at is not None else (state.x, state.y))
    if h.in_bounds(x, y):
        lost = deposit(h, x, y, spilled, soil, spread_radius=0.5)
    else:
        lost = spilled
    return spilled, lost


# -- payload transfer and bed dump ------------------------------------------

def bucket_tip(spec: MachineSpec, state: MachineState):
    tip, _ = forward_kinematics(spec.arm, state.joints, state.pose,
                                validate=False)
    return tip


def in_bed_footprint(truck_state: MachineState, truck_spec: MachineSpec,
                     x: float, y: float) -> bool:
    dx, dy = x - truck_state.x, y - truck_state.y
    ch, sh = math.cos(truck_state.heading), math.sin(truck_state.heading)
    longi = dx * ch + dy * sh
    lat = -dx * sh + dy * ch
    return (abs(longi) <= truck_spec.bed_length / 2.0 + 0.3
            and abs(lat) <= truck_spec.bed_width / 2.0 + 0.3)


def transfer_bucket(exc_state: MachineState, exc_spec: MachineSpec,
                    truck_state: Optional[MachineState],
                    truck_spec: Optional[MachineSpec],
                    h: Heightfield, soil: SoilParams):
    """Open the bucket: into the truck bed when the tip is over it,
    otherwise onto the terrain.  Returns (mass_kg, into_truck, lost_kg)."""
    mass = exc_state.payload_kg
    if mass <= 0.0:
        return 0.0, True, 0.0
    tip = bucket_tip(exc_spec, exc_state)
    exc_state.payload_kg = 0.0
    if truck_state is not None and truck_spec is not None \
            and in_bed_footprint(truck_state, truck_spec, tip[0], tip[1]):
        truck_state.payload_kg += mass
        return mass, True, 0.0
    if h.in_bounds(tip[0], tip[1]):
        lost = deposit(h, tip[0], tip[1], mass, soil, spread_radius=0.5)
    else:
        lost = mass
    return mass, False, lost


class BedDumpExecution:
    """Truck bed dump: raise, hold raised while material flows out, advance
    with the bed still raised, lower."""

    BED_RAISED = 0.9       # rad
    ADVANCE_DIST = 1.0     # m

    def __init__(self, spec: MachineSpec):
        self.spec = spec
        self.phase = "raise"
        self.timer = 0.0
        self.flow_rate = None
        self.advanced = 0.0

    def duration(self) -> float:
        return (2 * self.spec.bed_raise_time + self.spec.bed_hold_time
                + self.ADVANCE_DIST / self.spec.speed_loaded)

    def _dump_point(self, state: MachineState):
        back = self.spec.length / 2.0 + 0.4
        return (state.x - back * math.cos(state.heading),
                state.y - back * math.sin(state.heading))

    def _flow(self, state, h, soil, dt):
        if self.flow_rate is None:
            self.flow_rate = state.payload_kg / max(self.spec.bed_hold_time,
                                                    1e-9)
        out = min(self.flow_rate * dt, state.payload_kg)
        if out <= 0.0:
            return 0.0, 0.0
        state.payload_kg -= out
        x, y = self._dump_point(state)
        if h.in_bounds(x, y):
            lost = deposit(h, x, y, out, soil, spread_radius=0.6)
        else:
            lost = out
        return out, lost

    def step(self, state: MachineState, h: Heightfield, soil: SoilParams,
             dt: float):
        """Returns (status, dumped_kg, lost_kg)."""
        spec = self.spec
        rate = self.BED_RAISED / spec.bed_raise_time
        dumped = lost = 0.0
        if self.phase == "raise":
            state.bed_angle = min(state.bed_angle + rate * dt, self.BED_RAISED)
            state.set_sample("bed",
                             state.payload_kg * soil.gravity * 0.8
                             * math.cos(state.bed_angle),
                             rate, spec.torque_limits["bed"])
            if state.bed_angle >= self.BED_RAISED:
                self.phase = "hold"
                self.timer = 0.0
        elif self.phase == "hold":
            self.timer += dt
            dumped, lost = self._flow(state, h, soil, dt)
            state.set_sample("bed", state.payload_kg * soil.gravity * 0.8
                             * math.cos(state.bed_angle), 0.0,
                             spec.torque_limits["bed"])
            if self.timer >= spec.bed_hold_time:
                self.phase = "advance"
        elif self.phase == "advance":
            v = spec.speed_loaded
            step = min(v * dt, self.ADVANCE_DIST - self.advanced)
            nx = state.x + step * math.cos(state.heading)
            ny = state.y + step * math.sin(state.heading)
            if h.in_bounds(nx, ny):
                state.x, state.y = nx, ny
                settle_on_terrain(state, h)
            self.advanced += step
            dumped, lost = self._flow(state, h, soil, dt)
            if self.advanced >= self.ADVANCE_DIST - 1e-9:
                self.phase = "lower"
        else:  # lower
            state.bed_angle = max(state.bed_angle - rate * dt, 0.0)
            state.set_sample("bed", state.payload_kg * soil.gravity * 0.8
                             * math.cos(state.bed_angle), -rate,
                             spec.torque_limits["bed"])
            if state.bed_angle <= 0.0:
                return SUCCEEDED, dumped, lost
        return RUNNING, dumped, lost


class ArmDumpExecution:
    """Swing the loaded bucket over the offload point and release.

    The offload point is the truck bed center (tracked live) or a fixed
    terrain point.  Returns per step (status, released_kg, into_truck,
    lost_kg, spilled_kg).
    """

    RELEASE_HEIGHT = 1.0   # m above the bed / ground
    DUMP_TOOL_ANGLE = -0.4

    def __init__(self, spec: MachineSpec):
        self.spec = spec
        self.phase = "swing"
        self.prev_swing_rate = 0.0

    def _target(self, state, h, truck_state, truck_spec, point):
        if truck_state is not None:
            return (truck_state.x, truck_state.y,
                    truck_state.z + self.RELEASE_HEIGHT)
        x, y = point
        z = h.height_at(x, y) if h.in_bounds(x, y) else state.z
        return (x, y, z + self.RELEASE_HEIGHT)

    def step(self, state: MachineState, h: Heightfield, soil: SoilParams,
             dt: float, truck_state: Optional[MachineState] = None,
             truck_spec: Optional[MachineSpec] = None, point=None):
        spec = self.spec
        target = self._target(state, h, truck_state, truck_spec, point)
        ik = calculate_ik(spec.arm, state.pose, target, self.DUMP_TOOL_ANGLE)
        if ik.residual > 0.5:
            record_arm_samples(state, spec, soil)
            return FAILED, 0.0, False, 0.0, 0.0
        err = move_arm_toward(state, spec, ik.joints, dt)
        swing_alpha = (state.swing_rate - self.prev_swing_rate) / dt \
            if dt > 0 else 0.0
        self.prev_swing_rate = state.swing_rate
        tip = bucket_tip(spec, state)
        spilled, spill_lost = spill_model(state, spec, swing_alpha, h, soil,
                                          dt, at=(tip[0], tip[1]))
        record_arm_samples(state, spec, soil, swing_alpha=swing_alpha)
        if err >= JOINT_SETTLED_TOL:
            return RUNNING, 0.0, False, spill_lost, spilled
        released, into_truck, lost = transfer_bucket(
            state, spec, truck_state, truck_spec, h, soil)
        return SUCCEEDED, released, into_truck, lost + spill_lost, spilled


class LevelRunExecution:
    """One leveling pass: drive from the run start to its end carrying the
    blade at the target height, then shed the blade load past the run end.

    Returns per step (status, graded_kg, shed_kg, lost_kg).
    """

    def __init__(self, spec: MachineSpec, start, end, target_height: float,
                 pid: Optional["Pid"] = None):
        self.spec = spec
        self.start = tuple(start)
        self.end = tuple(end)
        self.target_height = target_height
        self.pid = pid or Pid(3.0, 0.8, 0.0, out_limit=0.25)
        self.phase = "to_start"
        self.index = 0

    def step(self, state: MachineState, h: Heightfield, soil: SoilParams,
             dt: float):
        from .locomotion import ARRIVED, step_locomotion
        heading = math.atan2(self.end[1] - self.start[1],
                             self.end[0] - self.start[0])
        if self.phase == "to_start":
            status, self.index = step_locomotion(
                state, self.spec,
                [(self.start[0], self.start[1], heading)],
                self.index, h, soil, dt)
            state.set_sample("blade", 0.0, 0.0,
                             self.spec.torque_limits["blade"])
            if status == ARRIVED:
                self.phase = "run"
                self.index = 0
                state.blade_height = h.height_at(state.x, state.y)
                self.pid.reset()
            return RUNNING, 0.0, 0.0, 0.0
        if self.phase == "run":
            status, self.index = step_locomotion(
                state, self.spec, [(self.end[0], self.end[1], heading)],
                self.index, h, soil, dt)
            graded, shed, lost = blade_level_step(
                state, self.spec, self.target_height, h, soil, self.pid, dt)
            if status == ARRIVED:
                released, rel_lost = blade_release(state, h, soil)
                return SUCCEEDED, graded, shed + released, lost + rel_lost
            return RUNNING, graded, shed, lost
        return SUCCEEDED, 0.0, 0.0, 0.0


# -- blade leveling ---------------------------------------------------------

class Pid:
    """Discrete PID with clamped integral and symmetric output limit."""

    def __init__(self, kp: float, ki: float = 0.0, kd: float = 0.0,
                 out_limit: float = math.inf, integral_limit: float = math.inf):
        self.kp, self.ki, self.kd = kp, ki, kd
        self.out_limit = out_limit
        self.integral_limit = integral_limit
        self.reset()

    def reset(self):
        self.integral = 0.0
        self.prev_error = None

    def update(self, error: float, dt: float) -> float:
        deriv = 0.0 if self.prev_error is None or dt <= 0 \
            else (error - self.prev_error) / dt
        self.prev_error = error
        proposed = min(max(self.integral + error * dt,
                           -self.integral_limit), self.integral_limit)
        unsat = self.kp * error + self.ki * proposed + self.kd * deriv
        # conditional integration: freeze the integral while the output is
        # saturated in the error's direction (anti-windup)
        if not ((unsat > self.out_limit and error > 0)
                or (unsat < -self.out_limit and error < 0)):
            self.integral = proposed
        out = self.kp * error + self.ki * self.integral + self.kd * deriv
        return min(max(out, -self.out_limit), self.out_limit)


BLADE_ATTACK = 0.5        # rad, fixed blade rake for the resistance sample


def blade_level_step(state: MachineState, spec: MachineSpec,
                     target_height: float, h: Heightfield, soil: SoilParams,
                     pid: Pid, dt: float) -> tuple[float, float, float]:
    """Carry the blade at a PID-held height, cutting cells under it down to
    the blade edge.  Cut material accrues to the blade load; overflow past
    capacity is shed just ahead of the blade.

    Returns (graded_kg, shed_kg, boundary_lost_kg).
    """
    v_blade = pid.update(target_height - state.blade_height, dt)
    state.blade_height += v_blade * dt

    ch, sh = math.cos(state.heading), math.sin(state.heading)
    front = spec.length / 2.0 + 0.3
    bx, by = state.x + front * ch, state.y + front * sh
    half_w = spec.blade_width / 2.0
    half_l = max(abs(state.speed) * dt, h.cell_size)
    cs = h.cell_size
    area = cs * cs
    graded_volume = 0.0
    max_depth = 0.0
    # axis-aligned extent of the blade rectangle, padded by one cell
    ext_x = half_l * abs(ch) + half_w * abs(sh)
    ext_y = half_l * abs(sh) + half_w * abs(ch)
    i_lo = max(int((bx - ext_x - h.origin[0]) / cs) - 1, 0)
    i_hi = min(int((bx + ext_x - h.origin[0]) / cs) + 1, h.nx - 1)
    j_lo = max(int((by - ext_y - h.origin[1]) / cs) - 1, 0)
    j_hi = min(int((by + ext_y - h.origin[1]) / cs) + 1, h.ny - 1)
    for i in range(i_lo, i_hi + 1):
        for j in range(j_lo, j_hi + 1):
            cx, cy = h.cell_center(i, j)
            dx, dy = cx - bx, cy - by
            longi = dx * ch + dy * sh
            lat = -dx * sh + dy * ch
            if abs(longi) > half_l or abs(lat) > half_w:
                continue
            cut = h.elevation[i, j] - state.blade_height
            if cut > 0.0:
                h.elevation[i, j] = state.blade_height
                h.mark_dirty(i, j)
                graded_volume += cut * area
                max_depth = max(max_depth, cut)
    graded = graded_volume * soil.bank_density
    state.blade_load_kg += graded

    shed = lost = 0.0
    if state.blade_load_kg > spec.blade_capacity_kg:
        excess = state.blade_load_kg - spec.blade_capacity_kg
        state.blade_load_kg = spec.blade_capacity_kg
        sx, sy = bx + 0.8 * ch, by + 0.8 * sh
        if h.in_bounds(sx, sy):
            shed = excess
            lost = deposit(h, sx, sy, excess, soil, spread_radius=0.6)
        else:
            state.blade_load_kg += excess  # keep it on the blade instead

    if max_depth > 0.0:
        force = dig_resistance(min(max_depth, 0.4), spec.blade_width,
                               BLADE_ATTACK, soil)
        tau = force.resistance * 0.4 + state.blade_load_kg * soil.gravity * 0.3
    else:
        tau = state.blade_load_kg * soil.gravity * 0.3
    state.set_sample("blade", tau, abs(state.speed) / 0.4,
                     spec.torque_limits["blade"])
    return graded, shed, lost


def blade_release(state: MachineState, h: Heightfield, soil: SoilParams,
                  at=None) -> tuple[float, float]:
    """Shed the whole blade load at the given point (default: ahead of the
    machine).  Returns (released_kg, boundary_lost_kg)."""
    mass = state.blade_load_kg
    if mass <= 0.0:
        return 0.0, 0.0
    state.blade_load_kg = 0.0
    if at is None:
        front = 1.2
        at = (state.x + front * math.cos(state.heading),
              state.y + front * math.sin(state.heading))
    if h.in_bounds(at[0], at[1]):
        lost = deposit(h, at[0], at[1], mass, soil, spread_radius=0.8)
    else:
        lost = mass
    return mass, lost
