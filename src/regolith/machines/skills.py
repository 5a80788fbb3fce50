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
from . import locomotion
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
#: Steepest attack angle of a dig step's cut (rad).
_STEEPEST_CUT = math.pi / 2 - 0.06
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
    # The clamps are min/max written out: `b if b > a else a` is exactly
    # max(a, b) and `b if b < a else a` exactly min(a, b).
    joints = state.joints
    omegas = {}
    max_err = 0.0
    limit = spec.arm_joint_speed * dt
    for name in ("boom", "stick", "bucket"):
        err = targets[name] - joints[name]
        step = -limit if -limit > err else err
        step = limit if limit < step else step
        joints[name] += step
        omegas[name] = step / dt if dt > 0 else 0.0
        left = abs(targets[name] - joints[name])
        max_err = left if left > max_err else max_err

    err = targets["swing"] - joints["swing"]
    # velocity that can still brake to zero at the target
    brake = math.sqrt(2.0 * spec.swing_accel * abs(err))
    v_des = math.copysign(
        brake if brake < spec.arm_joint_speed else spec.arm_joint_speed, err)
    accel = spec.swing_accel * dt
    dv = v_des - state.swing_rate
    dv = -accel if -accel > dv else dv
    state.swing_rate += accel if accel < dv else dv
    step = state.swing_rate * dt
    if abs(err) <= abs(step) or abs(err) < 1e-6:
        joints["swing"] = targets["swing"]
        state.swing_rate = 0.0
        omegas["swing"] = err / dt if dt > 0 else 0.0
    else:
        joints["swing"] += step
        omegas["swing"] = state.swing_rate
    left = abs(targets["swing"] - joints["swing"])
    max_err = left if left > max_err else max_err
    state._arm_omegas = omegas  # consumed by record_arm_samples
    return max_err


def _tip_jacobian(geom, joints, base_pose):
    """The tip, as `forward_kinematics` gives it, and the numeric Jacobian
    d(tip)/d(joint) of the four arm joints as {joint: (dx, dy, dz)}.

    Each column is the forward difference of `forward_kinematics` with
    that joint bumped by 1e-6.  A bump leaves the chain terms before the
    bumped joint unchanged, so each bumped tip reuses them: one full pass
    and three partial ones, with every value bit-identical to five full
    passes for a finite tip.
    """
    eps = 1e-6
    cos, sin = math.cos, math.sin
    bx, by, bz, heading = base_pose
    swing, boom = joints["swing"], joints["boom"]
    stick, bucket = joints["stick"], joints["bucket"]
    l1, l2, l3 = geom.boom_length, geom.stick_length, geom.bucket_length
    # partial sums in forward_kinematics' order of addition
    t12 = boom + stick
    t123 = t12 + bucket
    radial1 = geom.pivot_forward + l1 * cos(boom)
    height1 = geom.pivot_up + l1 * sin(boom)
    radial2 = radial1 + l2 * cos(t12)
    height2 = height1 + l2 * sin(t12)
    radial = radial2 + l3 * cos(t123)
    height = height2 + l3 * sin(t123)
    azimuth = heading + swing
    ca, sa = cos(azimuth), sin(azimuth)
    x, y, z = bx + radial * ca, by + radial * sa, bz + height

    # swing: the planar chain, and so z, is unchanged
    az = heading + (swing + eps)
    col_swing = ((bx + radial * cos(az) - x) / eps,
                 (by + radial * sin(az) - y) / eps, 0.0)
    # boom: the whole planar chain moves
    t1 = boom + eps
    t12b = t1 + stick
    t123b = t12b + bucket
    r = (geom.pivot_forward + l1 * cos(t1) + l2 * cos(t12b)
         + l3 * cos(t123b))
    hb = geom.pivot_up + l1 * sin(t1) + l2 * sin(t12b) + l3 * sin(t123b)
    col_boom = ((bx + r * ca - x) / eps, (by + r * sa - y) / eps,
                (bz + hb - z) / eps)
    # stick: the boom term stays
    t12b = boom + (stick + eps)
    t123b = t12b + bucket
    r = radial1 + l2 * cos(t12b) + l3 * cos(t123b)
    hb = height1 + l2 * sin(t12b) + l3 * sin(t123b)
    col_stick = ((bx + r * ca - x) / eps, (by + r * sa - y) / eps,
                 (bz + hb - z) / eps)
    # bucket: the boom and stick terms stay
    t123b = t12 + (bucket + eps)
    r = radial2 + l3 * cos(t123b)
    hb = height2 + l3 * sin(t123b)
    col_bucket = ((bx + r * ca - x) / eps, (by + r * sa - y) / eps,
                  (bz + hb - z) / eps)
    return (x, y, z), {"swing": col_swing, "boom": col_boom,
                       "stick": col_stick, "bucket": col_bucket}


def record_arm_samples(state: MachineState, spec: MachineSpec,
                       soil: SoilParams, ext_force=(0.0, 0.0, 0.0),
                       swing_alpha: float = 0.0, kinematics=None) -> None:
    """Joint torque samples from static equilibrium via the Jacobian
    transpose: the arm must exert ``ext_force`` on the environment and hold
    the payload weight; the swing additionally carries an inertial term.

    ``kinematics`` is `_tip_jacobian`'s (tip, columns) for the state's
    current joints and pose, when the caller has it already."""
    tip, jac = kinematics or _tip_jacobian(spec.arm, state.joints,
                                           state.pose)
    load = state.payload_kg
    fx = ext_force[0]
    fy = ext_force[1]
    fz = ext_force[2] + load * soil.gravity
    omegas = getattr(state, "_arm_omegas", None) or \
        dict.fromkeys(_ARM_JOINTS, 0.0)
    r_tip = math.hypot(tip[0] - state.x, tip[1] - state.y)
    limits = spec.torque_limits
    for name in _ARM_JOINTS:
        jx, jy, jz = jac[name]
        tau = jx * fx + jy * fy + jz * fz
        if name == "swing":
            tau += (SWING_INERTIA + load * r_tip ** 2) * swing_alpha
        state.set_sample(name, tau, omegas.get(name, 0.0), limits[name])


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
        self.dig_speed = spec.dig_speed
        self.width = trajectory.width
        self.max_depth = trajectory.max_depth
        # the raise target: above the cut end, the bucket curled to hold
        # the load but no further than 0.1 rad inside its range
        xe, ye, ze, attack = trajectory.points[-1]
        curl = -attack - CARRY_CURL
        floor = spec.arm.joint_ranges["bucket"][0] + 0.1
        self.carry = (xe, ye, ze + CARRY_RAISE,
                      floor if floor > curl else curl)  # max(curl, floor)
        self.phase = "approach"
        self.s = 0.0
        self.prev_tip: Optional[tuple] = None
        self.removed_total = 0.0
        self.prev_swing_rate = 0.0

    def _point_at(self, s: float):
        pts = self.path
        s = 0.0 if 0.0 > s else s               # min(max(s, 0), length)
        s = self.length if self.length < s else s
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
        """One timestep; returns (status, removed_kg).

        The arm torque samples, the Jacobian and the dig force, which
        feeds only those samples, are computed on a sampling step alone.
        """
        spec = self.spec
        phase = self.phase
        if phase == "approach":
            x, y, z, attack = self.approach
            tgt_angle = -attack
        elif phase == "cut":
            self.s += self.dig_speed * dt
            x, y, z, attack = self._point_at(self.s)
            tgt_angle = -attack
        else:  # raise
            x, y, z, tgt_angle = self.carry

        ik = calculate_ik(spec.arm, state.pose, (x, y, z), tgt_angle)
        sampling = state.sampling
        if ik.residual > TRACK_IK_TOL:
            if sampling:
                record_arm_samples(state, spec, soil)
            return FAILED, 0.0
        err = move_arm_toward(state, spec, ik.joints, dt)
        if sampling:
            kin = _tip_jacobian(spec.arm, state.joints, state.pose)
            tip = kin[0]
        else:
            tip = bucket_tip(spec, state)
        swing_alpha = (state.swing_rate - self.prev_swing_rate) / dt \
            if dt > 0 else 0.0
        self.prev_swing_rate = state.swing_rate

        removed = 0.0
        if phase == "approach":
            if sampling:
                record_arm_samples(state, spec, soil,
                                   swing_alpha=swing_alpha, kinematics=kin)
            if err < JOINT_SETTLED_TOL:
                self.phase = "cut"
                self.prev_tip = tip
            return RUNNING, 0.0

        if phase == "cut":
            prev = self.prev_tip or tip
            advance = math.hypot(tip[0] - prev[0], tip[1] - prev[1])
            # min(max(attack, 0.06), steepest), as the builtins evaluate it
            attack_c = 0.06 if 0.06 > attack else attack
            attack_c = _STEEPEST_CUT if _STEEPEST_CUT < attack_c else attack_c
            if sampling:
                # the depth under the tip before this step's cut
                depth = h.height_at(tip[0], tip[1]) - tip[2]
                depth = depth if depth > 0.0 else 0.0   # max(0.0, depth)
                force = dig_resistance(depth, self.width, attack_c, soil)
            if advance > 1e-9:
                step_cut = SweptCut(
                    points=[(prev[0], prev[1], prev[2], attack_c),
                            (tip[0], tip[1], tip[2], attack_c)],
                    width=self.width, max_depth=self.max_depth)
                removed = excavate_swept(h, step_cut, soil)
                state.payload_kg += removed
                self.removed_total += removed
                self.prev_tip = tip
            if sampling:
                # resistance opposes the horizontal tip motion
                if advance > 1e-9:
                    ux = (tip[0] - prev[0]) / advance
                    uy = (tip[1] - prev[1]) / advance
                else:
                    ux = uy = 0.0
                ext = (force.resistance * ux, force.resistance * uy,
                       -force.normal)
                record_arm_samples(state, spec, soil, ext_force=ext,
                                   swing_alpha=swing_alpha, kinematics=kin)
            if self.s >= self.length and err < JOINT_SETTLED_TOL:
                self.phase = "raise"
            return RUNNING, removed

        if sampling:
            record_arm_samples(state, spec, soil, swing_alpha=swing_alpha,
                               kinematics=kin)
        if err < JOINT_SETTLED_TOL:
            return SUCCEEDED, 0.0
        return RUNNING, 0.0


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
            if state.sampling:
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
            if state.sampling:
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
            if h.in_cells(nx, ny):
                state.x, state.y = nx, ny
                settle_on_terrain(state, h)
            self.advanced += step
            dumped, lost = self._flow(state, h, soil, dt)
            if self.advanced >= self.ADVANCE_DIST - 1e-9:
                self.phase = "lower"
        else:  # lower
            state.bed_angle = max(state.bed_angle - rate * dt, 0.0)
            if state.sampling:
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
        sampling = state.sampling
        if ik.residual > 0.5:
            if sampling:
                record_arm_samples(state, spec, soil)
            return FAILED, 0.0, False, 0.0, 0.0
        err = move_arm_toward(state, spec, ik.joints, dt)
        swing_alpha = (state.swing_rate - self.prev_swing_rate) / dt \
            if dt > 0 else 0.0
        self.prev_swing_rate = state.swing_rate
        if sampling:
            kin = _tip_jacobian(spec.arm, state.joints, state.pose)
            tip = kin[0]
        else:
            tip = bucket_tip(spec, state)
        spilled, spill_lost = spill_model(state, spec, swing_alpha, h, soil,
                                          dt, at=(tip[0], tip[1]))
        if sampling:
            record_arm_samples(state, spec, soil, swing_alpha=swing_alpha,
                               kinematics=kin)
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
        heading = math.atan2(self.end[1] - self.start[1],
                             self.end[0] - self.start[0])
        #: one-waypoint routes to the run start and along the run
        self.start_route = [(self.start[0], self.start[1], heading)]
        self.run_route = [(self.end[0], self.end[1], heading)]

    def step(self, state: MachineState, h: Heightfield, soil: SoilParams,
             dt: float):
        # step_locomotion is looked up on its module at each call, so a
        # wrapper installed there (the benchmark's tracer) sees these steps
        if self.phase == "to_start":
            status, self.index = locomotion.step_locomotion(
                state, self.spec, self.start_route, self.index, h, soil, dt)
            if state.sampling:
                state.set_sample("blade", 0.0, 0.0,
                                 self.spec.torque_limits["blade"])
            if status == locomotion.ARRIVED:
                self.phase = "run"
                self.index = 0
                state.blade_height = h.height_at(state.x, state.y)
                self.pid.reset()
            return RUNNING, 0.0, 0.0, 0.0
        if self.phase == "run":
            status, self.index = locomotion.step_locomotion(
                state, self.spec, self.run_route, self.index, h, soil, dt)
            graded, shed, lost = blade_level_step(
                state, self.spec, self.target_height, h, soil, self.pid, dt)
            if status == locomotion.ARRIVED:
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
        # min(max(v, -limit), limit) as the builtins evaluate it
        limit = self.integral_limit
        proposed = self.integral + error * dt
        proposed = -limit if -limit > proposed else proposed
        proposed = limit if limit < proposed else proposed
        unsat = self.kp * error + self.ki * proposed + self.kd * deriv
        # conditional integration: freeze the integral while the output is
        # saturated in the error's direction (anti-windup)
        if not ((unsat > self.out_limit and error > 0)
                or (unsat < -self.out_limit and error < 0)):
            self.integral = proposed
        out = self.kp * error + self.ki * self.integral + self.kd * deriv
        limit = self.out_limit
        out = -limit if -limit > out else out
        return limit if limit < out else out


BLADE_ATTACK = 0.5        # rad, fixed blade rake for the resistance sample


def blade_level_step(state: MachineState, spec: MachineSpec,
                     target_height: float, h: Heightfield, soil: SoilParams,
                     pid: Pid, dt: float) -> tuple[float, float, float]:
    """Carry the blade at a PID-held height, cutting cells under it down to
    the blade edge.  Cut material accrues to the blade load; overflow past
    capacity is shed just ahead of the blade.

    Returns (graded_kg, shed_kg, boundary_lost_kg).  The blade torque
    sample, and the dig force behind it, are set on a sampling step alone.
    """
    v_blade = pid.update(target_height - state.blade_height, dt)
    blade_height = state.blade_height = state.blade_height + v_blade * dt

    ch, sh = math.cos(state.heading), math.sin(state.heading)
    front = spec.length / 2.0 + 0.3
    bx, by = state.x + front * ch, state.y + front * sh
    half_w = spec.blade_width / 2.0
    cs = h.cell_size
    speed_step = abs(state.speed) * dt
    half_l = cs if cs > speed_step else speed_step   # max(|v|*dt, cs)
    area = cs * cs
    ox, oy = h.origin
    elevation = h.elevation
    e = elevation.item
    dirty = h.dirty
    graded_volume = 0.0
    max_depth = 0.0
    # axis-aligned extent of the blade rectangle, padded by one cell
    ext_x = half_l * abs(ch) + half_w * abs(sh)
    ext_y = half_l * abs(sh) + half_w * abs(ch)
    i_lo = max(int((bx - ext_x - ox) / cs) - 1, 0)
    i_hi = min(int((bx + ext_x - ox) / cs) + 1, h.nx - 1)
    j_lo = max(int((by - ext_y - oy) / cs) - 1, 0)
    j_hi = min(int((by + ext_y - oy) / cs) + 1, h.ny - 1)
    # The cell centers that pass the rectangle test lie within ext_x of bx,
    # and in each row within one y interval: the intersection of
    # |longi| <= half_l and |lat| <= half_w over dy = cy - by.  These
    # bound the rows and columns visited, widened by a millionth of a cell
    # against rounding; the test itself is unchanged.  A constraint whose
    # dy coefficient is below 1e-3 is left out.
    pad = 1e-6
    row_lo = math.ceil((bx - ext_x - ox) / cs - 0.5 - pad)
    row_hi = math.floor((bx + ext_x - ox) / cs - 0.5 + pad)
    use_l = abs(sh) > 1e-3
    use_w = abs(ch) > 1e-3
    band_l = half_l / abs(sh) if use_l else 0.0
    band_w = half_w / abs(ch) if use_w else 0.0
    y0 = by - oy - 0.5 * cs             # dy = j * cs - y0
    for i in range(row_lo if row_lo > i_lo else i_lo,
                   (row_hi if row_hi < i_hi else i_hi) + 1):
        dx = ox + (i + 0.5) * cs - bx
        lo, hi = float(j_lo), float(j_hi)
        if use_l:
            mid = -dx * ch / sh
            lo_l = (mid - band_l + y0) / cs - pad
            hi_l = (mid + band_l + y0) / cs + pad
            lo = lo_l if lo_l > lo else lo
            hi = hi_l if hi_l < hi else hi
        if use_w:
            mid = dx * sh / ch
            lo_w = (mid - band_w + y0) / cs - pad
            hi_w = (mid + band_w + y0) / cs + pad
            lo = lo_w if lo_w > lo else lo
            hi = hi_w if hi_w < hi else hi
        if lo > hi:
            continue
        for j in range(math.ceil(lo), math.floor(hi) + 1):
            dy = oy + (j + 0.5) * cs - by
            longi = dx * ch + dy * sh
            lat = -dx * sh + dy * ch
            if abs(longi) > half_l or abs(lat) > half_w:
                continue
            cut = e(i, j) - blade_height
            if cut > 0.0:
                elevation[i, j] = blade_height
                dirty.add((i, j))
                graded_volume += cut * area
                max_depth = cut if cut > max_depth else max_depth
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

    if state.sampling:
        if max_depth > 0.0:
            force = dig_resistance(min(max_depth, 0.4), spec.blade_width,
                                   BLADE_ATTACK, soil)
            tau = force.resistance * 0.4 \
                + state.blade_load_kg * soil.gravity * 0.3
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
