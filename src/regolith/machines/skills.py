"""Machine skill executions: drive, dig, arm dump, bed dump, level.

Every skill has one contract.  An execution is built from its skill
command's arguments and advanced once per simulator timestep by
`step(state, h, soil, dt)`, which returns

    (status, excavated_kg, dumped_kg, spilled_kg, lost_kg)

the status Running, Succeeded or Failed, and the mass the step moved in
the four columns of the simulator's mass ledger: removed from the terrain,
released at an offload destination, shed in transit, and gone off the
grid (a part of the other three).  When it ends, the execution sets
`result`, the payload of its terminal status:

- drive: `spilled_kg`;
- dig: `loaded_kg`;
- dump: `dumped_kg`, `into_truck` and `spilled_kg` (on Failed,
  `spilled_kg` alone);
- beddump: `dumped_kg` and `spilled_kg`;
- level: `graded_kg`.
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
#: Joint rates of an arm that did not move this step (rad/s).
_ARM_STILL = dict.fromkeys(_ARM_JOINTS, 0.0)


class _LastIk:
    """`calculate_ik` for one arm, solved again only when the input
    differs from the last one.  An arm skill asks for the same solve step
    after step while neither the machine nor its target moves: the dig's
    approach and raise, and a dump over a parked truck.  The solve reads
    no other state.  Inputs compare as floats, so 0.0 would match -0.0;
    the equal inputs of consecutive steps come from unchanged state, and
    are the same bits."""

    __slots__ = ("geom", "key", "result")

    def __init__(self, geom):
        self.geom = geom
        self.key = None
        self.result = None

    def __call__(self, pose: tuple, target: tuple, angle: float):
        key = (pose, target, angle)
        if key != self.key:
            self.key = key
            self.result = calculate_ik(self.geom, pose, target, angle)
        return self.result


# -- arm motion and torque bookkeeping --------------------------------------

def move_arm_toward(state: MachineState, spec: MachineSpec, targets: dict,
                    dt: float) -> tuple[float, dict]:
    """Rate-limited joint motion (trapezoidal accel profile on the swing).

    Returns the largest remaining joint error (rad) and the rate each
    joint moved at this step (rad/s).
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
    return max_err, omegas


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
                       soil: SoilParams, omegas: dict,
                       ext_force=(0.0, 0.0, 0.0), swing_alpha: float = 0.0,
                       kinematics=None) -> None:
    """Joint torque samples from static equilibrium via the Jacobian
    transpose: the arm must exert ``ext_force`` on the environment and hold
    the payload weight; the swing additionally carries an inertial term.
    ``omegas`` are the joint rates of this step, as `move_arm_toward`
    returns them.

    ``kinematics`` is `_tip_jacobian`'s (tip, columns) for the state's
    current joints and pose, when the caller has it already."""
    tip, jac = kinematics or _tip_jacobian(spec.arm, state.joints,
                                           state.pose)
    load = state.payload_kg
    fx = ext_force[0]
    fy = ext_force[1]
    fz = ext_force[2] + load * soil.gravity
    r_tip = math.hypot(tip[0] - state.x, tip[1] - state.y)
    limits = spec.torque_limits
    for name in _ARM_JOINTS:
        jx, jy, jz = jac[name]
        tau = jx * fx + jy * fy + jz * fz
        if name == "swing":
            tau += (SWING_INERTIA + load * r_tip ** 2) * swing_alpha
        state.set_sample(name, tau, omegas[name], limits[name])


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
        self.ik = _LastIk(spec.arm)
        self.result: Optional[dict] = None

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
        """One timestep; the excavated mass is what the bucket took.

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

        ik = self.ik(state.pose, (x, y, z), tgt_angle)
        sampling = state.sampling
        if ik.residual > TRACK_IK_TOL:
            if sampling:
                record_arm_samples(state, spec, soil, _ARM_STILL)
            self.result = {"loaded_kg": self.removed_total}
            return FAILED, 0.0, 0.0, 0.0, 0.0
        err, omegas = move_arm_toward(state, spec, ik.joints, dt)
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
                record_arm_samples(state, spec, soil, omegas,
                                   swing_alpha=swing_alpha, kinematics=kin)
            if err < JOINT_SETTLED_TOL:
                self.phase = "cut"
                self.prev_tip = tip
            return RUNNING, 0.0, 0.0, 0.0, 0.0

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
                record_arm_samples(state, spec, soil, omegas, ext_force=ext,
                                   swing_alpha=swing_alpha, kinematics=kin)
            if self.s >= self.length and err < JOINT_SETTLED_TOL:
                self.phase = "raise"
            return RUNNING, removed, 0.0, 0.0, 0.0

        if sampling:
            record_arm_samples(state, spec, soil, omegas,
                               swing_alpha=swing_alpha, kinematics=kin)
        if err < JOINT_SETTLED_TOL:
            self.result = {"loaded_kg": self.removed_total}
            return SUCCEEDED, 0.0, 0.0, 0.0, 0.0
        return RUNNING, 0.0, 0.0, 0.0, 0.0


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


# -- driving ----------------------------------------------------------------

class DriveExecution:
    """Follows a waypoint route; a loaded machine spills when its chassis
    yaw rate changes too fast."""

    def __init__(self, spec: MachineSpec, waypoints):
        self.spec = spec
        self.waypoints = [tuple(w) for w in waypoints]
        self.index = 0
        self.spilled_total = 0.0
        self.result: Optional[dict] = None

    def step(self, state: MachineState, h: Heightfield, soil: SoilParams,
             dt: float):
        turn_rate = state.turn_rate
        # looked up on its module at each call, as in LevelRunExecution
        status, self.index = locomotion.step_locomotion(
            state, self.spec, self.waypoints, self.index, h, soil, dt)
        spilled = lost = 0.0
        # spill_model returns zeros for a machine that carries nothing
        if not state.payload_kg <= 0.0:
            alpha = (state.turn_rate - turn_rate) / dt if dt > 0 else 0.0
            spilled, lost = spill_model(state, self.spec, alpha, h, soil, dt)
            self.spilled_total += spilled
        if status == locomotion.RUNNING:
            return RUNNING, 0.0, 0.0, spilled, lost
        self.result = {"spilled_kg": self.spilled_total}
        return SUCCEEDED, 0.0, 0.0, spilled, lost


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
        self.dumped_total = 0.0
        self.result: Optional[dict] = None

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
        self.dumped_total += out
        x, y = self._dump_point(state)
        if h.in_bounds(x, y):
            lost = deposit(h, x, y, out, soil, spread_radius=0.6)
        else:
            lost = out
        return out, lost

    def step(self, state: MachineState, h: Heightfield, soil: SoilParams,
             dt: float):
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
                self.result = {"dumped_kg": self.dumped_total,
                               "spilled_kg": 0.0}
                return SUCCEEDED, 0.0, dumped, 0.0, lost
        return RUNNING, 0.0, dumped, 0.0, lost


class ArmDumpExecution:
    """Swing the loaded bucket over the offload point and release.

    The offload point is the bed center of ``truck``, a truck's (spec,
    state), tracked live, or else the fixed terrain ``point`` (x, y).  A
    load placed in a truck bed is still payload, so only a release onto
    the terrain counts as dumped.
    """

    RELEASE_HEIGHT = 1.0   # m above the bed / ground
    DUMP_TOOL_ANGLE = -0.4

    def __init__(self, spec: MachineSpec, truck: Optional[tuple], point):
        if not (truck or point):
            raise ValueError("dump needs a truck or a point")
        self.spec = spec
        self.truck_spec, self.truck_state = truck or (None, None)
        self.point = tuple(point) if point else None
        self.prev_swing_rate = 0.0
        self.spilled_total = 0.0
        self.ik = _LastIk(spec.arm)
        self.result: Optional[dict] = None

    def _target(self, state, h):
        truck_state = self.truck_state
        if truck_state is not None:
            return (truck_state.x, truck_state.y,
                    truck_state.z + self.RELEASE_HEIGHT)
        x, y = self.point
        z = h.height_at(x, y) if h.in_bounds(x, y) else state.z
        return (x, y, z + self.RELEASE_HEIGHT)

    def step(self, state: MachineState, h: Heightfield, soil: SoilParams,
             dt: float):
        spec = self.spec
        target = self._target(state, h)
        ik = self.ik(state.pose, target, self.DUMP_TOOL_ANGLE)
        sampling = state.sampling
        if ik.residual > 0.5:
            if sampling:
                record_arm_samples(state, spec, soil, _ARM_STILL)
            self.result = {"spilled_kg": self.spilled_total}
            return FAILED, 0.0, 0.0, 0.0, 0.0
        err, omegas = move_arm_toward(state, spec, ik.joints, dt)
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
        self.spilled_total += spilled
        if sampling:
            record_arm_samples(state, spec, soil, omegas,
                               swing_alpha=swing_alpha, kinematics=kin)
        if err >= JOINT_SETTLED_TOL:
            return RUNNING, 0.0, 0.0, spilled, spill_lost
        released, into_truck, lost = transfer_bucket(
            state, spec, self.truck_state, self.truck_spec, h, soil)
        self.result = {"dumped_kg": released, "into_truck": into_truck,
                       "spilled_kg": self.spilled_total}
        return (SUCCEEDED, 0.0, 0.0 if into_truck else released, spilled,
                lost + spill_lost)


class LevelRunExecution:
    """One leveling pass: drive from the run start to its end carrying the
    blade at the target height, then shed the blade load past the run end.
    The graded mass counts as excavated and the shed mass as dumped.
    """

    def __init__(self, spec: MachineSpec, start, end, target_height: float):
        self.spec = spec
        self.start = tuple(start)
        self.end = tuple(end)
        self.target_height = target_height
        self.pid = Pid(3.0, 0.8, out_limit=0.25)
        self.phase = "to_start"
        self.index = 0
        heading = math.atan2(self.end[1] - self.start[1],
                             self.end[0] - self.start[0])
        #: one-waypoint routes to the run start and along the run
        self.start_route = [(self.start[0], self.start[1], heading)]
        self.run_route = [(self.end[0], self.end[1], heading)]
        self.graded_total = 0.0
        self.result: Optional[dict] = None

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
            return RUNNING, 0.0, 0.0, 0.0, 0.0
        status, self.index = locomotion.step_locomotion(
            state, self.spec, self.run_route, self.index, h, soil, dt)
        graded, shed, lost = blade_level_step(
            state, self.spec, self.target_height, h, soil, self.pid, dt)
        self.graded_total += graded
        if status == locomotion.ARRIVED:
            released, rel_lost = blade_release(state, h, soil)
            self.result = {"graded_kg": self.graded_total}
            return SUCCEEDED, graded, shed + released, 0.0, lost + rel_lost
        return RUNNING, graded, shed, 0.0, lost


# -- blade leveling ---------------------------------------------------------

class Pid:
    """Discrete PI controller with a symmetric output limit."""

    def __init__(self, kp: float, ki: float, out_limit: float):
        self.kp, self.ki = kp, ki
        self.out_limit = out_limit
        self.reset()

    def reset(self):
        self.integral = 0.0

    def update(self, error: float, dt: float) -> float:
        proposed = self.integral + error * dt
        unsat = self.kp * error + self.ki * proposed
        # conditional integration: freeze the integral while the output is
        # saturated in the error's direction (anti-windup)
        if not ((unsat > self.out_limit and error > 0)
                or (unsat < -self.out_limit and error < 0)):
            self.integral = proposed
        out = self.kp * error + self.ki * self.integral
        # min(max(out, -limit), limit) as the builtins evaluate it
        limit = self.out_limit
        out = -limit if -limit > out else out
        return limit if limit < out else out


BLADE_ATTACK = 0.5        # rad, fixed blade rake for the resistance sample


def blade_level_step(state: MachineState, spec: MachineSpec,
                     target_height: float, h: Heightfield, soil: SoilParams,
                     pid: Pid, dt: float) -> tuple[float, float, float]:
    """Carry the blade at a PI-held height, cutting cells under it down to
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
    rows = h.elevation
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
        row = rows[i]
        for j in range(math.ceil(lo), math.floor(hi) + 1):
            dy = oy + (j + 0.5) * cs - by
            longi = dx * ch + dy * sh
            lat = -dx * sh + dy * ch
            if abs(longi) > half_l or abs(lat) > half_w:
                continue
            cut = row[j] - blade_height
            if cut > 0.0:
                row[j] = blade_height
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


def blade_release(state: MachineState, h: Heightfield,
                  soil: SoilParams) -> tuple[float, float]:
    """Shed the whole blade load 1.2 m ahead of the machine.  Returns
    (released_kg, boundary_lost_kg)."""
    mass = state.blade_load_kg
    if mass <= 0.0:
        return 0.0, 0.0
    state.blade_load_kg = 0.0
    x = state.x + 1.2 * math.cos(state.heading)
    y = state.y + 1.2 * math.sin(state.heading)
    if h.in_bounds(x, y):
        lost = deposit(h, x, y, mass, soil, spread_radius=0.8)
    else:
        lost = mass
    return mass, lost
